//! Experiment E4: **Table II, Monte-Carlo** — estimate every Table II cell
//! by direct fault sampling (no algebra) and compare against formula (8)
//! and the paper's printed values.
//!
//! ```text
//! cargo run --release -p rgb-bench --bin table2_mc [trials]
//! ```

use rgb_analysis::montecarlo::estimate_hierarchy_fw;
use rgb_analysis::reliability::table_ii;
use rgb_analysis::tables::{pct3, render};
use rgb_bench::cli;

fn main() {
    let mut args = std::env::args().skip(1);
    let trials: u64 = args.next().map_or(300_000, |t| cli::parse(&t, "trials"));
    if let Some(extra) = args.next() {
        cli::usage_error(format_args!("unexpected argument {extra}"));
    }
    println!("Table II (Monte-Carlo, {trials} trials per cell)\n");
    let mut rows = Vec::new();
    for row in table_ii() {
        let (h, r) = if row.n == 125 { (3, 5) } else { (3, 10) };
        let est = estimate_hierarchy_fw(h, r, row.f, row.k, trials, 0xFEED + row.k as u64);
        let (lo, hi) = est.ci95();
        rows.push(vec![
            row.n.to_string(),
            format!("{:.1}", row.f * 100.0),
            row.k.to_string(),
            format!("{:.3}", row.paper_pct),
            pct3(row.fw),
            pct3(est.p_hat),
            format!("[{}, {}]", pct3(lo), pct3(hi)),
            if est.consistent_with(row.fw) { "yes".into() } else { "NO".into() },
        ]);
    }
    println!(
        "{}",
        render(
            &["n", "f(%)", "k", "paper", "formula(8)", "MC fw(%)", "MC 95% CI", "MC~formula"],
            &rows
        )
    );
    println!("\nThe sampler implements the §5.2 rules directly (a ring with >=2");
    println!("faults does not function well; <k bad rings = Function-Well), so");
    println!("agreement with formula (8) validates both the formula and the code.");
}
