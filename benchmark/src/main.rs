//! The RGB benchmark: one command, two workloads, the sharded simulator
//! and the live reactor.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <churn_par2|live_mixed> --seed <n> \
//!     [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Run from the repository root. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` runs the traced variant, prints the per-layer
//! metrics and writes the spans and the cost ledger to
//! `benchmark/out/trace-<workload>-seed<n>.json`. The last line of
//! standard output is the JSON result. The exit code is non-zero when a
//! correctness check fails or the arguments are wrong. See
//! `benchmark/README.md` for what every metric means.

mod catalog;
mod cli;
mod layers;
mod livewl;
mod procfs;
mod report;
mod simwl;
mod stats;
mod trace;

use cli::Workload;
use report::{json_str, result_line, Stamp};
use simwl::Outcome;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let stamp = Stamp::collect();
    println!(
        "# workload {} seed {} trace {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    println!("# stamp {}", stamp.json());

    let outcome = if args.trace {
        let mut tracer = trace::Tracer::default();
        let (outcome, mut extra) = match args.workload {
            Workload::ChurnPar2 => simwl::run_traced(args.seed, &mut tracer),
            Workload::LiveMixed => livewl::run_traced(args.seed, &mut tracer),
        };
        extra.insert(0, ("stamp".into(), stamp.json()));
        extra.insert(0, ("workload".into(), json_str(args.workload.name())));
        extra.insert(1, ("seed".into(), args.seed.to_string()));
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-seed{}.json", args.workload.name(), args.seed));
        match std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, tracer.json(&extra)))
        {
            Ok(()) => println!("# trace and ledger written to {}", path.display()),
            Err(e) => println!("# could not write {}: {e}", path.display()),
        }
        outcome
    } else {
        match args.workload {
            Workload::ChurnPar2 => simwl::run(args.seed, args.seconds),
            Workload::LiveMixed => livewl::run(args.seed, args.seconds),
        }
    };
    finish(outcome)
}

fn finish(outcome: Outcome) -> ExitCode {
    let Outcome { report, correct, attempted, failed } = outcome;
    for note in &report.notes {
        println!("# {note}");
    }
    for m in &report.metrics {
        println!("{:<32} {:>16} {}", m.name, format!("{:.6}", m.value), m.unit);
    }
    println!("{}", result_line(correct, attempted, failed, &report.metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: a correctness check failed (see the CHECK FAILED lines above)");
        ExitCode::from(1)
    }
}
