//! Engine throughput benchmark: three macro scenarios driven through the
//! simulator's public stepping API, reporting **events/sec**, wall time
//! and peak queued events per scenario, written as `BENCH_sim.json` so the
//! perf trajectory of the hot path is tracked across PRs.
//!
//! ```text
//! cargo run --release -p rgb-bench --bin bench_engine -- \
//!     [--quick] [--out BENCH_sim.json] [--baseline FILE] [--check]
//! ```
//!
//! - `--quick` shrinks every scenario by ~10× (CI-sized run).
//! - `--baseline FILE` reads a previously committed `BENCH_sim.json`-shaped
//!   file and embeds per-scenario `baseline_events_per_sec` / `speedup`
//!   fields in the output.
//! - `--check` exits non-zero if any scenario's events/sec drops more than
//!   30% below the baseline (the CI regression gate).
//!
//! The three scenarios cover the three hot-path regimes: a dense
//! full-hierarchy **join storm** (on-demand tokens, burst traffic), a lossy
//! **continuous-token churn** run (periodic timers re-arming forever), and
//! a long **reliability** run (heartbeats + crashes + repair).

use rgb_bench::cli;
use rgb_core::prelude::*;
use rgb_sim::fault::bernoulli_crashes;
use rgb_sim::sim::Simulation;
use rgb_sim::{ChurnParams, NetConfig, Scenario};
use std::fmt::Write as _;
use std::time::Instant;

/// One measured scenario run.
#[derive(Debug, Clone)]
struct Measurement {
    name: &'static str,
    events: u64,
    wall_ms: f64,
    events_per_sec: f64,
    peak_queue: usize,
}

/// Drive `sim` until `deadline`, counting processed events and tracking the
/// peak queue length. Uses the public stepping API only, so the same loop
/// measures any engine generation.
fn drive_until(sim: &mut Simulation, deadline: u64) -> (u64, usize) {
    let mut events = 0u64;
    let mut peak = 0usize;
    while sim.peek_at().is_some_and(|t| t <= deadline) {
        sim.step();
        events += 1;
        let len = sim.queue_len();
        if len > peak {
            peak = len;
        }
    }
    (events, peak)
}

/// Drive `sim` to full quiescence (bounded by `budget` events).
fn drive_until_quiet(sim: &mut Simulation, budget: u64) -> (u64, usize) {
    let mut events = 0u64;
    let mut peak = 0usize;
    while events < budget && sim.step() {
        events += 1;
        let len = sim.queue_len();
        if len > peak {
            peak = len;
        }
    }
    (events, peak)
}

fn measure(name: &'static str, events: u64, peak: usize, start: Instant) -> Measurement {
    let wall = start.elapsed();
    let wall_ms = wall.as_secs_f64() * 1e3;
    let events_per_sec = events as f64 / wall.as_secs_f64().max(1e-9);
    Measurement { name, events, wall_ms, events_per_sec, peak_queue: peak }
}

/// Scenario 1 — dense full-hierarchy join storm: one join per access proxy
/// of a (h=3, r=5) hierarchy (125 APs, 155 NEs), staggered one tick apart,
/// on-demand tokens, default latency bands. Burst-heavy send path.
fn join_storm(quick: bool) -> Measurement {
    // Even quick mode runs several reps: a single storm is only ~4.5k
    // events (<10 ms), too noisy for the CI regression gate.
    let reps = if quick { 3 } else { 8 };
    let mut total_events = 0u64;
    let mut peak = 0usize;
    let start = Instant::now();
    for rep in 0..reps {
        let mut scenario =
            Scenario::new("join storm", 3, 5).with_seed(0xA11CE + rep).with_duration(1_000_000);
        let aps = scenario.layout().aps();
        for (i, &ap) in aps.iter().enumerate() {
            scenario = scenario.join(i as u64, ap, Guid(i as u64), Luid(1));
        }
        let mut sim = scenario.build_sim();
        let (events, p) = drive_until_quiet(&mut sim, 500_000_000);
        total_events += events;
        peak = peak.max(p);
    }
    measure("join_storm", total_events, peak, start)
}

/// Scenario 2 — lossy continuous-token churn: (h=2, r=4) hierarchy under
/// the continuous policy with fast tokens, 2% loss and Poisson churn.
/// Periodic timers re-arm on every round; the regime where stale timer
/// entries used to pile up.
fn token_churn(quick: bool) -> Measurement {
    let duration: u64 = if quick { 30_000 } else { 300_000 };
    let mut cfg = ProtocolConfig::live();
    cfg.token_interval = 10;
    cfg.token_retransmit_timeout = 30;
    cfg.heartbeat_interval = 200;
    cfg.token_lost_timeout = 500;
    let mut net = NetConfig::unit();
    net.loss = 0.02;
    let scenario = Scenario::new("token churn", 2, 4)
        .with_cfg(cfg)
        .with_net(net)
        .with_seed(0xC0FFEE)
        .with_duration(duration)
        .with_churn(ChurnParams {
            initial_members: 32,
            mean_join_interval: 400.0,
            mean_lifetime: 5_000.0,
            failure_fraction: 0.2,
            duration,
        });
    let mut sim = scenario.build_sim();
    let start = Instant::now();
    let (events, peak) = drive_until(&mut sim, duration);
    measure("token_churn", events, peak, start)
}

/// Scenario 3 — long reliability run: populated (h=3, r=3) hierarchy with
/// heartbeats, Bernoulli NE crashes mid-run, local repair and
/// re-attachment. Timer- and heartbeat-dominated steady state.
fn reliability(quick: bool) -> Measurement {
    let duration: u64 = if quick { 40_000 } else { 400_000 };
    let mut cfg = ProtocolConfig::live();
    cfg.token_interval = 25;
    cfg.token_retransmit_timeout = 75;
    cfg.token_lost_timeout = 600;
    cfg.heartbeat_interval = 120;
    cfg.parent_timeout = 600;
    cfg.child_timeout = 600;
    let mut scenario = Scenario::new("reliability", 3, 3)
        .with_cfg(cfg)
        .with_seed(0x5EED)
        .with_duration(duration)
        // Long run: bound the app-event log (throughput is the measurement,
        // not delivery history).
        .with_delivered_cap(256);
    let layout = scenario.layout();
    for (i, &ap) in layout.aps().iter().enumerate() {
        scenario = scenario.join(i as u64, ap, Guid(i as u64), Luid(1));
    }
    let crashes = bernoulli_crashes(&layout, 0.08, (5_000, 8_000), 0x5EED ^ 0x9e37_79b9);
    let scenario = scenario.with_crashes(crashes);
    let mut sim = scenario.build_sim();
    let start = Instant::now();
    let (events, peak) = drive_until(&mut sim, duration);
    measure("reliability", events, peak, start)
}

/// Engine-independent CPU calibration score (higher = faster machine).
///
/// The regression gate compares events/sec against a *committed* baseline
/// that was measured on different hardware; dividing both sides by their
/// machine's calibration score turns the comparison into a
/// hardware-normalised ratio, so the 30% threshold gates engine
/// regressions instead of runner speed. The workload is deliberately
/// *not* the simulator (an engine slowdown must not cancel out of the
/// ratio): a fixed SplitMix64-style arithmetic + memory-walk loop.
fn calibration_score() -> f64 {
    let mut table = vec![0u64; 1 << 16];
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    let iters = 40_000_000u64;
    let start = Instant::now();
    for _ in 0..iters {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let slot = (z as usize) & (table.len() - 1);
        acc = acc.wrapping_add(std::mem::replace(&mut table[slot], z));
    }
    std::hint::black_box(acc);
    iters as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// Extract `"<key>": <f64>` for the line containing `needle` from a
/// baseline JSON file written by this binary (line-oriented: one scenario
/// object per line).
fn json_field(baseline: &str, needle: &str, key: &str) -> Option<f64> {
    let key = format!("\"{key}\": ");
    for line in baseline.lines() {
        if line.contains(needle) {
            let at = line.find(&key)? + key.len();
            let rest = &line[at..];
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            return rest[..end].trim().parse().ok();
        }
    }
    None
}

/// `events_per_sec` recorded for scenario `name` in a baseline file.
fn baseline_eps(baseline: &str, name: &str) -> Option<f64> {
    json_field(baseline, &format!("\"name\": \"{name}\""), "events_per_sec")
}

fn render_json(quick: bool, score: f64, runs: &[(Measurement, Option<f64>)]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"rgb-bench/engine-v1\",");
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"calibration_score\": {score:.0},");
    out.push_str("  \"scenarios\": [\n");
    for (i, (m, base)) in runs.iter().enumerate() {
        let _ = write!(
            out,
            "    {{ \"name\": \"{}\", \"events\": {}, \"wall_ms\": {:.1}, \
             \"events_per_sec\": {:.0}, \"peak_queue\": {}",
            m.name, m.events, m.wall_ms, m.events_per_sec, m.peak_queue
        );
        match base {
            Some(b) => {
                let _ = write!(
                    out,
                    ", \"baseline_events_per_sec\": {:.0}, \"speedup\": {:.2}",
                    b,
                    m.events_per_sec / b.max(1e-9)
                );
            }
            None => out.push_str(", \"baseline_events_per_sec\": null, \"speedup\": null"),
        }
        out.push_str(" }");
        out.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let (mut quick, mut check) = (false, false);
    let mut out_path = "BENCH_sim.json".to_owned();
    let mut baseline_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--check" => check = true,
            "--out" => out_path = cli::value(&mut args, &flag),
            "--baseline" => baseline_path = Some(cli::value(&mut args, &flag)),
            other => cli::usage_error(format_args!("unknown flag {other}")),
        }
    }
    let baseline = baseline_path.and_then(|p| std::fs::read_to_string(p).ok());

    eprintln!("bench_engine: {} mode", if quick { "quick" } else { "full" });
    // In gate mode a silent fallback would leave CI green while checking
    // nothing, so a missing/unreadable baseline is a hard error.
    if check && baseline.is_none() {
        eprintln!("--check requires a readable --baseline file");
        std::process::exit(2);
    }
    let score = calibration_score();
    // Hardware normalisation for the gate: scale the baseline's events/sec
    // by the ratio of calibration scores, so a committed baseline from a
    // faster (or slower) machine still gates engine regressions rather
    // than runner speed. Baselines without a score compare unscaled.
    let scale = baseline
        .as_deref()
        .and_then(|b| json_field(b, "\"calibration_score\"", "calibration_score"))
        .map(|baseline_score| score / baseline_score.max(1e-9))
        .unwrap_or(1.0);
    type ScenarioFn = fn(bool) -> Measurement;
    let scenarios: [(&str, ScenarioFn); 3] =
        [("join_storm", join_storm), ("token_churn", token_churn), ("reliability", reliability)];
    let mut runs: Vec<(Measurement, Option<f64>)> = scenarios
        .iter()
        .map(|&(name, run)| {
            let m = run(quick);
            let base = baseline.as_deref().and_then(|b| baseline_eps(b, name));
            if check && base.is_none() {
                eprintln!("--check: scenario '{name}' is missing from the baseline file");
                std::process::exit(2);
            }
            (m, base)
        })
        .collect();

    // Gate mode: a shared CI runner can hiccup for tens of milliseconds;
    // before declaring a regression, re-run the failing scenario and keep
    // its best result so only *reproducible* slowdowns fail the job.
    if check {
        for (m, base) in &mut runs {
            let Some(b) = *base else { continue };
            let mut retries = 2;
            while m.events_per_sec < b * scale * 0.70 && retries > 0 {
                eprintln!("  {} below threshold, re-running to rule out noise", m.name);
                let again = scenarios
                    .iter()
                    .find(|&&(name, _)| name == m.name)
                    .map(|&(_, run)| run(quick))
                    .expect("scenario exists");
                if again.events_per_sec > m.events_per_sec {
                    *m = again;
                }
                retries -= 1;
            }
        }
    }

    for (m, base) in &runs {
        let speedup = base
            .map(|b| format!("  ({:+.1}% vs baseline)", (m.events_per_sec / b - 1.0) * 100.0))
            .unwrap_or_default();
        eprintln!(
            "  {:<12} {:>10} events  {:>9.1} ms  {:>11.0} events/s  peak queue {}{}",
            m.name, m.events, m.wall_ms, m.events_per_sec, m.peak_queue, speedup
        );
    }

    let json = render_json(quick, score, &runs);
    std::fs::write(&out_path, &json).expect("write BENCH_sim.json");
    eprintln!("wrote {out_path}");

    if check {
        let mut failed = false;
        for (m, base) in &runs {
            if let Some(b) = base {
                let adjusted = b * scale;
                if m.events_per_sec < adjusted * 0.70 {
                    eprintln!(
                        "REGRESSION: {} at {:.0} events/s is >30% below baseline {:.0} \
                         (hardware-adjusted from {:.0}, calibration ratio {:.2})",
                        m.name, m.events_per_sec, adjusted, b, scale
                    );
                    failed = true;
                }
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}
