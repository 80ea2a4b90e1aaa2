//! The simulator workload `churn_par2` on the sharded engine with two
//! shards, and the sequential reference pass every workload's checks use.
//!
//! A run is one **reference pass** on the sequential engine, which
//! yields the virtual-time figures, the delivered-log facts every timed
//! pass is judged against and the final `SystemDigest`, followed by
//! **timed passes** on the workload's engine until the time budget is
//! spent. Passes are timed in wall seconds less the host's steal (see
//! [`Pass::run_s`]).

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::layers::{self, LayerCosts};
use crate::procfs;
use crate::report::{peak_rss_mb, reset_peak_rss, Report};
use crate::stats::{median, tail, Tail};
use crate::trace::{ledger, LedgerRow, Tracer};
use rgb_core::prelude::*;
use rgb_sim::explore::oracle::{check_digest, standard_oracles};
use rgb_sim::{
    bernoulli_crashes, ChurnParams, LatencyBand, Metrics, NetConfig, ParSimulation, Scenario,
    Simulation, SplitMix64,
};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::time::Instant;

/// Delivered-log drain stride of the reference pass, in ticks.
const CHUNK: u64 = 100;
/// Oracle observation stride of the reference pass, in ticks.
const ORACLE_EVERY: u64 = 200;
/// Shards of the timed engine.
const SHARDS: usize = 2;
/// Scenarios a run averages over (see [`scenario_seeds`]).
const SCENARIOS: usize = 3;
/// Minimum timed passes per scenario and set-up samples per run.
const MIN_PASSES: usize = 2;
const MIN_SETUPS: usize = 15;

/// A simulator workload's inputs.
#[derive(Debug, Clone)]
pub struct SimPlan {
    /// The scenario, schedule included.
    pub scenario: Scenario,
    /// Timed passes (and the reference's judged state) end here.
    pub run_to: u64,
}

/// `churn_par2`: the scale churn scenario at ring size 27 (20,439 NEs);
/// churn and crashes in the first `CHURN_EVENTS_END` ticks, global
/// queries every `CHURN_QUERY_EVERY` ticks; the quiet rest of the run
/// lets queued changes climb toward the root.
const CHURN_RUN_TO: u64 = 10_000;
const CHURN_EVENTS_END: u64 = 3_000;
const CHURN_QUERY_EVERY: u64 = 4;
const CHURN_QUERY_END: u64 = 9_500;

/// Build `churn_par2`'s inputs from its seed.
pub fn plan(seed: u64) -> SimPlan {
    let mut cfg = ProtocolConfig::live();
    cfg.token_interval = 25;
    cfg.token_retransmit_timeout = 75;
    cfg.token_lost_timeout = 600;
    cfg.heartbeat_interval = 150;
    cfg.parent_timeout = 750;
    cfg.child_timeout = 750;
    let net = NetConfig { wide_area: LatencyBand { min: 25, max: 80 }, ..NetConfig::default() };
    let sc = Scenario::new("churn_par2", 3, 27)
        .with_cfg(cfg)
        .with_net(net)
        .with_seed(seed)
        .with_duration(CHURN_RUN_TO)
        .with_delivered_cap(64)
        .with_churn(ChurnParams {
            initial_members: 2_000,
            mean_join_interval: 5.0,
            mean_lifetime: CHURN_EVENTS_END as f64 / 2.0,
            failure_fraction: 0.2,
            duration: CHURN_EVENTS_END,
        });
    let layout = sc.layout();
    let window = (CHURN_EVENTS_END / 4, CHURN_EVENTS_END / 2);
    let sc = sc.with_crashes(bernoulli_crashes(&layout, 0.0005, window, seed ^ 1));
    let sc = with_queries(sc, seed, CHURN_QUERY_EVERY, CHURN_QUERY_END);
    SimPlan { scenario: sc, run_to: CHURN_RUN_TO }
}

/// Add a global query every `every` ticks in `[0, end)`, each from a
/// random AP that is up at that tick: an AP that has crashed has no
/// clients left to ask. Sponsors on the way to the root may crash.
fn with_queries(mut sc: Scenario, seed: u64, every: u64, end: u64) -> Scenario {
    let crash_at: HashMap<NodeId, u64> = sc.crashes.iter().map(|c| (c.node, c.at)).collect();
    let aps = sc.layout().aps();
    let mut rng = SplitMix64::new(seed ^ 0x0051_7E12);
    for at in (0..end).step_by(every as usize) {
        let ap = loop {
            let ap = *rng.pick(&aps);
            if crash_at.get(&ap).is_none_or(|&c| c > at) {
                break ap;
            }
        };
        sc = sc.query(at, ap, QueryScope::Global);
    }
    sc
}

/// Build the timed engine.
fn build(plan: &SimPlan) -> Result<ParSimulation, String> {
    plan.scenario.try_build_par(SHARDS).map_err(|e| e.to_string())
}

/// The timed engine's final digest.
fn final_digest(par: &ParSimulation) -> SystemDigest {
    par.system_digest(par.pending_disruptions() == 0)
}

/// Per-step timings of a stepped reference pass (traced run only).
#[derive(Debug, Default)]
struct StepStats {
    events: u64,
    stale: u64,
    useful_ns: u64,
    stale_ns: u64,
    /// Useful steps and their ns, by tenth of the run.
    tenths: [(u64, u64); 10],
}

/// What the reference pass established.
#[derive(Debug)]
pub struct Reference {
    /// Final digest at `run_to`.
    pub digest: SystemDigest,
    /// Whether the quiescence-gated oracles fired (the run settled).
    pub settled: bool,
    /// `(injected, first visible at the root ring)` of every join seen
    /// by `run_to`.
    pub joins: Vec<(u64, u64)>,
    /// Joins never agreed in their AP's ring although the member stayed
    /// and the AP did not crash.
    pub joins_failed: u64,
    /// Joins scheduled.
    pub joins_total: u64,
    /// `(issued, answered)` of every query answered by `run_to`.
    pub queries: Vec<(u64, u64)>,
    /// Queries not answered by `run_to`.
    pub queries_failed: u64,
    /// Scheduled operations: joins, departures and queries.
    pub ops: u64,
    /// Engine counters at `run_to`.
    pub metrics: Metrics,
    root_members: usize,
    peak_queue: usize,
    bytes_per_node: usize,
    steps: Option<StepStats>,
}

/// Run the sequential reference pass: delivered-log bookkeeping every
/// `CHUNK` ticks and the standard oracle battery every `ORACLE_EVERY`
/// ticks and at the end, where the quiescence-gated oracles also fire if
/// the run has settled (nothing scheduled left and the view fingerprint
/// unchanged over the last stride), exactly the explorer's gate.
pub fn reference(plan: &SimPlan, stepped: bool) -> Result<Reference, String> {
    let sc = &plan.scenario;
    let mut sim = sc.try_build_sim().map_err(|e| e.to_string())?;
    let root: BTreeSet<NodeId> = sim.layout.root_ring().nodes.iter().copied().collect();
    let mut oracles = standard_oracles(sc);
    let mut queries_at: HashMap<NodeId, VecDeque<u64>> = HashMap::new();
    let mut issued: Vec<(u64, NodeId)> = sc.queries.iter().map(|q| (q.at, q.node)).collect();
    issued.sort();
    for (at, node) in issued {
        queries_at.entry(node).or_default().push_back(at);
    }
    let mut joins: BTreeMap<Guid, (u64, NodeId)> = BTreeMap::new();
    let mut departures = 0u64;
    for &(at, ap, ev) in &sc.mh_schedule {
        match ev {
            MhEvent::Join { guid, .. } => {
                joins.insert(guid, (at, ap));
            }
            _ => departures += 1,
        }
    }
    let mut by_ap: HashMap<NodeId, Vec<Guid>> = HashMap::new();
    for (&guid, &(_, ap)) in &joins {
        by_ap.entry(ap).or_default().push(guid);
    }
    let mut seen: HashMap<Guid, u64> = HashMap::new();
    let mut local: BTreeSet<Guid> = BTreeSet::new();
    let mut answered = Vec::new();
    let mut steps = stepped.then(StepStats::default);
    let mut last_fp = None;
    let mut settled = false;
    let mut t = 0u64;
    while t < plan.run_to {
        t = (t + CHUNK).min(plan.run_to);
        match steps.as_mut() {
            Some(st) => step_to(&mut sim, t, plan.run_to, st),
            None => sim.run_until(t),
        }
        for (node, at, ev) in sim.drain_delivered() {
            match ev {
                AppEvent::ViewChange { view } => {
                    if let Some(guids) = by_ap.get(&node) {
                        for g in guids {
                            if view.members.binary_search(g).is_ok() {
                                local.insert(*g);
                            }
                        }
                    }
                    if root.contains(&node) {
                        for g in view.members {
                            seen.entry(g).or_insert(at);
                        }
                    }
                }
                AppEvent::QueryResult { .. } => {
                    if let Some(issue) = queries_at.get_mut(&node).and_then(VecDeque::pop_front) {
                        answered.push((issue, at));
                    }
                }
                _ => {}
            }
        }
        if t.is_multiple_of(ORACLE_EVERY) || t == plan.run_to {
            let mut digest = sim.system_digest(false);
            let fp = digest.views_fingerprint();
            if t == plan.run_to {
                settled = sim.pending_disruptions() == 0 && last_fp == Some(fp);
                digest.settled = settled;
            }
            last_fp = Some(fp);
            check_digest(&mut oracles, &digest)
                .map_err(|v| format!("oracle `{}` at t={t}: {}", v.oracle, v.detail))?;
        }
    }
    let digest = sim.system_digest(sim.pending_disruptions() == 0);

    let crashed: BTreeSet<NodeId> = sim.crashed_set().clone();
    let expected = sc.expected_guids();
    let mut join_lat = Vec::new();
    let mut joins_failed = 0;
    for (guid, &(at, ap)) in &joins {
        if let Some(&vis) = seen.get(guid).filter(|&&vis| vis >= at) {
            join_lat.push((at, vis));
        }
        // A join fails when its own AP's ring never agreed on it, unless
        // the member left again first or the AP crashed.
        if !local.contains(guid) && expected.contains(guid) && !crashed.contains(&ap) {
            joins_failed += 1;
        }
    }
    let queries_failed = queries_at.values().map(|q| q.len() as u64).sum();
    let root_node = *sim.layout.root_ring().nodes.first().expect("root ring has nodes");
    Ok(Reference {
        digest,
        settled,
        joins: join_lat,
        joins_failed,
        joins_total: joins.len() as u64,
        queries: answered,
        queries_failed,
        ops: joins.len() as u64 + departures + sc.queries.len() as u64,
        metrics: sim.metrics.clone(),
        root_members: sim.node(root_node).ring_members.operational_count(),
        peak_queue: sim.peak_queue_len(),
        bytes_per_node: sim.memory_stats().bytes_per_node(),
        steps,
    })
}

/// Step `sim` one event at a time through `deadline`, timing each step
/// and classing it by whether it was a stale timer pop.
fn step_to(sim: &mut Simulation, deadline: u64, run_to: u64, st: &mut StepStats) {
    while sim.peek_at().is_some_and(|at| at <= deadline) {
        let stale0 = sim.metrics.stale_timer_skips;
        let s = Instant::now();
        sim.step();
        let ns = s.elapsed().as_nanos() as u64;
        st.events += 1;
        if sim.metrics.stale_timer_skips != stale0 {
            st.stale += 1;
            st.stale_ns += ns;
        } else {
            st.useful_ns += ns;
            let tenth = ((sim.now * 10) / run_to.max(1)).min(9) as usize;
            st.tenths[tenth].0 += 1;
            st.tenths[tenth].1 += ns;
        }
    }
    sim.run_until(deadline);
}

/// One timed pass.
struct Pass {
    /// Wall seconds of the engine build.
    setup_s: f64,
    /// Wall seconds of advancing to `run_to`.
    wall_s: f64,
    /// CPU seconds of every engine thread over the same span.
    cpu_s: f64,
    /// Host steal over the same span, seconds summed over CPUs.
    steal_s: f64,
    /// Peak resident set size over the build and the run, MiB.
    peak_rss_mb: f64,
}

impl Pass {
    /// Elapsed seconds of the run with the host's steal taken out. Both
    /// shard threads run in lockstep on the machine's two CPUs, so time
    /// the host takes either CPU away (steal accrues only while a CPU has
    /// work) holds the window barrier up and adds to the wall time, while
    /// time a thread waits at the barrier for its peer stays in.
    fn run_s(&self) -> f64 {
        self.wall_s - self.steal_s
    }
}

/// Build the engine, timing it in wall seconds.
fn timed_build(plan: &SimPlan) -> Result<(ParSimulation, f64), String> {
    let t0 = Instant::now();
    let engine = build(plan)?;
    Ok((engine, t0.elapsed().as_secs_f64()))
}

fn timed_pass(plan: &SimPlan, obs: bool) -> Result<(Pass, ParSimulation), String> {
    reset_peak_rss();
    let (mut engine, setup_s) = timed_build(plan)?;
    if obs {
        engine.enable_obs_tracking();
    }
    let cpu0 = procfs::process_cpu_s();
    let steal0 = procfs::steal_s();
    let start = Instant::now();
    engine.run_until(plan.run_to);
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = procfs::process_cpu_s() - cpu0;
    let steal_s = procfs::steal_s() - steal0;
    let peak_rss_mb = peak_rss_mb();
    Ok((Pass { setup_s, wall_s, cpu_s, steal_s, peak_rss_mb }, engine))
}

/// Outcome of one workload run.
pub struct Outcome {
    /// The metrics and notes.
    pub report: Report,
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
}

impl Reference {
    /// `(attempted, failed)` operations: every join, departure and query.
    fn judged(&self) -> (u64, u64) {
        (self.ops, self.joins_failed + self.queries_failed)
    }
}

impl Outcome {
    /// A run whose correctness check failed: every attempted operation
    /// counts as failed.
    pub fn check_failed(e: String, attempted: u64) -> Outcome {
        let mut report = Report::default();
        report.note(format!("CHECK FAILED: {e}"));
        Outcome { report, correct: false, attempted: attempted.max(1), failed: attempted.max(1) }
    }
}

/// Compare a pass's final digest with the reference's.
fn digest_check(pass: &SystemDigest, reference: &SystemDigest, what: &str) -> Result<(), String> {
    if pass == reference {
        Ok(())
    } else {
        let nodes = pass.nodes.iter().zip(&reference.nodes).filter(|(a, b)| a != b).count();
        Err(format!(
            "{what}: final digest differs from the sequential reference ({nodes} node digests \
             differ, {} vs {} alive)",
            pass.nodes.len(),
            reference.nodes.len()
        ))
    }
}

/// Scenario seeds of one `churn_par2` run, derived from its seed.
///
/// Whether `Par(2)` overlaps its shards depends on the scenario: on some
/// seeds the two shards' busy windows alternate and a pass takes about
/// 1.5× as long at equal work (seeds 401 and 402 of 45 tried). With one
/// scenario per run, a set of ten runs holding three such seeds would
/// spread past any useful bound; averaged over three scenarios, one such
/// scenario moves its run by about 15%.
pub fn scenario_seeds(seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    (0..SCENARIOS).map(|_| rng.next_u64()).collect()
}

/// Run `churn_par2` untraced: the end-to-end metrics over the
/// [`scenario_seeds`] of `seed`, passes taken in turn.
pub fn run(seed: u64, seconds: u64) -> Outcome {
    let plans: Vec<SimPlan> = scenario_seeds(seed).into_iter().map(plan).collect();
    let mut report = Report::default();
    let mut references = Vec::new();
    for plan in &plans {
        match reference(plan, false) {
            Ok(r) => references.push(r),
            Err(e) => return Outcome::check_failed(e, 1),
        }
    }
    let (attempted, failed) =
        references.iter().map(Reference::judged).fold((0, 0), |(a, f), (ra, rf)| (a + ra, f + rf));
    let budget = std::time::Duration::from_secs(seconds);
    let started = Instant::now();
    // Passes by scenario.
    let mut passes: Vec<Vec<Pass>> = plans.iter().map(|_| Vec::new()).collect();
    let mut setups = Vec::new();
    let mut next = 0;
    while passes.iter().any(|p| p.len() < MIN_PASSES) || started.elapsed() < budget {
        let (plan, reference) = (&plans[next], &references[next]);
        match timed_pass(plan, false) {
            Ok((pass, engine)) => {
                // Check the digest right away: a 20k-node digest is several
                // MiB, and holding one per pass would grow the next peaks.
                let check = digest_check(&final_digest(&engine), &reference.digest, "timed pass");
                drop(engine);
                if let Err(e) = check {
                    return Outcome::check_failed(e, attempted);
                }
                setups.push(pass.setup_s);
                passes[next].push(pass);
            }
            Err(e) => return Outcome::check_failed(e, 1),
        }
        next = (next + 1) % plans.len();
    }
    while setups.len() < MIN_SETUPS {
        match timed_build(&plans[setups.len() % plans.len()]) {
            Ok((engine, wall)) => {
                setups.push(wall);
                drop(engine);
            }
            Err(e) => return Outcome::check_failed(e, 1),
        }
    }

    // Per scenario, the median pass; then the mean over scenarios.
    let runs: Vec<f64> = passes
        .iter()
        .map(|p| median(&p.iter().map(Pass::run_s).collect::<Vec<_>>()).unwrap_or(0.0))
        .collect();
    let run_s = runs.iter().sum::<f64>() / runs.len() as f64;
    let all: Vec<&Pass> = passes.iter().flatten().collect();
    let rss: Vec<f64> = all.iter().map(|p| p.peak_rss_mb).collect();
    let span = |v: &[(u64, u64)]| v.iter().map(|&(a, b)| (b - a) as f64).collect::<Vec<_>>();
    let q_ticks: Vec<f64> = references.iter().flat_map(|r| span(&r.queries)).collect();
    let j_ticks: Vec<f64> = references.iter().flat_map(|r| span(&r.joins)).collect();
    let sent: u64 = references.iter().map(|r| r.metrics.sent_total).sum();
    let ops: u64 = references.iter().map(|r| r.ops).sum();
    // A simulator has no wall-clock latency of its own: a virtual
    // interval costs its share of the run's wall time.
    let s_per_tick = run_s / CHURN_RUN_TO as f64;
    let scaled =
        |t: Option<Tail>, unit: f64| t.map(|t| Tail { value: t.value * s_per_tick * unit, ..t });

    report.push("setup_s", median(&setups).unwrap_or(0.0));
    report.push("run_s", run_s);
    report.push("peak_rss_mb", median(&rss).unwrap_or(0.0));
    report.push("queries_per_s", q_ticks.len() as f64 / (run_s * plans.len() as f64).max(1e-9));
    report.push_tail("query_p50_us", scaled(tail(&q_ticks, 50.0), 1e6));
    report.push_tail("join_visible_p50_ms", scaled(tail(&j_ticks, 50.0), 1e3));
    report.push_tail("join_visible_p50_ticks", tail(&j_ticks, 50.0));
    report.push_tail("join_visible_p99_ticks", tail(&j_ticks, 99.0));
    report.push("frames_per_op", sent as f64 / ops as f64);
    report.complete(&END_TO_END, "not measured");
    report.note(format!(
        "{} scenarios (seeds {:?}); run_s is the mean over them of each one's median pass {:?}",
        plans.len(),
        scenario_seeds(seed),
        rounded(runs.iter().copied()),
    ));
    report.note(
        "queries_per_s, query_p50_us, join_visible_p50_ms: derived from run_s (answered queries \
         / run_s; p50 ticks x run_s / ticks run), so they move exactly with run_s here; \
         live_mixed measures them",
    );
    report.note(format!(
        "{} timed passes (par({})), {} set-ups {:?}; wall s {:?}, CPU s {:?}, steal s {:?}, \
         peak RSS MiB {:?}",
        all.len(),
        SHARDS,
        setups.len(),
        rounded(setups.iter().copied()),
        rounded(all.iter().map(|p| p.wall_s)),
        rounded(all.iter().map(|p| p.cpu_s)),
        rounded(all.iter().map(|p| p.steal_s)),
        rounded(rss.iter().copied()),
    ));
    for (scenario, r) in scenario_seeds(seed).into_iter().zip(&references) {
        report.note(format!(
            "scenario {scenario}: ops {} (joins {}: reached the root ring {}, never agreed locally \
             {}; queries answered {}, unanswered {}); oracle battery passed (gated oracles {})",
            r.ops,
            r.joins_total,
            r.joins.len(),
            r.joins_failed,
            r.queries.len(),
            r.queries_failed,
            if r.settled { "fired: the run settled" } else { "skipped: still settling" }
        ));
    }
    report.note(format!(
        "failed {failed} of {attempted}, failed_frac {}; digest check: {} passes byte-identical \
         to their seq reference",
        failed as f64 / attempted as f64,
        all.len(),
    ));
    Outcome { report, correct: true, attempted, failed }
}

/// Values rounded to three decimals, for notes.
pub(crate) fn rounded(v: impl Iterator<Item = f64>) -> Vec<f64> {
    v.map(|s| (s * 1e3).round() / 1e3).collect()
}

/// Run `churn_par2` traced: the per-layer metrics, the trace file and
/// the ledger.
pub fn run_traced(seed: u64, tracer: &mut Tracer) -> (Outcome, Vec<(String, String)>) {
    // One scenario is enough for the per-layer metrics: the first one the
    // untraced run averages over.
    let scenario = scenario_seeds(seed)[0];
    let plan = plan(scenario);
    let mut report = Report::default();
    report.note(format!("scenario {scenario}, the first of the untraced run's"));
    let sc = &plan.scenario;

    // Untraced baseline pass.
    let (base, base_digest) = match timed_pass(&plan, false) {
        Ok((pass, engine)) => (pass, final_digest(&engine)),
        Err(e) => return (Outcome::check_failed(e, 1), Vec::new()),
    };

    // Traced set-up: layout, then the whole engine build.
    let top = tracer.open("workload", 0, 0);
    let layout = tracer.span("topology.layout", top, || sc.layout());
    let (layout_ns, build_ns) = {
        let built = tracer.span("sim.build", top, || build(&plan).map(drop));
        if let Err(e) = built {
            return (Outcome::check_failed(e, 1), Vec::new());
        }
        (tracer.totals("topology.layout").1, tracer.totals("sim.build").1)
    };

    // Stepped sequential reference: per-step timings.
    let ref_span = tracer.open("sim.reference_stepped", top, 0);
    let reference = match reference(&plan, true) {
        Ok(r) => r,
        Err(e) => return (Outcome::check_failed(e, 1), Vec::new()),
    };
    tracer.close(ref_span);
    let st = reference.steps.as_ref().expect("stepped reference records steps");
    tracer.aggregate("sim.step.useful", st.events - st.stale, st.useful_ns);
    tracer.aggregate("sim.step.stale", st.stale, st.stale_ns);

    // Traced engine pass under a thread CPU sampler.
    let mut checks: Vec<Result<(), String>> =
        vec![digest_check(&base_digest, &reference.digest, "untraced pass")];
    let mut engine = match build(&plan) {
        Ok(e) => e,
        Err(e) => return (Outcome::check_failed(e, 1), Vec::new()),
    };
    let main_tid = procfs::current_tid();
    let sampler = procfs::Sampler::start();
    let span = tracer.open("par.run_until", top, 0);
    let steal0 = procfs::steal_s();
    let t0 = Instant::now();
    engine.run_until(plan.run_to);
    let traced_run_s = t0.elapsed().as_secs_f64() - (procfs::steal_s() - steal0);
    tracer.close(span);
    let threads = sampler.finish(&[main_tid]);
    let ticks: Vec<u64> = threads.iter().map(|t| t.ticks).filter(|&t| t > 0).collect();
    let par = ParNumbers { stats: engine.metrics().par, imbalance: procfs::imbalance(&ticks) };
    checks.push(digest_check(&final_digest(&engine), &reference.digest, "traced par pass"));
    drop(engine);

    // Obs-tracking pass.
    let obs_span = tracer.open("obs.tracked_pass", top, 0);
    let (obs_pass, obs_engine) = match timed_pass(&plan, true) {
        Ok(p) => p,
        Err(e) => return (Outcome::check_failed(e, 1), Vec::new()),
    };
    tracer.close(obs_span);
    checks.push(digest_check(&final_digest(&obs_engine), &reference.digest, "obs-tracking pass"));
    let repair_p99 = obs_engine.level_latency().repair_quantile(0.99);
    drop(obs_engine);

    // Isolated layer costs at this workload's sizes.
    let costs = tracer.span("layers.measure", top, || {
        layers::measure(&layout, &sc.cfg, reference.root_members, seed)
    });
    let send_ns = tracer.span("layers.sim_send", top, || layers::sim_send_ns(sc)).unwrap_or(0.0);
    tracer.close(top);

    let m = &reference.metrics;
    let cpu_ns = base.cpu_s * 1e9;
    let mut rows = sim_ledger_rows(m, st, &costs, &par);
    rows.push(LedgerRow { layer: "sim.send", count: m.sent_total as f64, cost_ns: send_ns });
    let (residual, ledger_json) = ledger(&rows, cpu_ns);

    report.push("topology.layout_s", layout_ns as f64 / 1e9);
    report.push("sim.build_s", build_ns as f64 / 1e9);
    push_wire(&mut report, &costs, m);
    report.push("wire.share", m.sent_total as f64 * costs.mean_codec_ns(m) / cpu_ns);
    let (msg_in, timer_in, mh_in) = input_counts(m, st);
    let protocol_ns =
        msg_in * costs.handle_ns[0] + timer_in * costs.handle_ns[1] + mh_in * costs.handle_ns[2];
    report.push("protocol.handle_ns.msg", costs.handle_ns[0]);
    report.push("protocol.handle_ns.timer", costs.handle_ns[1]);
    report.push("protocol.handle_ns.mh", costs.handle_ns[2]);
    report.push("protocol.share", protocol_ns / cpu_ns);
    let useful = st.events - st.stale;
    report.push("sim.events", st.events as f64);
    report.push("sim.stale_pops", st.stale as f64);
    report.push("sim.useful_events", useful as f64);
    report.push("sim.stale_share", st.stale as f64 / st.events.max(1) as f64);
    report.push("sim.step_ns.useful", st.useful_ns as f64 / useful.max(1) as f64);
    report.push("sim.step_ns.stale", st.stale_ns as f64 / st.stale.max(1) as f64);
    let tenth_mean = |i: usize| st.tenths[i].1 as f64 / st.tenths[i].0.max(1) as f64;
    let first = (0..10).find(|&i| st.tenths[i].0 > 0).unwrap_or(0);
    let last = (0..10).rev().find(|&i| st.tenths[i].0 > 0).unwrap_or(9);
    report.push("sim.step_ns.growth", tenth_mean(last) / tenth_mean(first).max(1e-9));
    report.push("sim.peak_queue", reference.peak_queue as f64);
    report.push("sim.bytes_per_node", reference.bytes_per_node as f64);
    report.push("sim.send_frame_ns", send_ns);
    report.push("network.lost", m.lost as f64);
    report.push("network.codec_rejected", m.codec_rejected as f64);
    push_par(&mut report, &par);
    report.push("obs.tracking_overhead", obs_pass.run_s() / base.run_s());
    match repair_p99 {
        Some(r) => report.push("obs.repair_p99_ticks", r as f64),
        None => {
            report.note("obs.repair_p99_ticks: no ring repaired in this workload");
            report.push("obs.repair_p99_ticks", 0.0);
        }
    }
    report.push("transport.send_frame_ns", costs.send_frame_ns);
    report.push("ledger.residual", residual);
    report.push("trace.overhead", traced_run_s / base.run_s());
    if costs.handle_calls[1] == 0 {
        report.note("protocol.handle_ns.timer: no timer fired in the layer driver's timed phase");
    }
    report.note(format!(
        "layer driver: {} root members, {} msg / {} timer / {} mh calls timed",
        costs.root_members, costs.handle_calls[0], costs.handle_calls[1], costs.handle_calls[2]
    ));
    report.complete(
        &PER_LAYER,
        "churn_par2 does not run the live reactor's cluster and reactor layers",
    );

    let mut correct = true;
    for c in &checks {
        if let Err(e) = c {
            report.note(format!("CHECK FAILED: {e}"));
            correct = false;
        }
    }
    let (attempted, failed) = reference.judged();
    let failed = if correct { failed } else { attempted };
    let extra = vec![("ledger".to_string(), ledger_json)];
    (Outcome { report, correct, attempted, failed }, extra)
}

/// Sharded-engine numbers of the traced pass.
#[derive(Debug)]
struct ParNumbers {
    stats: rgb_sim::ParStats,
    imbalance: f64,
}

/// `(message, timer, application)` inputs a run fed to `handle_into`:
/// every delivered frame except the wireless hop is a message input, the
/// wireless hop and queries are application inputs, the remaining
/// useful events are timer fires.
fn input_counts(m: &Metrics, st: &StepStats) -> (f64, f64, f64) {
    let from_mh = m.sent_label(MsgLabel::FromMh);
    let delivered = m.sent_total.saturating_sub(m.lost + m.partition_dropped);
    let msg = delivered.saturating_sub(from_mh);
    let mh = from_mh + m.query_latency.count() as u64;
    let useful = st.events - st.stale;
    let timer = useful.saturating_sub(msg + mh);
    (msg as f64, timer as f64, mh as f64)
}

/// The ledger of a simulator pass's CPU time: each layer's call count
/// times its isolated cost.
fn sim_ledger_rows(
    m: &Metrics,
    st: &StepStats,
    costs: &LayerCosts,
    par: &ParNumbers,
) -> Vec<LedgerRow> {
    let codec_ns = costs.mean_codec_ns(m);
    let (msg, timer, mh) = input_counts(m, st);
    // A stale pop is a bare queue pop: use it as the per-event
    // queue-and-dispatch cost.
    let pop_ns = st.stale_ns as f64 / st.stale.max(1) as f64;
    let mut rows = vec![
        LedgerRow { layer: "wire.codec", count: m.sent_total as f64, cost_ns: codec_ns },
        LedgerRow { layer: "protocol.msg", count: msg, cost_ns: costs.handle_ns[0] },
        LedgerRow { layer: "protocol.timer", count: timer, cost_ns: costs.handle_ns[1] },
        LedgerRow { layer: "protocol.mh", count: mh, cost_ns: costs.handle_ns[2] },
        LedgerRow { layer: "sim.queue", count: st.events as f64, cost_ns: pop_ns },
    ];
    // The window barrier parks its threads, so only flush and drain are
    // CPU work of the window protocol.
    let p = &par.stats;
    if p.windows > 0 {
        let sync = (p.flush_nanos + p.drain_nanos) as f64;
        rows.push(LedgerRow { layer: "par.flush_drain", count: 1.0, cost_ns: sync });
    }
    rows
}

/// Push the codec cost and size metrics of the captured envelopes and
/// the per-label frame counts of `m`.
pub(crate) fn push_wire(report: &mut Report, costs: &LayerCosts, m: &Metrics) {
    for label in [
        MsgLabel::Token,
        MsgLabel::TokenAck,
        MsgLabel::NotifyParent,
        MsgLabel::NotifyChild,
        MsgLabel::QueryReq,
        MsgLabel::QueryResp,
    ] {
        let name = format!("wire.codec_ns.{}", label.as_str());
        match costs.codec_ns.get(&label) {
            Some(&ns) => report.push(name, ns),
            None => {
                report.note(format!("{name}: the layer driver produced no such envelope"));
                report.push(name, 0.0);
            }
        }
    }
    for label in [MsgLabel::Token, MsgLabel::QueryResp] {
        let bytes = costs.bytes.get(&label).copied().unwrap_or(0.0);
        report.push(format!("wire.bytes.{}", label.as_str()), bytes);
    }
    for label in MsgLabel::ALL {
        report.push(format!("wire.frames.{}", label.as_str()), m.sent_label(label) as f64);
    }
}

fn push_par(report: &mut Report, par: &ParNumbers) {
    let p = &par.stats;
    report.push("par.execute_s", p.execute_nanos as f64 / 1e9);
    report.push("par.barrier_s", p.barrier_nanos as f64 / 1e9);
    report.push("par.flush_s", p.flush_nanos as f64 / 1e9);
    report.push("par.drain_s", p.drain_nanos as f64 / 1e9);
    report.push("par.windows", p.windows as f64);
    report.push("par.idle_skips", p.idle_skips as f64);
    report.push("par.frames_batched", p.frames_batched as f64);
    let phases = (p.execute_nanos + p.barrier_nanos + p.flush_nanos + p.drain_nanos) as f64;
    report.push(
        "par.barrier_share",
        if phases > 0.0 { p.barrier_nanos as f64 / phases } else { 0.0 },
    );
    report.push("par.shard_cpu_imbalance", par.imbalance);
}
