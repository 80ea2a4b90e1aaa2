//! The live workload, `live_mixed`: the reactor runtime under a closed
//! loop of global queries with interleaved joins and leaves.
//!
//! One generator thread (the caller) issues a global query from a
//! seeded-random AP and waits for its `QueryResult`; before every
//! `JOIN_EVERY`-th query it issues one join and, once `MEMBER_CAP`
//! members exist, first one leave of the oldest member, waiting for
//! neither. Join visibility is the first root-ring `ViewChange` holding
//! the new GUID, observed on the cluster's event stream while the
//! generator waits for query results. Frames travel over in-process
//! channels with no injected delay.

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::layers;
use crate::procfs;
use crate::report::{peak_rss_mb, reset_peak_rss, Report};
use crate::simwl::{self, rounded, Outcome, SimPlan};
use crate::stats::{calmest, median, median_tail, tail};
use crate::trace::{ledger, LedgerRow, Tracer};
use rgb_core::prelude::*;
use rgb_net::{Cluster, ClusterStats, LiveConfig};
use rgb_sim::{Scenario, SplitMix64};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::time::{Duration, Instant};

/// Queries per pass.
const QUERIES: usize = 3_000;
/// A join (and, at the cap, a leave) precedes every this-many queries.
const JOIN_EVERY: usize = 10;
/// Membership at which every join is paired with a leave.
const MEMBER_CAP: usize = 200;
/// Untimed queries before each pass.
const WARMUP_QUERIES: usize = 20;
/// A query with no result after this long has failed.
const QUERY_TIMEOUT: Duration = Duration::from_secs(2);
/// Budget for the last joins to become visible and the root ring to
/// converge after a pass.
const SETTLE_TIMEOUT: Duration = Duration::from_secs(10);
/// Ticks between consecutive queries in the sequential reference pass.
const REF_SPACING: u64 = 4;
/// Extra ticks the reference pass runs after the last operation.
const REF_TAIL: u64 = 2_000;
/// Minimum passes and set-up samples per run.
const MIN_PASSES: usize = 3;
const MIN_SETUPS: usize = 31;

/// One generated operation.
#[derive(Debug, Clone, Copy)]
enum Op {
    Join { ap: NodeId, guid: Guid },
    Leave { ap: NodeId, guid: Guid },
    Query { ap: NodeId },
}

/// The live workload's inputs.
#[derive(Debug, Clone)]
pub struct LivePlan {
    layout: HierarchyLayout,
    cfg: ProtocolConfig,
    ops: Vec<Op>,
    /// Members left at the end: joined minus left.
    expected: BTreeSet<Guid>,
    /// The same operations on the sequential engine, one query every
    /// `REF_SPACING` ticks.
    reference: SimPlan,
}

/// Build the live workload's inputs from its seed.
pub fn plan(seed: u64) -> LivePlan {
    let base = Scenario::new("live_mixed", 3, 6).with_seed(seed);
    let layout = base.layout();
    let aps = layout.aps();
    let mut rng = SplitMix64::new(seed ^ 0x0011_FE00);
    let mut members: VecDeque<(Guid, NodeId)> = VecDeque::new();
    let mut ops = Vec::new();
    let mut next = 1u64;
    for i in 0..QUERIES {
        if i % JOIN_EVERY == 0 {
            if members.len() >= MEMBER_CAP {
                let (guid, ap) = members.pop_front().expect("cap is positive");
                ops.push(Op::Leave { ap, guid });
            }
            let ap = *rng.pick(&aps);
            ops.push(Op::Join { ap, guid: Guid(next) });
            members.push_back((Guid(next), ap));
            next += 1;
        }
        ops.push(Op::Query { ap: *rng.pick(&aps) });
    }
    let run_to = QUERIES as u64 * REF_SPACING + REF_TAIL;
    let mut sc = base.with_duration(run_to);
    let mut q = 0u64;
    for op in &ops {
        let at = q * REF_SPACING;
        sc = match *op {
            Op::Join { ap, guid } => sc.join(at, ap, guid, Luid(guid.0)),
            Op::Leave { ap, guid } => sc.mh(at, ap, MhEvent::Leave { guid }),
            Op::Query { ap } => {
                q += 1;
                sc.query(at, ap, QueryScope::Global)
            }
        };
    }
    let cfg = sc.cfg.clone();
    LivePlan {
        layout,
        cfg,
        ops,
        expected: members.iter().map(|&(g, _)| g).collect(),
        reference: SimPlan { scenario: sc, run_to },
    }
}

/// Calls timed individually in a traced pass:
/// `(name, op id, start, end)`.
type CallLog = Vec<(&'static str, u32, Instant, Instant)>;

/// One pass through the operations on a fresh cluster.
struct LivePass {
    setup_s: f64,
    /// Wall seconds of the timed loop.
    wall_s: f64,
    /// CPU seconds of every thread of the process over the same span.
    cpu_s: f64,
    /// Host steal over the same span, seconds summed over CPUs.
    steal_s: f64,
    q_us: Vec<f64>,
    j_ms: Vec<f64>,
    q_failed: u64,
    j_failed: u64,
    frames: u64,
    stats: ClusterStats,
    /// CPU seconds of each worker thread over the same span.
    worker_cpu: Vec<f64>,
    repair_p99: Option<u64>,
    /// Peak resident set size over the pass, MiB.
    peak_rss_mb: f64,
    calls: CallLog,
    membership: Result<(), String>,
}

fn live_config() -> LiveConfig {
    LiveConfig::default().with_workers(2).with_tick(Duration::from_millis(1))
}

impl LivePass {
    /// Host steal per wall second of the pass, summed over CPUs.
    fn steal_share(&self) -> f64 {
        self.steal_s / self.wall_s.max(1e-9)
    }

    /// Elapsed seconds of the timed loop with the host's steal taken out
    /// (steal accrues only while a CPU has work, and the loop keeps both
    /// CPUs busy).
    fn run_s(&self) -> f64 {
        self.wall_s - self.steal_s
    }
}

/// Start a cluster, timing it in wall seconds.
fn timed_start(plan: &LivePlan) -> Result<(Cluster, f64), String> {
    let t0 = Instant::now();
    let cluster = Cluster::try_new(plan.layout.clone(), &plan.cfg, &live_config())
        .map_err(|e| e.to_string())?;
    Ok((cluster, t0.elapsed().as_secs_f64()))
}

/// CPU clock ticks of every reactor worker thread so far, by thread id.
fn worker_ticks() -> BTreeMap<u64, u64> {
    procfs::threads()
        .into_iter()
        .filter(|t| t.name.starts_with("rgb-worker"))
        .map(|t| (t.tid, t.ticks))
        .collect()
}

fn live_pass(plan: &LivePlan, traced: bool) -> Result<LivePass, String> {
    reset_peak_rss();
    let (cluster, setup_s) = timed_start(plan)?;
    let root: BTreeSet<NodeId> = plan.layout.root_ring().nodes.iter().copied().collect();
    let aps = plan.layout.aps();

    for i in 0..WARMUP_QUERIES {
        let ap = aps[i % aps.len()];
        cluster.query(ap, QueryScope::Global);
        let got = cluster.wait_event(QUERY_TIMEOUT, |node, ev| {
            (node == ap && matches!(ev, AppEvent::QueryResult { .. })).then_some(())
        });
        if got.is_none() {
            cluster.shutdown();
            return Err("warm-up query timed out".into());
        }
    }

    // Joins issued and not yet seen at the root ring.
    let mut pending: HashMap<Guid, (Instant, u32)> = HashMap::new();
    let mut j_ms = Vec::new();
    let mut visible: Vec<(u32, Instant, Instant)> = Vec::new();
    let mut see = |node: NodeId, ev: &AppEvent, pending: &mut HashMap<Guid, (Instant, u32)>| {
        if let AppEvent::ViewChange { view } = ev {
            if root.contains(&node) && !pending.is_empty() {
                let now = Instant::now();
                pending.retain(|g, &mut (at, op)| {
                    if view.members.binary_search(g).is_ok() {
                        j_ms.push((now - at).as_secs_f64() * 1e3);
                        visible.push((op, at, now));
                        false
                    } else {
                        true
                    }
                });
            }
        }
    };

    let frames0 = cluster.stats().frames_sent;
    let mut q_us = Vec::with_capacity(QUERIES);
    let mut q_failed = 0u64;
    let mut calls: CallLog = Vec::new();
    let start = Instant::now();
    let cpu0 = procfs::process_cpu_s();
    let steal0 = procfs::steal_s();
    let workers0 = worker_ticks();
    for (i, op) in plan.ops.iter().enumerate() {
        let op_id = i as u32 + 1;
        match *op {
            Op::Join { ap, guid } => {
                let at = Instant::now();
                cluster.mh_event(ap, MhEvent::Join { guid, luid: Luid(guid.0) });
                if traced {
                    calls.push(("cluster.mh_event", op_id, at, Instant::now()));
                }
                pending.insert(guid, (at, op_id));
            }
            Op::Leave { ap, guid } => {
                let at = Instant::now();
                cluster.mh_event(ap, MhEvent::Leave { guid });
                if traced {
                    calls.push(("cluster.mh_event", op_id, at, Instant::now()));
                }
            }
            Op::Query { ap } => {
                let at = Instant::now();
                cluster.query(ap, QueryScope::Global);
                let sent = Instant::now();
                let got = cluster.wait_event(QUERY_TIMEOUT, |node, ev| {
                    see(node, ev, &mut pending);
                    (node == ap && matches!(ev, AppEvent::QueryResult { .. })).then(Instant::now)
                });
                match got {
                    Some(done) => {
                        q_us.push((done - at).as_secs_f64() * 1e6);
                        if traced {
                            calls.push(("cluster.query", op_id, at, sent));
                            calls.push(("cluster.wait", op_id, sent, done));
                        }
                    }
                    None => q_failed += 1,
                }
            }
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = procfs::process_cpu_s() - cpu0;
    let steal_s = procfs::steal_s() - steal0;
    let frames = cluster.stats().frames_sent - frames0;
    let worker_cpu = worker_ticks()
        .into_iter()
        .map(|(tid, t)| (t - workers0.get(&tid).copied().unwrap_or(0)) as f64 / procfs::CLOCK_TICKS)
        .collect();

    // Settle: the last joins become visible, then the root ring's
    // membership must equal joined-minus-left at every root node.
    let deadline = Instant::now() + SETTLE_TIMEOUT;
    while !pending.is_empty() && Instant::now() < deadline {
        let left = deadline.saturating_duration_since(Instant::now());
        let _ = cluster.wait_event(left.min(Duration::from_millis(50)), |node, ev| {
            see(node, ev, &mut pending);
            pending.is_empty().then_some(())
        });
    }
    let j_failed = pending.len() as u64;
    let membership = settle_membership(&cluster, &root, &plan.expected, deadline);
    let stats = cluster.stats();
    let repair_p99 = cluster.level_latency().repair_quantile(0.99);
    cluster.shutdown();
    let peak_rss_mb = peak_rss_mb();
    if traced {
        for (op, at, seen) in visible {
            calls.push(("op.join", op, at, seen));
        }
    }
    Ok(LivePass {
        setup_s,
        wall_s,
        cpu_s,
        steal_s,
        q_us,
        j_ms,
        q_failed,
        j_failed,
        frames,
        stats,
        worker_cpu,
        repair_p99,
        peak_rss_mb,
        calls,
        membership,
    })
}

/// Poll the root ring until every root node's operational membership
/// equals `expected`, or report the difference at `deadline`.
fn settle_membership(
    cluster: &Cluster,
    root: &BTreeSet<NodeId>,
    expected: &BTreeSet<Guid>,
    deadline: Instant,
) -> Result<(), String> {
    loop {
        let mut mismatch = None;
        for &node in root {
            let view: Option<BTreeSet<Guid>> = cluster
                .snapshot(node, Duration::from_secs(1))
                .map(|s| s.ring_members.operational_guids().into_iter().collect());
            match view {
                Some(v) if &v == expected => {}
                Some(v) => {
                    mismatch = Some(format!(
                        "root node {node}: {} members, {} missing, {} unexpected",
                        v.len(),
                        expected.difference(&v).count(),
                        v.difference(expected).count()
                    ));
                    break;
                }
                None => {
                    mismatch = Some(format!("root node {node}: no snapshot"));
                    break;
                }
            }
        }
        match mismatch {
            None => return Ok(()),
            Some(m) if Instant::now() >= deadline => return Err(m),
            Some(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Run the live workload untraced: the end-to-end metrics.
pub fn run(seed: u64, seconds: u64) -> Outcome {
    let plan = plan(seed);
    let mut report = Report::default();
    let reference = match simwl::reference(&plan.reference, false) {
        Ok(r) => r,
        Err(e) => return Outcome::check_failed(format!("sequential reference: {e}"), 1),
    };
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut passes = Vec::new();
    let mut setups = Vec::new();
    let ops = plan.ops.len() as u64;
    while passes.len() < MIN_PASSES || started.elapsed() < budget {
        match live_pass(&plan, false) {
            Ok(p) => {
                if let Err(e) = &p.membership {
                    let attempted = ops * (passes.len() as u64 + 1);
                    return Outcome::check_failed(format!("final root membership: {e}"), attempted);
                }
                setups.push(p.setup_s);
                passes.push(p);
            }
            Err(e) => return Outcome::check_failed(e, ops * (passes.len() as u64 + 1)),
        }
    }
    while setups.len() < MIN_SETUPS {
        match timed_start(&plan) {
            Ok((c, setup)) => {
                setups.push(setup);
                c.shutdown();
            }
            Err(e) => return Outcome::check_failed(e, ops * passes.len() as u64),
        }
    }

    // Run time is elapsed time less the host's steal. A single latency
    // cannot have the steal taken out. The medians hold up under steal,
    // but a pass the host stole from has a tail several times longer (p99
    // grows about eightfold from 0 to 0.6 steal per wall second), so the
    // tails come from the quarter of the passes with the least steal.
    let run: Vec<f64> = passes.iter().map(LivePass::run_s).collect();
    let qps: Vec<f64> = passes.iter().map(|p| p.q_us.len() as f64 / p.run_s().max(1e-9)).collect();
    let fpo: Vec<f64> = passes.iter().map(|p| p.frames as f64 / ops as f64).collect();
    let rss: Vec<f64> = passes.iter().map(|p| p.peak_rss_mb).collect();
    let calm = calmest(&passes, MIN_PASSES, LivePass::steal_share);
    let q_us: Vec<Vec<f64>> = passes.iter().map(|p| p.q_us.clone()).collect();
    let j_ms: Vec<Vec<f64>> = passes.iter().map(|p| p.j_ms.clone()).collect();
    let calm_q_us: Vec<Vec<f64>> = calm.iter().map(|p| p.q_us.clone()).collect();
    let calm_j_ms: Vec<Vec<f64>> = calm.iter().map(|p| p.j_ms.clone()).collect();
    let j_ticks: Vec<f64> = reference.joins.iter().map(|&(a, b)| (b - a) as f64).collect();
    let failed: u64 = passes.iter().map(|p| p.q_failed + p.j_failed).sum();
    let attempted = ops * passes.len() as u64;

    report.push("setup_s", median(&setups).unwrap_or(0.0));
    report.push("run_s", median(&run).unwrap_or(0.0));
    report.push("peak_rss_mb", median(&rss).unwrap_or(0.0));
    report.push("queries_per_s", median(&qps).unwrap_or(0.0));
    report.push_tail("query_p50_us", median_tail(&q_us, 50.0));
    report.note_tail("query_p99_us", median_tail(&calm_q_us, 99.0), "us");
    report.push_tail("join_visible_p50_ms", median_tail(&j_ms, 50.0));
    report.note_tail("join_visible_p99_ms", median_tail(&calm_j_ms, 99.0), "ms");
    report.push_tail("join_visible_p50_ticks", tail(&j_ticks, 50.0));
    report.push_tail("join_visible_p99_ticks", tail(&j_ticks, 99.0));
    report.push("frames_per_op", median(&fpo).unwrap_or(0.0));
    report.complete(&END_TO_END, "not measured");
    report.note(format!(
        "{} passes of {ops} ops ({QUERIES} queries), {} set-ups; CPU s {:?}, wall s {:?}, \
         steal s {:?}; each pass's query p50 us {:?}, join p50 ms {:?}",
        passes.len(),
        setups.len(),
        rounded(passes.iter().map(|p| p.cpu_s)),
        rounded(passes.iter().map(|p| p.wall_s)),
        rounded(passes.iter().map(|p| p.steal_s)),
        rounded(passes.iter().map(|p| median(&p.q_us).unwrap_or(0.0))),
        rounded(passes.iter().map(|p| median(&p.j_ms).unwrap_or(0.0))),
    ));
    report.note(format!(
        "p99 notes from the {} passes with the least host steal (steal per wall second {:?})",
        calm.len(),
        rounded(calm.iter().map(|p| p.steal_share())),
    ));
    report.note(format!(
        "failed {failed} of {attempted} (queries timed out {}, joins never visible {}); \
         failed_frac {}",
        passes.iter().map(|p| p.q_failed).sum::<u64>(),
        passes.iter().map(|p| p.j_failed).sum::<u64>(),
        failed as f64 / attempted as f64
    ));
    report.note(format!(
        "membership check: every pass converged to the {} expected members at all root nodes; \
         ticks from the seq reference ({} joins visible)",
        plan.expected.len(),
        reference.joins.len()
    ));
    Outcome { report, correct: true, attempted, failed }
}

/// Run the live workload traced: per-layer metrics, spans and ledger.
pub fn run_traced(seed: u64, tracer: &mut Tracer) -> (Outcome, Vec<(String, String)>) {
    let plan = plan(seed);
    let mut report = Report::default();
    let ops = plan.ops.len() as u64;
    let base = match live_pass(&plan, false) {
        Ok(p) => p,
        Err(e) => return (Outcome::check_failed(e, ops), Vec::new()),
    };
    let top = tracer.open("workload", 0, 0);
    let layout_span = tracer.open("topology.layout", top, 0);
    let layout = plan.reference.scenario.layout();
    tracer.close(layout_span);
    let origin = Instant::now();
    let origin_ns = tracer.now_ns();
    let pass_span = tracer.open("live.pass", top, 0);
    let traced = match live_pass(&plan, true) {
        Ok(p) => p,
        Err(e) => return (Outcome::check_failed(e, ops), Vec::new()),
    };
    tracer.close(pass_span);
    let ns = |t: Instant| origin_ns + t.saturating_duration_since(origin).as_nanos() as u64;
    // One span per operation over all of its calls; the calls are its
    // children and share its id. A join's span ends when it is visible.
    let mut range: BTreeMap<u32, (Instant, Instant)> = BTreeMap::new();
    for &(_, op, a, b) in &traced.calls {
        let r = range.entry(op).or_insert((a, b));
        r.0 = r.0.min(a);
        r.1 = r.1.max(b);
    }
    let mut op_span = HashMap::new();
    for (&op, &(a, b)) in &range {
        let kind = match plan.ops[op as usize - 1] {
            Op::Join { .. } => "op.join",
            Op::Leave { .. } => "op.leave",
            Op::Query { .. } => "op.query",
        };
        op_span.insert(op, tracer.record(kind, pass_span, op, ns(a), ns(b)));
    }
    for &(name, op, a, b) in &traced.calls {
        if !name.starts_with("op.") {
            tracer.record(name, op_span[&op], op, ns(a), ns(b));
        }
    }
    let reference = match tracer
        .span("sim.reference", top, || simwl::reference(&plan.reference, false))
    {
        Ok(r) => r,
        Err(e) => {
            return (Outcome::check_failed(format!("sequential reference: {e}"), ops), Vec::new())
        }
    };
    let costs = tracer.span("layers.measure", top, || {
        layers::measure(&layout, &plan.cfg, plan.expected.len(), seed)
    });
    tracer.close(top);

    let run_ns = traced.wall_s * 1e9;
    let (nq, query_ns) = tracer.totals("cluster.query");
    let (nm, mh_ns) = tracer.totals("cluster.mh_event");
    let (_, wait_ns) = tracer.totals("cluster.wait");
    let mean = |n: u64, t: u64| if n == 0 { 0.0 } else { t as f64 / n as f64 };
    // The reactor counts frames, not labels: weight the codec cost by the
    // label mix of the same operations on the sequential reference.
    let frames = traced.frames as f64;
    let codec_ns = costs.mean_codec_ns(&reference.metrics);
    // Every frame is encoded, routed, decoded and handled; every query,
    // join and leave enters a node as an application input. The workers'
    // CPU time over the same span is what the rows must add up to.
    let rows = [
        LedgerRow { layer: "wire.codec", count: frames, cost_ns: codec_ns },
        LedgerRow { layer: "transport.send_frame", count: frames, cost_ns: costs.send_frame_ns },
        LedgerRow { layer: "protocol.msg", count: frames, cost_ns: costs.handle_ns[0] },
        LedgerRow { layer: "protocol.mh", count: ops as f64, cost_ns: costs.handle_ns[2] },
    ];
    let busy: Vec<f64> =
        traced.worker_cpu.iter().map(|cpu| cpu / traced.wall_s.max(1e-9)).collect();
    let worker_cpu_ns: f64 = traced.worker_cpu.iter().sum::<f64>() * 1e9;
    let (residual, ledger_json) = ledger(&rows, worker_cpu_ns);

    report.push("topology.layout_s", tracer.totals("topology.layout").1 as f64 / 1e9);
    simwl::push_wire(&mut report, &costs, &reference.metrics);
    report.note("wire.frames.*: by label from the sequential reference of the same operations (the reactor counts frames, not labels)");
    report.push("wire.share", frames * codec_ns / worker_cpu_ns.max(1.0));
    if costs.handle_calls[1] == 0 {
        report.note("protocol.handle_ns.timer: no timer fired in the layer driver's timed phase");
    }
    report.push("protocol.handle_ns.msg", costs.handle_ns[0]);
    report.push("protocol.handle_ns.timer", costs.handle_ns[1]);
    report.push("protocol.handle_ns.mh", costs.handle_ns[2]);
    let protocol_ns = frames * costs.handle_ns[0] + ops as f64 * costs.handle_ns[2];
    report.push("protocol.share", protocol_ns / worker_cpu_ns.max(1.0));
    match traced.repair_p99 {
        Some(r) => report.push("obs.repair_p99_ticks", r as f64),
        None => {
            report.note("obs.repair_p99_ticks: no ring repaired in this workload");
            report.push("obs.repair_p99_ticks", 0.0);
        }
    }
    report.push("cluster.call_ns.query", mean(nq, query_ns));
    report.push("cluster.call_ns.mh_event", mean(nm, mh_ns));
    report.push("cluster.wait_share", wait_ns as f64 / run_ns);
    report.push("reactor.worker_busy.mean", busy.iter().sum::<f64>() / busy.len().max(1) as f64);
    report.push("reactor.worker_busy.max", busy.iter().copied().fold(0.0, f64::max));
    report.push("reactor.frames_sent", frames);
    report.note(
        "ledger: worker CPU over the timed loop against frames x (codec + send_frame + \
         handle msg) + operations x handle mh; timer fires are not counted on Live",
    );
    report.push("reactor.backpressure_dropped", traced.stats.backpressure_dropped as f64);
    report.push("reactor.app_events_dropped", traced.stats.app_events_dropped as f64);
    report.push("reactor.codec_rejected", traced.stats.codec_rejected as f64);
    report.push("transport.send_frame_ns", costs.send_frame_ns);
    report.push("ledger.residual", residual);
    report.push("trace.overhead", traced.run_s() / base.run_s().max(1e-9));

    report.complete(
        &PER_LAYER,
        "the live reactor runs none of the simulator layers and always tracks latency",
    );

    let mut correct = true;
    for (what, r) in [("untraced pass", &base.membership), ("traced pass", &traced.membership)] {
        if let Err(e) = r {
            report.note(format!("CHECK FAILED: {what} final root membership: {e}"));
            correct = false;
        }
    }
    let attempted = 2 * ops;
    let failed = if correct {
        base.q_failed + base.j_failed + traced.q_failed + traced.j_failed
    } else {
        attempted
    };
    (Outcome { report, correct, attempted, failed }, vec![("ledger".to_string(), ledger_json)])
}
