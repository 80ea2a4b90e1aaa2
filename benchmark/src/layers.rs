//! Isolated per-layer costs, measured at a workload's sizes.
//!
//! A small sans-IO driver instantiates one spine of the workload's
//! hierarchy (a bottom ring and every ring above it, at the workload's
//! ring size), feeds it joins until the root ring holds the workload's
//! membership, and then — at that size — times every
//! `NodeState::handle_into` call by input kind and captures the real
//! envelopes each `MsgLabel` produces. Those envelopes drive the codec
//! (`wire::encode` + `wire::decode`) and transport (`Router::send_frame`)
//! timings. Frames addressed outside the spine are encoded and captured
//! but not delivered.

use bytes::Bytes;
use rgb_core::prelude::*;
use rgb_core::wire;
use rgb_net::{Router, ToWorker};
use rgb_sim::{Metrics, Scenario, SplitMix64};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Input kinds timed separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputKind {
    /// `Input::Msg`.
    Msg = 0,
    /// `Input::Timer`.
    Timer = 1,
    /// `Input::Mh` and `Input::StartQuery` (application entry points).
    Mh = 2,
}

/// Costs of single layer calls at one workload's sizes.
#[derive(Debug, Clone, Default)]
pub struct LayerCosts {
    /// Mean encode + decode ns per envelope, by label.
    pub codec_ns: BTreeMap<MsgLabel, f64>,
    /// Mean encoded bytes, by label.
    pub bytes: BTreeMap<MsgLabel, f64>,
    /// Mean `handle_into` ns by [`InputKind`].
    pub handle_ns: [f64; 3],
    /// Timed `handle_into` calls by [`InputKind`].
    pub handle_calls: [u64; 3],
    /// Mean `Router::send_frame` ns into a registered bounded channel.
    pub send_frame_ns: f64,
    /// Operational members at the spine's root node when timing began.
    pub root_members: usize,
}

impl LayerCosts {
    /// Codec cost of `label`, or the mean over measured labels when this
    /// one produced no envelope.
    fn codec_or_mean(&self, label: MsgLabel) -> f64 {
        self.codec_ns.get(&label).copied().unwrap_or_else(|| {
            let n = self.codec_ns.len().max(1) as f64;
            self.codec_ns.values().sum::<f64>() / n
        })
    }

    /// Mean encode + decode ns of one frame of `m`'s label mix.
    pub fn mean_codec_ns(&self, m: &Metrics) -> f64 {
        MsgLabel::ALL.iter().map(|&l| m.sent_label(l) as f64 * self.codec_or_mean(l)).sum::<f64>()
            / m.sent_total.max(1) as f64
    }
}

/// Envelopes kept per label for the codec and transport timings.
const KEEP_PER_LABEL: usize = 64;

struct Driver<'a> {
    layout: &'a HierarchyLayout,
    nodes: HashMap<NodeId, NodeState>,
    queue: VecDeque<(NodeId, NodeId, Bytes)>,
    timers: BTreeMap<(u64, u64), (NodeId, TimerKind)>,
    armed: HashMap<(NodeId, TimerKind), u64>,
    seq: u64,
    now: u64,
    outs: OutputSink,
    timing: bool,
    nanos: [u64; 3],
    calls: [u64; 3],
    captured: BTreeMap<MsgLabel, Vec<Envelope>>,
}

impl Driver<'_> {
    fn input(&mut self, node: NodeId, input: Input, kind: InputKind) {
        let Some(state) = self.nodes.get_mut(&node) else { return };
        if self.timing {
            let t0 = Instant::now();
            state.handle_into(input, &mut self.outs);
            self.nanos[kind as usize] += t0.elapsed().as_nanos() as u64;
            self.calls[kind as usize] += 1;
        } else {
            state.handle_into(input, &mut self.outs);
        }
        let gid = self.layout.gid;
        // Reuse the output buffer across inputs.
        let mut outs = std::mem::take(&mut self.outs);
        for out in outs.drain(..) {
            match out {
                Output::Send { to, msg } => {
                    let label = msg.label_kind();
                    let env = Envelope { gid, msg };
                    let frame = wire::encode(&env);
                    if self.timing {
                        let kept = self.captured.entry(label).or_default();
                        if kept.len() < KEEP_PER_LABEL {
                            kept.push(env);
                        }
                    }
                    if self.nodes.contains_key(&to) {
                        self.queue.push_back((node, to, frame));
                    }
                }
                Output::SetTimer { kind, after } => {
                    self.seq += 1;
                    self.armed.insert((node, kind), self.seq);
                    self.timers.insert((self.now + after, self.seq), (node, kind));
                }
                Output::CancelTimer { kind } => {
                    self.armed.remove(&(node, kind));
                }
                Output::Deliver(_) => {}
            }
        }
        self.outs = outs;
    }

    /// Process one message or, with none queued, the next live timer.
    /// `false` when both are exhausted.
    fn step(&mut self) -> bool {
        if let Some((from, to, frame)) = self.queue.pop_front() {
            if let Ok(env) = wire::decode(&frame) {
                self.input(to, Input::Msg { from, msg: env.msg }, InputKind::Msg);
            }
            return true;
        }
        while let Some(((at, seq), (node, kind))) = self.timers.pop_first() {
            if self.armed.get(&(node, kind)) == Some(&seq) {
                self.armed.remove(&(node, kind));
                self.now = self.now.max(at);
                self.input(node, Input::Timer(kind), InputKind::Timer);
                return true;
            }
        }
        false
    }

    fn run(&mut self, budget: usize) {
        for _ in 0..budget {
            if !self.step() {
                return;
            }
        }
    }
}

/// Measure the layer costs for `layout` under `cfg` with `members`
/// members at the root.
pub fn measure(
    layout: &HierarchyLayout,
    cfg: &ProtocolConfig,
    members: usize,
    seed: u64,
) -> LayerCosts {
    let mut rng = SplitMix64::new(seed ^ 0x1A7E_2C05);
    let aps = layout.aps();
    let ap = *rng.pick(&aps);
    // The spine: the AP's ring and every ring above it.
    let mut rings = Vec::new();
    let mut ring = layout.placement(ap).expect("AP is placed").ring;
    loop {
        let spec = layout.ring(ring).expect("ring exists");
        rings.push(spec.id);
        match spec.parent_ring {
            Some(p) => ring = p,
            None => break,
        }
    }
    let mut nodes = HashMap::new();
    for &r in &rings {
        for &id in &layout.ring(r).expect("ring exists").nodes {
            nodes.insert(id, NodeState::from_layout(layout, id, cfg.clone()).expect("node builds"));
        }
    }
    let spine_aps = layout.ring(rings[0]).expect("ring exists").nodes.clone();
    let root = *layout.root_ring().nodes.first().expect("root ring has nodes");
    let mut d = Driver {
        layout,
        nodes,
        queue: VecDeque::new(),
        timers: BTreeMap::new(),
        armed: HashMap::new(),
        seq: 0,
        now: 0,
        outs: Vec::new(),
        timing: false,
        nanos: [0; 3],
        calls: [0; 3],
        captured: BTreeMap::new(),
    };
    let ids: Vec<NodeId> = d.nodes.keys().copied().collect();
    for id in ids {
        d.input(id, Input::Boot, InputKind::Mh);
    }
    // Grow the membership to the workload's size.
    let mut guid = 1u64;
    for _ in 0..members {
        let at = *rng.pick(&spine_aps);
        d.input(at, Input::Mh(MhEvent::Join { guid: Guid(guid), luid: Luid(guid) }), InputKind::Mh);
        guid += 1;
    }
    for _ in 0..200 {
        d.run(5_000);
        if d.nodes[&root].ring_members.operational_count() >= members {
            break;
        }
    }
    // Timed phase at full size: joins, leaves and global queries.
    let root_members = d.nodes[&root].ring_members.operational_count();
    d.timing = true;
    for oldest in 1..=32u64 {
        let at = *rng.pick(&spine_aps);
        d.input(at, Input::Mh(MhEvent::Join { guid: Guid(guid), luid: Luid(guid) }), InputKind::Mh);
        guid += 1;
        d.input(at, Input::Mh(MhEvent::Leave { guid: Guid(oldest) }), InputKind::Mh);
        d.input(at, Input::StartQuery { scope: QueryScope::Global }, InputKind::Mh);
        d.run(2_000);
    }
    d.run(40_000);

    let overhead = timer_overhead_ns();
    let mut costs = LayerCosts { root_members, ..LayerCosts::default() };
    for k in 0..3 {
        costs.handle_calls[k] = d.calls[k];
        if d.calls[k] > 0 {
            costs.handle_ns[k] = (d.nanos[k] as f64 / d.calls[k] as f64 - overhead).max(1.0);
        }
    }
    for (label, envs) in &d.captured {
        let (ns, bytes) = codec_cost(envs);
        costs.codec_ns.insert(*label, ns);
        costs.bytes.insert(*label, bytes);
    }
    let frames: Vec<Bytes> = d.captured.values().flatten().map(wire::encode).collect();
    costs.send_frame_ns = send_frame_cost(&frames);
    costs
}

/// Mean cost of one `Instant::now()` + `elapsed()` pair, subtracted from
/// per-call timings.
fn timer_overhead_ns() -> f64 {
    const N: u32 = 20_000;
    let t0 = Instant::now();
    let mut sink = 0u128;
    for _ in 0..N {
        let t = Instant::now();
        sink += t.elapsed().as_nanos();
    }
    black_box(sink);
    t0.elapsed().as_nanos() as f64 / f64::from(N)
}

/// Mean encode + decode ns and mean encoded size over `envs`.
fn codec_cost(envs: &[Envelope]) -> (f64, f64) {
    let bytes = envs.iter().map(|e| wire::encode(e).len() as f64).sum::<f64>() / envs.len() as f64;
    // Enough repetitions for ~5 ms of work per label.
    let mut reps = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..reps {
            for env in envs {
                let frame = wire::encode(black_box(env));
                black_box(wire::decode(&frame).ok());
            }
        }
        let ns = t0.elapsed().as_nanos() as f64;
        if ns > 5e6 || reps > 1 << 20 {
            return (ns / (reps as f64 * envs.len() as f64), bytes);
        }
        reps *= 4;
    }
}

/// Mean `Router::send_frame` ns into a registered bounded channel, over
/// `frames` round-robin; the receiver is drained outside the timing.
fn send_frame_cost(frames: &[Bytes]) -> f64 {
    if frames.is_empty() {
        return 0.0;
    }
    const BATCH: usize = 1_000;
    const BATCHES: usize = 200;
    let router = Router::new();
    let (tx, rx) = crossbeam::channel::bounded::<ToWorker>(BATCH * 2);
    let (a, b) = (NodeId(1), NodeId(2));
    router.register(a, tx.clone());
    router.register(b, tx);
    let mut nanos = 0u128;
    let mut i = 0usize;
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        for _ in 0..BATCH {
            black_box(router.send_frame(a, b, frames[i % frames.len()].clone()));
            i += 1;
        }
        nanos += t0.elapsed().as_nanos();
        while rx.try_recv().is_ok() {}
    }
    nanos as f64 / (BATCH * BATCHES) as f64
}

/// Mean ns of the simulator's own send path (`Substrate::send_frame` on
/// a `Simulation` of `sc`: link classification, counters, the sender's
/// latency draw and the event push), over sends between ring neighbours.
/// `None` when the scenario does not build.
pub fn sim_send_ns(sc: &Scenario) -> Option<f64> {
    const SENDS: usize = 200_000;
    let mut sim = sc.try_build_sim().ok()?;
    let pairs: Vec<(NodeId, NodeId)> = sim
        .layout
        .rings
        .iter()
        .flat_map(|r| r.nodes.windows(2).map(|w| (w[0], w[1])))
        .take(4_096)
        .collect();
    if pairs.is_empty() {
        return None;
    }
    let frame = Bytes::from(vec![0u8; 64]);
    let t0 = Instant::now();
    for i in 0..SENDS {
        let (from, to) = pairs[i % pairs.len()];
        Substrate::send_frame(&mut sim, from, to, MsgLabel::Token, frame.clone());
    }
    let ns = t0.elapsed().as_nanos() as f64 / SENDS as f64;
    black_box(sim.queue_len());
    Some(ns)
}
