//! Every metric the benchmark reports, with its unit: the one list the
//! runs, `BENCHMARK.json` and `README.md` agree on. A workload that
//! does not run a layer reports that layer's metrics as 0 with a note.

/// End-to-end metrics (`--trace 0`): name, unit, better direction.
///
/// The wall-clock tails `query_p99_us` and `join_visible_p99_ms` are
/// printed as notes, not metrics: on a shared virtual machine, host
/// steal moves them several-fold from one minute to the next (see
/// `README.md`), so no bound on them could hold.
pub const END_TO_END: [(&str, &str, &str); 9] = [
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("queries_per_s", "1/s", "higher"),
    ("query_p50_us", "us", "lower"),
    ("join_visible_p50_ms", "ms", "lower"),
    ("join_visible_p50_ticks", "ticks", "lower"),
    ("join_visible_p99_ticks", "ticks", "lower"),
    ("frames_per_op", "count", "lower"),
];

/// Per-layer metrics (`--trace 1`): name, unit, better direction.
pub const PER_LAYER: [(&str, &str, &str); 66] = [
    ("topology.layout_s", "s", "lower"),
    ("sim.build_s", "s", "lower"),
    ("wire.codec_ns.token", "ns", "lower"),
    ("wire.codec_ns.token_ack", "ns", "lower"),
    ("wire.codec_ns.notify_parent", "ns", "lower"),
    ("wire.codec_ns.notify_child", "ns", "lower"),
    ("wire.codec_ns.query_req", "ns", "lower"),
    ("wire.codec_ns.query_resp", "ns", "lower"),
    ("wire.bytes.token", "B", "lower"),
    ("wire.bytes.query_resp", "B", "lower"),
    ("wire.frames.token", "count", "lower"),
    ("wire.frames.token_ack", "count", "lower"),
    ("wire.frames.mq_local", "count", "lower"),
    ("wire.frames.notify_parent", "count", "lower"),
    ("wire.frames.notify_child", "count", "lower"),
    ("wire.frames.holder_ack", "count", "lower"),
    ("wire.frames.hb_up", "count", "lower"),
    ("wire.frames.hb_down", "count", "lower"),
    ("wire.frames.attach_child", "count", "lower"),
    ("wire.frames.attach_accepted", "count", "lower"),
    ("wire.frames.query_req", "count", "lower"),
    ("wire.frames.query_resp", "count", "lower"),
    ("wire.frames.join_ring", "count", "lower"),
    ("wire.frames.merge_rings", "count", "lower"),
    ("wire.frames.ring_sync", "count", "lower"),
    ("wire.frames.from_mh", "count", "lower"),
    ("wire.share", "ratio", "lower"),
    ("protocol.handle_ns.msg", "ns", "lower"),
    ("protocol.handle_ns.timer", "ns", "lower"),
    ("protocol.handle_ns.mh", "ns", "lower"),
    ("protocol.share", "ratio", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.stale_pops", "count", "lower"),
    ("sim.useful_events", "count", "lower"),
    ("sim.stale_share", "ratio", "lower"),
    ("sim.step_ns.useful", "ns", "lower"),
    ("sim.step_ns.stale", "ns", "lower"),
    ("sim.step_ns.growth", "ratio", "lower"),
    ("sim.peak_queue", "count", "lower"),
    ("sim.bytes_per_node", "B", "lower"),
    ("sim.send_frame_ns", "ns", "lower"),
    ("network.lost", "count", "lower"),
    ("network.codec_rejected", "count", "lower"),
    ("par.execute_s", "s", "lower"),
    ("par.barrier_s", "s", "lower"),
    ("par.flush_s", "s", "lower"),
    ("par.drain_s", "s", "lower"),
    ("par.windows", "count", "lower"),
    ("par.idle_skips", "count", "higher"),
    ("par.frames_batched", "count", "lower"),
    ("par.barrier_share", "ratio", "lower"),
    ("par.shard_cpu_imbalance", "ratio", "lower"),
    ("obs.tracking_overhead", "ratio", "lower"),
    ("obs.repair_p99_ticks", "ticks", "lower"),
    ("cluster.call_ns.query", "ns", "lower"),
    ("cluster.call_ns.mh_event", "ns", "lower"),
    ("cluster.wait_share", "ratio", "lower"),
    ("reactor.worker_busy.mean", "ratio", "lower"),
    ("reactor.worker_busy.max", "ratio", "lower"),
    ("reactor.frames_sent", "count", "lower"),
    ("reactor.backpressure_dropped", "count", "lower"),
    ("reactor.app_events_dropped", "count", "lower"),
    ("reactor.codec_rejected", "count", "lower"),
    ("transport.send_frame_ns", "ns", "lower"),
    ("ledger.residual", "ratio", "lower"),
    ("trace.overhead", "ratio", "lower"),
];

/// The unit of metric `name`, if it is catalogued.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|m| m.0 == name).map(|m| m.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_name;

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(!unit.is_empty() && unit.len() <= 16, "{name}: unit {unit}");
            assert!(matches!(*better, "lower" | "higher"), "{name}");
        }
    }

    /// `BENCHMARK.json` at the repository root lists exactly these
    /// metrics, with these units and directions.
    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = json.chars().filter(|c| !c.is_whitespace()).collect();
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":\"{better}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = compact.matches("\"better\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists extra metrics"
        );
    }
}
