//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions: name, start, end and parent. Work that
//! repeats millions of times (one simulator step) is folded into an
//! aggregate — a count and a total — instead of one span per call.
//! Everything stays in memory until [`Tracer::write`] at the end.

use crate::report::{json_num, json_str};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id (1-based; spans of one operation share their op's id as
    /// `op`).
    pub id: u32,
    /// Parent span id, 0 for a root span.
    pub parent: u32,
    /// Operation id: the query or join this span belongs to (0 = none).
    pub op: u32,
    /// Layer call name, e.g. `cluster.query`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

/// Spans and aggregates of one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    aggregates: BTreeMap<&'static str, (u64, u64)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), aggregates: BTreeMap::new() }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, op: u32) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span { id, parent, op, name, start_ns, end_ns: start_ns });
        id
    }

    /// Close span `id` now.
    pub fn close(&mut self, id: u32) {
        let end = self.now_ns();
        if let Some(s) = self.spans.get_mut(id as usize - 1) {
            s.end_ns = end;
        }
    }

    /// Record an already-measured span; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        op: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span { id, parent, op, name, start_ns, end_ns });
        id
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent, 0);
        let out = f();
        self.close(id);
        out
    }

    /// Fold `count` calls totalling `nanos` into aggregate `name`.
    pub fn aggregate(&mut self, name: &'static str, count: u64, nanos: u64) {
        let e = self.aggregates.entry(name).or_insert((0, 0));
        e.0 += count;
        e.1 += nanos;
    }

    /// `(count, total ns)` of spans plus aggregates named `name`.
    pub fn totals(&self, name: &str) -> (u64, u64) {
        let mut count = 0;
        let mut nanos = 0;
        for s in self.spans.iter().filter(|s| s.name == name) {
            count += 1;
            nanos += s.end_ns - s.start_ns;
        }
        if let Some(&(c, n)) = self.aggregates.get(name) {
            count += c;
            nanos += n;
        }
        (count, nanos)
    }

    /// Self time of every span name: each span's duration minus the part
    /// its direct children cover, summed by name.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            if s.parent != 0 {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id as usize]);
            *out.entry(s.name).or_insert(0) += own;
        }
        out
    }

    /// Render spans, aggregates and self times as JSON; `extra` is a list
    /// of preformatted `"key": value` members added at the top level.
    pub fn json(&self, extra: &[(String, String)]) -> String {
        let mut out = String::from("{\n");
        for (k, v) in extra {
            let _ = writeln!(out, "  {}: {},", json_str(k), v);
        }
        out.push_str("  \"aggregates\": {");
        for (i, (name, (count, nanos))) in self.aggregates.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {}: {{\"count\": {count}, \"ns\": {nanos}}}",
                json_str(name)
            );
        }
        out.push_str("\n  },\n  \"self_ns\": {");
        for (i, (name, ns)) in self.self_times().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    {}: {ns}", json_str(name));
        }
        out.push_str("\n  },\n  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {{\"id\": {}, \"parent\": {}, \"op\": {}, \"name\": {}, \"start_ns\": \
                 {}, \"end_ns\": {}}}",
                s.id,
                s.parent,
                s.op,
                json_str(s.name),
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// A ledger line: a layer, how often it ran and what one run of it costs.
#[derive(Debug, Clone)]
pub struct LedgerRow {
    /// Layer name.
    pub layer: &'static str,
    /// Calls.
    pub count: f64,
    /// Cost of one call, ns.
    pub cost_ns: f64,
}

/// `(Σ count × cost − measured) ÷ measured`, and the rows as JSON.
pub fn ledger(rows: &[LedgerRow], measured_ns: f64) -> (f64, String) {
    let predicted: f64 = rows.iter().map(|r| r.count * r.cost_ns).sum();
    let residual = if measured_ns > 0.0 { (predicted - measured_ns) / measured_ns } else { 0.0 };
    let mut out = String::from("{\"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{{\"layer\": {}, \"count\": {}, \"cost_ns\": {}, \"total_ns\": {}}}",
            json_str(r.layer),
            json_num(r.count),
            json_num(r.cost_ns),
            json_num(r.count * r.cost_ns)
        );
    }
    let _ = write!(
        out,
        "], \"predicted_ns\": {}, \"measured_ns\": {}, \"residual\": {}}}",
        json_num(predicted),
        json_num(measured_ns),
        json_num(residual)
    );
    (residual, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::default();
        t.record("op", 0, 1, 0, 100);
        t.record("call", 1, 1, 10, 30);
        t.record("wait", 1, 1, 30, 90);
        let st = t.self_times();
        assert_eq!(st["op"], 20);
        assert_eq!(st["call"], 20);
        assert_eq!(st["wait"], 60);
        assert_eq!(t.totals("wait"), (1, 60));
    }

    #[test]
    fn ledger_residual_is_relative_to_measured() {
        let rows = [
            LedgerRow { layer: "a", count: 10.0, cost_ns: 5.0 },
            LedgerRow { layer: "b", count: 1.0, cost_ns: 40.0 },
        ];
        let (r, json) = ledger(&rows, 100.0);
        assert!((r + 0.1).abs() < 1e-12);
        assert!(json.contains("\"predicted_ns\": 90"));
    }
}
