//! The window and mailbox side of a shard of the parallel engine.
//!
//! A shard *is* a [`Simulation`] — the same node arena, dispatch loop and
//! [`Substrate`](rgb_core::substrate::Substrate) impl as the sequential
//! engine — built over one slice of a shared `ShardMap`. Its `send_frame`
//! stages a frame whose destination lives on another shard in a
//! per-destination outbox instead of the local queue; this module holds
//! the driver-facing code that moves those staged events between shards.
//!
//! Because randomness and event keys derive from node identity (see the
//! [`crate::sim`] module docs), a shard processing its slice of events in
//! `(at, key)` order performs *bit-for-bit* the same node transitions the
//! sequential engine performs for those nodes — the window protocol only
//! has to guarantee that no event arrives after its window was processed.

use crate::queue::{Event, EventKey};
use crate::sim::Simulation;

impl Simulation {
    /// Queue an event addressed to this shard (the driver's schedule
    /// routing and the mailbox drain both land here).
    pub(crate) fn enqueue(&mut self, event: Event) {
        debug_assert!(event.at >= self.now, "event arrived after its window");
        self.events.push(self.now, event.at, event.key, event.kind);
    }

    /// `(at, key)` of the next local event (the merged driver's probe).
    pub(crate) fn peek_entry(&mut self) -> Option<(u64, EventKey)> {
        self.events.peek_entry(self.now)
    }

    /// Flush every non-empty outbox as **one batch per destination** into
    /// the cross-shard mailboxes. Returns the minimum `at` over every
    /// flushed event (`u64::MAX` when nothing was staged) — part of this
    /// shard's published progress bound, since a flushed event is pending
    /// work the destination has not yet seen.
    pub(crate) fn flush_batches(&mut self, txs: &[crossbeam::channel::Sender<Vec<Event>>]) -> u64 {
        let mut sent_min = u64::MAX;
        for (outbox, tx) in self.outbox.iter_mut().zip(txs) {
            if outbox.is_empty() {
                continue;
            }
            for event in outbox.iter() {
                sent_min = sent_min.min(event.at);
            }
            let batch = std::mem::replace(outbox, self.spare.pop().unwrap_or_default());
            self.metrics.par.frames_batched += batch.len() as u64;
            self.metrics.par.batches += 1;
            self.metrics.par.max_batch = self.metrics.par.max_batch.max(batch.len() as u64);
            // A closed mailbox means its owner already unwound; the
            // barrier wait after this flush surfaces the poisoning.
            let _ = tx.send(batch);
        }
        sent_min
    }

    /// Drain every batch currently in this shard's mailbox into the local
    /// queue, keeping the emptied buffers for later flushes.
    pub(crate) fn drain_batches(&mut self, rx: &crossbeam::channel::Receiver<Vec<Event>>) {
        // Bound the recycle pool so a bursty window can't pin its peak
        // buffer count forever.
        const SPARE_CAP: usize = 32;
        while let Ok(mut batch) = rx.try_recv() {
            for event in batch.drain(..) {
                self.enqueue(event);
            }
            if self.spare.len() < SPARE_CAP {
                self.spare.push(batch);
            }
        }
    }
}
