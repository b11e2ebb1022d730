//! Drain stage of the write path: write-queue issue, slot
//! backpressure, and clean shutdown.
//!
//! Everything here is about *emptying* the ADR write queue into the NVM
//! banks — the opposite end of the pipeline from the append stage. The
//! queue itself owns the issue scheduling; this stage decides when it
//! runs and how flushes block on a full queue.

use supermem_sim::Cycle;

use super::MemoryController;

impl MemoryController {
    /// Lets the write queue issue everything that can start by `now`.
    pub fn drain_until(&mut self, now: Cycle) {
        self.wq.drain_until(
            now,
            &mut self.banks,
            &mut self.store,
            &mut self.stats,
            &mut self.probes,
        );
    }

    /// Whether [`MemoryController::drain_until`]`(now)` could issue
    /// anything. A `false` is exact (empty queue, or every pending
    /// entry provably starts after `now`), so callers may skip the
    /// drain — and in particular skip the cross-channel state swap the
    /// [`ChannelSet`](crate::ChannelSet) performs around sibling drains.
    pub fn would_drain(&self, now: Cycle) -> bool {
        self.wq.may_issue_by(now, &self.banks)
    }

    /// Blocks (in simulated time) until `needed` queue slots are free,
    /// draining entries as banks become available. Returns the cycle at
    /// which the slots are guaranteed.
    pub(super) fn wait_slots(&mut self, needed: usize, from: Cycle) -> Cycle {
        self.wq.wait_for_slots(
            needed,
            from,
            &mut self.banks,
            &mut self.store,
            &mut self.stats,
            &mut self.probes,
        )
    }

    /// Clean shutdown: flushes dirty write-back counters, propagates any
    /// armed streaming-tree updates, and drains the write queue. Returns
    /// the cycle the last write began service.
    pub fn finish(&mut self, from: Cycle) -> Cycle {
        let mut t = from;
        for (page, ctr) in self.cc.drain_dirty() {
            self.stats.counter_cache_writebacks += 1;
            let t_app = self.wait_slots(1, t);
            self.append_counter(page, ctr.encode(), t_app);
            t = t_app;
        }
        // Unconditional (not the mutation-gated fence hook): even the
        // tree-late mutant persists its tree at clean shutdown.
        self.flush_tree_pending(t);
        self.wq.drain_all(
            t,
            &mut self.banks,
            &mut self.store,
            &mut self.stats,
            &mut self.probes,
        )
    }
}
