//! Crash machinery: power-failure snapshots, armed mid-run crashes,
//! fault-plan injection, and degraded mode.
//!
//! The snapshot logic models what the ADR battery does at power loss —
//! drain the write queue into the array (and, for a battery-backed
//! write-back counter cache, persist the dirty counters) — optionally
//! corrupted by a [`FaultSpec`] describing a torn drain or fail-stopped
//! bank.

use supermem_nvm::bank::BankTimer;
use supermem_nvm::fault::{FaultPlan, FaultSpec};
use supermem_nvm::NvmStore;
use supermem_sim::CounterCacheBacking;

use super::{CrashImage, MemoryController};

impl MemoryController {
    /// Counts one append event against any armed crash; freezes the
    /// image when the countdown hits zero.
    pub(super) fn note_append_event(&mut self) {
        self.append_events += 1;
        if let Some(n) = self.armed_crash.as_mut() {
            *n -= 1;
            if *n == 0 {
                self.armed_crash = None;
                self.crash_image = Some(self.snapshot());
            }
        }
    }

    fn snapshot(&self) -> CrashImage {
        let mut store = self.store.clone();
        match self.fault_spec {
            None => {
                self.wq.flush_into(&mut store);
                if self.cfg.counter_cache_backing == CounterCacheBacking::Battery {
                    for (page, ctr) in self.cc_dirty_entries() {
                        store.write_counter(page, ctr.encode());
                    }
                }
            }
            Some(spec) => self.snapshot_faulted(&mut store, spec),
        }
        let bmt_root = self.tree_root_after_adr_flush(&mut store);
        CrashImage {
            store,
            rsr: self.rsr,
            bmt_root,
        }
    }

    /// The ADR domain includes the streaming pending-update cache: at
    /// power loss the battery propagates the armed leaves, landing the
    /// persisted-level node lines next to the drained write queue, and
    /// the root register keeps the post-flush value. In eager mode (or
    /// with nothing pending) this is just the live root. A fault plan
    /// already attached to `store` governs the node-line writes, so
    /// lines lost with a failed bank stay lost.
    fn tree_root_after_adr_flush(&self, store: &mut NvmStore) -> Option<u64> {
        let bmt = self.bmt.as_ref()?;
        if !self.cfg.streaming_tree() || bmt.pending_len() == 0 {
            return Some(bmt.root());
        }
        let mut flushed = bmt.clone();
        let prop = flushed.propagate_pending();
        for w in &prop.node_writes {
            store.write_tree(w.line_id(), w.payload);
        }
        Some(flushed.root())
    }

    /// The power event goes wrong: the ADR drain tears mid-flush and/or
    /// a bank fail-stops, per `spec`. Everything the media loses or
    /// mangles is recorded in a [`FaultPlan`] attached to the image's
    /// store, so recovery's checked reads see the damage.
    fn snapshot_faulted(&self, store: &mut NvmStore, spec: FaultSpec) {
        let mut plan = FaultPlan::new(spec);
        let failed = plan.failed_bank(self.banks.len());
        if let Some(fb) = failed {
            // Settled lines on the failed bank are gone with it.
            for line in store.data_lines() {
                if self.map.data_bank(line) == fb {
                    plan.note_lost_data(line);
                }
            }
            for page in store.counter_lines() {
                if self.ctr_bank(page) == fb {
                    plan.note_lost_counter(page);
                }
            }
            for line in store.tree_lines() {
                if self.tree_bank(line) == fb {
                    plan.note_lost_tree(line);
                }
            }
        }
        let tear = plan.drain_tear(self.wq.len());
        self.wq.flush_into_faulted(store, failed, tear, &mut plan);
        if self.cfg.counter_cache_backing == CounterCacheBacking::Battery {
            for (page, ctr) in self.cc_dirty_entries() {
                if failed == Some(self.ctr_bank(page)) {
                    plan.note_lost_counter(page);
                } else {
                    store.write_counter(page, ctr.encode());
                }
            }
        }
        store.attach_faults(plan);
    }

    /// Arms a crash that triggers after `appends` more append events
    /// (an atomic data+counter pair counts as one event; with
    /// `atomic_pair_append` disabled the counter and data appends are
    /// separate events). The frozen image is retrievable with
    /// [`MemoryController::take_crash_image`].
    ///
    /// # Panics
    ///
    /// Panics if `appends` is zero.
    pub fn arm_crash_after_appends(&mut self, appends: u64) {
        assert!(appends > 0, "crash countdown must be positive");
        self.armed_crash = Some(appends);
        self.crash_image = None;
    }

    /// The image frozen by an armed crash, if it has triggered.
    pub fn take_crash_image(&mut self) -> Option<CrashImage> {
        self.crash_image.take()
    }

    /// Simulates an immediate power failure and returns the surviving
    /// NVM image.
    pub fn crash_now(&self) -> CrashImage {
        self.snapshot()
    }

    /// Direct access to the armed-crash countdown. The multi-channel
    /// wrapper swaps a machine-global countdown in and out around each
    /// delegated call so appends on every channel tick the same fuse.
    pub(crate) fn armed_crash_mut(&mut self) -> &mut Option<u64> {
        &mut self.armed_crash
    }

    /// Makes the next power event go wrong per `spec`: the crash image
    /// produced by [`MemoryController::crash_now`] or an armed crash
    /// will carry the spec's torn drain or failed bank, recorded in a
    /// [`FaultPlan`] attached to the image store. The live system is
    /// unaffected until then.
    pub fn set_fault_plan(&mut self, spec: FaultSpec) {
        self.fault_spec = Some(spec);
    }

    /// Fail-stops a bank (channel-local index): the controller enters
    /// degraded mode, dropping writes headed there and poisoning reads
    /// instead of panicking.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn mark_bank_failed(&mut self, bank: usize) {
        self.banks[bank].mark_failed();
    }

    /// True when any bank has fail-stopped.
    pub fn is_degraded(&self) -> bool {
        self.banks.iter().any(BankTimer::is_failed)
    }
}

#[cfg(test)]
impl MemoryController {
    /// Attaches a fault plan to the *live* store, so demand reads hit
    /// the media model (tests of the retry/poison path use this).
    pub(crate) fn attach_store_faults(&mut self, plan: FaultPlan) {
        self.store.attach_faults(plan);
    }

    /// XORs `mask` into the stored ciphertext of data line `line`: an
    /// attacker with physical access rewriting the DIMM under a running
    /// machine.
    pub(crate) fn tamper_data_line(
        &mut self,
        line: supermem_nvm::addr::LineAddr,
        mask: supermem_nvm::LineData,
    ) {
        let mut bytes = self.store.read_data(line);
        for (b, m) in bytes.iter_mut().zip(mask) {
            *b ^= m;
        }
        self.store.write_data(line, bytes);
    }
}
