//! Run statistics.
//!
//! [`Stats`] is a plain aggregate of the counters the paper's evaluation
//! reports: NVM read/write request counts (split into data and counter
//! traffic), coalescing activity, counter-cache hit rates, write-queue
//! stalls, and per-transaction latencies. Components receive `&mut Stats`
//! and bump fields directly; nothing here is concurrent.

use crate::time::Cycle;

/// Aggregated counters for one simulation run.
///
/// # Examples
///
/// ```
/// use supermem_sim::Stats;
///
/// let mut s = Stats::default();
/// s.nvm_data_writes += 10;
/// s.nvm_counter_writes += 10;
/// s.counter_writes_coalesced += 5;
/// assert_eq!(s.nvm_writes_total(), 20);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stats {
    /// Data-line write requests issued to NVM banks.
    pub nvm_data_writes: u64,
    /// Counter-line write requests issued to NVM banks.
    pub nvm_counter_writes: u64,
    /// Data-line read requests served by NVM banks.
    pub nvm_data_reads: u64,
    /// Counter-line read requests served by NVM banks (counter-cache misses).
    pub nvm_counter_reads: u64,
    /// Counter writes removed from the write queue by CWC.
    pub counter_writes_coalesced: u64,
    /// Counter-cache hits.
    pub counter_cache_hits: u64,
    /// Counter-cache misses.
    pub counter_cache_misses: u64,
    /// Dirty counter lines written back on eviction (write-back mode).
    pub counter_cache_writebacks: u64,
    /// Cycles spent blocked waiting for write-queue space.
    pub wq_stall_cycles: Cycle,
    /// Number of appends that found the write queue full.
    pub wq_full_events: u64,
    /// Reads forwarded from a pending write-queue entry.
    pub wq_read_forwards: u64,
    /// L1 hits / L2 hits / L3 hits / memory accesses from the core side.
    pub l1_hits: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L3 hits.
    pub l3_hits: u64,
    /// Demand accesses that went to main memory.
    pub mem_accesses: u64,
    /// Cache-line flushes (`clwb`) issued by the program.
    pub clwb_ops: u64,
    /// Memory fences (`sfence`) issued by the program.
    pub sfence_ops: u64,
    /// Pages re-encrypted due to minor-counter overflow.
    pub pages_reencrypted: u64,
    /// Integrity-tree verifications performed on counter fetches.
    pub integrity_verifications: u64,
    /// Integrity-tree verification failures (active tampering detected).
    pub integrity_violations: u64,
    /// Tree node-group line writes issued to NVM banks (streaming
    /// engine only; kept out of [`Stats::nvm_writes_total`] so the
    /// eager figures stay comparable).
    pub nvm_tree_writes: u64,
    /// Leaf updates armed in the streaming pending-update cache.
    pub tree_updates_enqueued: u64,
    /// Armed leaf updates absorbed in place by an already-pending entry
    /// for the same page.
    pub tree_updates_coalesced: u64,
    /// Pending leaf updates propagated to the root (eviction, fence, or
    /// shutdown flush).
    pub tree_propagations: u64,
    /// Propagations forced by pending-cache eviction specifically.
    pub tree_evictions: u64,
    /// Retries of NVM reads that failed transiently.
    pub read_retries: u64,
    /// Single-bit media errors ECC corrected on the read path.
    pub ecc_corrections: u64,
    /// Reads answered with poison (zeroes) after an unrecoverable media
    /// error or retry exhaustion.
    pub poisoned_reads: u64,
    /// Writes dropped in degraded mode because their bank has failed.
    pub dropped_writes: u64,
    /// Committed transactions.
    pub txn_commits: u64,
    /// Per-transaction latencies in cycles.
    pub txn_latencies: Vec<Cycle>,
    /// Per-bank write counts (indexed by bank).
    pub bank_writes: Vec<u64>,
}

impl Stats {
    /// Creates statistics for a machine with `banks` NVM banks.
    pub fn new(banks: usize) -> Self {
        Self {
            bank_writes: vec![0; banks],
            ..Self::default()
        }
    }

    /// Total write requests issued to NVM (data + counters).
    pub fn nvm_writes_total(&self) -> u64 {
        self.nvm_data_writes + self.nvm_counter_writes
    }

    /// Total read requests issued to NVM (data + counters).
    pub fn nvm_reads_total(&self) -> u64 {
        self.nvm_data_reads + self.nvm_counter_reads
    }

    /// Counter-cache hit rate in `[0, 1]`; `None` when there were no
    /// counter-cache accesses.
    pub fn counter_cache_hit_rate(&self) -> Option<f64> {
        let total = self.counter_cache_hits + self.counter_cache_misses;
        (total > 0).then(|| self.counter_cache_hits as f64 / total as f64)
    }

    /// Records the latency of one committed transaction.
    pub fn record_txn(&mut self, latency: Cycle) {
        self.txn_commits += 1;
        self.txn_latencies.push(latency);
    }

    /// Mean transaction latency in cycles; `None` if no transactions ran.
    pub fn mean_txn_latency(&self) -> Option<f64> {
        if self.txn_latencies.is_empty() {
            return None;
        }
        let sum: u128 = self.txn_latencies.iter().map(|&c| c as u128).sum();
        Some(sum as f64 / self.txn_latencies.len() as f64)
    }

    /// Folds another run's counters into this one (used by the multi-core
    /// driver to merge per-core statistics).
    pub fn merge(&mut self, other: &Stats) {
        self.nvm_data_writes += other.nvm_data_writes;
        self.nvm_counter_writes += other.nvm_counter_writes;
        self.nvm_data_reads += other.nvm_data_reads;
        self.nvm_counter_reads += other.nvm_counter_reads;
        self.counter_writes_coalesced += other.counter_writes_coalesced;
        self.counter_cache_hits += other.counter_cache_hits;
        self.counter_cache_misses += other.counter_cache_misses;
        self.counter_cache_writebacks += other.counter_cache_writebacks;
        self.wq_stall_cycles += other.wq_stall_cycles;
        self.wq_full_events += other.wq_full_events;
        self.wq_read_forwards += other.wq_read_forwards;
        self.l1_hits += other.l1_hits;
        self.l2_hits += other.l2_hits;
        self.l3_hits += other.l3_hits;
        self.mem_accesses += other.mem_accesses;
        self.clwb_ops += other.clwb_ops;
        self.sfence_ops += other.sfence_ops;
        self.pages_reencrypted += other.pages_reencrypted;
        self.integrity_verifications += other.integrity_verifications;
        self.integrity_violations += other.integrity_violations;
        self.nvm_tree_writes += other.nvm_tree_writes;
        self.tree_updates_enqueued += other.tree_updates_enqueued;
        self.tree_updates_coalesced += other.tree_updates_coalesced;
        self.tree_propagations += other.tree_propagations;
        self.tree_evictions += other.tree_evictions;
        self.read_retries += other.read_retries;
        self.ecc_corrections += other.ecc_corrections;
        self.poisoned_reads += other.poisoned_reads;
        self.dropped_writes += other.dropped_writes;
        self.txn_commits += other.txn_commits;
        self.txn_latencies.extend_from_slice(&other.txn_latencies);
        if self.bank_writes.len() < other.bank_writes.len() {
            self.bank_writes.resize(other.bank_writes.len(), 0);
        }
        for (dst, src) in self.bank_writes.iter_mut().zip(&other.bank_writes) {
            *dst += src;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_data_and_counter_traffic() {
        let mut s = Stats::new(8);
        s.nvm_data_writes = 7;
        s.nvm_counter_writes = 3;
        s.nvm_data_reads = 2;
        s.nvm_counter_reads = 5;
        assert_eq!(s.nvm_writes_total(), 10);
        assert_eq!(s.nvm_reads_total(), 7);
    }

    #[test]
    fn hit_rate_none_without_accesses() {
        assert_eq!(Stats::default().counter_cache_hit_rate(), None);
    }

    #[test]
    fn hit_rate_fraction() {
        let s = Stats {
            counter_cache_hits: 3,
            counter_cache_misses: 1,
            ..Stats::default()
        };
        assert_eq!(s.counter_cache_hit_rate(), Some(0.75));
    }

    #[test]
    fn txn_latency_statistics() {
        let mut s = Stats::default();
        for lat in [100u64, 200, 300, 400] {
            s.record_txn(lat);
        }
        assert_eq!(s.txn_commits, 4);
        assert_eq!(s.mean_txn_latency(), Some(250.0));
        assert_eq!(Stats::default().mean_txn_latency(), None);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Stats::new(2);
        a.nvm_data_writes = 1;
        a.bank_writes[0] = 4;
        a.record_txn(10);
        let mut b = Stats::new(2);
        b.nvm_data_writes = 2;
        b.bank_writes[1] = 6;
        b.record_txn(20);
        a.merge(&b);
        assert_eq!(a.nvm_data_writes, 3);
        assert_eq!(a.bank_writes, vec![4, 6]);
        assert_eq!(a.txn_commits, 2);
        assert_eq!(a.txn_latencies, vec![10, 20]);
    }

    #[test]
    fn merge_grows_bank_vector() {
        let mut a = Stats::new(1);
        let mut b = Stats::new(4);
        b.bank_writes[3] = 9;
        a.merge(&b);
        assert_eq!(a.bank_writes.len(), 4);
        assert_eq!(a.bank_writes[3], 9);
    }
}
