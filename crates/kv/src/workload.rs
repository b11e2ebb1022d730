//! The KV store behind the unified [`Workload`] trait, driven by the
//! serving engine's open-loop traffic generator — Zipfian-skewed
//! update/remove/read mixes, one request to completion per `step`.
//!
//! Unlike the paper's micro-benchmarks, this workload owns an
//! application-level recovery protocol, so it overrides
//! [`Workload::recover`]: after a crash, the driver hands it the
//! recovered memory and the workload re-attaches via the checksummed
//! WAL-plus-snapshot path, then `verify` differentially checks the
//! surviving state against the in-DRAM shadow of acknowledged
//! operations.

use supermem::persist::{PMem, TxnError};
use supermem::workloads::Workload;
use supermem_serve::{ReqKind, TrafficGen, TrafficSpec};

use crate::bytes::{KvBytes, KvMap};
use crate::recovery::{recover, RecoveryOptions};
use crate::store::{KvError, KvStore};
use crate::KvLayout;

/// The KV store driven single-threaded through the workload trait.
///
/// # Examples
///
/// ```
/// use supermem::persist::VecMem;
/// use supermem::workloads::Workload;
/// use supermem_kv::{KvLayout, KvWorkload};
/// use supermem_serve::TrafficSpec;
///
/// let layout = KvLayout::new(0x1000, 1 << 16, 1 << 16).unwrap();
/// let mut mem = VecMem::new();
/// let mut w: Box<dyn Workload<VecMem>> =
///     Box::new(KvWorkload::new(&mut mem, layout, 64, TrafficSpec::default()).unwrap());
/// for _ in 0..20 {
///     w.step(&mut mem).unwrap();
/// }
/// assert!(w.committed() > 0); // mutations ack; reads don't commit
/// w.verify(&mut mem).unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct KvWorkload {
    store: KvStore,
    traffic: TrafficGen,
    shadow: KvMap,
    reads: u64,
    read_mismatches: u64,
}

/// Spells a Zipfian-drawn key as stored bytes.
fn key_bytes(key: u64) -> [u8; 8] {
    key.to_le_bytes()
}

impl KvWorkload {
    /// Formats a fresh store in `layout` and builds the traffic stream
    /// that will drive it, checkpointing every `snapshot_every`
    /// mutations.
    ///
    /// # Errors
    ///
    /// Propagates [`KvError`] from formatting (an undersized layout).
    pub fn new<M: PMem>(
        mem: &mut M,
        layout: KvLayout,
        snapshot_every: u64,
        mut spec: TrafficSpec,
    ) -> Result<Self, KvError> {
        spec.removes = true;
        spec.requests = u64::MAX; // the runner decides how many steps
        Ok(Self {
            store: KvStore::format(mem, layout, snapshot_every)?,
            traffic: TrafficGen::new(&spec),
            shadow: KvMap::new(),
            reads: 0,
            read_mismatches: 0,
        })
    }

    /// The underlying store (stats, layout access).
    pub fn store(&self) -> &KvStore {
        &self.store
    }

    /// Reads served so far (reads don't count as committed txns).
    pub fn reads(&self) -> u64 {
        self.reads
    }
}

/// Maps a storage-layer refusal onto the transaction-layer error the
/// trait speaks: every [`KvError`] is a capacity refusal of some kind,
/// so `LogFull` carries the need/capacity pair faithfully.
fn to_txn_error(e: &KvError) -> TxnError {
    match *e {
        KvError::WalFull { need, cap } | KvError::SnapshotOverflow { need, cap } => {
            TxnError::LogFull {
                needed: need,
                capacity: cap,
            }
        }
        // Layout and key/value-size refusals cannot occur for generated
        // traffic (8-byte keys, 8-byte values); map them onto a
        // zero-capacity refusal rather than panicking.
        _ => TxnError::LogFull {
            needed: 0,
            capacity: 0,
        },
    }
}

impl<M: PMem> Workload<M> for KvWorkload {
    fn name(&self) -> &'static str {
        "kv"
    }

    fn step(&mut self, mem: &mut M) -> Result<(), TxnError> {
        let Some(req) = self.traffic.next() else {
            unreachable!("traffic stream is unbounded")
        };
        let key = key_bytes(req.key);
        match req.kind {
            ReqKind::Update => {
                let value = key_bytes(req.value);
                self.store
                    .put(mem, &key, &value)
                    .map_err(|e| to_txn_error(&e))?;
                self.shadow
                    .insert(KvBytes::from(&key), KvBytes::from(&value));
            }
            ReqKind::Remove => {
                self.store.delete(mem, &key).map_err(|e| to_txn_error(&e))?;
                self.shadow.remove(key.as_slice());
            }
            ReqKind::Read => {
                self.reads += 1;
                let expect = self.shadow.get(key.as_slice()).map(KvBytes::as_slice);
                if self.store.get(&key) != expect {
                    self.read_mismatches += 1;
                }
            }
        }
        Ok(())
    }

    fn verify(&mut self, mem: &mut M) -> Result<(), String> {
        if self.read_mismatches > 0 {
            return Err(format!(
                "{} of {} reads diverged from the shadow",
                self.read_mismatches, self.reads
            ));
        }
        // Differential check: recover from the persistent image and
        // compare against the in-DRAM shadow of acknowledged ops.
        let recovered = recover(mem, self.store.layout(), &RecoveryOptions::default())
            .map_err(|e| format!("kv recovery failed under verify: {e}"))?;
        if recovered.store.entries() != &self.shadow {
            return Err(format!(
                "recovered state ({} entries) diverges from shadow ({} entries)",
                recovered.store.len(),
                self.shadow.len()
            ));
        }
        if self.store.entries() != &self.shadow {
            return Err("live state diverges from shadow".into());
        }
        Ok(())
    }

    fn committed(&self) -> u64 {
        self.store.stats().acked
    }

    fn recover(&mut self, mem: &mut M) -> Result<(), String> {
        let recovered = recover(mem, self.store.layout(), &RecoveryOptions::default())
            .map_err(|e| format!("kv recovery failed: {e}"))?;
        self.store = recovered.store;
        self.shadow = self.store.entries().clone();
        self.read_mismatches = 0;
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;
    use supermem::persist::VecMem;

    fn layout() -> KvLayout {
        KvLayout::new(0x1000, 1 << 16, 1 << 16).unwrap()
    }

    #[test]
    fn trait_object_runs_zipfian_traffic_and_verifies() {
        let mut mem = VecMem::new();
        let mut w: Box<dyn Workload<VecMem>> =
            Box::new(KvWorkload::new(&mut mem, layout(), 16, TrafficSpec::default()).unwrap());
        for _ in 0..200 {
            w.step(&mut mem).unwrap();
        }
        assert_eq!(w.name(), "kv");
        assert!(w.committed() > 0);
        w.verify(&mut mem).unwrap();
    }

    #[test]
    fn recover_reattaches_and_keeps_serving() {
        let mut mem = VecMem::new();
        let mut w = KvWorkload::new(&mut mem, layout(), 8, TrafficSpec::default()).unwrap();
        for _ in 0..100 {
            Workload::<VecMem>::step(&mut w, &mut mem).unwrap();
        }
        let committed = Workload::<VecMem>::committed(&w);
        Workload::<VecMem>::recover(&mut w, &mut mem).unwrap();
        // Recovery rebuilt the same state; the workload keeps serving.
        for _ in 0..50 {
            Workload::<VecMem>::step(&mut w, &mut mem).unwrap();
        }
        assert!(Workload::<VecMem>::committed(&w) > 0);
        let _ = committed;
        Workload::<VecMem>::verify(&mut w, &mut mem).unwrap();
    }

    #[test]
    fn default_trait_recover_refuses_for_paper_workloads() {
        use supermem::workloads::{WorkloadKind, WorkloadSpec};
        let mut mem = VecMem::new();
        let mut w = WorkloadSpec::new(WorkloadKind::Queue)
            .build(&mut mem)
            .unwrap();
        let err = Workload::<VecMem>::recover(&mut w, &mut mem).unwrap_err();
        assert!(err.contains("no application-level recovery"), "{err}");
    }
}
