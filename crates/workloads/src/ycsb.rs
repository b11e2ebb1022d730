//! A YCSB-style mixed read/insert key-value workload (extension beyond
//! the paper's five write-dominated micro-benchmarks).
//!
//! The paper's §2.2.3 argument for counter-mode encryption is that
//! *reads* hide the OTP generation behind the NVM array access, so an
//! encrypted NVM's read path costs almost nothing extra — the overhead
//! is all on the write path. A read-heavy mix makes that asymmetry
//! visible: the more reads, the smaller every scheme's gap to Unsec.
//!
//! Operations run over the [`BTreeWorkload`] KV store: lookups of
//! previously inserted keys (plain traversals) and transactional
//! inserts, mixed by a configurable read percentage (YCSB A ≈ 50,
//! B ≈ 95, C = 100).

use supermem_persist::{PMem, TxnError};
use supermem_sim::SplitMix64;

use crate::btree::BTreeWorkload;
use crate::spec::{SpecError, WorkloadKind};

/// Mixed read/insert KV workload.
#[derive(Debug, Clone)]
pub struct YcsbWorkload {
    tree: BTreeWorkload,
    inserted: Vec<u64>,
    read_pct: u8,
    value_bytes: usize,
    rng: SplitMix64,
}

impl YcsbWorkload {
    /// Creates the store in `[base, base + len)`. `read_pct` of the
    /// operations are lookups (0..=100); inserts carry values sized so
    /// a transaction writes `req_bytes`. A handful of seed records are
    /// inserted so early reads have something to find.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::ReadPct`] if `read_pct > 100`,
    /// [`SpecError::ReqBytes`] if `req_bytes < 16`, and
    /// [`SpecError::RegionTooSmall`] if seeding the store does not fit
    /// in the region.
    pub fn try_new<M: PMem>(
        mem: &mut M,
        base: u64,
        len: u64,
        req_bytes: u64,
        read_pct: u8,
        seed: u64,
    ) -> Result<Self, SpecError> {
        if read_pct > 100 {
            return Err(SpecError::ReadPct(read_pct));
        }
        if req_bytes < 16 {
            return Err(SpecError::ReqBytes {
                kind: WorkloadKind::Ycsb,
                req_bytes,
                min: 16,
            });
        }
        // The underlying tree panics on arena exhaustion, so bound the
        // region up front: undo log (4·req + 8 KiB), header, root node,
        // the 8 seed records (≈ req each), a few split nodes, and
        // alignment slack.
        let min_len = 4 * req_bytes + 8192 + 8 * (req_bytes + 8) + 4 * 384 + 16 * 64;
        if len < min_len {
            return Err(SpecError::RegionTooSmall {
                kind: WorkloadKind::Ycsb,
                detail: format!("{len} B region, seeding needs at least {min_len} B"),
            });
        }
        let mut rng = SplitMix64::new(seed);
        let mut tree = BTreeWorkload::new(mem, base, len, req_bytes, rng.next_u64());
        let value_bytes = (req_bytes - 8) as usize;
        let mut inserted = Vec::new();
        for _ in 0..8 {
            let key = rng.next_u64() >> 1;
            let mut value = vec![0u8; value_bytes];
            rng.fill_bytes(&mut value);
            tree.insert(mem, key, value)
                .map_err(|e| SpecError::RegionTooSmall {
                    kind: WorkloadKind::Ycsb,
                    detail: format!("seed insert failed: {e}"),
                })?;
            inserted.push(key);
        }
        Ok(Self {
            tree,
            inserted,
            read_pct,
            value_bytes,
            rng,
        })
    }

    /// Committed insert transactions.
    pub fn committed(&self) -> u64 {
        self.tree.committed()
    }

    /// Runs one operation of the mix.
    ///
    /// # Errors
    ///
    /// Propagates [`TxnError`] from an insert's commit.
    pub fn step<M: PMem>(&mut self, mem: &mut M) -> Result<(), TxnError> {
        if self.rng.next_below(100) < self.read_pct as u64 {
            let key = self.inserted[self.rng.next_below(self.inserted.len() as u64) as usize];
            let value = self.tree.get(mem, key);
            assert!(value.is_some(), "inserted key {key} must be found");
        } else {
            let key = self.rng.next_u64() >> 1;
            let mut value = vec![0u8; self.value_bytes];
            self.rng.fill_bytes(&mut value);
            self.tree.insert(mem, key, value)?;
            self.inserted.push(key);
        }
        Ok(())
    }

    /// Verifies the underlying tree against its shadow.
    ///
    /// # Errors
    ///
    /// Returns a description of the first divergence.
    pub fn verify<M: PMem>(&mut self, mem: &mut M) -> Result<(), String> {
        self.tree.verify(mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supermem_persist::VecMem;

    /// (lookups, inserts) after `steps` operations: each insert adds a
    /// key to the 8 seeded ones, each lookup adds none.
    fn op_counts(w: &YcsbWorkload, steps: u64) -> (u64, u64) {
        let inserts = w.inserted.len() as u64 - 8;
        (steps - inserts, inserts)
    }

    #[test]
    fn pure_read_mix_never_inserts_after_seeding() {
        let mut mem = VecMem::new();
        let mut w = YcsbWorkload::try_new(&mut mem, 0, 1 << 24, 128, 100, 7).unwrap();
        for _ in 0..50 {
            w.step(&mut mem).unwrap();
        }
        let (reads, inserts) = op_counts(&w, 50);
        assert_eq!(reads, 50);
        assert_eq!(inserts, 0);
        w.verify(&mut mem).unwrap();
    }

    #[test]
    fn pure_insert_mix_never_reads() {
        let mut mem = VecMem::new();
        let mut w = YcsbWorkload::try_new(&mut mem, 0, 1 << 24, 128, 0, 7).unwrap();
        for _ in 0..50 {
            w.step(&mut mem).unwrap();
        }
        let (reads, inserts) = op_counts(&w, 50);
        assert_eq!(reads, 0);
        assert_eq!(inserts, 50);
        w.verify(&mut mem).unwrap();
    }

    #[test]
    fn mixed_ratio_is_roughly_respected() {
        let mut mem = VecMem::new();
        let mut w = YcsbWorkload::try_new(&mut mem, 0, 1 << 24, 128, 80, 9).unwrap();
        for _ in 0..500 {
            w.step(&mut mem).unwrap();
        }
        let (reads, inserts) = op_counts(&w, 500);
        let read_share = reads as f64 / (reads + inserts) as f64;
        assert!(
            (0.7..0.9).contains(&read_share),
            "read share {read_share:.2}"
        );
        w.verify(&mut mem).unwrap();
    }

    #[test]
    fn try_new_reports_typed_errors_instead_of_panicking() {
        let mut mem = VecMem::new();
        assert_eq!(
            YcsbWorkload::try_new(&mut mem, 0, 1 << 24, 128, 101, 0).unwrap_err(),
            SpecError::ReadPct(101)
        );
        assert_eq!(
            YcsbWorkload::try_new(&mut mem, 0, 1 << 24, 8, 50, 0).unwrap_err(),
            SpecError::ReqBytes {
                kind: WorkloadKind::Ycsb,
                req_bytes: 8,
                min: 16,
            }
        );
        // An undersized region surfaces as a typed error too, not a
        // seed-insert panic.
        let err = YcsbWorkload::try_new(&mut mem, 0, 4096, 128, 50, 0).unwrap_err();
        assert!(
            matches!(err, SpecError::RegionTooSmall { .. }),
            "got {err:?}"
        );
    }
}
