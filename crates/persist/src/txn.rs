//! Durable transactions (undo logging).
//!
//! A transaction buffers its writes, then commits in the three stages of
//! the paper's Table 1:
//!
//! 1. **Prepare** — read the old contents of every target range, write
//!    them into the log region together with a checksummed header, flush
//!    the log lines, fence, then atomically set `state = VALID` (8-byte
//!    write), flush, fence.
//! 2. **Mutate** — apply the new data in place, flush every touched
//!    line, fence.
//! 3. **Commit** — atomically set `state = COMMITTED`, flush, fence.
//!
//! A crash in *prepare* leaves the data untouched (log not yet VALID); a
//! crash in *mutate* is rolled back from the log; a crash in *commit*
//! either rolls back (state still VALID — the transaction aborts as a
//! unit) or is already complete. All of this of course assumes the log
//! itself is decryptable after the crash — the exact property SuperMem's
//! counter atomicity provides and broken baselines lack.

use crate::log::{
    encode_records, log_checksum, UndoRecord, LOG_HEADER_BYTES, LOG_MAGIC, STATE_COMMITTED,
    STATE_VALID,
};
use crate::pmem::PMem;

/// Errors surfaced by transaction commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnError {
    /// The undo payload does not fit the log region.
    LogFull {
        /// Bytes needed for the payload.
        needed: u64,
        /// Payload capacity of the log region.
        capacity: u64,
    },
}

impl std::fmt::Display for TxnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxnError::LogFull { needed, capacity } => {
                write!(f, "undo log full: need {needed} bytes, capacity {capacity}")
            }
        }
    }
}

impl std::error::Error for TxnError {}

/// Issues durable transactions against a fixed log region.
///
/// # Examples
///
/// ```
/// use supermem_persist::{pmem::{PMem, VecMem}, TxnManager};
///
/// let mut mem = VecMem::new();
/// let mut txm = TxnManager::new(0x8000, 1024);
/// let mut txn = txm.begin();
/// txn.write(0x100, vec![7; 16]);
/// txn.commit(&mut mem)?;
/// # Ok::<(), supermem_persist::TxnError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnManager {
    log_base: u64,
    log_bytes: u64,
    seq: u64,
}

impl TxnManager {
    /// Creates a manager whose log region is `[log_base, log_base +
    /// log_bytes)`.
    ///
    /// # Panics
    ///
    /// Panics if the region cannot hold the header.
    pub fn new(log_base: u64, log_bytes: u64) -> Self {
        assert!(
            log_bytes > LOG_HEADER_BYTES,
            "log region must exceed the {LOG_HEADER_BYTES}-byte header"
        );
        Self {
            log_base,
            log_bytes,
            seq: 0,
        }
    }

    /// Base address of the log region (recovery needs it).
    pub fn log_base(&self) -> u64 {
        self.log_base
    }

    /// Payload capacity in bytes.
    fn payload_capacity(&self) -> u64 {
        self.log_bytes - LOG_HEADER_BYTES
    }

    /// Transactions committed so far.
    pub fn committed(&self) -> u64 {
        self.seq
    }

    /// Starts a transaction.
    pub fn begin(&mut self) -> Txn<'_> {
        Txn {
            mgr: self,
            writes: Vec::new(),
        }
    }
}

/// An open transaction: a buffered write set.
#[derive(Debug)]
pub struct Txn<'a> {
    mgr: &'a mut TxnManager,
    writes: Vec<(u64, Vec<u8>)>,
}

impl Txn<'_> {
    /// Stages a write of `bytes` at `addr`. Later writes overlay earlier
    /// ones at commit time (applied in order).
    pub fn write(&mut self, addr: u64, bytes: Vec<u8>) {
        if !bytes.is_empty() {
            self.writes.push((addr, bytes));
        }
    }

    /// Reads through the write set: staged bytes shadow memory.
    pub fn read<M: PMem>(&self, mem: &mut M, addr: u64, buf: &mut [u8]) {
        mem.read(addr, buf);
        for (waddr, wbytes) in &self.writes {
            let (s, e) = (*waddr, *waddr + wbytes.len() as u64);
            let (bs, be) = (addr, addr + buf.len() as u64);
            let lo = s.max(bs);
            let hi = e.min(be);
            for a in lo..hi {
                buf[(a - bs) as usize] = wbytes[(a - s) as usize];
            }
        }
    }

    /// Commits: prepare (undo log), mutate (in-place), commit
    /// (invalidate). See the module docs for the fence protocol.
    ///
    /// # Errors
    ///
    /// [`TxnError::LogFull`] if the undo payload exceeds the log region;
    /// the transaction is abandoned without touching memory.
    pub fn commit<M: PMem>(self, mem: &mut M) -> Result<(), TxnError> {
        let Txn { mgr, writes } = self;
        let log = mgr.log_base;

        // ---- Prepare: snapshot old data into undo records.
        let records: Vec<UndoRecord> = writes
            .iter()
            .map(|(addr, bytes)| {
                let mut old = vec![0u8; bytes.len()];
                mem.read(*addr, &mut old);
                UndoRecord {
                    addr: *addr,
                    data: old,
                }
            })
            .collect();
        let payload = encode_records(&records);
        if payload.len() as u64 > mgr.payload_capacity() {
            return Err(TxnError::LogFull {
                needed: payload.len() as u64,
                capacity: mgr.payload_capacity(),
            });
        }
        mgr.seq += 1;
        let seq = mgr.seq;

        // Log payload + header, persist. The state word is explicitly
        // reset to EMPTY: on the very first transaction the header line
        // holds garbage (decrypt of never-written NVM), and a crash
        // before the VALID flip must read as "no log", not corruption.
        mem.write(log + LOG_HEADER_BYTES, &payload);
        mem.write_u64(log, LOG_MAGIC);
        mem.write_u64(log + 8, seq);
        mem.write_u64(log + 16, crate::log::STATE_EMPTY);
        mem.write_u64(log + 24, payload.len() as u64);
        mem.write_u64(log + 32, log_checksum(seq, &payload));
        mem.clwb(log, LOG_HEADER_BYTES + payload.len() as u64);
        mem.sfence();

        // Atomic state flip: the log becomes authoritative.
        mem.write_u64(log + 16, STATE_VALID);
        mem.clwb(log + 16, 8);
        mem.sfence();

        // ---- Mutate: in-place data writes, each line flushed.
        for (addr, bytes) in &writes {
            mem.write(*addr, bytes);
            mem.clwb(*addr, bytes.len() as u64);
        }
        mem.sfence();

        // ---- Commit: atomically retire the log.
        mem.write_u64(log + 16, STATE_COMMITTED);
        mem.clwb(log + 16, 8);
        mem.sfence();
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;
    use crate::log::{read_header, STATE_COMMITTED};
    use crate::pmem::VecMem;

    #[test]
    fn commit_applies_all_writes() {
        let mut mem = VecMem::new();
        let mut txm = TxnManager::new(0x10000, 4096);
        let mut txn = txm.begin();
        txn.write(0x100, vec![1; 64]);
        txn.write(0x200, vec![2; 32]);
        txn.commit(&mut mem).unwrap();
        let mut buf = [0u8; 64];
        mem.read(0x100, &mut buf);
        assert_eq!(buf, [1; 64]);
        let mut buf = [0u8; 32];
        mem.read(0x200, &mut buf);
        assert_eq!(buf, [2; 32]);
        assert_eq!(txm.committed(), 1);
    }

    #[test]
    fn log_ends_committed() {
        let mut mem = VecMem::new();
        let mut txm = TxnManager::new(0x10000, 4096);
        let mut txn = txm.begin();
        txn.write(0, vec![9]);
        txn.commit(&mut mem).unwrap();
        let h = read_header(&mut mem, 0x10000);
        assert_eq!(h.state, STATE_COMMITTED);
        assert_eq!(h.magic, LOG_MAGIC);
        assert_eq!(h.seq, 1);
    }

    #[test]
    fn read_sees_staged_writes() {
        let mut mem = VecMem::new();
        mem.write(0x50, &[1, 2, 3, 4]);
        let mut txm = TxnManager::new(0x10000, 4096);
        let mut txn = txm.begin();
        txn.write(0x51, vec![9, 9]);
        let mut buf = [0u8; 4];
        txn.read(&mut mem, 0x50, &mut buf);
        assert_eq!(buf, [1, 9, 9, 4], "staged bytes shadow memory");
        // Memory itself is untouched until commit.
        let mut raw = [0u8; 4];
        mem.read(0x50, &mut raw);
        assert_eq!(raw, [1, 2, 3, 4]);
    }

    #[test]
    fn later_staged_writes_win() {
        let mut mem = VecMem::new();
        let mut txm = TxnManager::new(0x10000, 4096);
        let mut txn = txm.begin();
        txn.write(0x100, vec![1, 1, 1]);
        txn.write(0x101, vec![2]);
        txn.commit(&mut mem).unwrap();
        let mut buf = [0u8; 3];
        mem.read(0x100, &mut buf);
        assert_eq!(buf, [1, 2, 1]);
    }

    #[test]
    fn log_full_aborts_without_side_effects() {
        let mut mem = VecMem::new();
        mem.write(0x100, &[7; 8]);
        let mut txm = TxnManager::new(0x10000, 128); // 64 B payload capacity
        let mut txn = txm.begin();
        txn.write(0x100, vec![1; 256]);
        let err = txn.commit(&mut mem).unwrap_err();
        assert!(matches!(err, TxnError::LogFull { .. }));
        let mut buf = [0u8; 8];
        mem.read(0x100, &mut buf);
        assert_eq!(buf, [7; 8], "aborted txn must not touch data");
        assert_eq!(txm.committed(), 0);
        assert!(err.to_string().contains("full"));
    }

    #[test]
    fn sequences_increment_per_txn() {
        let mut mem = VecMem::new();
        let mut txm = TxnManager::new(0x10000, 4096);
        for i in 1..=3u64 {
            let mut txn = txm.begin();
            txn.write(0, vec![i as u8]);
            txn.commit(&mut mem).unwrap();
            assert_eq!(read_header(&mut mem, 0x10000).seq, i);
        }
    }

    #[test]
    fn empty_txn_commits_cleanly() {
        let mut mem = VecMem::new();
        let mut txm = TxnManager::new(0x10000, 4096);
        let txn = txm.begin();
        assert!(txn.writes.is_empty());
        txn.commit(&mut mem).unwrap();
    }

    #[test]
    fn staged_bytes_accounting() {
        let mut txm = TxnManager::new(0x10000, 4096);
        let mut txn = txm.begin();
        txn.write(0, vec![0; 10]);
        txn.write(100, vec![0; 20]);
        txn.write(200, vec![]); // ignored
        let staged: Vec<(u64, usize)> = txn.writes.iter().map(|(a, b)| (*a, b.len())).collect();
        assert_eq!(staged, [(0, 10), (100, 20)]);
    }

    #[test]
    fn fence_protocol_has_four_fences() {
        // prepare, valid-flip, mutate, commit — one fence each.
        let mut mem = VecMem::new();
        let mut txm = TxnManager::new(0x10000, 4096);
        let mut txn = txm.begin();
        txn.write(0x100, vec![1; 16]);
        txn.commit(&mut mem).unwrap();
        assert_eq!(mem.fence_count(), 4);
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod randomized {
    //! Deterministic randomized tests (seeded SplitMix64 stands in for
    //! proptest, which is unavailable in offline builds).
    use super::*;
    use crate::pmem::VecMem;
    use std::collections::HashMap;
    use supermem_sim::SplitMix64;

    fn random_bytes(rng: &mut SplitMix64, lo: u64, hi: u64) -> Vec<u8> {
        let mut v = vec![0u8; rng.next_range(lo, hi) as usize];
        rng.fill_bytes(&mut v);
        v
    }

    /// Arbitrary sequences of multi-record transactions leave memory
    /// exactly as a byte-level reference model predicts.
    #[test]
    fn committed_txns_match_reference() {
        let mut rng = SplitMix64::new(0x7317);
        for _ in 0..32 {
            let txns: Vec<Vec<(u64, Vec<u8>)>> = (0..rng.next_range(1, 20))
                .map(|_| {
                    (0..rng.next_range(1, 5))
                        .map(|_| (rng.next_below(2048), random_bytes(&mut rng, 1, 60)))
                        .collect()
                })
                .collect();
            let mut mem = VecMem::new();
            let mut txm = TxnManager::new(0x10_0000, 8192);
            let mut reference: HashMap<u64, u8> = HashMap::new();
            for writes in &txns {
                let mut txn = txm.begin();
                for (addr, bytes) in writes {
                    txn.write(*addr, bytes.clone());
                }
                txn.commit(&mut mem).unwrap();
                for (addr, bytes) in writes {
                    for (i, &b) in bytes.iter().enumerate() {
                        reference.insert(*addr + i as u64, b);
                    }
                }
            }
            for (&addr, &expect) in &reference {
                let mut got = [0u8; 1];
                mem.read(addr, &mut got);
                assert_eq!(got[0], expect, "byte at {addr:#x}");
            }
        }
    }

    /// txn.read always observes staged writes over memory, matching a
    /// byte-level overlay model.
    #[test]
    fn overlay_read_matches_model() {
        let mut rng = SplitMix64::new(0x0731);
        for _ in 0..64 {
            let base = random_bytes(&mut rng, 64, 128);
            let staged: Vec<(u64, Vec<u8>)> = (0..rng.next_below(6))
                .map(|_| (rng.next_below(96), random_bytes(&mut rng, 1, 20)))
                .collect();
            let read_at = rng.next_below(64);
            let read_len = rng.next_range(1, 48) as usize;
            let mut mem = VecMem::new();
            mem.write(0, &base);
            let mut model: Vec<u8> = {
                let mut v = vec![0u8; 160];
                v[..base.len()].copy_from_slice(&base);
                v
            };
            let mut txm = TxnManager::new(0x10_0000, 8192);
            let mut txn = txm.begin();
            for (addr, bytes) in &staged {
                txn.write(*addr, bytes.clone());
                model[*addr as usize..*addr as usize + bytes.len()].copy_from_slice(bytes);
            }
            let mut got = vec![0u8; read_len];
            txn.read(&mut mem, read_at, &mut got);
            assert_eq!(
                &got[..],
                &model[read_at as usize..read_at as usize + read_len]
            );
        }
    }
}
