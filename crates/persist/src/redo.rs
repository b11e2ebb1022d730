//! Durable transactions, redo-log flavor (§2.1 describes both).
//!
//! Where the undo log ([`crate::txn`]) snapshots *old* data and rolls
//! back, the redo log writes the *new* data to the log first and rolls
//! forward:
//!
//! 1. **Log** — write the new data as records plus a checksummed header,
//!    flush, fence.
//! 2. **Commit** — atomically set `state = COMMITTED` (8-byte write),
//!    flush, fence. *This is the commit point*: from here the
//!    transaction is durable even though memory is untouched.
//! 3. **Apply** — write the new data in place, flush, fence.
//! 4. **Retire** — atomically set `state = APPLIED`, flush, fence.
//!
//! Recovery re-applies a `COMMITTED` log (idempotent), ignores `EMPTY` /
//! `APPLIED`, and reports corruption otherwise — the same counter
//! -atomicity dependence as the undo flavor: an undecryptable log means
//! an unrecoverable system.

use crate::log::{
    encode_records, log_checksum, UndoRecord, LOG_HEADER_BYTES, LOG_MAGIC, STATE_COMMITTED,
    STATE_EMPTY,
};
use crate::pmem::PMem;
use crate::recovery::{RecoveredMemory, RecoveryError, RecoveryOutcome};
use crate::txn::TxnError;

/// `state`: records applied in place; the log is retired.
pub const STATE_APPLIED: u64 = 3;

/// Issues redo-logged durable transactions against a fixed log region.
///
/// # Examples
///
/// ```
/// use supermem_persist::{pmem::{PMem, VecMem}, redo::RedoTxnManager};
///
/// let mut mem = VecMem::new();
/// let mut txm = RedoTxnManager::new(0x8000, 1024);
/// let mut txn = txm.begin();
/// txn.write(0x100, vec![7; 16]);
/// txn.commit(&mut mem)?;
/// # Ok::<(), supermem_persist::TxnError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RedoTxnManager {
    log_base: u64,
    log_bytes: u64,
    seq: u64,
}

impl RedoTxnManager {
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

    /// Base address of the log region.
    pub fn log_base(&self) -> u64 {
        self.log_base
    }

    /// Committed transactions so far.
    pub fn committed(&self) -> u64 {
        self.seq
    }

    /// Starts a transaction.
    pub fn begin(&mut self) -> RedoTxn<'_> {
        RedoTxn {
            mgr: self,
            writes: Vec::new(),
        }
    }
}

/// An open redo transaction: a buffered write set.
#[derive(Debug)]
pub struct RedoTxn<'a> {
    mgr: &'a mut RedoTxnManager,
    writes: Vec<(u64, Vec<u8>)>,
}

impl RedoTxn<'_> {
    /// Stages a write of `bytes` at `addr`.
    pub fn write(&mut self, addr: u64, bytes: Vec<u8>) {
        if !bytes.is_empty() {
            self.writes.push((addr, bytes));
        }
    }

    /// Commits via the four-stage redo protocol.
    ///
    /// # Errors
    ///
    /// [`TxnError::LogFull`] if the redo payload exceeds the log region;
    /// the transaction is abandoned without touching memory.
    pub fn commit<M: PMem>(self, mem: &mut M) -> Result<(), TxnError> {
        let RedoTxn { mgr, writes } = self;
        let log = mgr.log_base;
        let records: Vec<UndoRecord> = writes
            .iter()
            .map(|(addr, bytes)| UndoRecord {
                addr: *addr,
                data: bytes.clone(),
            })
            .collect();
        let payload = encode_records(&records);
        if payload.len() as u64 > mgr.log_bytes - LOG_HEADER_BYTES {
            return Err(TxnError::LogFull {
                needed: payload.len() as u64,
                capacity: mgr.log_bytes - LOG_HEADER_BYTES,
            });
        }
        mgr.seq += 1;
        let seq = mgr.seq;

        // 1. Log the NEW data, header state EMPTY.
        mem.write(log + LOG_HEADER_BYTES, &payload);
        mem.write_u64(log, LOG_MAGIC);
        mem.write_u64(log + 8, seq);
        mem.write_u64(log + 16, STATE_EMPTY);
        mem.write_u64(log + 24, payload.len() as u64);
        mem.write_u64(log + 32, log_checksum(seq, &payload));
        mem.clwb(log, LOG_HEADER_BYTES + payload.len() as u64);
        mem.sfence();

        // 2. Commit point.
        mem.write_u64(log + 16, STATE_COMMITTED);
        mem.clwb(log + 16, 8);
        mem.sfence();

        // 3. Apply in place.
        for (addr, bytes) in &writes {
            mem.write(*addr, bytes);
            mem.clwb(*addr, bytes.len() as u64);
        }
        mem.sfence();

        // 4. Retire.
        mem.write_u64(log + 16, STATE_APPLIED);
        mem.clwb(log + 16, 8);
        mem.sfence();
        Ok(())
    }
}

/// Scans a redo-log region and rolls a committed-but-unapplied
/// transaction *forward*. Returns what was found; on
/// [`RecoveryOutcome::RolledBack`] — reused here to mean "records were
/// applied" — the redo records have been written in place.
///
/// # Errors
///
/// [`RecoveryError::DetectedCorrupt`] when reading the header or payload
/// hit an uncorrectable media error; [`RecoveryError::TornLog`] when the
/// log is internally inconsistent.
pub fn recover_redo_transactions(
    mem: &mut RecoveredMemory,
    log_base: u64,
) -> Result<RecoveryOutcome, RecoveryError> {
    use crate::log::{decode_records, read_header};
    let failures_before = mem.media_failures();
    let h = read_header(mem, log_base);
    if mem.media_failures() > failures_before {
        return Err(RecoveryError::DetectedCorrupt(
            "redo-log header read hit an uncorrectable media error".into(),
        ));
    }
    if h.magic != LOG_MAGIC {
        return Ok(RecoveryOutcome::NoLog);
    }
    match h.state {
        STATE_APPLIED | STATE_EMPTY => Ok(RecoveryOutcome::CleanCommitted { seq: h.seq }),
        STATE_COMMITTED => {
            let mut payload = vec![0u8; h.len as usize];
            mem.read(log_base + LOG_HEADER_BYTES, &mut payload);
            if mem.media_failures() > failures_before {
                return Err(RecoveryError::DetectedCorrupt(
                    "redo-log payload read hit an uncorrectable media error".into(),
                ));
            }
            if log_checksum(h.seq, &payload) != h.checksum {
                return Err(RecoveryError::TornLog(format!(
                    "redo log seq {} fails its checksum",
                    h.seq
                )));
            }
            match decode_records(&payload) {
                Some(records) => {
                    for r in &records {
                        mem.write(r.addr, &r.data);
                    }
                    mem.write_u64(log_base + 16, STATE_APPLIED);
                    Ok(RecoveryOutcome::RolledBack {
                        seq: h.seq,
                        records: records.len(),
                    })
                }
                None => Err(RecoveryError::TornLog(format!(
                    "redo log seq {} payload does not decode",
                    h.seq
                ))),
            }
        }
        other => Err(RecoveryError::TornLog(format!(
            "redo log state word {other} matches no protocol stage"
        ))),
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;
    use crate::pmem::VecMem;

    #[test]
    fn commit_applies_all_writes() {
        let mut mem = VecMem::new();
        let mut txm = RedoTxnManager::new(0x10000, 4096);
        let mut txn = txm.begin();
        txn.write(0x100, vec![1; 64]);
        txn.write(0x200, vec![2; 32]);
        txn.commit(&mut mem).unwrap();
        let mut buf = [0u8; 64];
        mem.read(0x100, &mut buf);
        assert_eq!(buf, [1; 64]);
        assert_eq!(txm.committed(), 1);
    }

    #[test]
    fn log_ends_applied() {
        let mut mem = VecMem::new();
        let mut txm = RedoTxnManager::new(0x10000, 4096);
        let mut txn = txm.begin();
        txn.write(0, vec![9]);
        txn.commit(&mut mem).unwrap();
        assert_eq!(mem.read_u64(0x10000 + 16), STATE_APPLIED);
    }

    #[test]
    fn log_full_aborts_cleanly() {
        let mut mem = VecMem::new();
        let mut txm = RedoTxnManager::new(0x10000, 128);
        let mut txn = txm.begin();
        txn.write(0x100, vec![1; 256]);
        assert!(txn.commit(&mut mem).is_err());
        assert_eq!(txm.committed(), 0);
    }

    #[test]
    fn fence_protocol_has_four_fences() {
        let mut mem = VecMem::new();
        let mut txm = RedoTxnManager::new(0x10000, 4096);
        let mut txn = txm.begin();
        txn.write(0x100, vec![1; 16]);
        txn.commit(&mut mem).unwrap();
        assert_eq!(mem.fence_count(), 4);
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod crash_tests {
    use super::*;
    use crate::direct::DirectMem;
    use supermem_sim::Config;

    const DATA: u64 = 0x2000;
    const LOG: u64 = 0x10_0000;

    fn run_txn(mem: &mut DirectMem) {
        let mut txm = RedoTxnManager::new(LOG, 4096);
        let mut txn = txm.begin();
        txn.write(DATA, vec![0x22; 256]);
        txn.commit(mem).expect("commit");
    }

    /// The Table-1-style sweep, redo flavor: every crash point lands on
    /// either the old or the new state after roll-forward, and late
    /// crash points must show the new state (redo commits *early*).
    #[test]
    fn redo_txn_recovers_at_every_append_boundary() {
        let cfg = Config::default();
        let mut base = DirectMem::new(&cfg);
        base.persist(DATA, &[0x11; 256]);
        base.shutdown();
        let mut dry = base.clone();
        let before = dry.controller().append_events();
        run_txn(&mut dry);
        dry.shutdown();
        let total = dry.controller().append_events() - before;

        let mut new_count = 0u64;
        for k in 1..=total {
            let mut mem = base.clone();
            mem.controller_mut().arm_crash_after_appends(k);
            run_txn(&mut mem);
            let image = mem
                .controller_mut()
                .take_machine_crash_image()
                .expect("fired");
            let mut rec =
                RecoveredMemory::from_machine_image_checked(&cfg, image).expect("recovers");
            recover_redo_transactions(&mut rec, LOG)
                .unwrap_or_else(|e| panic!("crash point {k}: {e}"));
            let mut buf = [0u8; 256];
            rec.read(DATA, &mut buf);
            if buf == [0x22; 256] {
                new_count += 1;
            } else {
                assert_eq!(buf, [0x11; 256], "crash point {k}: garbage state");
            }
        }
        // Redo's commit point is the state flip right after logging: most
        // crash points after it roll forward to the new value.
        assert!(
            new_count >= total / 2,
            "redo must roll forward aggressively"
        );
    }

    /// Roll-forward is idempotent: recovering twice is harmless.
    #[test]
    fn roll_forward_is_idempotent() {
        let cfg = Config::default();
        let mut mem = DirectMem::new(&cfg);
        mem.persist(DATA, &[0x11; 256]);
        // Crash right after the commit point (log + header + flip).
        mem.controller_mut().arm_crash_after_appends(7);
        run_txn(&mut mem);
        let image = mem
            .controller_mut()
            .take_machine_crash_image()
            .expect("fired");
        let mut rec = RecoveredMemory::from_machine_image_checked(&cfg, image).expect("recovers");
        let first = recover_redo_transactions(&mut rec, LOG).expect("clean media");
        let second = recover_redo_transactions(&mut rec, LOG).expect("clean media");
        assert!(matches!(first, RecoveryOutcome::RolledBack { .. }));
        assert!(matches!(second, RecoveryOutcome::CleanCommitted { .. }));
        let mut buf = [0u8; 256];
        rec.read(DATA, &mut buf);
        assert_eq!(buf, [0x22; 256]);
    }
}
