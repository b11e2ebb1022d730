//! Hardened recovery: snapshot discovery, WAL replay-from-offset,
//! bounded corrupt-entry skip, torn-tail truncation, and a typed
//! report of everything that happened.
//!
//! Recovery is **read-only**: it reconstructs the volatile index from
//! the image without writing a byte, so running it twice from the same
//! image is trivially a no-op (invariant R2) and two runs must agree
//! bit for bit (R1 — enforced at runtime by
//! [`RecoveryOptions::paranoid`], which recovers twice and compares).
//! The one mutation recovery can *schedule* — re-sealing a WAL header
//! torn mid-rotation — is deferred to the resumed store's first
//! mutation.
//!
//! Failure taxonomy: damage that loses no acknowledged data is
//! *handled* (snapshot fallback, torn-tail truncation — both reported
//! in [`RecoveryResult`]); damage that loses acknowledged data but is
//! bounded is *counted* ([`RecoveryResult::corrupt_entries_skipped`]);
//! anything beyond the bound, or structural (no valid snapshot, dead
//! WAL epoch), is a typed [`RecoveryError`]. Nothing in this module
//! panics on any byte pattern the media can produce.

use supermem_persist::PMem;

use crate::bytes::KvMap;
use crate::crc32::crc32;
use crate::layout::{KvLayout, Manifest};
use crate::snapshot::{discover, encode_payload};
use crate::store::KvStore;
use crate::wal::{parse_at, Parse, WalHeader};

/// Recovery policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryOptions {
    /// Maximum mid-log corrupt records to skip before recovery refuses
    /// with [`RecoveryError::CorruptionLimitExceeded`]. `0` disables
    /// skipping entirely (the first rescuable corrupt record already
    /// fails typed).
    pub max_corrupt_entries: u32,
    /// Mutations between automatic light checkpoints in the resumed
    /// store (passed through to [`KvStore`]).
    pub snapshot_every: u64,
    /// Run recovery twice and require bit-identical results — the R1
    /// determinism invariant enforced at runtime rather than assumed.
    pub paranoid: bool,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        Self {
            max_corrupt_entries: 3,
            snapshot_every: 0,
            paranoid: false,
        }
    }
}

/// Why recovery refused. Every variant is a detected, reportable
/// condition — the typed alternative to silently serving wrong data.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RecoveryError {
    /// No snapshot slot validated (including the genesis snapshot), so
    /// there is no floor to rebuild from.
    NoValidSnapshot {
        /// Slots that failed validation.
        rejected: u32,
    },
    /// The WAL segment header is unreadable and the chosen snapshot
    /// expects records past its start — the suffix is unreachable.
    WalHeaderCorrupt {
        /// The replay offset the snapshot recorded.
        snapshot_wal_off: u64,
    },
    /// The WAL was rotated past the newest surviving snapshot: the
    /// records that superseded it are gone with their epoch.
    EpochMismatch {
        /// Epoch found in the segment header.
        wal_seq: u64,
        /// Epoch the surviving snapshot expects.
        snapshot_wal_seq: u64,
    },
    /// More corrupt records than the configured bound.
    CorruptionLimitExceeded {
        /// The configured [`RecoveryOptions::max_corrupt_entries`].
        limit: u32,
        /// Body offset of the record that broke the bound.
        offset: u64,
    },
    /// Internal consistency check failed (e.g. the paranoid double-run
    /// disagreed with itself, or the header epoch ran *behind* every
    /// snapshot by more than one rotation).
    Inconsistent(String),
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::NoValidSnapshot { rejected } => {
                write!(f, "no valid snapshot ({rejected} slot(s) rejected)")
            }
            RecoveryError::WalHeaderCorrupt { snapshot_wal_off } => write!(
                f,
                "WAL header unreadable with {snapshot_wal_off} B of log the snapshot depends on"
            ),
            RecoveryError::EpochMismatch {
                wal_seq,
                snapshot_wal_seq,
            } => write!(
                f,
                "WAL epoch {wal_seq} has rotated past the surviving snapshot's epoch {snapshot_wal_seq}"
            ),
            RecoveryError::CorruptionLimitExceeded { limit, offset } => write!(
                f,
                "more than {limit} corrupt record(s); gave up at body offset {offset}"
            ),
            RecoveryError::Inconsistent(s) => write!(f, "inconsistent recovery: {s}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// Everything one recovery pass observed and decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryResult {
    /// Slot the winning snapshot was loaded from.
    pub snapshot_slot: u32,
    /// Its checkpoint sequence.
    pub snapshot_seq: u64,
    /// Snapshot slots rejected by validation (0 = pristine).
    pub snapshots_rejected: u32,
    /// Whether the manifest line validated (it is only a hint; a torn
    /// flip costs nothing but this flag).
    pub manifest_ok: bool,
    /// Whether the WAL segment header validated.
    pub wal_header_ok: bool,
    /// WAL epoch replay ran against.
    pub wal_seq: u64,
    /// Records replayed from the WAL suffix.
    pub records_replayed: u64,
    /// Corrupt mid-log records skipped (each one is lost acknowledged
    /// data, surfaced here rather than hidden).
    pub corrupt_entries_skipped: u32,
    /// Body offset where a torn tail was truncated, if one was.
    pub torn_tail_at: Option<u64>,
    /// Body offset appends resume from.
    pub resume_offset: u64,
    /// Live entries after recovery.
    pub entries: u64,
    /// CRC-32 digest of the canonical recovered state.
    pub state_digest: u32,
}

impl RecoveryResult {
    /// True when recovery saw *any* damage signal: rejected snapshots,
    /// an unreadable manifest or WAL header, or skipped records. A torn
    /// tail alone is not damage — it is the expected shape of an
    /// in-flight operation cut by the crash.
    pub fn damaged(&self) -> bool {
        self.snapshots_rejected > 0
            || !self.manifest_ok
            || !self.wal_header_ok
            || self.corrupt_entries_skipped > 0
    }
}

/// A recovered store plus the report that justifies it.
#[derive(Debug, Clone)]
pub struct Recovered {
    /// The resumed store (volatile index rebuilt, append cursor set).
    pub store: KvStore,
    /// What recovery observed.
    pub result: RecoveryResult,
}

/// Recovers a store from `mem`.
///
/// # Errors
///
/// Typed [`RecoveryError`] per the module-level taxonomy; never
/// panics.
pub fn recover<M: PMem>(
    mem: &mut M,
    layout: KvLayout,
    opts: &RecoveryOptions,
) -> Result<Recovered, RecoveryError> {
    let (map, result, reinit) = recover_once(mem, layout, opts)?;
    if opts.paranoid {
        let (map2, result2, _) = recover_once(mem, layout, opts)?;
        if map != map2 || result != result2 {
            return Err(RecoveryError::Inconsistent(format!(
                "two recovery passes disagree: digests {:#x} vs {:#x}",
                result.state_digest, result2.state_digest
            )));
        }
    }
    let store = KvStore::resume(
        layout,
        map,
        result.wal_seq,
        result.resume_offset,
        result.snapshot_seq,
        result.snapshot_slot,
        opts.snapshot_every,
        reinit,
    );
    Ok(Recovered { store, result })
}

/// What one pass reconstructs: the state, the report, and whether the
/// WAL header needs re-sealing on the first mutation.
type PassOutcome = (KvMap, RecoveryResult, bool);

/// One read-only recovery pass.
fn recover_once<M: PMem>(
    mem: &mut M,
    layout: KvLayout,
    opts: &RecoveryOptions,
) -> Result<PassOutcome, RecoveryError> {
    let manifest = Manifest::load(mem, &layout);
    let (best, rejected) = discover(mem, &layout);
    let Some(snap) = best else {
        return Err(RecoveryError::NoValidSnapshot { rejected });
    };
    // The manifest is a hint; it counts as healthy only when it agrees
    // with what validation actually found.
    let manifest_ok = manifest.is_some_and(|m| m.seq == snap.seq && m.active_slot == snap.slot);

    let header = WalHeader::load(mem, &layout);
    let mut map = snap.map;
    let mut replayed = 0u64;
    let mut skipped = 0u32;
    let mut torn_tail_at = None;
    let resume_offset;
    let mut needs_reinit = false;
    let wal_header_ok = header.is_some();

    match header {
        None => {
            if snap.wal_off > 0 {
                return Err(RecoveryError::WalHeaderCorrupt {
                    snapshot_wal_off: snap.wal_off,
                });
            }
            // A rotation's header persist was cut after the manifest
            // flip: the snapshot is complete and the (empty) new epoch
            // lost nothing. Re-seal the header on the first mutation.
            needs_reinit = true;
            resume_offset = 0;
        }
        Some(h) if h.seq == snap.wal_seq => {
            // The common case: replay the suffix from the snapshot's
            // offset.
            let body = layout.wal_body_addr();
            let cap = layout.wal_body;
            let mut off = snap.wal_off;
            loop {
                match parse_at(mem, body, cap, h.seq, off) {
                    Parse::End => {
                        resume_offset = off;
                        break;
                    }
                    Parse::Record(op, next) => {
                        op.apply(&mut map);
                        replayed += 1;
                        off = next;
                    }
                    Parse::Corrupt(candidate) => {
                        // Skip only rescues *later* records: resync is
                        // attempted exactly when the length word was
                        // plausible and more log follows — another
                        // record (valid, or itself corrupt but
                        // length-framed, letting a run of damaged
                        // records chain through the bounded skip). A
                        // probe hitting the zeroed tail is a torn
                        // append, not mid-log damage.
                        let rescue = candidate.filter(|&next| {
                            matches!(
                                parse_at(mem, body, cap, h.seq, next),
                                Parse::Record(..) | Parse::Corrupt(Some(_))
                            )
                        });
                        if let Some(next) = rescue {
                            skipped += 1;
                            if skipped > opts.max_corrupt_entries {
                                return Err(RecoveryError::CorruptionLimitExceeded {
                                    limit: opts.max_corrupt_entries,
                                    offset: off,
                                });
                            }
                            off = next;
                        } else {
                            // Torn tail: truncate at the first bad
                            // record and resume appends over it.
                            torn_tail_at = Some(off);
                            resume_offset = off;
                            break;
                        }
                    }
                }
            }
        }
        Some(h) if h.seq + 1 == snap.wal_seq => {
            // Crash between the rotating checkpoint's manifest flip and
            // its header persist: the snapshot supersedes every record
            // of the old epoch still in the body.
            needs_reinit = true;
            resume_offset = 0;
        }
        Some(h) if h.seq > snap.wal_seq => {
            return Err(RecoveryError::EpochMismatch {
                wal_seq: h.seq,
                snapshot_wal_seq: snap.wal_seq,
            });
        }
        Some(h) => {
            return Err(RecoveryError::Inconsistent(format!(
                "WAL epoch {} trails the surviving snapshot's epoch {} by more than one rotation",
                h.seq, snap.wal_seq
            )));
        }
    }

    let result = RecoveryResult {
        snapshot_slot: snap.slot,
        snapshot_seq: snap.seq,
        snapshots_rejected: rejected,
        manifest_ok,
        wal_header_ok,
        wal_seq: snap.wal_seq,
        records_replayed: replayed,
        corrupt_entries_skipped: skipped,
        torn_tail_at,
        resume_offset,
        entries: map.len() as u64,
        state_digest: crc32(&encode_payload(&map)),
    };
    Ok((map, result, needs_reinit))
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;
    use supermem_persist::VecMem;

    fn layout() -> KvLayout {
        KvLayout::new(0x1000, 4096, 4096).unwrap()
    }

    fn opts() -> RecoveryOptions {
        RecoveryOptions {
            paranoid: true,
            ..RecoveryOptions::default()
        }
    }

    #[test]
    fn empty_store_recovers_empty() {
        let mut mem = VecMem::new();
        KvStore::format(&mut mem, layout(), 0).unwrap();
        let rec = recover(&mut mem, layout(), &opts()).unwrap();
        assert!(rec.store.is_empty());
        assert_eq!(rec.result.records_replayed, 0);
        assert!(!rec.result.damaged());
    }

    #[test]
    fn replay_rebuilds_every_acknowledged_op() {
        let mut mem = VecMem::new();
        let mut kv = KvStore::format(&mut mem, layout(), 0).unwrap();
        for i in 0u64..20 {
            kv.put(&mut mem, &i.to_le_bytes(), &[i as u8; 8]).unwrap();
        }
        kv.delete(&mut mem, &3u64.to_le_bytes()).unwrap();
        let rec = recover(&mut mem, layout(), &opts()).unwrap();
        assert_eq!(rec.store.entries(), kv.entries());
        assert_eq!(rec.result.records_replayed, 21);
        assert_eq!(rec.result.state_digest, kv.state_digest());
        assert!(!rec.result.damaged());
    }

    #[test]
    fn replay_from_offset_after_light_checkpoint() {
        let mut mem = VecMem::new();
        let mut kv = KvStore::format(&mut mem, layout(), 0).unwrap();
        for i in 0u64..6 {
            kv.put(&mut mem, &i.to_le_bytes(), b"pre").unwrap();
        }
        kv.checkpoint(&mut mem).unwrap();
        let off = kv.wal_offset();
        for i in 0u64..4 {
            kv.put(&mut mem, &i.to_le_bytes(), b"post").unwrap();
        }
        let rec = recover(&mut mem, layout(), &opts()).unwrap();
        // Only the post-checkpoint suffix replays.
        assert_eq!(rec.result.records_replayed, 4);
        assert!(rec.result.resume_offset > off);
        assert_eq!(rec.store.entries(), kv.entries());
    }

    #[test]
    fn recovered_store_keeps_serving_and_recovers_again() {
        let mut mem = VecMem::new();
        let mut kv = KvStore::format(&mut mem, layout(), 2).unwrap();
        for i in 0u64..7 {
            kv.put(&mut mem, &i.to_le_bytes(), b"first").unwrap();
        }
        let mut rec = recover(&mut mem, layout(), &opts()).unwrap();
        rec.store.put(&mut mem, b"after", b"resume").unwrap();
        let again = recover(&mut mem, layout(), &opts()).unwrap();
        assert_eq!(again.store.entries(), rec.store.entries());
        assert_eq!(again.store.get(b"after"), Some(&b"resume"[..]));
    }

    #[test]
    fn unformatted_region_fails_typed() {
        // Pristine memory: both slots vacant, none "rejected".
        let mut mem = VecMem::new();
        let err = recover(&mut mem, layout(), &opts()).unwrap_err();
        assert!(
            matches!(err, RecoveryError::NoValidSnapshot { rejected: 0 }),
            "{err}"
        );
        // Garbage in both slot headers: written-and-damaged, so both
        // count as rejected.
        let l = layout();
        for slot in 0..2u64 {
            mem.write(l.slot_addr(slot), &[0x5A; 64]);
        }
        let err = recover(&mut mem, l, &opts()).unwrap_err();
        assert!(
            matches!(err, RecoveryError::NoValidSnapshot { rejected: 2 }),
            "{err}"
        );
    }

    #[test]
    fn corruption_limit_is_enforced() {
        let mut mem = VecMem::new();
        let mut kv = KvStore::format(&mut mem, layout(), 0).unwrap();
        for i in 0u64..8 {
            kv.put(&mut mem, &i.to_le_bytes(), &[7u8; 16]).unwrap();
        }
        // Corrupt one payload byte of five consecutive records (the
        // length words stay intact, so each is a skip candidate).
        let body = layout().wal_body_addr();
        let rec_len = crate::wal::record_len(&crate::wal::KvOp::Put(
            (&0u64.to_le_bytes()).into(),
            vec![7u8; 16].into(),
        ));
        for i in 0..5u64 {
            let addr = body + i * rec_len + 6;
            let mut b = [0u8; 1];
            mem.read(addr, &mut b);
            b[0] ^= 0xFF;
            mem.write(addr, &b);
        }
        let err = recover(&mut mem, layout(), &opts()).unwrap_err();
        assert!(
            matches!(err, RecoveryError::CorruptionLimitExceeded { limit: 3, .. }),
            "{err}"
        );
        // A looser bound tolerates and counts them.
        let loose = RecoveryOptions {
            max_corrupt_entries: 8,
            ..opts()
        };
        let rec = recover(&mut mem, layout(), &loose).unwrap();
        assert_eq!(rec.result.corrupt_entries_skipped, 5);
        assert!(rec.result.damaged());
        assert_eq!(rec.result.records_replayed, 3);
    }

    #[test]
    fn torn_tail_is_truncated_and_resumed_over() {
        let mut mem = VecMem::new();
        let mut kv = KvStore::format(&mut mem, layout(), 0).unwrap();
        for i in 0u64..4 {
            kv.put(&mut mem, &i.to_le_bytes(), b"whole").unwrap();
        }
        // Simulate a torn final append: valid length word, half-written
        // payload, no terminator rewrite needed (it was never written).
        let tail = kv.wal_offset();
        let body = layout().wal_body_addr();
        mem.write(body + tail, &40u32.to_le_bytes());
        mem.write(body + tail + 4, &[0xAA; 20]);
        let rec = recover(&mut mem, layout(), &opts()).unwrap();
        assert_eq!(rec.result.torn_tail_at, Some(tail));
        assert_eq!(rec.result.resume_offset, tail);
        assert_eq!(rec.result.records_replayed, 4);
        // The resumed store appends right over the torn bytes.
        let mut store = rec.store;
        store.put(&mut mem, b"new", b"life").unwrap();
        let rec2 = recover(&mut mem, layout(), &opts()).unwrap();
        assert_eq!(rec2.store.get(b"new"), Some(&b"life"[..]));
        assert_eq!(rec2.result.torn_tail_at, None);
    }
}
