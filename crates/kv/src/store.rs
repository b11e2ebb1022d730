//! The store itself: a volatile index over a persistent WAL +
//! snapshot pair.
//!
//! Every mutation is write-ahead logged and persisted *before* it is
//! acknowledged (applied to the volatile index and counted in
//! [`KvStats::acked`]); the index is always reconstructible as
//! `snapshot ∘ WAL-suffix`. Checkpoints come in two flavors:
//!
//! * **light** — snapshot the state and record the current `(wal_seq,
//!   wal_off)`; the WAL keeps growing and replay after recovery starts
//!   from that offset (replay-from-offset);
//! * **rotating** — taken when the segment is nearly full: snapshot,
//!   flip the manifest, then re-initialize the WAL in place under a
//!   bumped epoch. Records of the old epoch are dead from the moment
//!   the new snapshot's manifest flip persists, and the epoch-mixed
//!   record CRC keeps their bytes from ever replaying again.

use supermem_persist::PMem;

use crate::bytes::{KvBytes, KvMap};
use crate::crc32::crc32;
use crate::layout::{KvLayout, LayoutError, Manifest, MAX_KEY, MAX_VAL};
use crate::snapshot::write_snapshot;
use crate::wal::{encode_record, record_len, KvOp, WalHeader};

/// A rejected configuration or operation, typed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum KvError {
    /// The region layout is degenerate.
    Layout(LayoutError),
    /// Key longer than [`MAX_KEY`].
    KeyTooLong {
        /// Offered length.
        len: usize,
    },
    /// Value longer than [`MAX_VAL`].
    ValueTooLong {
        /// Offered length.
        len: usize,
    },
    /// A record that cannot fit even a freshly rotated segment.
    WalFull {
        /// Bytes the record needs (with terminator).
        need: u64,
        /// Bytes the segment body holds.
        cap: u64,
    },
    /// The serialized state exceeds a snapshot slot, so no checkpoint
    /// can succeed; the store refuses the mutation that forced one.
    SnapshotOverflow {
        /// Bytes the state needs.
        need: u64,
        /// Bytes the slot payload area holds.
        cap: u64,
    },
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::Layout(e) => write!(f, "{e}"),
            KvError::KeyTooLong { len } => {
                write!(f, "key of {len} B exceeds the {MAX_KEY} B maximum")
            }
            KvError::ValueTooLong { len } => {
                write!(f, "value of {len} B exceeds the {MAX_VAL} B maximum")
            }
            KvError::WalFull { need, cap } => {
                write!(f, "record needs {need} B but the WAL body holds {cap} B")
            }
            KvError::SnapshotOverflow { need, cap } => {
                write!(f, "snapshot needs {need} B but the slot holds {cap} B")
            }
        }
    }
}

impl std::error::Error for KvError {}

/// Operation and checkpoint counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvStats {
    /// Acknowledged mutations (each persisted before being counted).
    pub acked: u64,
    /// Puts acknowledged.
    pub puts: u64,
    /// Deletes acknowledged.
    pub dels: u64,
    /// Snapshots written (light + rotating).
    pub snapshots: u64,
    /// Rotating checkpoints (WAL epoch bumps).
    pub rotations: u64,
    /// WAL record bytes appended in the current process lifetime.
    pub wal_bytes: u64,
}

/// A recoverable persistent KV store.
///
/// # Examples
///
/// ```
/// use supermem_kv::{KvLayout, KvStore};
/// use supermem_persist::VecMem;
///
/// let layout = KvLayout::new(0x1000, 4096, 4096).unwrap();
/// let mut mem = VecMem::new();
/// let mut kv = KvStore::format(&mut mem, layout, 4).unwrap();
/// kv.put(&mut mem, b"paper", b"supermem").unwrap();
/// assert_eq!(kv.get(b"paper"), Some(&b"supermem"[..]));
/// kv.delete(&mut mem, b"paper").unwrap();
/// assert_eq!(kv.get(b"paper"), None);
/// ```
#[derive(Debug, Clone)]
pub struct KvStore {
    layout: KvLayout,
    map: KvMap,
    wal_seq: u64,
    wal_off: u64,
    snap_seq: u64,
    active_slot: u32,
    snapshot_every: u64,
    ops_since_snapshot: u64,
    needs_wal_reinit: bool,
    stats: KvStats,
}

impl KvStore {
    /// Formats the region and returns an empty store: fresh WAL epoch
    /// 1, a genesis snapshot in slot 0, and the manifest pointing at
    /// it. `snapshot_every` is the number of mutations between
    /// automatic light checkpoints (0 disables them; rotation still
    /// checkpoints when the segment fills).
    ///
    /// # Errors
    ///
    /// [`KvError::Layout`] via an invalid [`KvLayout`] is pre-empted by
    /// the layout constructor; formatting itself cannot fail on a valid
    /// layout.
    pub fn format<M: PMem>(
        mem: &mut M,
        layout: KvLayout,
        snapshot_every: u64,
    ) -> Result<Self, KvError> {
        WalHeader { seq: 1 }.persist_fresh(mem, &layout);
        write_snapshot(mem, &layout, 0, 1, 1, 0, &KvMap::new()).map_err(|e| {
            KvError::SnapshotOverflow {
                need: e.need,
                cap: e.cap,
            }
        })?;
        Manifest {
            active_slot: 0,
            seq: 1,
        }
        .persist(mem, &layout);
        Ok(Self {
            layout,
            map: KvMap::new(),
            wal_seq: 1,
            wal_off: 0,
            snap_seq: 1,
            active_slot: 0,
            snapshot_every,
            ops_since_snapshot: 0,
            needs_wal_reinit: false,
            stats: KvStats::default(),
        })
    }

    /// Rebuilds a store handle from recovered state (used by
    /// [`crate::recovery::recover`]; not public API).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn resume(
        layout: KvLayout,
        map: KvMap,
        wal_seq: u64,
        wal_off: u64,
        snap_seq: u64,
        active_slot: u32,
        snapshot_every: u64,
        needs_wal_reinit: bool,
    ) -> Self {
        Self {
            layout,
            map,
            wal_seq,
            wal_off,
            snap_seq,
            active_slot,
            snapshot_every,
            ops_since_snapshot: 0,
            needs_wal_reinit,
            stats: KvStats::default(),
        }
    }

    /// Inserts or overwrites `key`.
    ///
    /// # Errors
    ///
    /// Typed [`KvError`] on over-long operands or an exhausted layout;
    /// the store state is unchanged on error.
    pub fn put<M: PMem>(&mut self, mem: &mut M, key: &[u8], value: &[u8]) -> Result<(), KvError> {
        if key.len() > MAX_KEY {
            return Err(KvError::KeyTooLong { len: key.len() });
        }
        if value.len() > MAX_VAL {
            return Err(KvError::ValueTooLong { len: value.len() });
        }
        self.log(mem, KvOp::Put(key.into(), value.into()))?;
        self.stats.puts += 1;
        Ok(())
    }

    /// Removes `key` (logged even when absent — a delete is an
    /// acknowledged operation either way).
    ///
    /// # Errors
    ///
    /// Typed [`KvError`] on an over-long key or an exhausted layout.
    pub fn delete<M: PMem>(&mut self, mem: &mut M, key: &[u8]) -> Result<(), KvError> {
        if key.len() > MAX_KEY {
            return Err(KvError::KeyTooLong { len: key.len() });
        }
        self.log(mem, KvOp::Del(key.into()))?;
        self.stats.dels += 1;
        Ok(())
    }

    /// Reads `key` from the volatile index.
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        self.map.get(key).map(KvBytes::as_slice)
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no keys are live.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The full volatile index (sorted).
    pub fn entries(&self) -> &KvMap {
        &self.map
    }

    /// Operation counters.
    pub fn stats(&self) -> KvStats {
        self.stats
    }

    /// Current WAL epoch.
    pub fn wal_seq(&self) -> u64 {
        self.wal_seq
    }

    /// Latest checkpoint sequence.
    pub fn snapshot_seq(&self) -> u64 {
        self.snap_seq
    }

    /// The layout this store runs over.
    pub fn layout(&self) -> KvLayout {
        self.layout
    }

    /// Order- and representation-independent digest of the live state
    /// (CRC-32 of the canonical sorted serialization) — what the
    /// recovery invariants compare.
    pub fn state_digest(&self) -> u32 {
        crc32(&crate::snapshot::encode_payload(&self.map))
    }

    /// Takes a light checkpoint now: snapshot + manifest flip, WAL
    /// untouched (replay will resume from the recorded offset).
    ///
    /// # Errors
    ///
    /// [`KvError::SnapshotOverflow`] when the state outgrew the slot.
    pub fn checkpoint<M: PMem>(&mut self, mem: &mut M) -> Result<(), KvError> {
        self.snapshot_and_flip(mem, false)
    }

    /// The write-ahead path every mutation takes: optional automatic
    /// checkpoint, capacity check (rotating if the segment is full),
    /// then append-persist-acknowledge.
    fn log<M: PMem>(&mut self, mem: &mut M, op: KvOp) -> Result<(), KvError> {
        if self.snapshot_every > 0 && self.ops_since_snapshot >= self.snapshot_every {
            self.snapshot_and_flip(mem, false)?;
        }
        // Reserve room for the record plus its 4-byte terminator.
        let need = record_len(&op) + 4;
        if self.wal_off + need > self.layout.wal_body {
            self.snapshot_and_flip(mem, true)?;
            if need > self.layout.wal_body {
                return Err(KvError::WalFull {
                    need,
                    cap: self.layout.wal_body,
                });
            }
        }
        if self.needs_wal_reinit {
            // Recovery found the segment header unreadable (crash cut a
            // rotation between manifest flip and header persist); the
            // snapshot carried the full state, and the first mutation
            // re-seals the header before any record lands.
            WalHeader { seq: self.wal_seq }.persist_fresh(mem, &self.layout);
            self.needs_wal_reinit = false;
        }
        let mut rec = encode_record(self.wal_seq, self.wal_off, &op);
        let rec_len = rec.len() as u64;
        rec.extend_from_slice(&0u32.to_le_bytes()); // terminator
        mem.persist(self.layout.wal_body_addr() + self.wal_off, &rec);
        // The record is durable: acknowledge.
        self.wal_off += rec_len;
        self.stats.wal_bytes += rec_len;
        self.stats.acked += 1;
        self.ops_since_snapshot += 1;
        op.apply(&mut self.map);
        Ok(())
    }

    /// Checkpoint: snapshot into the standby slot, flip the manifest,
    /// and (for `rotate`) re-initialize the WAL under the next epoch.
    fn snapshot_and_flip<M: PMem>(&mut self, mem: &mut M, rotate: bool) -> Result<(), KvError> {
        let seq = self.snap_seq + 1;
        let slot = 1 - self.active_slot;
        let (wal_seq, wal_off) = if rotate {
            (self.wal_seq + 1, 0)
        } else {
            (self.wal_seq, self.wal_off)
        };
        write_snapshot(mem, &self.layout, slot, seq, wal_seq, wal_off, &self.map).map_err(|e| {
            KvError::SnapshotOverflow {
                need: e.need,
                cap: e.cap,
            }
        })?;
        Manifest {
            active_slot: slot,
            seq,
        }
        .persist(mem, &self.layout);
        if rotate {
            WalHeader { seq: wal_seq }.persist_fresh(mem, &self.layout);
            self.wal_seq = wal_seq;
            self.wal_off = 0;
            self.stats.rotations += 1;
        }
        self.snap_seq = seq;
        self.active_slot = slot;
        self.ops_since_snapshot = 0;
        self.stats.snapshots += 1;
        Ok(())
    }
}

#[cfg(test)]
impl KvStore {
    /// Next WAL body append offset.
    pub(crate) fn wal_offset(&self) -> u64 {
        self.wal_off
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;
    use supermem_persist::VecMem;

    fn small_layout() -> KvLayout {
        // A WAL body barely above the minimum, to force rotations.
        KvLayout::new(0x1000, 352, 4096).unwrap()
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let mut mem = VecMem::new();
        let mut kv = KvStore::format(&mut mem, small_layout(), 0).unwrap();
        kv.put(&mut mem, b"a", b"1").unwrap();
        kv.put(&mut mem, b"b", b"2").unwrap();
        kv.put(&mut mem, b"a", b"3").unwrap();
        assert_eq!(kv.get(b"a"), Some(&b"3"[..]));
        kv.delete(&mut mem, b"a").unwrap();
        assert_eq!(kv.get(b"a"), None);
        assert_eq!(kv.len(), 1);
        assert_eq!(kv.stats().acked, 4);
    }

    #[test]
    fn oversize_operands_are_typed_and_leave_state_untouched() {
        let mut mem = VecMem::new();
        let mut kv = KvStore::format(&mut mem, small_layout(), 0).unwrap();
        let digest = kv.state_digest();
        assert!(matches!(
            kv.put(&mut mem, &[0u8; MAX_KEY + 1], b"v"),
            Err(KvError::KeyTooLong { .. })
        ));
        assert!(matches!(
            kv.put(&mut mem, b"k", &vec![0u8; MAX_VAL + 1]),
            Err(KvError::ValueTooLong { .. })
        ));
        assert!(matches!(
            kv.delete(&mut mem, &[0u8; MAX_KEY + 1]),
            Err(KvError::KeyTooLong { .. })
        ));
        assert_eq!(kv.state_digest(), digest);
        assert_eq!(kv.stats().acked, 0);
    }

    #[test]
    fn filling_the_segment_rotates_the_epoch() {
        let mut mem = VecMem::new();
        let mut kv = KvStore::format(&mut mem, small_layout(), 0).unwrap();
        assert_eq!(kv.wal_seq(), 1);
        for i in 0u64..40 {
            kv.put(&mut mem, &i.to_le_bytes(), &[i as u8; 16]).unwrap();
        }
        assert!(kv.stats().rotations >= 2, "{:?}", kv.stats());
        assert!(kv.wal_seq() > 1);
        // The live index survived every rotation.
        assert_eq!(kv.len(), 40);
    }

    #[test]
    fn snapshot_every_takes_light_checkpoints() {
        let mut mem = VecMem::new();
        let layout = KvLayout::new(0x1000, 1 << 16, 1 << 16).unwrap();
        let mut kv = KvStore::format(&mut mem, layout, 3).unwrap();
        for i in 0u64..10 {
            kv.put(&mut mem, &i.to_le_bytes(), b"v").unwrap();
        }
        assert!(kv.stats().snapshots >= 3, "{:?}", kv.stats());
        assert_eq!(kv.stats().rotations, 0, "big segment never rotates");
        assert!(kv.snapshot_seq() > 1);
    }

    #[test]
    fn state_digest_tracks_content_not_history() {
        let mut mem = VecMem::new();
        let layout = KvLayout::new(0x1000, 1 << 16, 1 << 16).unwrap();
        let mut a = KvStore::format(&mut mem, layout, 0).unwrap();
        a.put(&mut mem, b"x", b"1").unwrap();
        a.put(&mut mem, b"y", b"2").unwrap();
        a.delete(&mut mem, b"y").unwrap();

        let mut mem2 = VecMem::new();
        let mut b = KvStore::format(&mut mem2, layout, 0).unwrap();
        b.put(&mut mem2, b"x", b"1").unwrap();
        assert_eq!(a.state_digest(), b.state_digest());
    }
}
