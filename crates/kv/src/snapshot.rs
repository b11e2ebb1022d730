//! Snapshot slots: CRC-sealed full-state checkpoints with
//! validation-before-load and latest-valid discovery.
//!
//! A snapshot is written to the slot *not* currently active (the two
//! slots alternate generations), payload first, header second, so a
//! crash mid-write can only damage the older generation. The header
//! records the WAL epoch (`wal_seq`) and body offset (`wal_off`) from
//! which replay resumes — a snapshot plus its WAL suffix is the whole
//! store.
//!
//! Discovery ([`discover`]) validates every slot's header *and* payload
//! checksum before a single byte is parsed, picks the highest valid
//! sequence, and falls back to the older slot when the newest is
//! corrupt — the newest snapshot is an optimization, never a single
//! point of failure. Only the winning slot's entries are built into a
//! map; the others are validated in place and dropped.

use supermem_persist::PMem;

use crate::bytes::{KvBytes, KvMap};
use crate::crc32::crc32;
use crate::layout::{
    read4, read8, KvLayout, FORMAT_VERSION, MAX_KEY, MAX_VAL, SNAP_HEADER_LEN, SNAP_MAGIC,
    SNAP_SLOTS,
};

/// A snapshot payload that does not fit its slot (the working set
/// outgrew the configured layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotOverflow {
    /// Bytes the serialized state needs.
    pub need: u64,
    /// Bytes the slot payload area holds.
    pub cap: u64,
}

/// A validated, parsed snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadedSnapshot {
    /// Slot the snapshot was read from.
    pub slot: u32,
    /// Checkpoint sequence number.
    pub seq: u64,
    /// WAL epoch replay must run against.
    pub wal_seq: u64,
    /// WAL body offset replay starts from.
    pub wal_off: u64,
    /// The key-value state at checkpoint time.
    pub map: KvMap,
}

/// Serializes a state map (sorted entries: `klen, vlen, key, value`).
pub fn encode_payload(map: &KvMap) -> Vec<u8> {
    let mut out = Vec::new();
    for (k, v) in map {
        let (k, v) = (k.as_slice(), v.as_slice());
        out.extend_from_slice(&(k.len() as u32).to_le_bytes());
        out.extend_from_slice(&(v.len() as u32).to_le_bytes());
        out.extend_from_slice(k);
        out.extend_from_slice(v);
    }
    out
}

/// Writes and persists a snapshot into `slot`: payload first, then the
/// CRC-sealed header. Does *not* flip the manifest — that is the
/// caller's separate, later persist.
///
/// # Errors
///
/// [`SnapshotOverflow`] when the serialized state exceeds the slot.
pub fn write_snapshot<M: PMem>(
    mem: &mut M,
    layout: &KvLayout,
    slot: u32,
    seq: u64,
    wal_seq: u64,
    wal_off: u64,
    map: &KvMap,
) -> Result<(), SnapshotOverflow> {
    let payload = encode_payload(map);
    let cap = layout.snap_payload_cap();
    if payload.len() as u64 > cap {
        return Err(SnapshotOverflow {
            need: payload.len() as u64,
            cap,
        });
    }
    seal_slot(
        mem,
        layout,
        slot,
        [seq, wal_seq, wal_off, map.len() as u64],
        &payload,
    );
    Ok(())
}

/// Persists `payload` into `slot`, then the header sealing it:
/// `fields` are the sequence, WAL epoch, WAL offset and entry count.
fn seal_slot<M: PMem>(mem: &mut M, layout: &KvLayout, slot: u32, fields: [u64; 4], payload: &[u8]) {
    let [seq, wal_seq, wal_off, count] = fields;
    let base = layout.slot_addr(u64::from(slot));
    if !payload.is_empty() {
        mem.persist(base + SNAP_HEADER_LEN, payload);
    }
    let mut h = [0u8; 64];
    h[0..8].copy_from_slice(&SNAP_MAGIC.to_le_bytes());
    h[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    h[12..20].copy_from_slice(&seq.to_le_bytes());
    h[20..28].copy_from_slice(&wal_seq.to_le_bytes());
    h[28..36].copy_from_slice(&wal_off.to_le_bytes());
    h[36..44].copy_from_slice(&count.to_le_bytes());
    h[44..52].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    h[52..56].copy_from_slice(&crc32(payload).to_le_bytes());
    let hcrc = crc32(&h[0..56]);
    h[56..60].copy_from_slice(&hcrc.to_le_bytes());
    mem.persist(base, &h);
}

/// A slot that passed every check of [`validate_slot`], with its payload
/// still unparsed: discovery validates every slot but builds the map
/// of the winner alone.
struct ValidSlot {
    slot: u32,
    seq: u64,
    wal_seq: u64,
    wal_off: u64,
    payload: Vec<u8>,
}

impl ValidSlot {
    /// Parses the validated payload into the snapshot's state map. The
    /// entries arrive in key order, and short keys and values are stored
    /// inline, so the map is built without a heap allocation per entry.
    fn materialize(self) -> LoadedSnapshot {
        let map = entries(&self.payload)
            .map(|(k, v)| (KvBytes::from(k), KvBytes::from(v)))
            .collect();
        LoadedSnapshot {
            slot: self.slot,
            seq: self.seq,
            wal_seq: self.wal_seq,
            wal_off: self.wal_off,
            map,
        }
    }
}

/// Walks the `klen, vlen, key, value` entries of a payload, stopping
/// at the first entry that is over-long or runs past the end.
fn entries(payload: &[u8]) -> impl Iterator<Item = (&[u8], &[u8])> {
    let mut pos = 0usize;
    std::iter::from_fn(move || {
        let klen = u32::from_le_bytes(read4(payload, pos)?) as usize;
        let vlen = u32::from_le_bytes(read4(payload, pos + 4)?) as usize;
        if klen > MAX_KEY || vlen > MAX_VAL {
            return None;
        }
        let key = payload.get(pos + 8..pos + 8 + klen)?;
        let val = payload.get(pos + 8 + klen..pos + 8 + klen + vlen)?;
        pos += 8 + klen + vlen;
        Some((key, val))
    })
}

/// True when the payload holds exactly `count` well-formed entries
/// with pairwise distinct keys and no trailing bytes. Writers emit keys
/// in strictly increasing order, which one pass confirms; anything else
/// falls back to sorting borrowed key slices. Allocates no map.
fn payload_is_valid(payload: &[u8], count: u64) -> bool {
    let mut parsed = 0u64;
    let mut consumed = 0usize;
    let mut sorted = true;
    let mut prev: Option<&[u8]> = None;
    for (k, v) in entries(payload).take(count as usize) {
        parsed += 1;
        consumed += 8 + k.len() + v.len();
        sorted &= prev.is_none_or(|p| p < k);
        prev = Some(k);
    }
    if parsed != count || consumed != payload.len() {
        return false;
    }
    if sorted {
        return true;
    }
    let mut keys: Vec<&[u8]> = entries(payload).map(|(k, _)| k).collect();
    keys.sort_unstable();
    keys.windows(2).all(|w| w[0] != w[1])
}

/// Validates slot `slot` end to end without parsing it into a map:
/// header magic/version/CRC, then payload CRC, then the entry framing
/// and key uniqueness. `None` on any disagreement.
fn validate_slot<M: PMem>(mem: &mut M, layout: &KvLayout, slot: u32) -> Option<ValidSlot> {
    let base = layout.slot_addr(u64::from(slot));
    let mut h = [0u8; 64];
    mem.read(base, &mut h);
    let magic = u64::from_le_bytes(read8(&h, 0)?);
    let version = u32::from_le_bytes(read4(&h, 8)?);
    let seq = u64::from_le_bytes(read8(&h, 12)?);
    let wal_seq = u64::from_le_bytes(read8(&h, 20)?);
    let wal_off = u64::from_le_bytes(read8(&h, 28)?);
    let count = u64::from_le_bytes(read8(&h, 36)?);
    let payload_len = u64::from_le_bytes(read8(&h, 44)?);
    let payload_crc = u32::from_le_bytes(read4(&h, 52)?);
    let header_crc = u32::from_le_bytes(read4(&h, 56)?);
    if magic != SNAP_MAGIC
        || version != FORMAT_VERSION
        || header_crc != crc32(&h[0..56])
        || wal_seq == 0
        || payload_len > layout.snap_payload_cap()
        || count > payload_len / 8 + 1
    {
        return None;
    }
    let mut payload = vec![0u8; payload_len as usize];
    mem.read(base + SNAP_HEADER_LEN, &mut payload);
    // Checksum verified first; only then is the framing walked.
    if crc32(&payload) != payload_crc || !payload_is_valid(&payload, count) {
        return None;
    }
    Some(ValidSlot {
        slot,
        seq,
        wal_seq,
        wal_off,
        payload,
    })
}

/// True when the slot's header is still all-zero — never written, as
/// opposed to written and damaged. A store that has not yet rotated
/// into its second slot is healthy, not degraded.
fn slot_is_vacant<M: PMem>(mem: &mut M, layout: &KvLayout, slot: u32) -> bool {
    let mut h = [0u8; SNAP_HEADER_LEN as usize];
    mem.read(layout.slot_addr(u64::from(slot)), &mut h);
    h.iter().all(|&b| b == 0)
}

/// Latest-valid-snapshot discovery: validates every slot and returns
/// the highest-sequence survivor (the lower slot on a tie) plus how
/// many slots were rejected. Vacant (never-written) slots are neither
/// survivors nor rejections. Only the survivor's payload is parsed.
pub fn discover<M: PMem>(mem: &mut M, layout: &KvLayout) -> (Option<LoadedSnapshot>, u32) {
    let mut best: Option<ValidSlot> = None;
    let mut rejected = 0;
    for slot in 0..SNAP_SLOTS as u32 {
        match validate_slot(mem, layout, slot) {
            Some(s) => {
                if best.as_ref().is_none_or(|b| s.seq > b.seq) {
                    best = Some(s);
                }
            }
            None if slot_is_vacant(mem, layout, slot) => {}
            None => rejected += 1,
        }
    }
    (best.map(ValidSlot::materialize), rejected)
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;

    /// Validates slot `slot` end to end — header magic/version/CRC, then
    /// payload CRC and entry framing — and only then parses entries.
    /// `None` on any disagreement.
    fn load_slot<M: PMem>(mem: &mut M, layout: &KvLayout, slot: u32) -> Option<LoadedSnapshot> {
        validate_slot(mem, layout, slot).map(ValidSlot::materialize)
    }
    use supermem_persist::VecMem;

    fn layout() -> KvLayout {
        KvLayout::new(0x1000, 4096, 4096).unwrap()
    }

    fn sample_map(n: u64) -> KvMap {
        (0..n)
            .map(|i| ((&i.to_le_bytes()).into(), vec![i as u8; 5].into()))
            .collect()
    }

    #[test]
    fn roundtrip_and_discovery_prefers_newest() {
        let l = layout();
        let mut mem = VecMem::new();
        write_snapshot(&mut mem, &l, 0, 3, 1, 40, &sample_map(4)).unwrap();
        write_snapshot(&mut mem, &l, 1, 4, 2, 0, &sample_map(6)).unwrap();
        let (best, rejected) = discover(&mut mem, &l);
        let best = best.unwrap();
        assert_eq!(
            (best.slot, best.seq, best.wal_seq, best.wal_off),
            (1, 4, 2, 0)
        );
        assert_eq!(best.map, sample_map(6));
        assert_eq!(rejected, 0);
    }

    #[test]
    fn corrupt_newest_falls_back_to_older_slot() {
        let l = layout();
        let mut mem = VecMem::new();
        write_snapshot(&mut mem, &l, 0, 3, 1, 40, &sample_map(4)).unwrap();
        write_snapshot(&mut mem, &l, 1, 4, 1, 96, &sample_map(6)).unwrap();
        // Damage one payload byte of the newest snapshot.
        let addr = l.slot_addr(1) + SNAP_HEADER_LEN + 3;
        let mut b = [0u8; 1];
        mem.read(addr, &mut b);
        b[0] ^= 0x80;
        mem.write(addr, &b);
        let (best, rejected) = discover(&mut mem, &l);
        let best = best.unwrap();
        assert_eq!((best.slot, best.seq), (0, 3), "fell back to the older slot");
        assert_eq!(rejected, 1);
    }

    #[test]
    fn empty_snapshot_is_valid() {
        let l = layout();
        let mut mem = VecMem::new();
        write_snapshot(&mut mem, &l, 0, 1, 1, 0, &KvMap::new()).unwrap();
        let s = load_slot(&mut mem, &l, 0).unwrap();
        assert!(s.map.is_empty());
    }

    #[test]
    fn overflow_is_typed() {
        let l = KvLayout::new(0x1000, 4096, 512).unwrap();
        let mut mem = VecMem::new();
        let big = sample_map(60);
        let err = write_snapshot(&mut mem, &l, 0, 1, 1, 0, &big).unwrap_err();
        assert!(err.need > err.cap);
    }

    /// The single-step loader winner-only discovery replaced: header
    /// and CRC checks, then a full parse into a map. Kept as the
    /// reference the split validate/materialize path must agree with.
    fn load_slot_reference<M: PMem>(
        mem: &mut M,
        layout: &KvLayout,
        slot: u32,
    ) -> Option<LoadedSnapshot> {
        let base = layout.slot_addr(u64::from(slot));
        let mut h = [0u8; 64];
        mem.read(base, &mut h);
        let magic = u64::from_le_bytes(read8(&h, 0)?);
        let version = u32::from_le_bytes(read4(&h, 8)?);
        let seq = u64::from_le_bytes(read8(&h, 12)?);
        let wal_seq = u64::from_le_bytes(read8(&h, 20)?);
        let wal_off = u64::from_le_bytes(read8(&h, 28)?);
        let count = u64::from_le_bytes(read8(&h, 36)?);
        let payload_len = u64::from_le_bytes(read8(&h, 44)?);
        let payload_crc = u32::from_le_bytes(read4(&h, 52)?);
        let header_crc = u32::from_le_bytes(read4(&h, 56)?);
        if magic != SNAP_MAGIC
            || version != FORMAT_VERSION
            || header_crc != crc32(&h[0..56])
            || wal_seq == 0
            || payload_len > layout.snap_payload_cap()
            || count > payload_len / 8 + 1
        {
            return None;
        }
        let mut payload = vec![0u8; payload_len as usize];
        mem.read(base + SNAP_HEADER_LEN, &mut payload);
        if crc32(&payload) != payload_crc {
            return None;
        }
        let mut map = KvMap::new();
        let mut pos = 0usize;
        for _ in 0..count {
            let klen = u32::from_le_bytes(read4(&payload, pos)?) as usize;
            let vlen = u32::from_le_bytes(read4(&payload, pos + 4)?) as usize;
            if klen > MAX_KEY || vlen > MAX_VAL {
                return None;
            }
            pos += 8;
            let key = payload.get(pos..pos + klen)?.into();
            let val = payload.get(pos + klen..pos + klen + vlen)?.into();
            pos += klen + vlen;
            map.insert(key, val);
        }
        if pos != payload.len() || map.len() as u64 != count {
            return None;
        }
        Some(LoadedSnapshot {
            slot,
            seq,
            wal_seq,
            wal_off,
            map,
        })
    }

    /// Discovery over [`load_slot_reference`]: every slot fully parsed.
    fn discover_reference<M: PMem>(
        mem: &mut M,
        layout: &KvLayout,
    ) -> (Option<LoadedSnapshot>, u32) {
        let mut best: Option<LoadedSnapshot> = None;
        let mut rejected = 0;
        for slot in 0..SNAP_SLOTS as u32 {
            match load_slot_reference(mem, layout, slot) {
                Some(s) => {
                    if best.as_ref().is_none_or(|b| s.seq > b.seq) {
                        best = Some(s);
                    }
                }
                None if slot_is_vacant(mem, layout, slot) => {}
                None => rejected += 1,
            }
        }
        (best, rejected)
    }

    /// Raw `klen, vlen, key, value` framing, in the given order.
    fn frame(entries: &[(&[u8], &[u8])]) -> Vec<u8> {
        let mut out = Vec::new();
        for (k, v) in entries {
            out.extend_from_slice(&(k.len() as u32).to_le_bytes());
            out.extend_from_slice(&(v.len() as u32).to_le_bytes());
            out.extend_from_slice(k);
            out.extend_from_slice(v);
        }
        out
    }

    fn assert_same_discovery(mem: &mut VecMem, l: &KvLayout, what: &str) {
        let want = discover_reference(mem, l);
        assert_eq!(discover(mem, l), want, "{what}: discover");
        for slot in 0..SNAP_SLOTS as u32 {
            assert_eq!(
                load_slot(mem, l, slot),
                load_slot_reference(mem, l, slot),
                "{what}: slot {slot}"
            );
        }
    }

    /// CRC-valid crafted payloads, each sealed into slot 1 beside a
    /// valid slot 0: the split loader accepts and rejects exactly what
    /// the single-step loader did, and yields the same map.
    #[test]
    fn crafted_slots_match_the_reference_loader() {
        let l = layout();
        let (a, b, c): (&[u8], &[u8], &[u8]) = (b"alpha", b"bravo", b"charlie");
        let long_key = [7u8; MAX_KEY + 1];
        let long_val = [7u8; MAX_VAL + 1];
        let sorted = frame(&[(a, b"1"), (b, b"2"), (c, b"3")]);
        let mut trailing = sorted.clone();
        trailing.push(0);
        let cases: Vec<(&str, u64, Vec<u8>)> = vec![
            ("sorted unique", 3, sorted.clone()),
            (
                "unsorted unique",
                3,
                frame(&[(c, b"3"), (a, b"1"), (b, b"2")]),
            ),
            (
                "adjacent duplicate",
                3,
                frame(&[(a, b"1"), (a, b"2"), (b, b"3")]),
            ),
            (
                "unsorted duplicate",
                3,
                frame(&[(b, b"1"), (a, b"2"), (b, b"3")]),
            ),
            (
                "empty keys, duplicate",
                2,
                frame(&[(b"", b"1"), (b"", b"2")]),
            ),
            ("empty key, unique", 2, frame(&[(b"", b"1"), (a, b"2")])),
            ("trailing byte", 3, trailing),
            ("count too high", 4, sorted.clone()),
            ("count too low", 2, sorted.clone()),
            ("count zero, payload", 0, sorted.clone()),
            ("count zero, empty", 0, Vec::new()),
            ("key too long", 1, frame(&[(&long_key, b"v")])),
            ("value too long", 1, frame(&[(a, &long_val)])),
            (
                "key at the limit",
                1,
                frame(&[(&long_key[..MAX_KEY], b"v")]),
            ),
            ("truncated value", 3, sorted[..sorted.len() - 1].to_vec()),
            ("truncated lengths", 3, sorted[..sorted.len() - 14].to_vec()),
            ("lengths only", 1, vec![5, 0, 0, 0, 1, 0, 0, 0]),
        ];
        for (what, count, payload) in cases {
            for seq in [2u64, 3, 4] {
                let mut mem = VecMem::new();
                write_snapshot(&mut mem, &l, 0, 3, 1, 40, &sample_map(4)).unwrap();
                seal_slot(&mut mem, &l, 1, [seq, 1, 8, count], &payload);
                assert_same_discovery(&mut mem, &l, &format!("{what}, seq {seq}"));
            }
        }
    }

    /// Equal sequence numbers: the lower slot wins in both loaders, even
    /// when the two payloads differ.
    #[test]
    fn equal_seq_tie_goes_to_the_lower_slot() {
        let l = layout();
        let mut mem = VecMem::new();
        write_snapshot(&mut mem, &l, 0, 5, 1, 0, &sample_map(2)).unwrap();
        write_snapshot(&mut mem, &l, 1, 5, 1, 0, &sample_map(7)).unwrap();
        let (best, rejected) = discover(&mut mem, &l);
        assert_eq!(best.as_ref().map(|b| b.slot), Some(0));
        assert_eq!(rejected, 0);
        assert_same_discovery(&mut mem, &l, "tie");
    }

    /// Randomized slots: random entry lists (duplicates and disorder
    /// likely), random counts, random truncation and trailing bytes,
    /// vacant or header-damaged slots, and a narrow sequence range so
    /// ties are common.
    #[test]
    fn random_slots_match_the_reference_loader() {
        let l = layout();
        let mut rng = supermem_sim::SplitMix64::new(0x5A1F);
        let (mut won, mut rejected) = (0, 0);
        for round in 0..600 {
            let mut mem = VecMem::new();
            for slot in 0..SNAP_SLOTS as u32 {
                if rng.next_below(6) == 0 {
                    continue; // vacant
                }
                let n = rng.next_below(6);
                let keys: Vec<Vec<u8>> = (0..n)
                    .map(|_| vec![rng.next_below(4) as u8; rng.next_below(3) as usize])
                    .collect();
                let vals: Vec<Vec<u8>> = (0..n)
                    .map(|_| vec![rng.next_u64() as u8; rng.next_below(4) as usize])
                    .collect();
                let pairs: Vec<(&[u8], &[u8])> = keys
                    .iter()
                    .zip(&vals)
                    .map(|(k, v)| (k.as_slice(), v.as_slice()))
                    .collect();
                let mut payload = frame(&pairs);
                match rng.next_below(5) {
                    0 if !payload.is_empty() => {
                        let cut = rng.next_below(payload.len() as u64) as usize;
                        payload.truncate(cut);
                    }
                    1 => payload.push(rng.next_u64() as u8),
                    _ => {}
                }
                let count = match rng.next_below(4) {
                    0 => rng.next_below(n + 2),
                    _ => n,
                };
                let seq = rng.next_range(1, 4);
                let wal_seq = rng.next_below(3);
                seal_slot(&mut mem, &l, slot, [seq, wal_seq, 0, count], &payload);
                if rng.next_below(8) == 0 {
                    let at = l.slot_addr(u64::from(slot)) + rng.next_below(64);
                    let mut byte = [0u8; 1];
                    mem.read(at, &mut byte);
                    byte[0] ^= 1 << rng.next_below(8);
                    mem.write(at, &byte);
                }
            }
            assert_same_discovery(&mut mem, &l, &format!("round {round}"));
            let (best, r) = discover(&mut mem, &l);
            won += u32::from(best.is_some_and(|b| !b.map.is_empty()));
            rejected += r;
        }
        assert!(
            won > 50 && rejected > 200,
            "{won} non-empty winners, {rejected} rejections"
        );
    }

    #[test]
    fn header_bit_flip_rejects_slot() {
        let l = layout();
        let mut mem = VecMem::new();
        write_snapshot(&mut mem, &l, 0, 3, 1, 40, &sample_map(4)).unwrap();
        for at in [0u64, 12, 20, 28, 36, 44, 52] {
            let mut dirty = mem.clone();
            let mut b = [0u8; 1];
            dirty.read(l.slot_addr(0) + at, &mut b);
            b[0] ^= 0x02;
            dirty.write(l.slot_addr(0) + at, &b);
            assert!(load_slot(&mut dirty, &l, 0).is_none(), "header byte {at}");
        }
    }
}
