//! The checksummed write-ahead log: length-prefixed records, per-record
//! CRC-32, and a magic/version/sequence segment header.
//!
//! ```text
//! segment header (32 B): [magic u64][version u32][seq u64][crc u32]
//! record:                [len u32][payload][crc u32]
//! payload:               [kind u8][klen u32][vlen u32][key][value]
//! terminator:            [0u32]
//! ```
//!
//! The record CRC is computed over `seq_le || off_le || payload` —
//! mixing the segment sequence into every record means bytes left
//! behind by an earlier epoch (the WAL is rotated in place at a
//! rotating checkpoint) can never masquerade as records of the current
//! epoch, and mixing the record's own body offset means a valid
//! record's bytes copied (by damaged media or a misdirected write) over
//! a *different* log position fail CRC there instead of replaying a
//! real operation at the wrong point in history. Both guard invariant
//! R4, "recovery never invents data": replay stops or skips with a
//! damage signal instead of resurrecting superseded or relocated
//! operations.

use supermem_persist::PMem;

use crate::bytes::{KvBytes, KvMap};
use crate::crc32::{crc32, crc32_parts};
use crate::layout::{read4, read8, KvLayout, FORMAT_VERSION, MAX_KEY, MAX_VAL, WAL_MAGIC};

/// Record kind byte for a put.
pub const KIND_PUT: u8 = 1;
/// Record kind byte for a delete.
pub const KIND_DEL: u8 = 2;

/// Maximum record *payload* length (kind + lengths + max key + max
/// value).
pub const MAX_RECORD_LEN: usize = 9 + MAX_KEY + MAX_VAL;

/// One logged operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvOp {
    /// Insert or overwrite `key` with `value`.
    Put(KvBytes, KvBytes),
    /// Remove `key` (a no-op if absent).
    Del(KvBytes),
}

impl KvOp {
    /// The key the operation touches.
    pub fn key(&self) -> &[u8] {
        match self {
            KvOp::Put(k, _) | KvOp::Del(k) => k,
        }
    }

    /// Applies the operation to a volatile index.
    pub fn apply(self, map: &mut KvMap) {
        match self {
            KvOp::Put(k, v) => {
                map.insert(k, v);
            }
            KvOp::Del(k) => {
                map.remove(k.as_slice());
            }
        }
    }
}

/// Serializes one record (`len || payload || crc`) for segment `seq`
/// destined for body offset `off`.
///
/// Key/value bounds are the caller's contract ([`crate::KvStore`]
/// validates them with a typed error first).
pub fn encode_record(seq: u64, off: u64, op: &KvOp) -> Vec<u8> {
    let (kind, key, val): (u8, &[u8], &[u8]) = match op {
        KvOp::Put(k, v) => (KIND_PUT, k, v),
        KvOp::Del(k) => (KIND_DEL, k, &[]),
    };
    let mut payload = Vec::with_capacity(9 + key.len() + val.len());
    payload.push(kind);
    payload.extend_from_slice(&(key.len() as u32).to_le_bytes());
    payload.extend_from_slice(&(val.len() as u32).to_le_bytes());
    payload.extend_from_slice(key);
    payload.extend_from_slice(val);
    let crc = crc32_parts(&[&seq.to_le_bytes(), &off.to_le_bytes(), &payload]);
    let mut rec = Vec::with_capacity(8 + payload.len());
    rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    rec.extend_from_slice(&payload);
    rec.extend_from_slice(&crc.to_le_bytes());
    rec
}

/// Bytes record `op` occupies on media (length word + payload + CRC).
pub fn record_len(op: &KvOp) -> u64 {
    let body = match op {
        KvOp::Put(k, v) => 9 + k.len() + v.len(),
        KvOp::Del(k) => 9 + k.len(),
    };
    8 + body as u64
}

/// What [`parse_at`] found at a body offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parse {
    /// A zero length word: the clean end of the log.
    End,
    /// A valid record and the offset of the next one.
    Record(KvOp, u64),
    /// A record that fails validation. `next` is the offset just past
    /// it when the length word was plausible (a skip candidate);
    /// `None` when the length itself is garbage (no way to resync).
    Corrupt(Option<u64>),
}

/// Validates whatever sits at body offset `off` of a segment with
/// sequence `seq`. Pure read; never panics on any byte pattern.
pub fn parse_at<M: PMem>(mem: &mut M, body_addr: u64, cap: u64, seq: u64, off: u64) -> Parse {
    if off + 4 > cap {
        return Parse::Corrupt(None);
    }
    let mut lenb = [0u8; 4];
    mem.read(body_addr + off, &mut lenb);
    let len = u32::from_le_bytes(lenb) as u64;
    if len == 0 {
        return Parse::End;
    }
    if len > MAX_RECORD_LEN as u64 || off + 8 + len > cap {
        return Parse::Corrupt(None);
    }
    let next = off + 8 + len;
    let mut buf = [0u8; MAX_RECORD_LEN + 4];
    let rest = &mut buf[..len as usize + 4];
    mem.read(body_addr + off + 4, rest);
    let payload = &rest[..len as usize];
    let Some(stored) = read4(rest, len as usize) else {
        return Parse::Corrupt(Some(next));
    };
    if u32::from_le_bytes(stored) != crc32_parts(&[&seq.to_le_bytes(), &off.to_le_bytes(), payload])
    {
        return Parse::Corrupt(Some(next));
    }
    match decode_payload(payload) {
        Some(op) => Parse::Record(op, next),
        None => Parse::Corrupt(Some(next)),
    }
}

/// Decodes a CRC-validated payload; `None` on structural nonsense
/// (which a correct writer never produces, but recovery must not trust
/// the media).
fn decode_payload(p: &[u8]) -> Option<KvOp> {
    let kind = *p.first()?;
    let klen = u32::from_le_bytes(read4(p, 1)?) as usize;
    let vlen = u32::from_le_bytes(read4(p, 5)?) as usize;
    if klen > MAX_KEY || vlen > MAX_VAL || p.len() != 9 + klen + vlen {
        return None;
    }
    let key = p.get(9..9 + klen)?.into();
    match kind {
        KIND_PUT => Some(KvOp::Put(key, p.get(9 + klen..)?.into())),
        KIND_DEL if vlen == 0 => Some(KvOp::Del(key)),
        _ => None,
    }
}

/// The WAL segment header: identifies the format and the epoch every
/// record CRC in the body is bound to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalHeader {
    /// Segment (epoch) sequence number, starting at 1 and bumped by
    /// every rotating checkpoint.
    pub seq: u64,
}

impl WalHeader {
    /// Serializes the header (magic, version, seq, CRC; zero padding).
    pub fn encode(&self) -> [u8; 32] {
        let mut b = [0u8; 32];
        b[0..8].copy_from_slice(&WAL_MAGIC.to_le_bytes());
        b[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        b[12..20].copy_from_slice(&self.seq.to_le_bytes());
        let crc = crc32(&b[0..20]);
        b[20..24].copy_from_slice(&crc.to_le_bytes());
        b
    }

    /// Writes and persists the header, plus the body terminator that
    /// makes a freshly rotated segment replay as empty.
    pub fn persist_fresh<M: PMem>(&self, mem: &mut M, layout: &KvLayout) {
        let mut b = [0u8; 36];
        b[0..32].copy_from_slice(&self.encode());
        // b[32..36] is the zero terminator at body offset 0.
        mem.persist(layout.wal_addr(), &b);
    }

    /// Reads and validates the header; `None` when magic, version, or
    /// CRC disagree (a torn rotation or damaged media).
    pub fn load<M: PMem>(mem: &mut M, layout: &KvLayout) -> Option<Self> {
        let mut b = [0u8; 32];
        mem.read(layout.wal_addr(), &mut b);
        let magic = u64::from_le_bytes(read8(&b, 0)?);
        let version = u32::from_le_bytes(read4(&b, 8)?);
        let seq = u64::from_le_bytes(read8(&b, 12)?);
        let crc = u32::from_le_bytes(read4(&b, 20)?);
        if magic != WAL_MAGIC || version != FORMAT_VERSION || crc != crc32(&b[0..20]) || seq == 0 {
            return None;
        }
        Some(Self { seq })
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;
    use supermem_persist::VecMem;

    fn layout() -> KvLayout {
        KvLayout::new(0x1000, 4096, 4096).unwrap()
    }

    #[test]
    fn record_roundtrip_both_kinds() {
        let l = layout();
        let mut mem = VecMem::new();
        let ops = [
            KvOp::Put(b"key".into(), b"value".into()),
            KvOp::Del(b"key".into()),
            KvOp::Put(vec![0; MAX_KEY].into(), vec![0xFF; MAX_VAL].into()),
        ];
        let mut off = 0;
        for op in &ops {
            let rec = encode_record(3, off, op);
            assert_eq!(rec.len() as u64, record_len(op));
            mem.write(l.wal_body_addr() + off, &rec);
            match parse_at(&mut mem, l.wal_body_addr(), l.wal_body, 3, off) {
                Parse::Record(got, next) => {
                    assert_eq!(&got, op);
                    assert_eq!(next, off + rec.len() as u64);
                }
                other => panic!("expected record, got {other:?}"),
            }
            off += rec.len() as u64;
        }
        // Zeroed tail reads as the clean end.
        assert_eq!(
            parse_at(&mut mem, l.wal_body_addr(), l.wal_body, 3, off),
            Parse::End
        );
    }

    #[test]
    fn stale_epoch_records_fail_crc() {
        // A record sealed under seq 3 must not validate under seq 4:
        // this is what keeps a rotated-in-place segment from replaying
        // its previous life (R4).
        let l = layout();
        let mut mem = VecMem::new();
        let rec = encode_record(3, 0, &KvOp::Put(b"k".into(), b"v".into()));
        mem.write(l.wal_body_addr(), &rec);
        assert!(matches!(
            parse_at(&mut mem, l.wal_body_addr(), l.wal_body, 4, 0),
            Parse::Corrupt(Some(_))
        ));
    }

    #[test]
    fn relocated_record_fails_crc() {
        // A record sealed for offset 0 must not validate at another
        // offset of the same epoch: duplicated or misdirected blocks
        // cannot replay a real operation at the wrong point in history
        // (R4).
        let l = layout();
        let mut mem = VecMem::new();
        let rec = encode_record(3, 0, &KvOp::Put(b"k".into(), b"v".into()));
        mem.write(l.wal_body_addr() + 64, &rec);
        assert!(matches!(
            parse_at(&mut mem, l.wal_body_addr(), l.wal_body, 3, 64),
            Parse::Corrupt(Some(_))
        ));
    }

    #[test]
    fn implausible_length_cannot_resync() {
        let l = layout();
        let mut mem = VecMem::new();
        mem.write(l.wal_body_addr(), &u32::MAX.to_le_bytes());
        assert_eq!(
            parse_at(&mut mem, l.wal_body_addr(), l.wal_body, 1, 0),
            Parse::Corrupt(None)
        );
    }

    #[test]
    fn header_roundtrip_and_rejection() {
        let l = layout();
        let mut mem = VecMem::new();
        assert_eq!(WalHeader::load(&mut mem, &l), None, "unformatted");
        WalHeader { seq: 5 }.persist_fresh(&mut mem, &l);
        assert_eq!(WalHeader::load(&mut mem, &l), Some(WalHeader { seq: 5 }));
        assert_eq!(
            parse_at(&mut mem, l.wal_body_addr(), l.wal_body, 5, 0),
            Parse::End,
            "fresh segment replays empty"
        );
        let mut one = [0u8; 1];
        mem.read(l.wal_addr() + 13, &mut one);
        one[0] ^= 0x01;
        mem.write(l.wal_addr() + 13, &one);
        assert_eq!(WalHeader::load(&mut mem, &l), None, "seq bit flip detected");
    }
}
