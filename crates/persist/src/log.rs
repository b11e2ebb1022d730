//! The on-NVM undo-log format.
//!
//! One log region holds one transaction's undo records at a time (the
//! region is recycled per transaction, exactly like the contiguous log
//! the paper describes in §3.4.2 — which is what gives log writes their
//! spatial locality). Layout:
//!
//! ```text
//! +0   magic     u64   LOG_MAGIC
//! +8   seq       u64   transaction sequence number
//! +16  state     u64   EMPTY -> VALID -> COMMITTED (8-byte atomic)
//! +24  len       u64   payload bytes
//! +32  checksum  u64   FNV-1a over (seq, len, payload)
//! +40  ...reserved to +64
//! +64  payload: repeated records { addr u64, len u64, old bytes }
//! ```
//!
//! The `state` word is the only field mutated after the header is
//! persisted, and it is updated with a single 8-byte (hence atomic)
//! write. Recovery trusts a record set only if `magic` matches, `state`
//! is `VALID`, and the checksum verifies — a mis-decrypted log (the
//! Figure 4 counter-loss scenario) fails the magic/checksum test and is
//! reported as corrupt.

use crate::pmem::PMem;

/// Magic tag identifying a log header ("SUPRLOG" in spirit).
pub const LOG_MAGIC: u64 = 0x5355_5045_524C_4F47;

/// Header size in bytes; payload records start here.
pub const LOG_HEADER_BYTES: u64 = 64;

/// `state`: no transaction logged.
pub const STATE_EMPTY: u64 = 0;
/// `state`: undo records are complete and must be applied on recovery.
pub const STATE_VALID: u64 = 1;
/// `state`: the transaction committed; records are obsolete.
pub const STATE_COMMITTED: u64 = 2;

/// One undo record: the old contents of `[addr, addr + data.len())`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UndoRecord {
    /// Target address.
    pub addr: u64,
    /// The pre-transaction bytes.
    pub data: Vec<u8>,
}

/// FNV-1a 64-bit, the log checksum.
fn fnv1a(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in *part {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Serializes undo records into a payload byte vector.
pub fn encode_records(records: &[UndoRecord]) -> Vec<u8> {
    let total: usize = records.iter().map(|r| 16 + r.data.len()).sum();
    let mut out = Vec::with_capacity(total);
    for r in records {
        out.extend_from_slice(&r.addr.to_le_bytes());
        out.extend_from_slice(&(r.data.len() as u64).to_le_bytes());
        out.extend_from_slice(&r.data);
    }
    out
}

/// Parses a payload produced by [`encode_records`].
///
/// Returns `None` on any structural inconsistency (truncated record,
/// absurd length) — which is how garbage from a mis-decrypted log
/// surfaces.
pub fn decode_records(payload: &[u8]) -> Option<Vec<UndoRecord>> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < payload.len() {
        if payload.len() - pos < 16 {
            return None;
        }
        let (Ok(addr_bytes), Ok(len_bytes)) = (
            payload[pos..pos + 8].try_into(),
            payload[pos + 8..pos + 16].try_into(),
        ) else {
            return None; // length checked above; kept fallible for the policy
        };
        let addr = u64::from_le_bytes(addr_bytes);
        let len = u64::from_le_bytes(len_bytes) as usize;
        pos += 16;
        if payload.len() - pos < len {
            return None;
        }
        out.push(UndoRecord {
            addr,
            data: payload[pos..pos + len].to_vec(),
        });
        pos += len;
    }
    Some(out)
}

/// The checksum committed into the header for (`seq`, payload).
pub fn log_checksum(seq: u64, payload: &[u8]) -> u64 {
    fnv1a(&[
        &seq.to_le_bytes(),
        &(payload.len() as u64).to_le_bytes(),
        payload,
    ])
}

/// A decoded log header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogHeader {
    /// Magic tag (must equal [`LOG_MAGIC`]).
    pub magic: u64,
    /// Transaction sequence number.
    pub seq: u64,
    /// Lifecycle state word.
    pub state: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// FNV-1a checksum of (seq, len, payload).
    pub checksum: u64,
}

/// Reads the header at `log_base`.
pub fn read_header<M: PMem>(mem: &mut M, log_base: u64) -> LogHeader {
    LogHeader {
        magic: mem.read_u64(log_base),
        seq: mem.read_u64(log_base + 8),
        state: mem.read_u64(log_base + 16),
        len: mem.read_u64(log_base + 24),
        checksum: mem.read_u64(log_base + 32),
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;
    use crate::pmem::VecMem;

    #[test]
    fn record_roundtrip() {
        let records = vec![
            UndoRecord {
                addr: 0x1000,
                data: vec![1, 2, 3],
            },
            UndoRecord {
                addr: 0x2000,
                data: vec![],
            },
            UndoRecord {
                addr: 0x3000,
                data: (0..255).collect(),
            },
        ];
        let payload = encode_records(&records);
        assert_eq!(decode_records(&payload), Some(records));
    }

    #[test]
    fn decode_rejects_truncation() {
        let payload = encode_records(&[UndoRecord {
            addr: 1,
            data: vec![9; 32],
        }]);
        assert!(decode_records(&payload[..payload.len() - 1]).is_none());
        assert!(decode_records(&payload[..8]).is_none());
    }

    #[test]
    fn decode_rejects_absurd_length() {
        let mut payload = vec![0u8; 16];
        payload[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_records(&payload).is_none());
    }

    #[test]
    fn empty_payload_decodes_empty() {
        assert_eq!(decode_records(&[]), Some(vec![]));
    }

    #[test]
    fn checksum_distinguishes_payloads() {
        let a = log_checksum(1, b"hello");
        let b = log_checksum(1, b"hellp");
        let c = log_checksum(2, b"hello");
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn fnv_known_value() {
        // FNV-1a("") = offset basis; FNV-1a("a") is the canonical test.
        assert_eq!(fnv1a(&[b""]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(&[b"a"]), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn header_read_matches_written_fields() {
        let mut m = VecMem::new();
        m.write_u64(4096, LOG_MAGIC);
        m.write_u64(4096 + 8, 7);
        m.write_u64(4096 + 16, STATE_VALID);
        m.write_u64(4096 + 24, 99);
        m.write_u64(4096 + 32, 0xABCD);
        let h = read_header(&mut m, 4096);
        assert_eq!(h.magic, LOG_MAGIC);
        assert_eq!(h.seq, 7);
        assert_eq!(h.state, STATE_VALID);
        assert_eq!(h.len, 99);
        assert_eq!(h.checksum, 0xABCD);
    }
}
