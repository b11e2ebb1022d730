//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the
//! per-record and per-snapshot checksum of the KV store's on-media
//! formats.
//!
//! The workspace carries no external dependencies, so the table is
//! generated at compile time. FNV-1a (the undo log's checksum in
//! `supermem-persist`) is deliberately *not* reused here: CRC-32 is the
//! storage-industry convention for log records, and its burst-error
//! guarantees are what a torn 8-byte word inside a WAL record actually
//! exercises.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables, built at compile time. `TABLES[0]` is
/// the classic bytewise table; `TABLES[k][i]` is the CRC of byte `i`
/// followed by `k` zero bytes, so eight input bytes fold in with eight
/// independent lookups instead of a chain of eight dependent ones.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// A streaming CRC-32 hasher.
///
/// # Examples
///
/// ```
/// use supermem_kv::crc32::{crc32, Crc32};
///
/// let mut h = Crc32::new();
/// h.update(b"123");
/// h.update(b"456789");
/// assert_eq!(h.finish(), crc32(b"123456789"));
/// assert_eq!(crc32(b"123456789"), 0xCBF4_3926); // the IEEE check value
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Self { state: !0 }
    }

    /// Folds `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][w[4] as usize]
                ^ t[2][w[5] as usize]
                ^ t[1][w[6] as usize]
                ^ t[0][w[7] as usize];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// The final checksum.
    pub fn finish(self) -> u32 {
        !self.state
    }
}

/// One-shot CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finish()
}

/// CRC-32 over the concatenation of `parts` (no copy).
pub fn crc32_parts(parts: &[&[u8]]) -> u32 {
    let mut h = Crc32::new();
    for p in parts {
        h.update(p);
    }
    h.finish()
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard CRC-32/ISO-HDLC test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..=255).collect();
        for split in [0, 1, 7, 128, 255, 256] {
            assert_eq!(
                crc32_parts(&[&data[..split], &data[split..]]),
                crc32(&data),
                "split at {split}"
            );
        }
    }

    /// The bytewise (one table lookup per byte) reference the
    /// slicing-by-8 loop must agree with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn slicing_by_8_matches_the_bytewise_reference() {
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        let mut rng = supermem_sim::SplitMix64::new(0xC3C3);
        let buf: Vec<u8> = (0..320).map(|_| rng.next_u64() as u8).collect();
        for _ in 0..400 {
            // Random start offsets exercise every alignment of the
            // eight-byte words against the allocation.
            let start = rng.next_below(8) as usize;
            let len = rng.next_below(300) as usize;
            let data = &buf[start..start + len];
            let want = crc32_bytewise(data);
            assert_eq!(crc32(data), want, "len {len} at offset {start}");
            let split = rng.next_below(len as u64 + 1) as usize;
            assert_eq!(
                crc32_parts(&[&data[..split], &data[split..]]),
                want,
                "len {len} split at {split}"
            );
        }
    }

    #[test]
    fn single_bit_damage_always_changes_the_checksum() {
        let data = [0x5Au8; 64];
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut dirty = data;
                dirty[byte] ^= 1 << bit;
                assert_ne!(crc32(&dirty), clean, "flip at {byte}:{bit}");
            }
        }
    }
}
