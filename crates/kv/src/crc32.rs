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
//!
//! # Two paths, one checksum
//!
//! * **Carry-less multiply** (x86-64 hosts reporting PCLMULQDQ, checked
//!   at run time with `is_x86_feature_detected!`): inputs of 64 bytes
//!   or more fold four 16-byte lanes per 64-byte block with `PCLMULQDQ`
//!   (the Gopal et al. "Fast CRC Computation Using PCLMULQDQ" scheme),
//!   collapse the lanes, fold the remaining 16-byte words, and
//!   Barrett-reduce back to the 32-bit register. A 24 KiB snapshot
//!   payload costs about a tenth of the table path.
//! * **Slicing-by-8** (every host): eight table lookups per eight
//!   bytes. It takes short inputs, the hardware path's sub-16-byte
//!   tail, other architectures and Miri.
//!
//! Both compute the same register, so the checksum is bit-identical
//! whichever path ran; the `hardware_path_matches_table_path` test
//! cross-checks them over random lengths, offsets and streaming splits.

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
    pub fn update(&mut self, mut bytes: &[u8]) {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if bytes.len() >= simd::MIN_LEN && clmul_available() {
            let whole = bytes.len() - bytes.len() % 16;
            // SAFETY: PCLMULQDQ presence checked just above.
            self.state = unsafe { simd::fold(self.state, &bytes[..whole]) };
            bytes = &bytes[whole..];
        }
        self.state = update_table(self.state, bytes);
    }

    /// The final checksum.
    pub fn finish(self) -> u32 {
        !self.state
    }
}

/// Folds `bytes` into the CRC register `crc` with the slicing-by-8
/// tables.
fn update_table(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
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
    crc
}

/// Whether the carry-less-multiply path may be taken on this host.
///
/// `is_x86_feature_detected!` caches its CPUID probe internally, so the
/// per-call dispatch cost is one relaxed atomic load.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[inline]
fn clmul_available() -> bool {
    std::arch::is_x86_feature_detected!("pclmulqdq")
}

/// CRC-32 folding with the x86-64 `PCLMULQDQ` carry-less multiply.
///
/// The register is the reflected CRC state, so a 128-bit lane holds
/// its polynomial with bit 0 as the highest power. Folding lane `a`
/// forward over `n` bits is `a.lo * (x^(n+32) mod P) ^ a.hi * (x^(n-32)
/// mod P)` (both constants bit-reflected and shifted left by one, the
/// usual trick that absorbs the reflected product's one-bit offset),
/// XORed into the lane `n` bits further on. The constants are those of
/// the Intel white paper for the IEEE polynomial.
#[cfg(all(target_arch = "x86_64", not(miri)))]
mod simd {
    use core::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// The shortest input the hardware path takes: one 64-byte block
    /// seeds the four lanes.
    pub(super) const MIN_LEN: usize = 64;

    /// `x^(4*128+32)` and `x^(4*128-32) mod P`: fold a lane 512 bits.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// `x^(128+32)` and `x^(128-32) mod P`: fold a lane 128 bits.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// `x^64 mod P`: fold 96 bits down to 64.
    const K5: i64 = 0x1_63cd_6124;
    /// The polynomial `P` and the Barrett constant `floor(x^64 / P)`,
    /// both bit-reflected.
    const P_X: i64 = 0x1_DB71_0641;
    const U_PRIME: i64 = 0x1_F701_1641;

    /// Loads the next 16 bytes of `data` and advances it.
    ///
    /// # Panics
    ///
    /// Panics if `data` holds fewer than 16 bytes.
    #[inline]
    #[allow(clippy::cast_ptr_alignment)] // _mm_loadu_si128 is an unaligned load
    fn next(data: &mut &[u8]) -> __m128i {
        let (lane, rest) = data.split_at(16);
        *data = rest;
        // SAFETY: `lane` is exactly 16 readable bytes, the unaligned
        // load reads no more, and SSE2 is part of the x86-64 baseline.
        unsafe { _mm_loadu_si128(lane.as_ptr().cast::<__m128i>()) }
    }

    /// Folds lane `a` forward by the distance `keys` encodes and XORs
    /// it into `b`.
    ///
    /// # Safety
    ///
    /// The CPU must support PCLMULQDQ.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn fold_into(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, keys, 0x00);
        let hi = _mm_clmulepi64_si128(a, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }

    /// Folds `data` into the CRC register `crc` and returns the new
    /// register.
    ///
    /// # Panics
    ///
    /// Panics unless `data.len()` is a multiple of 16 and at least
    /// [`MIN_LEN`].
    ///
    /// # Safety
    ///
    /// The CPU must support PCLMULQDQ
    /// (`is_x86_feature_detected!("pclmulqdq")`).
    #[target_feature(enable = "pclmulqdq")]
    pub(super) unsafe fn fold(crc: u32, mut data: &[u8]) -> u32 {
        let mut x3 = _mm_xor_si128(next(&mut data), _mm_cvtsi32_si128(crc as i32));
        let mut x2 = next(&mut data);
        let mut x1 = next(&mut data);
        let mut x0 = next(&mut data);
        let k1k2 = _mm_set_epi64x(K2, K1);
        while data.len() >= 64 {
            x3 = fold_into(x3, next(&mut data), k1k2);
            x2 = fold_into(x2, next(&mut data), k1k2);
            x1 = fold_into(x1, next(&mut data), k1k2);
            x0 = fold_into(x0, next(&mut data), k1k2);
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_into(x3, x2, k3k4);
        x = fold_into(x, x1, k3k4);
        x = fold_into(x, x0, k3k4);
        while !data.is_empty() {
            x = fold_into(x, next(&mut data), k3k4);
        }
        // 128 -> 96 bits: the low half times K4 into the high half.
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        // 96 -> 64 bits: the low word times K5 into the rest.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett reduction, 64 -> 32 bits (bit-reflected variant: the
        // remainder lands in the second 32-bit word).
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(x, t2), 4)) as u32
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
            assert_eq!(!update_table(!0, data), want, "len {len} at offset {start}");
            assert_eq!(crc32(data), want, "len {len} at offset {start}");
            let split = rng.next_below(len as u64 + 1) as usize;
            assert_eq!(
                crc32_parts(&[&data[..split], &data[split..]]),
                want,
                "len {len} split at {split}"
            );
        }
    }

    /// The carry-less-multiply kernel and the dispatching hasher
    /// against the table path: random lengths from 0 to past 4 KiB,
    /// every alignment, random starting registers, streaming splits,
    /// and the block-boundary lengths.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[test]
    fn hardware_path_matches_table_path() {
        if !clmul_available() {
            eprintln!("skipping: host CPU does not report PCLMULQDQ");
            return;
        }
        let mut rng = supermem_sim::SplitMix64::new(0xC1A5);
        let mut buf = vec![0u8; 24 * 1024 + 64];
        rng.fill_bytes(&mut buf);
        let check = |data: &[u8], rng: &mut supermem_sim::SplitMix64| {
            let len = data.len();
            let want = !update_table(!0, data);
            assert_eq!(crc32(data), want, "len {len}");
            let whole = len - len % 16;
            if whole >= simd::MIN_LEN {
                let register = rng.next_u64() as u32;
                // SAFETY: PCLMULQDQ presence checked at the top of the
                // test.
                let got = unsafe { simd::fold(register, &data[..whole]) };
                assert_eq!(
                    got,
                    update_table(register, &data[..whole]),
                    "kernel, len {whole}"
                );
            }
            let a = rng.next_below(len as u64 + 1) as usize;
            let b = rng.next_range(a as u64, len as u64 + 1) as usize;
            assert_eq!(
                crc32_parts(&[&data[..a], &data[a..b], &data[b..]]),
                want,
                "len {len} split at {a} and {b}"
            );
        };
        for len in [
            0,
            1,
            15,
            16,
            63,
            64,
            65,
            79,
            80,
            127,
            128,
            129,
            4096,
            24 * 1024 + 13,
        ] {
            check(&buf[..len], &mut rng);
        }
        for _ in 0..1000 {
            let start = rng.next_below(16) as usize;
            let len = rng.next_below(4096 + 256) as usize;
            check(&buf[start..start + len], &mut rng);
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
