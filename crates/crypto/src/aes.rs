//! Software AES-128 block cipher (FIPS-197).
//!
//! A word-oriented, table-driven implementation: each round folds
//! SubBytes, ShiftRows, and MixColumns into four lookups in a
//! compile-time T-table (one rotated view per state row) plus the
//! round-key XOR, processing the state as four little-endian column
//! words. Decryption uses the equivalent inverse cipher (FIPS-197
//! §5.3.5) with InvMixColumns folded into the decryption round keys.
//! It stands in for the *hardware* AES pipeline the paper assumes,
//! whose timing is modeled separately in
//! [`crate::engine::EncryptionEngine`] — host speed matters because
//! every simulated flush performs four real AES blocks, and it is not
//! written for side-channel resistance.
//!
//! Correctness is pinned by the FIPS-197 Appendix B/C and SP 800-38A
//! test vectors, plus a randomized cross-check against the
//! straightforward byte-wise implementation kept in the test module.
//!
//! With the `simd-aes` feature (on by default) the cipher additionally
//! carries a hardware path: on x86-64 hosts whose CPU reports AES-NI,
//! [`Aes128::encrypt_block`], [`Aes128::decrypt_block`], and the
//! batched [`Aes128::encrypt4`] and [`Aes128::encrypt8`] dispatch at
//! runtime to the `AESENC`/`AESDEC` pipeline in the private `simd`
//! module, falling back to the T-table path
//! everywhere else (non-x86 targets, older CPUs, and miri, which does
//! not model vendor intrinsics). Both paths produce byte-identical
//! output — the `hardware_path_matches_ttable_path` test cross-checks
//! them exhaustively over random keys and blocks.

/// The AES S-box (FIPS-197 Figure 7).
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// The inverse S-box (FIPS-197 Figure 14).
const INV_SBOX: [u8; 256] = {
    let mut inv = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        inv[SBOX[i] as usize] = i as u8;
        i += 1;
    }
    inv
};

/// Round constants for the AES-128 key schedule.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Multiplication by `x` in GF(2^8) modulo the AES polynomial.
#[inline]
const fn xtime(b: u8) -> u8 {
    (b << 1) ^ (0x1b & (((b >> 7) & 1).wrapping_neg()))
}

/// General multiplication in GF(2^8) (key-setup and table building).
const fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    let mut i = 0;
    while i < 8 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
        i += 1;
    }
    p
}

/// Packs four row bytes of one state column into a little-endian word
/// (row 0 in the low byte, as the whole cipher below assumes).
const fn pack(b0: u8, b1: u8, b2: u8, b3: u8) -> u32 {
    (b0 as u32) | (b1 as u32) << 8 | (b2 as u32) << 16 | (b3 as u32) << 24
}

/// Encryption T-table: `TE0[x]` is column `(2·S(x), S(x), S(x), 3·S(x))`
/// — the MixColumns matrix applied to `S(x)` in row 0. The tables for
/// rows 1–3 are byte rotations of this one (`rotate_left(8·row)`).
const TE0: [u32; 256] = {
    let mut t = [0u32; 256];
    let mut x = 0;
    while x < 256 {
        let s = SBOX[x];
        t[x] = pack(gmul(s, 2), s, s, gmul(s, 3));
        x += 1;
    }
    t
};

/// Decryption T-table: `TD0[x]` is the InvMixColumns matrix applied to
/// `InvS(x)` in row 0: `(14·IS(x), 9·IS(x), 13·IS(x), 11·IS(x))`.
const TD0: [u32; 256] = {
    let mut t = [0u32; 256];
    let mut x = 0;
    while x < 256 {
        let s = INV_SBOX[x];
        t[x] = pack(gmul(s, 0x0e), gmul(s, 0x09), gmul(s, 0x0d), gmul(s, 0x0b));
        x += 1;
    }
    t
};

/// InvMixColumns on one little-endian column word (key-setup only; the
/// equivalent inverse cipher pushes this into the decryption keys).
fn inv_mix_word(w: u32) -> u32 {
    let [a0, a1, a2, a3] = w.to_le_bytes();
    pack(
        gmul(a0, 0x0e) ^ gmul(a1, 0x0b) ^ gmul(a2, 0x0d) ^ gmul(a3, 0x09),
        gmul(a0, 0x09) ^ gmul(a1, 0x0e) ^ gmul(a2, 0x0b) ^ gmul(a3, 0x0d),
        gmul(a0, 0x0d) ^ gmul(a1, 0x09) ^ gmul(a2, 0x0e) ^ gmul(a3, 0x0b),
        gmul(a0, 0x0b) ^ gmul(a1, 0x0d) ^ gmul(a2, 0x09) ^ gmul(a3, 0x0e),
    )
}

#[inline]
fn byte(w: u32, row: usize) -> usize {
    ((w >> (8 * row)) & 0xff) as usize
}

/// An expanded AES-128 key: encryption and (equivalent-inverse-cipher)
/// decryption round keys, one little-endian column word each.
///
/// # Examples
///
/// ```
/// use supermem_crypto::aes::Aes128;
///
/// let aes = Aes128::new([0u8; 16]);
/// let block = [0u8; 16];
/// let ct = aes.encrypt_block(block);
/// assert_eq!(aes.decrypt_block(ct), block);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Aes128 {
    /// Encryption round keys: word `4r + c` keys round `r`, column `c`.
    ek: [u32; 44],
    /// Decryption round keys, round order reversed and InvMixColumns
    /// applied to rounds 1..=9 (FIPS-197 §5.3.5).
    dk: [u32; 44],
}

impl Aes128 {
    /// Expands a 128-bit key into the full round-key schedule.
    pub fn new(key: [u8; 16]) -> Self {
        let mut w = [[0u8; 4]; 44];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            w[i].copy_from_slice(chunk);
        }
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for t in &mut temp {
                    *t = SBOX[*t as usize];
                }
                temp[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut ek = [0u32; 44];
        for (i, word) in w.iter().enumerate() {
            ek[i] = u32::from_le_bytes(*word);
        }
        let mut dk = [0u32; 44];
        for r in 0..=10 {
            for c in 0..4 {
                let word = ek[(10 - r) * 4 + c];
                dk[r * 4 + c] = if r == 0 || r == 10 {
                    word
                } else {
                    inv_mix_word(word)
                };
            }
        }
        Self { ek, dk }
    }

    /// Encrypts one 16-byte block.
    pub fn encrypt_block(&self, block: [u8; 16]) -> [u8; 16] {
        #[cfg(all(feature = "simd-aes", target_arch = "x86_64", not(miri)))]
        if aesni_available() {
            let mut b = block;
            // SAFETY: AES-NI support was verified at runtime just above.
            unsafe { simd::encrypt1(&self.ek, &mut b) };
            return b;
        }
        self.encrypt_block_ttable(block)
    }

    /// Encrypts four 16-byte blocks with the same key schedule.
    ///
    /// This is the shape of the counter-mode pad derivation (four pad
    /// blocks per 64-byte line): on AES-NI hosts all four blocks travel
    /// the hardware pipeline together, hiding the `AESENC` latency, and
    /// the round keys are loaded once instead of four times. The output
    /// is byte-for-byte what four [`Aes128::encrypt_block`] calls give.
    pub fn encrypt4(&self, blocks: [[u8; 16]; 4]) -> [[u8; 16]; 4] {
        let mut out = blocks;
        #[cfg(all(feature = "simd-aes", target_arch = "x86_64", not(miri)))]
        if aesni_available() {
            // SAFETY: AES-NI support was verified at runtime just above.
            unsafe { simd::encrypt4(&self.ek, &mut out) };
            return out;
        }
        for b in &mut out {
            *b = self.encrypt_block_ttable(*b);
        }
        out
    }

    /// Encrypts eight 16-byte blocks with the same key schedule: the
    /// pads of two lines in one batch. Eight interleaved `AESENC` chains
    /// keep the AES unit busier than four. The output is byte-for-byte
    /// what eight [`Aes128::encrypt_block`] calls give.
    pub fn encrypt8(&self, blocks: [[u8; 16]; 8]) -> [[u8; 16]; 8] {
        let mut out = blocks;
        #[cfg(all(feature = "simd-aes", target_arch = "x86_64", not(miri)))]
        if aesni_available() {
            // SAFETY: AES-NI support was verified at runtime just above.
            unsafe { simd::encrypt8(&self.ek, &mut out) };
            return out;
        }
        for b in &mut out {
            *b = self.encrypt_block_ttable(*b);
        }
        out
    }

    /// Decrypts one 16-byte block.
    pub fn decrypt_block(&self, block: [u8; 16]) -> [u8; 16] {
        #[cfg(all(feature = "simd-aes", target_arch = "x86_64", not(miri)))]
        if aesni_available() {
            let mut b = block;
            // SAFETY: AES-NI support was verified at runtime just above.
            unsafe { simd::decrypt1(&self.dk, &mut b) };
            return b;
        }
        self.decrypt_block_ttable(block)
    }

    /// The table-driven encryption path (used when AES-NI is compiled
    /// out, not present on the host CPU, or under miri).
    fn encrypt_block_ttable(&self, block: [u8; 16]) -> [u8; 16] {
        let mut w = [0u32; 4];
        for c in 0..4 {
            let col: [u8; 4] = block[c * 4..c * 4 + 4].try_into().expect("4-byte column");
            w[c] = u32::from_le_bytes(col) ^ self.ek[c];
        }
        for round in 1..10 {
            let mut t = [0u32; 4];
            for c in 0..4 {
                // ShiftRows: row r of column c comes from column c + r.
                t[c] = TE0[byte(w[c], 0)]
                    ^ TE0[byte(w[(c + 1) & 3], 1)].rotate_left(8)
                    ^ TE0[byte(w[(c + 2) & 3], 2)].rotate_left(16)
                    ^ TE0[byte(w[(c + 3) & 3], 3)].rotate_left(24)
                    ^ self.ek[round * 4 + c];
            }
            w = t;
        }
        // Final round: SubBytes + ShiftRows only, no MixColumns.
        let mut out = [0u8; 16];
        for c in 0..4 {
            let word = pack(
                SBOX[byte(w[c], 0)],
                SBOX[byte(w[(c + 1) & 3], 1)],
                SBOX[byte(w[(c + 2) & 3], 2)],
                SBOX[byte(w[(c + 3) & 3], 3)],
            ) ^ self.ek[40 + c];
            out[c * 4..c * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// The table-driven decryption path (used when AES-NI is compiled
    /// out, not present on the host CPU, or under miri).
    fn decrypt_block_ttable(&self, block: [u8; 16]) -> [u8; 16] {
        let mut w = [0u32; 4];
        for c in 0..4 {
            let col: [u8; 4] = block[c * 4..c * 4 + 4].try_into().expect("4-byte column");
            w[c] = u32::from_le_bytes(col) ^ self.dk[c];
        }
        for round in 1..10 {
            let mut t = [0u32; 4];
            for c in 0..4 {
                // InvShiftRows: row r of column c comes from column c - r.
                t[c] = TD0[byte(w[c], 0)]
                    ^ TD0[byte(w[(c + 3) & 3], 1)].rotate_left(8)
                    ^ TD0[byte(w[(c + 2) & 3], 2)].rotate_left(16)
                    ^ TD0[byte(w[(c + 1) & 3], 3)].rotate_left(24)
                    ^ self.dk[round * 4 + c];
            }
            w = t;
        }
        let mut out = [0u8; 16];
        for c in 0..4 {
            let word = pack(
                INV_SBOX[byte(w[c], 0)],
                INV_SBOX[byte(w[(c + 3) & 3], 1)],
                INV_SBOX[byte(w[(c + 2) & 3], 2)],
                INV_SBOX[byte(w[(c + 1) & 3], 3)],
            ) ^ self.dk[40 + c];
            out[c * 4..c * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }
}

/// Whether the hardware AES path may be taken on this host.
///
/// `is_x86_feature_detected!` caches its CPUID probe internally, so the
/// per-block dispatch cost is one relaxed atomic load.
#[cfg(all(feature = "simd-aes", target_arch = "x86_64", not(miri)))]
#[inline]
fn aesni_available() -> bool {
    std::arch::is_x86_feature_detected!("aes")
}

/// Hardware AES-128 via the x86-64 AES-NI instructions.
///
/// The round keys need no conversion: `ek`/`dk` hold little-endian
/// column words, so on a little-endian x86-64 host the in-memory bytes
/// of each `[u32; 4]` round group are exactly the 16-byte round key the
/// `AESENC` family consumes. The decryption schedule `dk` already has
/// InvMixColumns folded into rounds 1..=9 in reversed order (the
/// equivalent inverse cipher), which is precisely the key layout
/// `AESDEC` expects.
#[cfg(all(feature = "simd-aes", target_arch = "x86_64", not(miri)))]
mod simd {
    use core::arch::x86_64::{
        __m128i, _mm_aesdec_si128, _mm_aesdeclast_si128, _mm_aesenc_si128, _mm_aesenclast_si128,
        _mm_loadu_si128, _mm_storeu_si128, _mm_xor_si128,
    };

    /// Loads round key `r` from a word-form schedule.
    ///
    /// # Safety
    ///
    /// `r` must be in `0..=10`; SSE2 is part of the x86-64 baseline.
    #[inline]
    #[allow(clippy::cast_ptr_alignment)] // _mm_loadu_si128 is an unaligned load
    unsafe fn round_key(keys: &[u32; 44], r: usize) -> __m128i {
        debug_assert!(r <= 10);
        _mm_loadu_si128(keys.as_ptr().add(4 * r).cast::<__m128i>())
    }

    /// Encrypts one block in place.
    ///
    /// # Safety
    ///
    /// The CPU must support AES-NI (`is_x86_feature_detected!("aes")`).
    #[target_feature(enable = "aes")]
    #[allow(clippy::cast_ptr_alignment)]
    pub(super) unsafe fn encrypt1(ek: &[u32; 44], block: &mut [u8; 16]) {
        let mut s = _mm_loadu_si128(block.as_ptr().cast::<__m128i>());
        s = _mm_xor_si128(s, round_key(ek, 0));
        for r in 1..10 {
            s = _mm_aesenc_si128(s, round_key(ek, r));
        }
        s = _mm_aesenclast_si128(s, round_key(ek, 10));
        _mm_storeu_si128(block.as_mut_ptr().cast::<__m128i>(), s);
    }

    /// Encrypts four blocks in place, interleaved so the four `AESENC`
    /// chains pipeline through the AES unit instead of serializing.
    ///
    /// # Safety
    ///
    /// The CPU must support AES-NI (`is_x86_feature_detected!("aes")`).
    #[target_feature(enable = "aes")]
    #[allow(clippy::cast_ptr_alignment)]
    pub(super) unsafe fn encrypt4(ek: &[u32; 44], blocks: &mut [[u8; 16]; 4]) {
        let mut s0 = _mm_loadu_si128(blocks[0].as_ptr().cast::<__m128i>());
        let mut s1 = _mm_loadu_si128(blocks[1].as_ptr().cast::<__m128i>());
        let mut s2 = _mm_loadu_si128(blocks[2].as_ptr().cast::<__m128i>());
        let mut s3 = _mm_loadu_si128(blocks[3].as_ptr().cast::<__m128i>());
        let k = round_key(ek, 0);
        s0 = _mm_xor_si128(s0, k);
        s1 = _mm_xor_si128(s1, k);
        s2 = _mm_xor_si128(s2, k);
        s3 = _mm_xor_si128(s3, k);
        for r in 1..10 {
            let k = round_key(ek, r);
            s0 = _mm_aesenc_si128(s0, k);
            s1 = _mm_aesenc_si128(s1, k);
            s2 = _mm_aesenc_si128(s2, k);
            s3 = _mm_aesenc_si128(s3, k);
        }
        let k = round_key(ek, 10);
        s0 = _mm_aesenclast_si128(s0, k);
        s1 = _mm_aesenclast_si128(s1, k);
        s2 = _mm_aesenclast_si128(s2, k);
        s3 = _mm_aesenclast_si128(s3, k);
        _mm_storeu_si128(blocks[0].as_mut_ptr().cast::<__m128i>(), s0);
        _mm_storeu_si128(blocks[1].as_mut_ptr().cast::<__m128i>(), s1);
        _mm_storeu_si128(blocks[2].as_mut_ptr().cast::<__m128i>(), s2);
        _mm_storeu_si128(blocks[3].as_mut_ptr().cast::<__m128i>(), s3);
    }

    /// Encrypts eight blocks in place, all eight chains interleaved
    /// round by round.
    ///
    /// # Safety
    ///
    /// The CPU must support AES-NI (`is_x86_feature_detected!("aes")`).
    #[target_feature(enable = "aes")]
    #[allow(clippy::cast_ptr_alignment)]
    pub(super) unsafe fn encrypt8(ek: &[u32; 44], blocks: &mut [[u8; 16]; 8]) {
        let k = round_key(ek, 0);
        let mut s = [k; 8];
        for (s, b) in s.iter_mut().zip(blocks.iter()) {
            *s = _mm_xor_si128(_mm_loadu_si128(b.as_ptr().cast::<__m128i>()), k);
        }
        for r in 1..10 {
            let k = round_key(ek, r);
            for s in &mut s {
                *s = _mm_aesenc_si128(*s, k);
            }
        }
        let k = round_key(ek, 10);
        for (s, b) in s.iter().zip(blocks.iter_mut()) {
            _mm_storeu_si128(
                b.as_mut_ptr().cast::<__m128i>(),
                _mm_aesenclast_si128(*s, k),
            );
        }
    }

    /// Decrypts one block in place over the equivalent-inverse-cipher
    /// schedule `dk`.
    ///
    /// # Safety
    ///
    /// The CPU must support AES-NI (`is_x86_feature_detected!("aes")`).
    #[target_feature(enable = "aes")]
    #[allow(clippy::cast_ptr_alignment)]
    pub(super) unsafe fn decrypt1(dk: &[u32; 44], block: &mut [u8; 16]) {
        let mut s = _mm_loadu_si128(block.as_ptr().cast::<__m128i>());
        s = _mm_xor_si128(s, round_key(dk, 0));
        for r in 1..10 {
            s = _mm_aesdec_si128(s, round_key(dk, r));
        }
        s = _mm_aesdeclast_si128(s, round_key(dk, 10));
        _mm_storeu_si128(block.as_mut_ptr().cast::<__m128i>(), s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supermem_sim::SplitMix64;

    /// The pre-T-table byte-wise implementation, kept as the oracle the
    /// optimized cipher is cross-checked against.
    mod reference {
        use super::super::{gmul, xtime, INV_SBOX, SBOX};

        pub fn add_round_key(s: &mut [u8; 16], rk: &[u8; 16]) {
            for i in 0..16 {
                s[i] ^= rk[i];
            }
        }

        pub fn sub_bytes(s: &mut [u8; 16]) {
            for b in s.iter_mut() {
                *b = SBOX[*b as usize];
            }
        }

        pub fn inv_sub_bytes(s: &mut [u8; 16]) {
            for b in s.iter_mut() {
                *b = INV_SBOX[*b as usize];
            }
        }

        pub fn shift_rows(s: &mut [u8; 16]) {
            // Row r (bytes r, r+4, r+8, r+12) rotates left by r.
            for r in 1..4 {
                let row = [s[r], s[r + 4], s[r + 8], s[r + 12]];
                for c in 0..4 {
                    s[r + c * 4] = row[(c + r) % 4];
                }
            }
        }

        pub fn inv_shift_rows(s: &mut [u8; 16]) {
            for r in 1..4 {
                let row = [s[r], s[r + 4], s[r + 8], s[r + 12]];
                for c in 0..4 {
                    s[r + c * 4] = row[(c + 4 - r) % 4];
                }
            }
        }

        pub fn mix_columns(s: &mut [u8; 16]) {
            for c in 0..4 {
                let col = &mut s[c * 4..c * 4 + 4];
                let (a0, a1, a2, a3) = (col[0], col[1], col[2], col[3]);
                col[0] = xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3;
                col[1] = a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3;
                col[2] = a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3);
                col[3] = (xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3);
            }
        }

        pub fn inv_mix_columns(s: &mut [u8; 16]) {
            for c in 0..4 {
                let col = &mut s[c * 4..c * 4 + 4];
                let (a0, a1, a2, a3) = (col[0], col[1], col[2], col[3]);
                col[0] = gmul(a0, 0x0e) ^ gmul(a1, 0x0b) ^ gmul(a2, 0x0d) ^ gmul(a3, 0x09);
                col[1] = gmul(a0, 0x09) ^ gmul(a1, 0x0e) ^ gmul(a2, 0x0b) ^ gmul(a3, 0x0d);
                col[2] = gmul(a0, 0x0d) ^ gmul(a1, 0x09) ^ gmul(a2, 0x0e) ^ gmul(a3, 0x0b);
                col[3] = gmul(a0, 0x0b) ^ gmul(a1, 0x0d) ^ gmul(a2, 0x09) ^ gmul(a3, 0x0e);
            }
        }

        /// Byte-wise encryption over the word-form round keys.
        pub fn encrypt_block(ek: &[u32; 44], block: [u8; 16]) -> [u8; 16] {
            let rk = |round: usize| -> [u8; 16] {
                let mut out = [0u8; 16];
                for c in 0..4 {
                    out[c * 4..c * 4 + 4].copy_from_slice(&ek[round * 4 + c].to_le_bytes());
                }
                out
            };
            let mut s = block;
            add_round_key(&mut s, &rk(0));
            for round in 1..10 {
                sub_bytes(&mut s);
                shift_rows(&mut s);
                mix_columns(&mut s);
                add_round_key(&mut s, &rk(round));
            }
            sub_bytes(&mut s);
            shift_rows(&mut s);
            add_round_key(&mut s, &rk(10));
            s
        }

        /// Byte-wise decryption (plain inverse cipher, un-transformed
        /// round keys).
        pub fn decrypt_block(ek: &[u32; 44], block: [u8; 16]) -> [u8; 16] {
            let rk = |round: usize| -> [u8; 16] {
                let mut out = [0u8; 16];
                for c in 0..4 {
                    out[c * 4..c * 4 + 4].copy_from_slice(&ek[round * 4 + c].to_le_bytes());
                }
                out
            };
            let mut s = block;
            add_round_key(&mut s, &rk(10));
            for round in (1..10).rev() {
                inv_shift_rows(&mut s);
                inv_sub_bytes(&mut s);
                add_round_key(&mut s, &rk(round));
                inv_mix_columns(&mut s);
            }
            inv_shift_rows(&mut s);
            inv_sub_bytes(&mut s);
            add_round_key(&mut s, &rk(0));
            s
        }
    }

    fn hex16(s: &str) -> [u8; 16] {
        let mut out = [0u8; 16];
        for i in 0..16 {
            out[i] = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
        }
        out
    }

    #[test]
    fn fips197_appendix_b_vector() {
        // FIPS-197 Appendix B: key 2b7e..., plaintext 3243..., cipher 3925...
        let aes = Aes128::new(hex16("2b7e151628aed2a6abf7158809cf4f3c"));
        let pt = hex16("3243f6a8885a308d313198a2e0370734");
        let ct = aes.encrypt_block(pt);
        assert_eq!(ct, hex16("3925841d02dc09fbdc118597196a0b32"));
        assert_eq!(aes.decrypt_block(ct), pt);
    }

    #[test]
    fn fips197_appendix_c1_vector() {
        // FIPS-197 Appendix C.1: key 000102...0f, plaintext 001122...ff.
        let aes = Aes128::new(hex16("000102030405060708090a0b0c0d0e0f"));
        let pt = hex16("00112233445566778899aabbccddeeff");
        let ct = aes.encrypt_block(pt);
        assert_eq!(ct, hex16("69c4e0d86a7b0430d8cdb78070b4c55a"));
        assert_eq!(aes.decrypt_block(ct), pt);
    }

    #[test]
    fn nist_sp800_38a_ecb_vectors() {
        // SP 800-38A F.1.1 ECB-AES128 first two blocks.
        let aes = Aes128::new(hex16("2b7e151628aed2a6abf7158809cf4f3c"));
        assert_eq!(
            aes.encrypt_block(hex16("6bc1bee22e409f96e93d7e117393172a")),
            hex16("3ad77bb40d7a3660a89ecaf32466ef97")
        );
        assert_eq!(
            aes.encrypt_block(hex16("ae2d8a571e03ac9c9eb76fac45af8e51")),
            hex16("f5d3d58503b9699de785895a96fdbaaf")
        );
    }

    #[test]
    fn ttables_match_bytewise_reference() {
        // The optimized cipher must agree with the byte-wise FIPS-197
        // transcription on random keys and blocks, both directions.
        let mut rng = SplitMix64::new(0xAE5);
        for _ in 0..200 {
            let mut key = [0u8; 16];
            let mut block = [0u8; 16];
            rng.fill_bytes(&mut key);
            rng.fill_bytes(&mut block);
            let aes = Aes128::new(key);
            let ct = aes.encrypt_block(block);
            assert_eq!(ct, reference::encrypt_block(&aes.ek, block));
            assert_eq!(aes.decrypt_block(ct), block);
            assert_eq!(reference::decrypt_block(&aes.ek, ct), block);
        }
    }

    #[test]
    fn ttable_path_matches_fips_vectors() {
        // The fallback path pinned directly, so it stays validated even
        // on hosts where the public API dispatches to AES-NI.
        let aes = Aes128::new(hex16("2b7e151628aed2a6abf7158809cf4f3c"));
        let pt = hex16("3243f6a8885a308d313198a2e0370734");
        let ct = aes.encrypt_block_ttable(pt);
        assert_eq!(ct, hex16("3925841d02dc09fbdc118597196a0b32"));
        assert_eq!(aes.decrypt_block_ttable(ct), pt);
    }

    #[test]
    fn encrypt4_matches_four_single_blocks() {
        let mut rng = SplitMix64::new(0xE4E4);
        for _ in 0..200 {
            let mut key = [0u8; 16];
            rng.fill_bytes(&mut key);
            let aes = Aes128::new(key);
            let mut blocks = [[0u8; 16]; 4];
            for b in &mut blocks {
                rng.fill_bytes(b);
            }
            let quad = aes.encrypt4(blocks);
            for (q, b) in quad.iter().zip(&blocks) {
                assert_eq!(*q, aes.encrypt_block(*b));
                assert_eq!(*q, aes.encrypt_block_ttable(*b));
            }
        }
    }

    #[test]
    fn encrypt8_matches_eight_single_blocks() {
        let mut rng = SplitMix64::new(0xE8E8);
        for _ in 0..200 {
            let mut key = [0u8; 16];
            rng.fill_bytes(&mut key);
            let aes = Aes128::new(key);
            let mut blocks = [[0u8; 16]; 8];
            for b in &mut blocks {
                rng.fill_bytes(b);
            }
            let octet = aes.encrypt8(blocks);
            for (o, b) in octet.iter().zip(&blocks) {
                assert_eq!(*o, aes.encrypt_block(*b));
                assert_eq!(*o, aes.encrypt_block_ttable(*b));
            }
        }
    }

    /// Exhaustive cross-check of the hardware path against the T-table
    /// path: random keys, random blocks, both directions, plus the
    /// four-block batch API (ISSUE 6 acceptance bar for `simd-aes`).
    #[test]
    #[cfg(all(feature = "simd-aes", target_arch = "x86_64", not(miri)))]
    fn hardware_path_matches_ttable_path() {
        if !aesni_available() {
            eprintln!("skipping: host CPU does not report AES-NI");
            return;
        }
        let mut rng = SplitMix64::new(0x051D_0AE5);
        for _ in 0..4096 {
            let mut key = [0u8; 16];
            let mut block = [0u8; 16];
            rng.fill_bytes(&mut key);
            rng.fill_bytes(&mut block);
            let aes = Aes128::new(key);

            let sw_ct = aes.encrypt_block_ttable(block);
            let mut hw_ct = block;
            // SAFETY: AES-NI presence checked at the top of the test.
            unsafe { simd::encrypt1(&aes.ek, &mut hw_ct) };
            assert_eq!(hw_ct, sw_ct, "encrypt mismatch key={key:02x?}");

            let mut hw_pt = sw_ct;
            // SAFETY: as above.
            unsafe { simd::decrypt1(&aes.dk, &mut hw_pt) };
            assert_eq!(hw_pt, block, "decrypt mismatch key={key:02x?}");
            assert_eq!(aes.decrypt_block_ttable(sw_ct), block);

            let mut quad = [block; 4];
            for (i, b) in quad.iter_mut().enumerate() {
                b[0] ^= i as u8;
            }
            let mut hw_quad = quad;
            // SAFETY: as above.
            unsafe { simd::encrypt4(&aes.ek, &mut hw_quad) };
            for (hw, pt) in hw_quad.iter().zip(&quad) {
                assert_eq!(*hw, aes.encrypt_block_ttable(*pt));
            }

            let mut octet = [block; 8];
            for (i, b) in octet.iter_mut().enumerate() {
                b[15] ^= i as u8;
            }
            let mut hw_octet = octet;
            // SAFETY: as above.
            unsafe { simd::encrypt8(&aes.ek, &mut hw_octet) };
            for (hw, pt) in hw_octet.iter().zip(&octet) {
                assert_eq!(*hw, aes.encrypt_block_ttable(*pt));
            }
        }
    }

    #[test]
    fn encrypt_decrypt_roundtrip_many() {
        let aes = Aes128::new([0x5A; 16]);
        let mut block = [0u8; 16];
        for i in 0..64u32 {
            for (j, b) in block.iter_mut().enumerate() {
                *b = (i as u8).wrapping_mul(31).wrapping_add(j as u8);
            }
            assert_eq!(aes.decrypt_block(aes.encrypt_block(block)), block);
        }
    }

    #[test]
    fn different_keys_give_different_ciphertexts() {
        let a = Aes128::new([1; 16]);
        let b = Aes128::new([2; 16]);
        let pt = [0x42; 16];
        assert_ne!(a.encrypt_block(pt), b.encrypt_block(pt));
    }

    #[test]
    fn inv_sbox_inverts_sbox() {
        for v in 0..=255u8 {
            assert_eq!(INV_SBOX[SBOX[v as usize] as usize], v);
        }
    }

    #[test]
    fn gmul_against_known_products() {
        // 0x57 * 0x83 = 0xc1 (FIPS-197 §4.2 example).
        assert_eq!(gmul(0x57, 0x83), 0xc1);
        assert_eq!(gmul(0x57, 0x13), 0xfe);
        assert_eq!(gmul(1, 0xab), 0xab);
        assert_eq!(gmul(0, 0xff), 0);
    }

    #[test]
    fn mix_columns_roundtrips() {
        let mut s = *b"0123456789abcdef";
        let orig = s;
        reference::mix_columns(&mut s);
        assert_ne!(s, orig);
        reference::inv_mix_columns(&mut s);
        assert_eq!(s, orig);
    }

    #[test]
    fn shift_rows_roundtrips() {
        let mut s = *b"fedcba9876543210";
        let orig = s;
        reference::shift_rows(&mut s);
        reference::inv_shift_rows(&mut s);
        assert_eq!(s, orig);
    }

    #[test]
    fn inv_mix_word_matches_reference() {
        let mut rng = SplitMix64::new(0x1417);
        for _ in 0..64 {
            let w = rng.next_u64() as u32;
            let mut s = [0u8; 16];
            s[..4].copy_from_slice(&w.to_le_bytes());
            reference::inv_mix_columns(&mut s);
            assert_eq!(inv_mix_word(w).to_le_bytes(), s[..4]);
        }
    }
}
