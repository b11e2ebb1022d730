//! Counter-mode encryption of 64-byte memory lines (paper §2.2.4, Figure 3).
//!
//! A one-time pad (OTP) is derived from the secret key, the line address,
//! and the line's counter (major ‖ minor). Encryption and decryption are
//! both "XOR with the OTP", which is what lets decryption overlap the NVM
//! read (Figure 2b). The 24-cycle pipeline *latency* of the AES engine is
//! not modeled here — values are exact, timing lives in the memory
//! controller — keeping this crate purely functional.

use crate::aes::Aes128;

/// A counter-mode encryption engine for 64-byte memory lines.
///
/// # Examples
///
/// ```
/// use supermem_crypto::EncryptionEngine;
///
/// let e = EncryptionEngine::new([1u8; 16]);
/// let line = [9u8; 64];
/// let ct = e.encrypt_line(&line, 0x40, 0, 1);
/// assert_eq!(e.decrypt_line(&ct, 0x40, 0, 1), line);
/// ```
#[derive(Debug, Clone)]
pub struct EncryptionEngine {
    aes: Aes128,
}

impl EncryptionEngine {
    /// Creates an engine from a 128-bit secret key.
    pub fn new(key: [u8; 16]) -> Self {
        Self {
            aes: Aes128::new(key),
        }
    }

    /// Derives the 64-byte one-time pad for (`line_addr`, `major`,
    /// `minor`).
    ///
    /// Four AES blocks are generated, one per 16-byte chunk of the line,
    /// each seeded with the line address, the counter, and the chunk
    /// index, so no pad block is ever reused — the security premise of
    /// counter-mode encryption (§2.2.4).
    ///
    /// Only the low 48 bits of `major` participate in the seed; a major
    /// counter above 2^48 is unreachable within NVM endurance (the same
    /// argument the paper makes for 64 bits).
    pub fn otp(&self, line_addr: u64, major: u64, minor: u8) -> [u8; 64] {
        // The four chunk seeds share bytes 0..15 (address ‖ major ‖
        // minor); only the chunk-index byte varies, so the prefix is
        // assembled once. The AES key schedule was expanded once at
        // engine construction and is reused across all four blocks.
        let mut seed = [0u8; 16];
        seed[..8].copy_from_slice(&line_addr.to_le_bytes());
        seed[8..14].copy_from_slice(&major.to_le_bytes()[..6]);
        seed[14] = minor;
        let mut seeds = [seed; 4];
        for (idx, s) in seeds.iter_mut().enumerate() {
            s[15] = idx as u8;
        }
        // One four-block batch instead of four single-block calls: on
        // AES-NI hosts the blocks pipeline through the hardware AES unit
        // together (Aes128::encrypt4 dispatches, T-table fallback
        // elsewhere), which is the dominant host-side cost of a flush.
        let blocks = self.aes.encrypt4(seeds);
        let mut pad = [0u8; 64];
        for (idx, block) in blocks.iter().enumerate() {
            pad[idx * 16..idx * 16 + 16].copy_from_slice(block);
        }
        pad
    }

    /// The pads of two lines, each `(line_addr, major, minor)`, derived
    /// as one eight-block batch ([`Aes128::encrypt8`]). Each pad is
    /// byte-identical to [`EncryptionEngine::otp`] of its line; the
    /// batch only keeps more AES blocks in flight at once, which is what
    /// a multi-line recovery read gains from.
    pub fn otp2(&self, lines: [(u64, u64, u8); 2]) -> [[u8; 64]; 2] {
        // The seeds of `otp`, built as 128-bit words: address in bytes
        // 0..8, the low 48 bits of major in 8..14, minor in 14, and the
        // chunk index in 15.
        let mut seeds = [[0u8; 16]; 8];
        for (quad, (line_addr, major, minor)) in seeds.chunks_exact_mut(4).zip(lines) {
            let prefix = u128::from(line_addr)
                | u128::from(major & 0xFFFF_FFFF_FFFF) << 64
                | u128::from(minor) << 112;
            for (idx, seed) in quad.iter_mut().enumerate() {
                *seed = (prefix | (idx as u128) << 120).to_le_bytes();
            }
        }
        let blocks = self.aes.encrypt8(seeds);
        let mut pads = [[0u8; 64]; 2];
        for (pad, quad) in pads.iter_mut().zip(blocks.chunks_exact(4)) {
            for (chunk, block) in pad.chunks_exact_mut(16).zip(quad) {
                chunk.copy_from_slice(block);
            }
        }
        pads
    }

    /// Encrypts a 64-byte line: `cipher = plain XOR OTP`.
    pub fn encrypt_line(
        &self,
        plain: &[u8; 64],
        line_addr: u64,
        major: u64,
        minor: u8,
    ) -> [u8; 64] {
        let pad = self.otp(line_addr, major, minor);
        let mut out = [0u8; 64];
        for i in 0..64 {
            out[i] = plain[i] ^ pad[i];
        }
        out
    }

    /// Decrypts a 64-byte line: `plain = cipher XOR OTP`.
    ///
    /// Identical to [`EncryptionEngine::encrypt_line`] because XOR is an
    /// involution; the separate name keeps call sites legible.
    pub fn decrypt_line(
        &self,
        cipher: &[u8; 64],
        line_addr: u64,
        major: u64,
        minor: u8,
    ) -> [u8; 64] {
        self.encrypt_line(cipher, line_addr, major, minor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> EncryptionEngine {
        EncryptionEngine::new(*b"supermem-testkey")
    }

    #[test]
    fn roundtrip() {
        let e = engine();
        let mut plain = [0u8; 64];
        for (i, b) in plain.iter_mut().enumerate() {
            *b = i as u8;
        }
        let ct = e.encrypt_line(&plain, 0xABC0, 17, 99);
        assert_ne!(ct, plain);
        assert_eq!(e.decrypt_line(&ct, 0xABC0, 17, 99), plain);
    }

    #[test]
    fn wrong_minor_fails_to_decrypt() {
        let e = engine();
        let plain = [0x5Au8; 64];
        let ct = e.encrypt_line(&plain, 0x1000, 2, 3);
        assert_ne!(e.decrypt_line(&ct, 0x1000, 2, 4), plain);
    }

    #[test]
    fn wrong_major_fails_to_decrypt() {
        let e = engine();
        let plain = [0x5Au8; 64];
        let ct = e.encrypt_line(&plain, 0x1000, 2, 3);
        assert_ne!(e.decrypt_line(&ct, 0x1000, 3, 3), plain);
    }

    #[test]
    fn wrong_address_fails_to_decrypt() {
        let e = engine();
        let plain = [0x5Au8; 64];
        let ct = e.encrypt_line(&plain, 0x1000, 2, 3);
        assert_ne!(e.decrypt_line(&ct, 0x1040, 2, 3), plain);
    }

    #[test]
    fn same_plaintext_different_counters_different_ciphertexts() {
        // The dictionary/replay-attack resistance property of Figure 1c.
        let e = engine();
        let plain = [0u8; 64];
        let c1 = e.encrypt_line(&plain, 0x2000, 0, 1);
        let c2 = e.encrypt_line(&plain, 0x2000, 0, 2);
        let c3 = e.encrypt_line(&plain, 0x2000, 1, 1);
        assert_ne!(c1, c2);
        assert_ne!(c1, c3);
        assert_ne!(c2, c3);
    }

    #[test]
    fn same_plaintext_different_lines_different_ciphertexts() {
        let e = engine();
        let plain = [0u8; 64];
        assert_ne!(
            e.encrypt_line(&plain, 0x0, 0, 0),
            e.encrypt_line(&plain, 0x40, 0, 0)
        );
    }

    #[test]
    fn pad_blocks_within_line_differ() {
        // The four 16-byte OTP chunks must be distinct or patterns leak.
        let e = engine();
        let pad = e.otp(0x3000, 5, 6);
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_ne!(pad[i * 16..i * 16 + 16], pad[j * 16..j * 16 + 16]);
            }
        }
    }

    #[test]
    fn different_keys_produce_different_pads() {
        let a = EncryptionEngine::new([3; 16]);
        let b = EncryptionEngine::new([4; 16]);
        assert_ne!(a.otp(0x80, 1, 1), b.otp(0x80, 1, 1));
    }
}

#[cfg(test)]
mod randomized {
    //! Deterministic randomized tests (seeded SplitMix64 stands in for
    //! proptest, which is unavailable in offline builds).
    use super::*;
    use supermem_sim::SplitMix64;

    #[test]
    fn roundtrip_any_line() {
        let e = EncryptionEngine::new([0xA5; 16]);
        let mut rng = SplitMix64::new(0xE1C0DE);
        for _ in 0..512 {
            let mut line = [0u8; 64];
            rng.fill_bytes(&mut line);
            let addr = rng.next_u64();
            let major = rng.next_u64();
            let minor = rng.next_below(128) as u8;
            let ct = e.encrypt_line(&line, addr, major, minor);
            assert_eq!(
                e.decrypt_line(&ct, addr, major, minor),
                line,
                "addr={addr:#x} major={major} minor={minor}"
            );
        }
    }

    /// The two-line batch derives exactly the pads of two `otp` calls,
    /// on whichever AES backend this build dispatches to (the crypto CI
    /// job runs this with and without `simd-aes`).
    #[test]
    fn otp2_matches_two_single_line_pads() {
        let mut rng = SplitMix64::new(0x07D2);
        for _ in 0..512 {
            let mut key = [0u8; 16];
            rng.fill_bytes(&mut key);
            let e = EncryptionEngine::new(key);
            let mut line = || {
                (
                    rng.next_u64() & !63,
                    rng.next_u64(),
                    rng.next_below(128) as u8,
                )
            };
            let (a, b) = (line(), line());
            for pair in [[a, b], [a, a]] {
                let pads = e.otp2(pair);
                for ((addr, major, minor), pad) in pair.into_iter().zip(pads) {
                    assert_eq!(pad, e.otp(addr, major, minor), "addr={addr:#x}");
                }
            }
        }
    }

    #[test]
    fn xor_depth_one() {
        // encrypt(encrypt(x)) == x: the pad application is an involution.
        let e = EncryptionEngine::new([0x77; 16]);
        let line = [0x3Cu8; 64];
        let mut rng = SplitMix64::new(0xDE97);
        for _ in 0..512 {
            let addr = rng.next_u64();
            let major = rng.next_below(1 << 48);
            let minor = rng.next_below(128) as u8;
            let twice = e.encrypt_line(
                &e.encrypt_line(&line, addr, major, minor),
                addr,
                major,
                minor,
            );
            assert_eq!(twice, line, "addr={addr:#x} major={major} minor={minor}");
        }
    }
}
