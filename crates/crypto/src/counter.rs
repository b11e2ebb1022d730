//! Split-counter organization (paper §3.4.1, Figure 9).
//!
//! Each 4 KB page has one 64-bit *major* counter shared by the whole page
//! and 64 seven-bit *minor* counters, one per 64 B memory line. All of a
//! page's counters pack into exactly one 64-byte memory line
//! (64 + 64×7 = 512 bits), which is the spatial-locality property the CWC
//! scheme exploits: flushing any number of lines of one page touches a
//! single counter line in NVM.

/// Number of memory lines (and minor counters) per page.
pub const LINES_PER_PAGE: usize = 64;

/// Exclusive upper bound of a 7-bit minor counter.
pub const MINOR_LIMIT: u8 = 128;

/// Minors per packed group: eight 7-bit minors fill exactly 7 bytes.
const GROUP_MINORS: usize = 8;
/// Bytes per packed group of [`GROUP_MINORS`] minors.
const GROUP_BYTES: usize = 7;

/// Result of bumping a minor counter before a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IncrementOutcome {
    /// The minor counter was incremented to the contained value.
    Incremented(u8),
    /// The minor counter is saturated; the page must be re-encrypted
    /// under `major + 1` with all minors reset (paper §3.4.4).
    Overflow,
}

/// The counters of one page: a 64-bit major and 64 seven-bit minors,
/// representable as one 64-byte memory line.
///
/// # Examples
///
/// ```
/// use supermem_crypto::counter::{CounterLine, IncrementOutcome};
///
/// let mut c = CounterLine::new();
/// assert_eq!(c.increment(3), IncrementOutcome::Incremented(1));
/// assert_eq!(c.minor(3), 1);
/// let bytes = c.encode();
/// assert_eq!(CounterLine::decode(&bytes), c);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CounterLine {
    major: u64,
    minors: [u8; LINES_PER_PAGE],
}

impl Default for CounterLine {
    fn default() -> Self {
        Self::new()
    }
}

impl CounterLine {
    /// A fresh page: major 0, all minors 0.
    pub fn new() -> Self {
        Self {
            major: 0,
            minors: [0; LINES_PER_PAGE],
        }
    }

    /// A page that has been re-keyed `major` times: given major counter,
    /// all minors zero (the state right after a page re-encryption).
    pub fn with_major(major: u64) -> Self {
        Self {
            major,
            minors: [0; LINES_PER_PAGE],
        }
    }

    /// The page's shared major counter.
    pub fn major(&self) -> u64 {
        self.major
    }

    /// The minor counter of line `line` within the page.
    ///
    /// # Panics
    ///
    /// Panics if `line >= 64`.
    pub fn minor(&self, line: usize) -> u8 {
        self.minors[line]
    }

    /// Attempts to increment the minor counter of `line` ahead of a write.
    ///
    /// On [`IncrementOutcome::Overflow`] nothing is modified; the caller
    /// must re-encrypt the page (see [`CounterLine::bump_major`]) and then
    /// retry the increment.
    ///
    /// # Panics
    ///
    /// Panics if `line >= 64`.
    pub fn increment(&mut self, line: usize) -> IncrementOutcome {
        if self.minors[line] + 1 >= MINOR_LIMIT {
            return IncrementOutcome::Overflow;
        }
        self.minors[line] += 1;
        IncrementOutcome::Incremented(self.minors[line])
    }

    /// Overwrites one minor counter directly. Recovery paths (Osiris
    /// counter reconstruction) use this after identifying the true value
    /// by trial decryption; normal operation only ever increments.
    ///
    /// # Panics
    ///
    /// Panics if `line >= 64` or `value >= 128`.
    pub fn set_minor(&mut self, line: usize, value: u8) {
        assert!(value < MINOR_LIMIT, "minor {value} out of 7-bit range");
        self.minors[line] = value;
    }

    /// Re-keys the page after a minor overflow: increments the major
    /// counter and zeroes every minor (paper §3.4.4). The caller is
    /// responsible for re-encrypting all 64 data lines under the new
    /// counters.
    ///
    /// # Panics
    ///
    /// Panics if the major counter would overflow. The paper argues this
    /// cannot happen within NVM cell endurance (2^64 ≫ 10^9 writes); we
    /// turn that argument into a hard invariant.
    pub fn bump_major(&mut self) {
        self.major = self
            .major
            .checked_add(1)
            .expect("major counter overflow: impossible within NVM endurance");
        self.minors = [0; LINES_PER_PAGE];
    }

    /// Packs the counters into one 64-byte memory line.
    ///
    /// Layout: bytes 0..8 hold the major counter (little endian); the
    /// remaining 56 bytes hold the 64 minors as a dense 7-bit bitstream
    /// (minor `i` at bits `7i..7i + 7`, least significant bit first).
    /// Every eight minors end on a byte boundary, so each group of eight
    /// packs through one little-endian `u64` of which 7 bytes are kept.
    pub fn encode(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..8].copy_from_slice(&self.major.to_le_bytes());
        let groups = self.minors.chunks_exact(GROUP_MINORS);
        for (dst, group) in out[8..].chunks_exact_mut(GROUP_BYTES).zip(groups) {
            let word = group.iter().rev().fold(0u64, |w, &m| {
                debug_assert!(m < MINOR_LIMIT);
                (w << 7) | u64::from(m)
            });
            dst.copy_from_slice(&word.to_le_bytes()[..GROUP_BYTES]);
        }
        out
    }

    /// Unpacks a 64-byte memory line produced by [`CounterLine::encode`].
    ///
    /// Any 64-byte value decodes *to something* — decoding garbage (e.g.
    /// a torn or mis-decrypted counter line) yields wrong counters, which
    /// is precisely the failure mode of Figure 4.
    pub fn decode(bytes: &[u8; 64]) -> Self {
        let mut major_bytes = [0u8; 8];
        major_bytes.copy_from_slice(&bytes[..8]);
        let major = u64::from_le_bytes(major_bytes);
        let mut minors = [0u8; LINES_PER_PAGE];
        let groups = minors.chunks_exact_mut(GROUP_MINORS);
        for (src, group) in bytes[8..].chunks_exact(GROUP_BYTES).zip(groups) {
            let mut word_bytes = [0u8; 8];
            word_bytes[..GROUP_BYTES].copy_from_slice(src);
            let mut word = u64::from_le_bytes(word_bytes);
            for m in group {
                *m = (word & 0x7f) as u8;
                word >>= 7;
            }
        }
        Self { major, minors }
    }

    /// Bit-at-a-time reference for [`CounterLine::encode`]: the
    /// word-packed version must match it byte for byte.
    #[cfg(test)]
    fn encode_bitwise(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..8].copy_from_slice(&self.major.to_le_bytes());
        for (i, &m) in self.minors.iter().enumerate() {
            let bit = i * 7;
            let byte = 8 + bit / 8;
            let shift = bit % 8;
            out[byte] |= m << shift;
            if shift > 1 {
                out[byte + 1] |= m >> (8 - shift);
            }
        }
        out
    }

    /// Bit-at-a-time reference for [`CounterLine::decode`].
    #[cfg(test)]
    fn decode_bitwise(bytes: &[u8; 64]) -> Self {
        let mut major_bytes = [0u8; 8];
        major_bytes.copy_from_slice(&bytes[..8]);
        let major = u64::from_le_bytes(major_bytes);
        let mut minors = [0u8; LINES_PER_PAGE];
        for (i, m) in minors.iter_mut().enumerate() {
            let bit = i * 7;
            let byte = 8 + bit / 8;
            let shift = bit % 8;
            let mut v = u16::from(bytes[byte] >> shift);
            if shift > 1 {
                v |= u16::from(bytes[byte + 1]) << (8 - shift);
            }
            *m = (v & 0x7f) as u8;
        }
        Self { major, minors }
    }

    /// True if every counter of `self` is component-wise ≥ the
    /// corresponding counter of `earlier`, i.e. `self` supersedes
    /// `earlier`. This is the monotonicity property that makes CWC's
    /// "drop the older duplicate" transformation lossless (§3.4.3).
    pub fn supersedes(&self, earlier: &CounterLine) -> bool {
        if self.major > earlier.major {
            return true;
        }
        self.major == earlier.major
            && self
                .minors
                .iter()
                .zip(&earlier.minors)
                .all(|(new, old)| new >= old)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_page_is_all_zero() {
        let c = CounterLine::new();
        assert_eq!(c.major(), 0);
        for i in 0..LINES_PER_PAGE {
            assert_eq!(c.minor(i), 0);
        }
        assert_eq!(c.encode(), [0u8; 64]);
    }

    #[test]
    fn increment_advances_one_minor_only() {
        let mut c = CounterLine::new();
        assert_eq!(c.increment(5), IncrementOutcome::Incremented(1));
        assert_eq!(c.increment(5), IncrementOutcome::Incremented(2));
        assert_eq!(c.minor(5), 2);
        assert_eq!(c.minor(4), 0);
        assert_eq!(c.minor(6), 0);
    }

    #[test]
    fn overflow_at_127_leaves_state_unchanged() {
        let mut c = CounterLine::new();
        for expect in 1..=127u8 {
            assert_eq!(c.increment(0), IncrementOutcome::Incremented(expect));
        }
        assert_eq!(c.minor(0), 127);
        // 127 is the saturated 7-bit value; one more write overflows.
        assert_eq!(c.increment(0), IncrementOutcome::Overflow);
        assert_eq!(c.minor(0), 127);
        assert_eq!(c.major(), 0);
    }

    #[test]
    fn bump_major_resets_minors() {
        let mut c = CounterLine::new();
        c.increment(0);
        c.increment(63);
        c.bump_major();
        assert_eq!(c.major(), 1);
        assert_eq!(c.minor(0), 0);
        assert_eq!(c.minor(63), 0);
    }

    #[test]
    fn encode_decode_roundtrip_dense() {
        let mut c = CounterLine::new();
        for i in 0..LINES_PER_PAGE {
            for _ in 0..=(i % 120) {
                if c.increment(i) == IncrementOutcome::Overflow {
                    break;
                }
            }
        }
        c.bump_major();
        c.increment(7);
        c.increment(8);
        let bytes = c.encode();
        assert_eq!(CounterLine::decode(&bytes), c);
    }

    #[test]
    fn encode_is_one_line() {
        // The whole point of split counters: one page's counters fit in
        // exactly one 64-byte memory line.
        let c = CounterLine::new();
        assert_eq!(c.encode().len(), 64);
    }

    #[test]
    fn minor_fields_do_not_alias_in_encoding() {
        // Set each minor in isolation and confirm only that minor decodes
        // as non-zero.
        for i in 0..LINES_PER_PAGE {
            let mut c = CounterLine::new();
            c.increment(i);
            let d = CounterLine::decode(&c.encode());
            for j in 0..LINES_PER_PAGE {
                assert_eq!(d.minor(j), u8::from(i == j), "line {i} vs {j}");
            }
        }
    }

    #[test]
    fn supersedes_is_reflexive_and_monotone() {
        let mut old = CounterLine::new();
        old.increment(1);
        let mut new = old.clone();
        assert!(new.supersedes(&old));
        new.increment(2);
        assert!(new.supersedes(&old));
        assert!(!old.supersedes(&new));
        new.bump_major();
        assert!(new.supersedes(&old)); // larger major supersedes any minors
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn minor_index_out_of_range_panics() {
        let c = CounterLine::new();
        let _ = c.minor(64);
    }
}

#[cfg(test)]
mod randomized {
    //! Deterministic randomized tests (seeded SplitMix64 stands in for
    //! proptest, which is unavailable in offline builds).
    use super::*;
    use supermem_sim::SplitMix64;

    fn random_counterline(rng: &mut SplitMix64) -> CounterLine {
        let mut c = CounterLine::new();
        c.major = rng.next_u64();
        for m in &mut c.minors {
            *m = rng.next_below(MINOR_LIMIT as u64) as u8;
        }
        c
    }

    #[test]
    fn roundtrip_encode_decode() {
        let mut rng = SplitMix64::new(0xC0DE);
        for _ in 0..256 {
            let c = random_counterline(&mut rng);
            assert_eq!(CounterLine::decode(&c.encode()), c);
        }
    }

    /// The word-packed codec is byte-identical to the bit-at-a-time
    /// reference: over random lines, all-zero and all-127 minors, and
    /// (for decode) arbitrary 64-byte inputs.
    #[test]
    fn word_packed_codec_matches_bitwise_reference() {
        let mut rng = SplitMix64::new(0x7B17);
        let mut lines: Vec<CounterLine> = (0..256).map(|_| random_counterline(&mut rng)).collect();
        lines.push(CounterLine::with_major(rng.next_u64()));
        let mut saturated = CounterLine::with_major(u64::MAX);
        saturated.minors = [MINOR_LIMIT - 1; LINES_PER_PAGE];
        lines.push(saturated);
        for c in &lines {
            assert_eq!(c.encode(), c.encode_bitwise(), "encode of {c:?}");
            assert_eq!(CounterLine::decode(&c.encode()), *c);
        }
        for _ in 0..256 {
            let mut raw = [0u8; 64];
            rng.fill_bytes(&mut raw);
            assert_eq!(CounterLine::decode(&raw), CounterLine::decode_bitwise(&raw));
        }
        let ones = [0xFF; 64];
        assert_eq!(
            CounterLine::decode(&ones),
            CounterLine::decode_bitwise(&ones)
        );
    }

    #[test]
    fn increments_always_supersede() {
        let mut rng = SplitMix64::new(0x5EED);
        for _ in 0..256 {
            let mut c = random_counterline(&mut rng);
            let line = rng.next_below(LINES_PER_PAGE as u64) as usize;
            let before = c.clone();
            match c.increment(line) {
                IncrementOutcome::Incremented(_) => {
                    assert!(c.supersedes(&before));
                    assert!(!before.supersedes(&c));
                }
                IncrementOutcome::Overflow => {
                    assert_eq!(&c, &before);
                    c.bump_major();
                    assert!(c.supersedes(&before));
                }
            }
        }
    }

    #[test]
    fn decode_never_yields_saturated_minor() {
        // decode masks each minor to 7 bits even for arbitrary input.
        let mut rng = SplitMix64::new(0xDEC0DE);
        for _ in 0..256 {
            let mut full = [0u8; 64];
            rng.fill_bytes(&mut full);
            let c = CounterLine::decode(&full);
            for i in 0..LINES_PER_PAGE {
                assert!(c.minor(i) < MINOR_LIMIT);
            }
        }
    }
}
