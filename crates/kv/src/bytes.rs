//! [`KvBytes`], the byte string the store's index holds for keys and
//! values, and [`KvMap`], the index itself.
//!
//! Keys and values are short in practice (the benchmark's are 8 bytes),
//! so a byte string of up to [`INLINE_CAP`] bytes lives inside the
//! 24-byte handle and only a longer one is boxed. Building a recovered
//! map of short entries therefore allocates nothing per entry, and
//! dropping or comparing one touches no heap. Equality and order are
//! those of `[u8]`, so a [`KvMap`] iterates in the order the snapshot
//! and WAL encodings have always used.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::num::NonZeroU8;
use std::ops::Deref;

/// Longest byte string [`KvBytes`] stores without a heap allocation.
pub const INLINE_CAP: usize = 22;

/// The store's index: key to value, in `[u8]` order.
pub type KvMap = BTreeMap<KvBytes, KvBytes>;

/// An immutable byte string: inline up to [`INLINE_CAP`] bytes, boxed
/// beyond.
///
/// # Examples
///
/// ```
/// use supermem_kv::KvBytes;
///
/// let short = KvBytes::from(b"key");
/// let long = KvBytes::from(b"key, then more bytes than fit inline");
/// assert_eq!(&*short, b"key");
/// assert!(short < long); // `[u8]` order: a prefix sorts first
/// ```
#[derive(Clone)]
pub struct KvBytes(Repr);

/// An inline string is never empty, so `len` is never zero and the
/// compiler tells the variants apart by that value: the handle is three
/// words with no tag byte, and moving one is three word copies (a test
/// pins the size).
#[derive(Clone)]
enum Repr {
    /// 1 to `INLINE_CAP` bytes in `buf[..len]`; the rest is zero.
    Inline {
        len: NonZeroU8,
        buf: [u8; INLINE_CAP],
    },
    /// The empty string (an empty box does not allocate) or more than
    /// `INLINE_CAP` bytes.
    Heap(Box<[u8]>),
}

impl KvBytes {
    /// The bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..usize::from(len.get())],
            Repr::Heap(b) => b,
        }
    }
}

impl From<&[u8]> for KvBytes {
    #[inline]
    fn from(bytes: &[u8]) -> Self {
        match NonZeroU8::new(bytes.len() as u8) {
            Some(len) if bytes.len() <= INLINE_CAP => {
                let mut buf = [0; INLINE_CAP];
                buf[..bytes.len()].copy_from_slice(bytes);
                Self(Repr::Inline { len, buf })
            }
            _ => Self(Repr::Heap(bytes.into())),
        }
    }
}

impl<const N: usize> From<&[u8; N]> for KvBytes {
    #[inline]
    fn from(bytes: &[u8; N]) -> Self {
        Self::from(&bytes[..])
    }
}

impl From<Vec<u8>> for KvBytes {
    #[inline]
    fn from(bytes: Vec<u8>) -> Self {
        if (1..=INLINE_CAP).contains(&bytes.len()) {
            Self::from(bytes.as_slice())
        } else {
            Self(Repr::Heap(bytes.into_boxed_slice()))
        }
    }
}

impl Deref for KvBytes {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

/// Lets a [`KvMap`] be searched by `&[u8]`; sound because `Eq` and
/// `Ord` agree with `[u8]`'s.
impl Borrow<[u8]> for KvBytes {
    #[inline]
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for KvBytes {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for KvBytes {}

impl PartialOrd for KvBytes {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for KvBytes {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

/// Formats as the byte slice does, honoring flags such as `{:02x?}`.
impl fmt::Debug for KvBytes {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;
    use crate::crc32::crc32;
    use crate::layout::{MAX_KEY, MAX_VAL};
    use crate::snapshot::encode_payload;
    use supermem_sim::SplitMix64;

    #[test]
    fn the_handle_is_three_words() {
        assert_eq!(std::mem::size_of::<KvBytes>(), 24);
    }

    /// Every length from 0 to `MAX_VAL`, crossing the inline boundary,
    /// against shorter, equal, longer and perturbed strings: `==` and
    /// `cmp` are exactly the slices', and the bytes round-trip through
    /// both constructors.
    #[test]
    fn eq_and_ord_are_the_slices() {
        let mut rng = SplitMix64::new(0xB17E);
        let mut base = vec![0u8; MAX_VAL + 1];
        rng.fill_bytes(&mut base);
        let lens: Vec<usize> = (0..=MAX_VAL).collect();
        for &a in &lens {
            for b in [
                0,
                1,
                a.saturating_sub(1),
                a,
                a + 1,
                INLINE_CAP,
                INLINE_CAP + 1,
            ] {
                let b = b.min(MAX_VAL);
                let x = base[..a].to_vec();
                let mut y = base[..b].to_vec();
                if b > 0 && rng.next_below(3) == 0 {
                    let at = rng.next_below(b as u64) as usize;
                    y[at] = y[at].wrapping_add(1 + rng.next_below(255) as u8);
                }
                let (kx, ky) = (KvBytes::from(x.clone()), KvBytes::from(y.as_slice()));
                assert_eq!(&*kx, x.as_slice());
                assert_eq!(&*ky, y.as_slice());
                assert_eq!(kx == ky, x == y, "{a} vs {b}");
                assert_eq!(kx.cmp(&ky), x.cmp(&y), "{a} vs {b}");
                assert_eq!(kx.partial_cmp(&ky), x.partial_cmp(&y), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn the_longest_key_and_value_round_trip() {
        let key = [0xA5u8; MAX_KEY];
        let val = [0x5Au8; MAX_VAL];
        assert_eq!(&*KvBytes::from(&key), &key[..]);
        assert_eq!(&*KvBytes::from(val.to_vec()), &val[..]);
        let mut map = KvMap::new();
        map.insert(KvBytes::from(&key), KvBytes::from(&val));
        assert_eq!(map.get(&key[..]).map(|v| &**v), Some(&val[..]));
    }

    /// A random map of keys and values around the inline boundary
    /// encodes to the bytes the `Vec`-keyed map it replaced encoded to,
    /// pinned by CRC, so snapshot payloads are unchanged on media.
    #[test]
    fn encoding_matches_the_vec_keyed_map() {
        let mut rng = SplitMix64::new(0xE2C0);
        let mut reference: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for _ in 0..400 {
            let mut k = vec![0u8; rng.next_below(MAX_KEY as u64 + 1) as usize];
            let mut v = vec![0u8; rng.next_below(2 * INLINE_CAP as u64) as usize];
            rng.fill_bytes(&mut k);
            rng.fill_bytes(&mut v);
            reference.insert(k, v);
        }
        let map: KvMap = reference
            .iter()
            .map(|(k, v)| (KvBytes::from(k.as_slice()), KvBytes::from(v.clone())))
            .collect();
        let mut want = Vec::new();
        for (k, v) in &reference {
            want.extend_from_slice(&(k.len() as u32).to_le_bytes());
            want.extend_from_slice(&(v.len() as u32).to_le_bytes());
            want.extend_from_slice(k);
            want.extend_from_slice(v);
        }
        let got = encode_payload(&map);
        assert_eq!(got, want);
        assert_eq!(crc32(&got), 0xB44B_EE03, "pinned payload CRC");
    }

    #[test]
    fn debug_formats_like_the_slice() {
        let b = KvBytes::from(&[0x0A, 0xFF][..]);
        assert_eq!(format!("{b:02x?}"), format!("{:02x?}", &[0x0Au8, 0xFF][..]));
    }
}
