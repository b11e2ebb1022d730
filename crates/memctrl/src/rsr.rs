//! The re-encryption status register (paper §3.4.4).
//!
//! When a 7-bit minor counter overflows, the whole page is re-encrypted
//! under `major + 1` with zeroed minors. A crash in the middle would
//! leave some lines under the old counters and some under the new, with
//! no way to tell which — unless the 20-byte RSR (page number, old major
//! counter, 64 done bits) sits inside the ADR battery domain and survives
//! the crash. Recovery then finishes exactly the missing lines.
//!
//! Crucially, the page's *counter line in NVM keeps its old contents*
//! until every data line is re-encrypted, so the not-yet-done lines stay
//! decryptable from NVM state alone (old major and old minors), while
//! done lines decrypt with `(old_major + 1, 0)` — both derivable from
//! NVM + RSR.

use supermem_nvm::addr::PageId;

/// The ADR-protected re-encryption status register.
///
/// # Examples
///
/// ```
/// use supermem_memctrl::Rsr;
/// use supermem_nvm::addr::PageId;
///
/// let mut rsr = Rsr::new(PageId(9), 3);
/// assert!(!rsr.is_done(0));
/// rsr.set_done(0);
/// assert!(rsr.is_done(0));
/// assert!(!rsr.all_done());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rsr {
    page: PageId,
    old_major: u64,
    done: u64,
}

impl Rsr {
    /// Starts tracking re-encryption of `page`, which was encrypted under
    /// `old_major` before the overflow.
    pub fn new(page: PageId, old_major: u64) -> Self {
        Self {
            page,
            old_major,
            done: 0,
        }
    }

    /// The page being re-encrypted.
    pub fn page(&self) -> PageId {
        self.page
    }

    /// The page's major counter before the overflow.
    pub fn old_major(&self) -> u64 {
        self.old_major
    }

    /// Marks line `idx` of the page as re-encrypted.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 64`.
    pub fn set_done(&mut self, idx: usize) {
        assert!(idx < 64, "line index {idx} out of page");
        self.done |= 1 << idx;
    }

    /// Whether line `idx` has been re-encrypted.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 64`.
    pub fn is_done(&self, idx: usize) -> bool {
        assert!(idx < 64, "line index {idx} out of page");
        self.done & (1 << idx) != 0
    }

    /// Whether all 64 lines are done (the RSR can be freed once the new
    /// counter line is durable).
    pub fn all_done(&self) -> bool {
        self.done == u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_progress_bit_per_line() {
        let mut r = Rsr::new(PageId(1), 7);
        assert!((0..64).all(|i| !r.is_done(i)));
        r.set_done(0);
        r.set_done(63);
        let done: Vec<usize> = (0..64).filter(|&i| r.is_done(i)).collect();
        assert_eq!(done, [0, 63]);
    }

    #[test]
    fn all_done_only_with_all_64_bits() {
        let mut r = Rsr::new(PageId(0), 0);
        for i in 0..63 {
            r.set_done(i);
        }
        assert!(!r.all_done());
        r.set_done(63);
        assert!(r.all_done());
    }

    #[test]
    fn set_done_is_idempotent() {
        let mut r = Rsr::new(PageId(0), 0);
        r.set_done(5);
        r.set_done(5);
        let done: Vec<usize> = (0..64).filter(|&i| r.is_done(i)).collect();
        assert_eq!(done, [5]);
    }

    #[test]
    fn preserves_identity_fields() {
        let r = Rsr::new(PageId(42), 0xDEAD);
        assert_eq!(r.page(), PageId(42));
        assert_eq!(r.old_major(), 0xDEAD);
    }

    #[test]
    #[should_panic(expected = "out of page")]
    fn rejects_out_of_range_index() {
        Rsr::new(PageId(0), 0).set_done(64);
    }
}
