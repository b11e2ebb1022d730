//! Physical address map: lines, pages, channel and bank interleaving.
//!
//! The map is page-interleaved, channel bits first: page `p` lives in
//! channel `p mod C` and, within that channel, in bank `(p / C) mod N`.
//! With a single channel (`C = 1`) this degenerates to exactly the
//! historical `p mod N` layout of the paper's Figure 8, where a data block
//! (and the whole page around it) resides in one bank, and consecutive
//! pages of an OS-contiguous allocation fall into adjacent banks — or,
//! with multiple channels, round-robin across channels first and then
//! across the banks of each channel, which is how real PM platforms spread
//! OS-contiguous traffic over every controller.
//!
//! Counter lines are addressed by [`PageId`] in a dedicated counter region
//! (one 64 B counter line per 4 KB data page); a page's counter line lives
//! in the *same channel* as the page, but *which bank* of that channel it
//! occupies is a memory-controller policy (SingleBank / SameBank / XBank)
//! and therefore lives in `supermem-memctrl`, not here.

/// A line-aligned physical byte address of a data line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineAddr(pub u64);

/// Index of a 4 KB page (also indexes that page's counter line).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(pub u64);

impl std::fmt::Display for LineAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line@{:#x}", self.0)
    }
}

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "page#{}", self.0)
    }
}

/// Geometry-aware address arithmetic.
///
/// # Examples
///
/// ```
/// use supermem_nvm::addr::AddressMap;
///
/// let m = AddressMap::new(8 << 30, 64, 4096, 8);
/// let line = m.line_of(0x1234);
/// assert_eq!(line.0, 0x1200); // aligned down to 64 B
/// assert_eq!(m.page_of_line(line).0, 1); // 0x1200 / 4096
/// assert_eq!(m.line_index_in_page(line), 8); // (0x1200 % 4096) / 64
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressMap {
    capacity: u64,
    line_bytes: u64,
    page_bytes: u64,
    banks: usize,
    channels: usize,
}

impl AddressMap {
    /// Creates a single-channel map for the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if any size is zero, not a power of two, or inconsistent
    /// (`line_bytes > page_bytes`, capacity not page-aligned).
    pub fn new(capacity: u64, line_bytes: u64, page_bytes: u64, banks: usize) -> Self {
        Self::with_channels(capacity, line_bytes, page_bytes, banks, 1)
    }

    /// Creates a map interleaving pages over `channels` channels.
    ///
    /// # Panics
    ///
    /// Panics if any size or count is zero, not a power of two, or
    /// inconsistent (`line_bytes > page_bytes`, capacity not page-aligned,
    /// fewer pages than channels).
    pub fn with_channels(
        capacity: u64,
        line_bytes: u64,
        page_bytes: u64,
        banks: usize,
        channels: usize,
    ) -> Self {
        assert!(line_bytes.is_power_of_two(), "line size must be 2^k");
        assert!(page_bytes.is_power_of_two(), "page size must be 2^k");
        assert!((banks as u64).is_power_of_two(), "bank count must be 2^k");
        assert!(
            (channels as u64).is_power_of_two(),
            "channel count must be 2^k"
        );
        assert!(line_bytes <= page_bytes, "line larger than page");
        assert!(
            capacity > 0 && capacity.is_multiple_of(page_bytes),
            "capacity must be whole pages"
        );
        assert!(
            capacity / page_bytes >= channels as u64,
            "fewer pages than channels"
        );
        Self {
            capacity,
            line_bytes,
            page_bytes,
            banks,
            channels,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of banks per channel.
    pub fn banks(&self) -> usize {
        self.banks
    }

    /// Number of address-interleaved channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Lines per page (64 in the default geometry).
    pub fn lines_per_page(&self) -> u64 {
        self.page_bytes / self.line_bytes
    }

    /// Total number of pages.
    pub fn pages(&self) -> u64 {
        self.capacity / self.page_bytes
    }

    /// Aligns a byte address down to its containing line.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the address is beyond capacity.
    pub fn line_of(&self, byte_addr: u64) -> LineAddr {
        debug_assert!(
            byte_addr < self.capacity,
            "address {byte_addr:#x} out of range"
        );
        LineAddr(byte_addr & !(self.line_bytes - 1))
    }

    /// The page containing a line.
    pub fn page_of_line(&self, line: LineAddr) -> PageId {
        PageId(line.0 / self.page_bytes)
    }

    /// The index of `line` within its page, in `0..lines_per_page()`.
    pub fn line_index_in_page(&self, line: LineAddr) -> usize {
        ((line.0 % self.page_bytes) / self.line_bytes) as usize
    }

    /// The `idx`-th line of page `page`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= lines_per_page()`.
    pub fn line_in_page(&self, page: PageId, idx: usize) -> LineAddr {
        assert!(
            (idx as u64) < self.lines_per_page(),
            "line index {idx} out of page"
        );
        LineAddr(page.0 * self.page_bytes + idx as u64 * self.line_bytes)
    }

    /// The bank holding a data line, within the line's channel
    /// (page-interleaved; channel bits are consumed first).
    pub fn data_bank(&self, line: LineAddr) -> usize {
        self.page_bank(self.page_of_line(line))
    }

    /// The bank holding a whole page, within the page's channel.
    pub fn page_bank(&self, page: PageId) -> usize {
        ((page.0 / self.channels as u64) % self.banks as u64) as usize
    }

    /// The channel holding a whole page (and its counter line).
    pub fn page_channel(&self, page: PageId) -> usize {
        (page.0 % self.channels as u64) as usize
    }

    /// The channel holding a data line.
    pub fn line_channel(&self, line: LineAddr) -> usize {
        self.page_channel(self.page_of_line(line))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl AddressMap {
        /// Decomposes a line address into `(channel, bank, row)`.
        ///
        /// The row encodes the line's position within its `(channel, bank)`
        /// slice: `row = (page / (channels * banks)) * lines_per_page + idx`.
        /// Together with [`AddressMap::recompose`] this forms a bijection —
        /// every line maps to exactly one `(channel, bank, row)` triple and
        /// round-trips (pinned by the seeded property test below).
        fn decompose(&self, line: LineAddr) -> (usize, usize, u64) {
            let page = self.page_of_line(line);
            let idx = self.line_index_in_page(line) as u64;
            let row_page = page.0 / (self.channels as u64 * self.banks as u64);
            (
                self.page_channel(page),
                self.page_bank(page),
                row_page * self.lines_per_page() + idx,
            )
        }

        /// Inverse of [`AddressMap::decompose`].
        ///
        /// # Panics
        ///
        /// Panics if `channel` or `bank` is out of range.
        fn recompose(&self, channel: usize, bank: usize, row: u64) -> LineAddr {
            assert!(channel < self.channels, "channel {channel} out of range");
            assert!(bank < self.banks, "bank {bank} out of range");
            let row_page = row / self.lines_per_page();
            let idx = row % self.lines_per_page();
            let page = (row_page * self.banks as u64 + bank as u64) * self.channels as u64
                + channel as u64;
            LineAddr(page * self.page_bytes + idx * self.line_bytes)
        }
    }

    fn map() -> AddressMap {
        AddressMap::new(8 << 30, 64, 4096, 8)
    }

    #[test]
    fn line_alignment() {
        let m = map();
        assert_eq!(m.line_of(0).0, 0);
        assert_eq!(m.line_of(63).0, 0);
        assert_eq!(m.line_of(64).0, 64);
        assert_eq!(m.line_of(0xFFF).0, 0xFC0);
    }

    #[test]
    fn page_and_index_arithmetic() {
        let m = map();
        let line = m.line_of(4096 * 5 + 64 * 7 + 3);
        assert_eq!(m.page_of_line(line).0, 5);
        assert_eq!(m.line_index_in_page(line), 7);
        assert_eq!(m.line_in_page(PageId(5), 7), line);
    }

    #[test]
    fn page_interleaved_banks() {
        let m = map();
        for p in 0..32u64 {
            let line = m.line_in_page(PageId(p), 0);
            assert_eq!(m.data_bank(line), (p % 8) as usize);
            // All lines of one page share a bank.
            let last = m.line_in_page(PageId(p), 63);
            assert_eq!(m.data_bank(last), m.data_bank(line));
        }
    }

    #[test]
    fn geometry_getters() {
        let m = map();
        assert_eq!(m.lines_per_page(), 64);
        assert_eq!(m.pages(), (8u64 << 30) / 4096);
        assert_eq!(m.banks(), 8);
        assert_eq!(m.channels(), 1);
        assert_eq!(m.capacity(), 8 << 30);
    }

    #[test]
    fn single_channel_matches_historical_layout() {
        // With channels = 1 the channel-aware map must be bit-identical to
        // the original `page % banks` interleave.
        let m = AddressMap::with_channels(8 << 30, 64, 4096, 8, 1);
        for p in 0..64u64 {
            let line = m.line_in_page(PageId(p), 3);
            assert_eq!(m.page_bank(PageId(p)), (p % 8) as usize);
            assert_eq!(m.data_bank(line), (p % 8) as usize);
            assert_eq!(m.page_channel(PageId(p)), 0);
            assert_eq!(m.line_channel(line), 0);
        }
    }

    #[test]
    fn channels_interleave_pages_round_robin() {
        let m = AddressMap::with_channels(8 << 30, 64, 4096, 8, 4);
        for p in 0..64u64 {
            assert_eq!(m.page_channel(PageId(p)), (p % 4) as usize);
            assert_eq!(m.page_bank(PageId(p)), ((p / 4) % 8) as usize);
        }
        // All lines of a page share the page's channel and bank.
        let line0 = m.line_in_page(PageId(13), 0);
        let line63 = m.line_in_page(PageId(13), 63);
        assert_eq!(m.line_channel(line0), m.line_channel(line63));
        assert_eq!(m.data_bank(line0), m.data_bank(line63));
    }

    /// Seeded property test: `decompose`/`recompose` is a bijection for
    /// every power-of-two (channels, banks) combination — each line maps
    /// to exactly one in-range `(channel, bank, row)` and round-trips.
    #[test]
    fn decompose_recompose_bijection_property() {
        use supermem_sim::SplitMix64;

        let mut rng = SplitMix64::new(0x0DD5_EED5);
        for &channels in &[1usize, 2, 4, 8] {
            for &banks in &[1usize, 2, 4, 8, 16] {
                let capacity: u64 = 1 << 24; // 4096 pages
                let m = AddressMap::with_channels(capacity, 64, 4096, banks, channels);
                let lines = capacity / 64;
                let rows_per_slice = lines / (channels as u64 * banks as u64);

                // Random sample of lines round-trips through one triple.
                for _ in 0..256 {
                    let line = LineAddr((rng.next_u64() % lines) * 64);
                    let (c, b, row) = m.decompose(line);
                    assert!(c < channels && b < banks && row < rows_per_slice);
                    assert_eq!(m.recompose(c, b, row), line);
                }

                // Exhaustive inverse direction: every triple yields a
                // distinct in-range line that decomposes back to itself.
                let mut seen = std::collections::HashSet::new();
                for c in 0..channels {
                    for b in 0..banks {
                        for row in (0..rows_per_slice).step_by(17) {
                            let line = m.recompose(c, b, row);
                            assert!(line.0 < capacity);
                            assert!(seen.insert(line.0), "duplicate line {line}");
                            assert_eq!(m.decompose(line), (c, b, row));
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "2^k")]
    fn rejects_non_pow2_line() {
        AddressMap::new(1 << 20, 48, 4096, 8);
    }

    #[test]
    #[should_panic(expected = "out of page")]
    fn line_in_page_bounds() {
        map().line_in_page(PageId(0), 64);
    }

    #[test]
    fn display_formats() {
        assert_eq!(LineAddr(0x40).to_string(), "line@0x40");
        assert_eq!(PageId(3).to_string(), "page#3");
    }
}
