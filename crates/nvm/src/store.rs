//! The persistent byte contents of the NVM DIMM.
//!
//! [`NvmStore`] is the ground truth that survives a simulated power
//! failure: the 64-byte data lines (holding *ciphertext* when encryption
//! is on), the counter-line region (one 64-byte line per data page) and
//! the integrity-tree node lines. Untouched lines read as zero, like a
//! fresh DIMM.
//!
//! Storage is allocated a page at a time. Each region is a paged arena:
//! a small index maps a 64-line group of keys to a chunk that holds the
//! group's bytes inline, a *written* mask, and per-line wear. A data
//! chunk is exactly one 4 KiB page, the reach of one split-counter line
//! (paper §3.4.1), so an access costs one probe into a table 64x smaller
//! than one keyed per line, and a crash-image clone copies flat vectors.
//!
//! The store is purely functional with respect to time — all timing lives
//! in [`crate::bank`] and the memory controller.

use supermem_sim::{FxHashMap, SplitMix64};

use crate::addr::{LineAddr, PageId};
use crate::fault::{FaultClass, FaultCounters, FaultPlan, FaultSpec, MediaError, LINE_BITS};
use crate::wearlevel::StartGap;
use crate::{LineData, LINE_BYTES};

// Test-only: the module file is compiled only for tests.
mod reference;

/// Lines per chunk: 64, one 4 KiB page of data lines.
const CHUNK_LINES: u64 = 64;

/// One 64-line group of a region: the bytes inline, which lines were
/// ever written (an all-zero write still counts), and per-line wear.
/// Unwritten lines always hold zero bytes, so derived equality compares
/// contents.
///
/// Not cache-line aligned on purpose: a `Vec` of over-aligned elements
/// cannot grow in place, and the copy on each doubling raised
/// `steady-write`'s peak RSS from 87 to 144 MiB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Chunk {
    lines: [LineData; CHUNK_LINES as usize],
    written: u64,
    wear: [u64; CHUNK_LINES as usize],
}

impl Chunk {
    const BLANK: Chunk = Chunk {
        lines: [[0; LINE_BYTES]; CHUNK_LINES as usize],
        written: 0,
        wear: [0; CHUNK_LINES as usize],
    };
}

/// Position of `key` within its chunk.
fn lane(key: u64) -> usize {
    (key % CHUNK_LINES) as usize
}

/// The lanes set in a written mask, ascending.
fn lanes(mut written: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let lane = written.trailing_zeros() as usize;
        written &= written.wrapping_sub(1);
        (lane < CHUNK_LINES as usize).then_some(lane)
    })
}

/// A paged line arena keyed by line number: `index` maps `key / 64` to a
/// slot in `chunks`. Chunks are never freed, so slots stay stable.
#[derive(Debug, Clone, Default)]
struct Region {
    index: FxHashMap<u64, u32>,
    chunks: Vec<Chunk>,
}

impl Region {
    fn chunk(&self, key: u64) -> Option<&Chunk> {
        let slot = *self.index.get(&(key / CHUNK_LINES))?;
        Some(&self.chunks[slot as usize])
    }

    /// The chunk holding `key`, allocated blank on first touch.
    fn chunk_mut(&mut self, key: u64) -> &mut Chunk {
        let chunks = &mut self.chunks;
        let slot = *self.index.entry(key / CHUNK_LINES).or_insert_with(|| {
            chunks.push(Chunk::BLANK);
            u32::try_from(chunks.len() - 1).expect("region exceeds 2^32 chunks")
        });
        &mut self.chunks[slot as usize]
    }

    fn read(&self, key: u64) -> LineData {
        self.chunk(key)
            .map_or([0; LINE_BYTES], |c| c.lines[lane(key)])
    }

    /// Stores a line, marks it written, and returns its wear cell.
    fn write(&mut self, key: u64, bytes: LineData) -> &mut u64 {
        let lane = lane(key);
        let chunk = self.chunk_mut(key);
        chunk.lines[lane] = bytes;
        chunk.written |= 1 << lane;
        &mut chunk.wear[lane]
    }

    fn wear_mut(&mut self, key: u64) -> &mut u64 {
        &mut self.chunk_mut(key).wear[lane(key)]
    }

    /// Every written key, ascending.
    fn keys(&self) -> Vec<u64> {
        let mut groups: Vec<(u64, u32)> = self.index.iter().map(|(&g, &s)| (g, s)).collect();
        groups.sort_unstable();
        let mut keys = Vec::with_capacity(self.len());
        for (group, slot) in groups {
            let written = self.chunks[slot as usize].written;
            keys.extend(lanes(written).map(|lane| group * CHUNK_LINES + lane as u64));
        }
        keys
    }

    /// Number of written keys.
    fn len(&self) -> usize {
        self.chunks
            .iter()
            .map(|c| c.written.count_ones() as usize)
            .sum()
    }

    /// `(max, total)` wear over every line.
    fn wear_summary(&self) -> (u64, u64) {
        let wear = self.chunks.iter().flat_map(|c| c.wear);
        wear.fold((0, 0), |(max, total), w| (max.max(w), total + w))
    }

    /// Unions `other` into `self`: lines `other` wrote win, wear adds.
    fn absorb(&mut self, other: Region) {
        for (group, slot) in other.index {
            let src = &other.chunks[slot as usize];
            let dst = self.chunk_mut(group * CHUNK_LINES);
            for lane in lanes(src.written) {
                dst.lines[lane] = src.lines[lane];
            }
            dst.written |= src.written;
            for (d, s) in dst.wear.iter_mut().zip(src.wear) {
                *d += s;
            }
        }
    }

    /// Whether every chunk of `self` matches `other`'s, an absent chunk
    /// counting as blank.
    fn within(&self, other: &Region) -> bool {
        self.index.iter().all(|(&group, &slot)| {
            let theirs = other.chunk(group * CHUNK_LINES).unwrap_or(&Chunk::BLANK);
            self.chunks[slot as usize] == *theirs
        })
    }
}

/// Equality of contents, independent of the order chunks were allocated.
impl PartialEq for Region {
    fn eq(&self, other: &Self) -> bool {
        self.within(other) && other.within(self)
    }
}

impl Eq for Region {}

/// Persistent storage for data lines, counter lines and tree lines.
///
/// # Examples
///
/// ```
/// use supermem_nvm::{NvmStore, addr::LineAddr};
///
/// let mut store = NvmStore::new();
/// assert_eq!(store.read_data(LineAddr(0x40)), [0u8; 64]); // fresh DIMM
/// store.write_data(LineAddr(0x40), [7u8; 64]);
/// assert_eq!(store.read_data(LineAddr(0x40)), [7u8; 64]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NvmStore {
    /// Keyed by line index (`LineAddr / 64`). Wear is charged to the
    /// line's physical slot, which is the line index itself unless wear
    /// leveling remaps it.
    data: Region,
    /// Keyed by page number.
    counters: Region,
    /// Keyed by the integrity crate's packed `(level, group)` id; wear
    /// stays zero.
    tree: Region,
    /// Per-line ECC tags. Only Osiris-style schemes write them, so a
    /// hash map costs nothing on the other schemes' paths.
    tags: FxHashMap<u64, u64>,
    wear_leveling: Option<StartGap>,
    faults: Option<FaultPlan>,
}

/// Per-cell-endurance summary of an [`NvmStore`] (paper §3.4.1 motivates
/// split counters and CWC partly through NVM endurance limits: PCM cells
/// survive 10^7–10^9 writes, so the hottest line bounds DIMM lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WearReport {
    /// Writes absorbed by the most-written data line.
    pub max_data_wear: u64,
    /// Writes absorbed by the most-written counter line.
    pub max_counter_wear: u64,
    /// Total data-line writes.
    pub total_data_writes: u64,
    /// Total counter-line writes.
    pub total_counter_writes: u64,
}

impl NvmStore {
    /// An empty (all-zero) DIMM.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads a data line; absent lines are zero.
    pub fn read_data(&self, line: LineAddr) -> LineData {
        debug_assert_eq!(line.0 % LINE_BYTES as u64, 0, "unaligned line address");
        self.data.read(line.0 / LINE_BYTES as u64)
    }

    /// Enables Start-Gap wear leveling beneath the data region: wear is
    /// then accounted against rotating *physical* slots instead of fixed
    /// logical lines (contents stay keyed logically — counter-mode
    /// encryption binds ciphertext to the logical address, so the remap
    /// is invisible above this layer).
    pub fn enable_wear_leveling(&mut self, lines: u64, psi: u64) {
        self.wear_leveling = Some(StartGap::new(lines, psi));
    }

    /// Writes a data line. With a [`FaultPlan`] attached, a full-line
    /// rewrite clears pending bit flips, and writes to lines lost with a
    /// failed bank are dropped.
    pub fn write_data(&mut self, line: LineAddr, bytes: LineData) {
        debug_assert_eq!(line.0 % LINE_BYTES as u64, 0, "unaligned line address");
        if let Some(plan) = &mut self.faults {
            if !plan.admit_data_write(line) {
                return;
            }
        }
        let index = line.0 / LINE_BYTES as u64;
        let wear = self.data.write(index, bytes);
        match &mut self.wear_leveling {
            None => *wear += 1,
            Some(sg) => {
                *self.data.wear_mut(sg.map(index)) += 1;
                if let Some(mv) = sg.note_write() {
                    // The relocation itself writes one more physical slot.
                    *self.data.wear_mut(mv.to) += 1;
                }
            }
        }
    }

    /// Reads the counter line of a page; absent lines are zero (fresh
    /// counters).
    pub fn read_counter(&self, page: PageId) -> LineData {
        self.counters.read(page.0)
    }

    /// Writes the counter line of a page (same fault semantics as
    /// [`Self::write_data`]).
    pub fn write_counter(&mut self, page: PageId, bytes: LineData) {
        if let Some(plan) = &mut self.faults {
            if !plan.admit_counter_write(page) {
                return;
            }
        }
        *self.counters.write(page.0, bytes) += 1;
    }

    /// Reads an integrity-tree node-group line (keyed by the packed
    /// `(level, group)` id the integrity crate assigns); absent lines
    /// read as zero, matching a fresh tree built over zero counters.
    pub fn read_tree(&self, line: u64) -> LineData {
        self.tree.read(line)
    }

    /// Writes an integrity-tree node-group line (same fault semantics as
    /// [`Self::write_data`]). Tree lines carry no wear accounting: they
    /// live in the metadata region the endurance figures deliberately
    /// exclude, keeping [`Self::wear_report`] comparable across schemes.
    pub fn write_tree(&mut self, line: u64, bytes: LineData) {
        if let Some(plan) = &mut self.faults {
            if !plan.admit_tree_write(line) {
                return;
            }
        }
        self.tree.write(line, bytes);
    }

    /// Stores the ECC-derived integrity tag of a data line (the spare
    /// ECC bits Osiris-style schemes repurpose; written alongside the
    /// line, costing no extra write request).
    pub fn write_tag(&mut self, line: LineAddr, tag: u64) {
        self.tags.insert(line.0, tag);
    }

    /// Reads a line's ECC-derived tag (0 for never-tagged lines).
    pub fn read_tag(&self, line: LineAddr) -> u64 {
        self.tags.get(&line.0).copied().unwrap_or(0)
    }

    /// Iterates over every data line ever written, in address order
    /// (recovery scans use this; the order keeps reports deterministic).
    pub fn data_lines(&self) -> Vec<LineAddr> {
        let bytes = LINE_BYTES as u64;
        self.data
            .keys()
            .into_iter()
            .map(|i| LineAddr(i * bytes))
            .collect()
    }

    /// Iterates over every counter line ever written, in page order.
    pub fn counter_lines(&self) -> Vec<PageId> {
        self.counters.keys().into_iter().map(PageId).collect()
    }

    /// Iterates over every tree node line ever written, in id order.
    pub fn tree_lines(&self) -> Vec<u64> {
        self.tree.keys()
    }

    /// Summarizes per-line write wear — the DIMM-lifetime metric the
    /// paper's endurance discussion (§3.4.1) is about.
    pub fn wear_report(&self) -> WearReport {
        let (max_data_wear, total_data_writes) = self.data.wear_summary();
        let (max_counter_wear, total_counter_writes) = self.counters.wear_summary();
        WearReport {
            max_data_wear,
            max_counter_wear,
            total_data_writes,
            total_counter_writes,
        }
    }

    /// Merges another store into this one (multi-channel crash-image
    /// assembly).
    ///
    /// Channel interleaving makes the two stores' address sets disjoint,
    /// so contents simply union; on an overlapping key (which interleaved
    /// channels never produce) `other` wins. Wear counts are summed per
    /// key so the merged wear report equals the sum of the per-channel
    /// reports. A fault plan attached to `other` replaces `self`'s (the
    /// merged view keeps at most one plan; recovery attaches per-channel
    /// plans before merging when it needs faulted reads).
    pub fn absorb(&mut self, other: NvmStore) {
        self.data.absorb(other.data);
        self.counters.absorb(other.counters);
        self.tree.absorb(other.tree);
        self.tags.extend(other.tags);
        if other.faults.is_some() {
            self.faults = other.faults;
        }
    }

    /// Attaches (or replaces) the fault plan governing checked reads
    /// and faulted writes.
    pub fn attach_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// The attached fault plan, if any.
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Read-side fault tallies (zero when no plan is attached).
    pub fn fault_counters(&self) -> FaultCounters {
        self.faults
            .as_ref()
            .map(FaultPlan::counters)
            .unwrap_or_default()
    }

    /// Reads a data line *through the media model*: loss, transient
    /// failure, and the SECDED correct-vs-detect resolution all apply.
    /// Without an attached plan this is [`Self::read_data`].
    ///
    /// # Errors
    ///
    /// [`MediaError`] per the attached [`FaultPlan`].
    pub fn read_data_checked(&mut self, line: LineAddr) -> Result<LineData, MediaError> {
        let stored = self.read_data(line);
        match &mut self.faults {
            None => Ok(stored),
            Some(plan) => plan.filter_data_read(line, stored),
        }
    }

    /// [`Self::read_data_checked`] for a counter line.
    ///
    /// # Errors
    ///
    /// [`MediaError`] per the attached [`FaultPlan`].
    pub fn read_counter_checked(&mut self, page: PageId) -> Result<LineData, MediaError> {
        let stored = self.counters.read(page.0);
        match &mut self.faults {
            None => Ok(stored),
            Some(plan) => plan.filter_counter_read(page, stored),
        }
    }

    /// [`Self::read_data_checked`] for an integrity-tree node line.
    ///
    /// # Errors
    ///
    /// [`MediaError`] per the attached [`FaultPlan`].
    pub fn read_tree_checked(&mut self, line: u64) -> Result<LineData, MediaError> {
        let stored = self.tree.read(line);
        match &mut self.faults {
            None => Ok(stored),
            Some(plan) => plan.filter_tree_read(line, stored),
        }
    }

    /// [`Self::strike_faults`] scoped to the integrity-tree metadata
    /// region: picks a seeded victim among the persisted tree node lines
    /// and registers the class's corruption. Uses its own RNG stream, so
    /// combining it with `strike_faults` never perturbs the legacy
    /// data/counter victim selection. Returns the struck line id, or
    /// `None` for power-event classes and empty tree regions.
    pub fn strike_tree_fault(&mut self, spec: FaultSpec) -> Option<u64> {
        if spec.class.is_power_event() {
            return None;
        }
        let lines = self.tree_lines();
        if lines.is_empty() {
            return None;
        }
        let mut rng = SplitMix64::new(spec.seed ^ 0x3EE5_7A1D);
        let mut plan = self.faults.take().unwrap_or_else(|| FaultPlan::new(spec));
        let line = lines[rng.next_below(lines.len() as u64) as usize];
        match spec.class {
            FaultClass::BitFlip | FaultClass::StuckAt => {
                // Stuck cells degenerate to a single wrong bit on the
                // read path for metadata lines: both are correctable.
                let bit = rng.next_below(LINE_BITS as u64) as usize;
                plan.flip_tree_bit(line, bit);
            }
            FaultClass::DoubleFlip => {
                let bit1 = rng.next_below(LINE_BITS as u64) as usize;
                let mut bit2 = rng.next_below(LINE_BITS as u64 - 1) as usize;
                if bit2 >= bit1 {
                    bit2 += 1;
                }
                plan.flip_tree_bit(line, bit1);
                plan.flip_tree_bit(line, bit2);
            }
            FaultClass::TransientRead => {
                let times = 1 + rng.next_below(4) as u32;
                plan.fail_tree_reads(line, times);
            }
            FaultClass::Torn | FaultClass::BankFail => unreachable!("power-event class"),
        }
        self.faults = Some(plan);
        Some(line)
    }

    /// Rewrites a seeded victim tree node line with attacker-chosen
    /// bytes, bypassing the write-admission path (an *active tamper*:
    /// ECC sees a consistent line, so only a root comparison during
    /// recovery can catch it). Returns the tampered line id, or `None`
    /// when no tree lines were ever persisted.
    pub fn tamper_tree_line(&mut self, seed: u64) -> Option<u64> {
        let lines = self.tree_lines();
        if lines.is_empty() {
            return None;
        }
        let mut rng = SplitMix64::new(seed ^ 0x7A3B_9D11);
        let line = lines[rng.next_below(lines.len() as u64) as usize];
        let mut bytes = self.read_tree(line);
        // Flip one whole byte so the forged digest differs but the line
        // still looks like ordinary ECC-clean media.
        let byte = rng.next_below(LINE_BYTES as u64) as usize;
        bytes[byte] ^= 0xA5;
        self.tree.write(line, bytes);
        Some(line)
    }

    /// Strikes a settled (crash-image) store with an image-level fault:
    /// picks a seeded victim among the written lines and registers the
    /// class's corruption in the attached [`FaultPlan`] (creating one if
    /// absent). Power-event classes ([`FaultClass::is_power_event`]) are
    /// applied during the drain instead and are a no-op here.
    pub fn strike_faults(&mut self, spec: FaultSpec) {
        if spec.class.is_power_event() {
            return;
        }
        let data = self.data_lines();
        let ctrs = self.counter_lines();
        let mut rng = SplitMix64::new(spec.seed ^ 0x57A1_4EBF);
        let mut plan = self.faults.take().unwrap_or_else(|| FaultPlan::new(spec));
        let total = data.len() + ctrs.len();
        if total > 0 {
            match spec.class {
                FaultClass::StuckAt => {
                    // Stuck cells are modeled for data lines only.
                    if !data.is_empty() {
                        let line = data[rng.next_below(data.len() as u64) as usize];
                        let bit = rng.next_below(LINE_BITS as u64) as usize;
                        let stored = self.read_data(line);
                        let forced = stored[bit / 8] >> (bit % 8) & 1 == 0;
                        plan.stick_data_cell(line, bit, forced);
                    }
                }
                FaultClass::BitFlip | FaultClass::DoubleFlip => {
                    let bit1 = rng.next_below(LINE_BITS as u64) as usize;
                    // Second bit distinct from the first.
                    let mut bit2 = rng.next_below(LINE_BITS as u64 - 1) as usize;
                    if bit2 >= bit1 {
                        bit2 += 1;
                    }
                    let double = spec.class == FaultClass::DoubleFlip;
                    let idx = rng.next_below(total as u64) as usize;
                    if idx < data.len() {
                        plan.flip_data_bit(data[idx], bit1);
                        if double {
                            plan.flip_data_bit(data[idx], bit2);
                        }
                    } else {
                        let page = ctrs[idx - data.len()];
                        plan.flip_counter_bit(page, bit1);
                        if double {
                            plan.flip_counter_bit(page, bit2);
                        }
                    }
                }
                FaultClass::TransientRead => {
                    // 1..=4 failures: seeds above the retry budget (3)
                    // exercise the poison/detect path too.
                    let times = 1 + rng.next_below(4) as u32;
                    let idx = rng.next_below(total as u64) as usize;
                    if idx < data.len() {
                        plan.fail_data_reads(data[idx], times);
                    } else {
                        plan.fail_counter_reads(ctrs[idx - data.len()], times);
                    }
                }
                FaultClass::Torn | FaultClass::BankFail => unreachable!("power-event class"),
            }
        }
        self.faults = Some(plan);
    }
}

/// Per-line inspection for the differential test against the reference
/// store.
#[cfg(test)]
impl Region {
    fn wear(&self, key: u64) -> u64 {
        self.chunk(key).map_or(0, |c| c.wear[lane(key)])
    }
}

#[cfg(test)]
impl NvmStore {
    /// Number of distinct data lines ever written (diagnostics).
    pub(crate) fn data_lines_touched(&self) -> usize {
        self.data.len()
    }

    /// Number of distinct tree node lines ever written (diagnostics).
    pub(crate) fn tree_lines_touched(&self) -> usize {
        self.tree.len()
    }

    /// Number of distinct counter lines ever written (diagnostics).
    pub(crate) fn counter_lines_touched(&self) -> usize {
        self.counters.len()
    }

    /// Write count of the physical slot a data line occupies now (0 if
    /// never written). Without wear leveling the slot is the line
    /// itself; with it, the slot the Start-Gap map currently assigns.
    ///
    /// # Panics
    ///
    /// With wear leveling on, panics for a line outside the leveled
    /// region, as [`Self::write_data`] does.
    pub(crate) fn data_wear(&self, line: LineAddr) -> u64 {
        let index = line.0 / LINE_BYTES as u64;
        match &self.wear_leveling {
            None => self.data.wear(index),
            Some(sg) => self.data.wear(sg.map(index)),
        }
    }

    /// Per-line write count of a counter line (0 if never written).
    pub(crate) fn counter_wear(&self, page: PageId) -> u64 {
        self.counters.wear(page.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_store_reads_zero() {
        let s = NvmStore::new();
        assert_eq!(s.read_data(LineAddr(0)), [0; 64]);
        assert_eq!(s.read_counter(PageId(99)), [0; 64]);
        assert_eq!(s.data_lines_touched(), 0);
    }

    #[test]
    fn data_and_counters_are_disjoint_namespaces() {
        let mut s = NvmStore::new();
        s.write_data(LineAddr(0), [1; 64]);
        s.write_counter(PageId(0), [2; 64]);
        assert_eq!(s.read_data(LineAddr(0)), [1; 64]);
        assert_eq!(s.read_counter(PageId(0)), [2; 64]);
    }

    #[test]
    fn overwrite_replaces_contents() {
        let mut s = NvmStore::new();
        s.write_data(LineAddr(0x80), [1; 64]);
        s.write_data(LineAddr(0x80), [9; 64]);
        assert_eq!(s.read_data(LineAddr(0x80)), [9; 64]);
        assert_eq!(s.data_lines_touched(), 1);
    }

    #[test]
    fn clone_snapshots_contents() {
        // Crash simulation relies on cheap store snapshots.
        let mut s = NvmStore::new();
        s.write_data(LineAddr(0x40), [3; 64]);
        let snap = s.clone();
        s.write_data(LineAddr(0x40), [4; 64]);
        assert_eq!(snap.read_data(LineAddr(0x40)), [3; 64]);
        assert_eq!(s.read_data(LineAddr(0x40)), [4; 64]);
    }

    #[test]
    fn wear_tracks_every_write() {
        let mut s = NvmStore::new();
        for _ in 0..5 {
            s.write_data(LineAddr(0x40), [1; 64]);
        }
        s.write_data(LineAddr(0x80), [2; 64]);
        s.write_counter(PageId(0), [3; 64]);
        s.write_counter(PageId(0), [4; 64]);
        let r = s.wear_report();
        assert_eq!(r.max_data_wear, 5);
        assert_eq!(r.total_data_writes, 6);
        assert_eq!(r.max_counter_wear, 2);
        assert_eq!(r.total_counter_writes, 2);
        assert_eq!(s.data_wear(LineAddr(0x40)), 5);
        assert_eq!(s.counter_wear(PageId(0)), 2);
        assert_eq!(s.data_wear(LineAddr(0xFC0)), 0);
    }

    #[test]
    fn fresh_store_has_zero_wear() {
        assert_eq!(NvmStore::new().wear_report(), WearReport::default());
    }

    #[test]
    fn wear_leveling_spreads_a_hot_line() {
        let mut plain = NvmStore::new();
        let mut leveled = NvmStore::new();
        // Small region and frequent gap moves so the test sees many full
        // rotations (real configs rotate over hours, not 400 writes).
        leveled.enable_wear_leveling(16, 2);
        for i in 0..400u64 {
            plain.write_data(LineAddr(0), [i as u8; 64]);
            leveled.write_data(LineAddr(0), [i as u8; 64]);
        }
        let p = plain.wear_report();
        let l = leveled.wear_report();
        assert_eq!(p.max_data_wear, 400);
        assert!(
            l.max_data_wear < p.max_data_wear / 3,
            "start-gap must spread wear: {} vs {}",
            l.max_data_wear,
            p.max_data_wear
        );
        // Contents are unaffected by the remap.
        assert_eq!(leveled.read_data(LineAddr(0)), plain.read_data(LineAddr(0)));
    }

    #[test]
    fn absorb_unions_contents_and_sums_wear() {
        let mut a = NvmStore::new();
        let mut b = NvmStore::new();
        a.write_data(LineAddr(0x40), [1; 64]);
        a.write_data(LineAddr(0x40), [2; 64]);
        a.write_counter(PageId(0), [3; 64]);
        b.write_data(LineAddr(0x80), [4; 64]);
        b.write_counter(PageId(1), [5; 64]);
        b.write_tag(LineAddr(0x80), 77);
        a.absorb(b);
        assert_eq!(a.read_data(LineAddr(0x40)), [2; 64]);
        assert_eq!(a.read_data(LineAddr(0x80)), [4; 64]);
        assert_eq!(a.read_counter(PageId(1)), [5; 64]);
        assert_eq!(a.read_tag(LineAddr(0x80)), 77);
        let r = a.wear_report();
        assert_eq!(r.total_data_writes, 3);
        assert_eq!(r.total_counter_writes, 2);
        assert_eq!(r.max_data_wear, 2);
    }

    #[test]
    fn tree_region_is_its_own_namespace() {
        let mut s = NvmStore::new();
        assert_eq!(s.read_tree(0), [0; 64]);
        s.write_data(LineAddr(0), [1; 64]);
        s.write_counter(PageId(0), [2; 64]);
        s.write_tree(0, [3; 64]);
        assert_eq!(s.read_data(LineAddr(0)), [1; 64]);
        assert_eq!(s.read_counter(PageId(0)), [2; 64]);
        assert_eq!(s.read_tree(0), [3; 64]);
        assert_eq!(s.tree_lines_touched(), 1);
        // Tree writes carry no wear accounting.
        assert_eq!(s.wear_report().total_data_writes, 1);
        assert_eq!(s.wear_report().total_counter_writes, 1);
    }

    #[test]
    fn tree_lines_sorted() {
        let mut s = NvmStore::new();
        s.write_tree(5, [1; 64]);
        s.write_tree(2, [1; 64]);
        s.write_tree(9, [1; 64]);
        assert_eq!(s.tree_lines(), vec![2, 5, 9]);
    }

    #[test]
    fn absorb_unions_tree_lines() {
        let mut a = NvmStore::new();
        let mut b = NvmStore::new();
        a.write_tree(1, [1; 64]);
        b.write_tree(2, [2; 64]);
        a.absorb(b);
        assert_eq!(a.read_tree(1), [1; 64]);
        assert_eq!(a.read_tree(2), [2; 64]);
    }

    #[test]
    fn tree_double_flip_is_detected_on_checked_read() {
        let mut s = NvmStore::new();
        s.write_tree(7, [0x11; 64]);
        let struck = s.strike_faults_tree_test(FaultClass::DoubleFlip, 42);
        assert_eq!(struck, Some(7));
        assert!(matches!(s.read_tree_checked(7), Err(MediaError::Corrupt)));
        assert!(s.fault_counters().ecc_detections >= 1);
        // Legacy data/counter reads are untouched.
        assert!(s.read_data_checked(LineAddr(0)).is_ok());
    }

    #[test]
    fn tree_single_flip_is_corrected() {
        let mut s = NvmStore::new();
        s.write_tree(3, [0xAB; 64]);
        s.strike_faults_tree_test(FaultClass::BitFlip, 7);
        assert_eq!(s.read_tree_checked(3), Ok([0xAB; 64]));
        assert_eq!(s.fault_counters().ecc_corrections, 1);
    }

    #[test]
    fn tree_transient_read_heals() {
        let mut s = NvmStore::new();
        s.write_tree(1, [5; 64]);
        let mut plan = FaultPlan::new(FaultSpec {
            class: FaultClass::TransientRead,
            seed: 0,
        });
        plan.fail_tree_reads(1, 2);
        s.attach_faults(plan);
        assert!(matches!(s.read_tree_checked(1), Err(MediaError::Transient)));
        assert!(matches!(s.read_tree_checked(1), Err(MediaError::Transient)));
        assert_eq!(s.read_tree_checked(1), Ok([5; 64]));
    }

    #[test]
    fn tree_lost_line_drops_writes_and_fails_reads() {
        let mut s = NvmStore::new();
        s.write_tree(4, [9; 64]);
        let mut plan = FaultPlan::new(FaultSpec {
            class: FaultClass::BankFail,
            seed: 0,
        });
        plan.note_lost_tree(4);
        s.attach_faults(plan);
        s.write_tree(4, [1; 64]); // dropped
        assert!(matches!(s.read_tree_checked(4), Err(MediaError::Lost)));
        assert_eq!(s.fault_counters().dropped_writes, 1);
    }

    #[test]
    fn tree_rewrite_clears_pending_flip() {
        let mut s = NvmStore::new();
        s.write_tree(2, [1; 64]);
        let mut plan = FaultPlan::new(FaultSpec {
            class: FaultClass::DoubleFlip,
            seed: 0,
        });
        plan.flip_tree_bit(2, 0);
        plan.flip_tree_bit(2, 9);
        s.attach_faults(plan);
        s.write_tree(2, [8; 64]);
        assert_eq!(s.read_tree_checked(2), Ok([8; 64]));
    }

    #[test]
    fn tamper_tree_line_changes_bytes_but_reads_clean() {
        let mut s = NvmStore::new();
        s.write_tree(6, [0x44; 64]);
        let line = s.tamper_tree_line(123);
        assert_eq!(line, Some(6));
        let bytes = s.read_tree(6);
        assert_ne!(bytes, [0x44; 64]);
        // Clean tamper: the checked read sees no media error.
        assert_eq!(s.read_tree_checked(6), Ok(bytes));
        assert!(s.tamper_tree_line(1).is_some());
        assert_eq!(NvmStore::new().tamper_tree_line(1), None);
    }

    #[test]
    fn tree_strike_on_empty_region_is_noop() {
        let mut s = NvmStore::new();
        assert_eq!(s.strike_faults_tree_test(FaultClass::DoubleFlip, 1), None);
        assert!(s.faults().is_none());
    }

    impl NvmStore {
        /// Test shorthand for `strike_tree_fault`.
        fn strike_faults_tree_test(&mut self, class: FaultClass, seed: u64) -> Option<u64> {
            self.strike_tree_fault(FaultSpec { class, seed })
        }
    }

    #[test]
    fn touched_counts() {
        let mut s = NvmStore::new();
        for i in 0..10u64 {
            s.write_data(LineAddr(i * 64), [i as u8; 64]);
        }
        s.write_counter(PageId(0), [0xFF; 64]);
        assert_eq!(s.data_lines_touched(), 10);
        assert_eq!(s.counter_lines_touched(), 1);
    }

    #[test]
    fn data_wear_reads_the_leveled_slot() {
        let mut s = NvmStore::new();
        // A psi this large never moves the gap, so line 1 stays in slot 1.
        s.enable_wear_leveling(1024, 1 << 40);
        for i in 0..7u8 {
            s.write_data(LineAddr(0x40), [i; 64]);
        }
        assert_eq!(s.data_wear(LineAddr(0x40)), 7);
        assert_eq!(s.data_wear(LineAddr(0x80)), 0);
        assert_eq!(s.wear_report().max_data_wear, 7);
    }

    use reference::MapStore;

    /// Data lines, counter pages and tree groups each op draws from;
    /// absorbed stores use either the same range or the next one up.
    const DIFF_LINES: u64 = 320;
    const DIFF_PAGES: u64 = 150;
    const DIFF_GROUPS: u64 = 90;

    /// The paged store and the six-map reference, driven in lockstep.
    #[derive(Clone)]
    struct Pair {
        new: NvmStore,
        old: MapStore,
        leveled: bool,
    }

    fn payload(rng: &mut SplitMix64) -> LineData {
        let mut bytes = [0; LINE_BYTES];
        if !rng.next_bool_ratio(1, 4) {
            rng.fill_bytes(&mut bytes);
        }
        bytes
    }

    fn fault_spec(rng: &mut SplitMix64) -> FaultSpec {
        FaultSpec {
            class: FaultClass::ALL[rng.next_below(FaultClass::ALL.len() as u64) as usize],
            seed: rng.next_u64(),
        }
    }

    impl Pair {
        fn new(leveled: bool) -> Self {
            let mut p = Pair {
                new: NvmStore::new(),
                old: MapStore::new(),
                leveled,
            };
            if leveled {
                // Psi 3 moves the gap often; the region spans both
                // absorb ranges and its spare slot opens a fresh page.
                p.new.enable_wear_leveling(2 * DIFF_LINES, 3);
                p.old.enable_wear_leveling(2 * DIFF_LINES, 3);
            }
            p
        }

        /// One random operation on both stores; results must match.
        /// `range` shifts every key (0 or 1 range up); `nested` ops
        /// skip clone and absorb.
        fn step(&mut self, rng: &mut SplitMix64, range: u64, nested: bool) {
            let line = LineAddr((range * DIFF_LINES + rng.next_below(DIFF_LINES)) * 64);
            let page = PageId(range * DIFF_PAGES + rng.next_below(DIFF_PAGES));
            let tree =
                (rng.next_below(4) << 32) | (range * DIFF_GROUPS + rng.next_below(DIFF_GROUPS));
            let (new, old) = (&mut self.new, &mut self.old);
            match rng.next_below(if nested { 13 } else { 15 }) {
                0..=2 => {
                    let bytes = payload(rng);
                    new.write_data(line, bytes);
                    old.write_data(line, bytes);
                }
                3 => {
                    let bytes = payload(rng);
                    new.write_counter(page, bytes);
                    old.write_counter(page, bytes);
                }
                4 => {
                    let bytes = payload(rng);
                    new.write_tree(tree, bytes);
                    old.write_tree(tree, bytes);
                }
                5 => {
                    let tag = if rng.next_bool_ratio(1, 3) {
                        0
                    } else {
                        rng.next_u64()
                    };
                    new.write_tag(line, tag);
                    old.write_tag(line, tag);
                }
                6 => assert_eq!(new.read_data_checked(line), old.read_data_checked(line)),
                7 => assert_eq!(
                    new.read_counter_checked(page),
                    old.read_counter_checked(page)
                ),
                8 => assert_eq!(new.read_tree_checked(tree), old.read_tree_checked(tree)),
                9 => {
                    let seed = rng.next_u64();
                    assert_eq!(new.tamper_tree_line(seed), old.tamper_tree_line(seed));
                }
                10 => {
                    let spec = fault_spec(rng);
                    new.strike_faults(spec);
                    old.strike_faults(spec);
                }
                11 => {
                    let spec = fault_spec(rng);
                    assert_eq!(new.strike_tree_fault(spec), old.strike_tree_fault(spec));
                }
                12 => {
                    // A failed bank: writes to these lines are dropped.
                    let mut plan = FaultPlan::new(fault_spec(rng));
                    plan.note_lost_data(line);
                    plan.note_lost_counter(page);
                    plan.note_lost_tree(tree);
                    new.attach_faults(plan.clone());
                    old.attach_faults(plan);
                }
                13 => {
                    // Clone, then diverge: the original must not move.
                    let before = self.clone();
                    let mut fork = self.clone();
                    for _ in 0..=rng.next_below(6) {
                        fork.step(rng, range, true);
                    }
                    fork.assert_same();
                    before.assert_same_as(self);
                    assert_eq!(fork.new == self.new, fork.old == self.old);
                    if rng.next_bool_ratio(1, 2) {
                        *self = fork;
                    }
                }
                _ => {
                    // Absorb a store over the same range or the next one.
                    let mut other = Pair::new(self.leveled);
                    let other_range = rng.next_below(2);
                    for _ in 0..rng.next_below(40) {
                        other.step(rng, other_range, true);
                    }
                    other.assert_same();
                    self.new.absorb(other.new);
                    self.old.absorb(other.old);
                }
            }
        }

        fn assert_same(&self) {
            let (new, old) = (&self.new, &self.old);
            assert_eq!(new.data_lines(), old.data_lines());
            assert_eq!(new.counter_lines(), old.counter_lines());
            assert_eq!(new.tree_lines(), old.tree_lines());
            assert_eq!(new.data_lines_touched(), old.data_lines_touched());
            assert_eq!(new.counter_lines_touched(), old.counter_lines_touched());
            assert_eq!(new.tree_lines_touched(), old.tree_lines_touched());
            assert_eq!(new.wear_report(), old.wear_report());
            assert_eq!(new.faults(), old.faults());
            assert_eq!(new.fault_counters(), old.fault_counters());
            // Every key of both ranges (a stride under miri, for time).
            let stride = if cfg!(miri) { 17 } else { 1 };
            for i in (0..2 * DIFF_LINES).step_by(stride) {
                let line = LineAddr(i * 64);
                assert_eq!(new.read_data(line), old.read_data(line), "{line:?}");
                assert_eq!(new.data_wear(line), old.data_wear(line), "{line:?}");
                assert_eq!(new.read_tag(line), old.read_tag(line), "{line:?}");
            }
            for p in (0..2 * DIFF_PAGES).step_by(stride) {
                assert_eq!(new.read_counter(PageId(p)), old.read_counter(PageId(p)));
                assert_eq!(new.counter_wear(PageId(p)), old.counter_wear(PageId(p)));
            }
            for id in old.tree_lines() {
                assert_eq!(new.read_tree(id), old.read_tree(id), "tree {id:#x}");
            }
        }

        /// Both halves of `self` equal both halves of `other`.
        fn assert_same_as(&self, other: &Pair) {
            assert!(self.new == other.new && self.old == other.old);
            other.assert_same();
        }
    }

    #[test]
    fn paged_store_matches_the_map_reference() {
        let (seeds, steps) = if cfg!(miri) { (1, 40) } else { (6, 300) };
        for seed in 0..seeds {
            for leveled in [false, true] {
                let mut rng = SplitMix64::new(0xD1FF ^ seed);
                let mut pair = Pair::new(leveled);
                for _ in 0..steps {
                    pair.step(&mut rng, 0, false);
                    pair.assert_same();
                }
            }
        }
    }

    #[test]
    fn equality_ignores_write_order() {
        let mut rng = SplitMix64::new(0x0DE5);
        // Distinct keys, so the final contents do not depend on order.
        let mut writes: Vec<(u8, u64, LineData)> = Vec::new();
        for region in 0..3u8 {
            let mut keys: Vec<u64> = (0..300).collect();
            rng.shuffle(&mut keys);
            for &k in &keys[..120] {
                writes.push((region, k, payload(&mut rng)));
            }
        }
        let build = |writes: &[(u8, u64, LineData)]| {
            let mut p = Pair::new(false);
            for &(region, k, bytes) in writes {
                match region {
                    0 => {
                        p.new.write_data(LineAddr(k * 64), bytes);
                        p.old.write_data(LineAddr(k * 64), bytes);
                    }
                    1 => {
                        p.new.write_counter(PageId(k), bytes);
                        p.old.write_counter(PageId(k), bytes);
                    }
                    _ => {
                        p.new.write_tree(k, bytes);
                        p.old.write_tree(k, bytes);
                    }
                }
            }
            p
        };
        let a = build(&writes);
        rng.shuffle(&mut writes);
        let mut b = build(&writes);
        assert!(a.new == b.new && a.old == b.old);
        // A zero write to a fresh line, and a repeated write, each change
        // the contents even though no byte reads differently.
        let fresh = (0..300).find(|&k| a.new.read_data(LineAddr(k * 64)) == [0; 64]);
        let fresh = LineAddr(fresh.expect("some line unwritten") * 64);
        let mut c = b.clone();
        c.new.write_data(fresh, [0; 64]);
        c.old.write_data(fresh, [0; 64]);
        assert!(a.new != c.new && a.old != c.old);
        let &(_, k, bytes) = writes.iter().find(|w| w.0 == 0).expect("a data write");
        b.new.write_data(LineAddr(k * 64), bytes);
        b.old.write_data(LineAddr(k * 64), bytes);
        assert!(a.new != b.new && a.old != b.old);
    }
}
