//! Deterministic media-fault injection (the imperfect-DIMM model).
//!
//! The rest of this crate models a *perfect* DIMM: every drained write
//! lands whole and every read returns exactly what was written. Real
//! NVM does neither — power can die mid-drain leaving an 8-byte-torn
//! line, cells flip or stick, reads fail transiently, and whole banks
//! can die. This module provides a seeded [`FaultPlan`] that layers
//! those failure modes over an [`NvmStore`](crate::NvmStore) without disturbing the
//! stored ground truth:
//!
//! * the store always keeps the *true* bytes; the plan records which
//!   bits the media would return **wrong** (XOR masks), which lines are
//!   **lost** (failed bank), and which reads fail **transiently**;
//! * a SECDED-style ECC model resolves every checked read: zero wrong
//!   bits pass through, exactly one is corrected (and counted), two or
//!   more are detected and surface as [`MediaError::Corrupt`];
//! * torn drains are produced by [`FaultPlan::drain_tear`] and applied
//!   by the write-queue's faulted flush: the line at the cut mixes old
//!   and new 8-byte words per a seeded mask, later queue entries are
//!   dropped entirely. A torn line carries *valid per-word ECC* — only
//!   a higher layer (log checksum, trial decryption, integrity tree)
//!   can notice, which is exactly the property the torture campaign
//!   stresses.
//!
//! Every choice a plan makes derives from a [`FaultSpec`]'s seed via
//! [`SplitMix64`], so a failing torture case replays bit-for-bit from
//! its `--scheme/--fault/--point/--seed` tuple.

use supermem_sim::{FxHashMap, FxHashSet, SplitMix64};

use crate::addr::{LineAddr, PageId};
use crate::{LineData, LINE_BYTES};

/// Bits per 64-byte line (bit-index space for flips and stuck cells).
pub const LINE_BITS: usize = LINE_BYTES * 8;

/// The failure modes the torture campaign injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Power dies mid-drain: one queued line lands with a seeded mix of
    /// old and new 8-byte words; later queued lines are dropped.
    Torn,
    /// A single cell reads wrong — SECDED corrects it silently.
    BitFlip,
    /// Two cells of one line read wrong — SECDED detects but cannot
    /// correct ([`MediaError::Corrupt`]).
    DoubleFlip,
    /// A cell is stuck at a fixed value; rewrites cannot clear it.
    StuckAt,
    /// A line fails to read a bounded number of times, then succeeds
    /// (the retry-with-backoff path).
    TransientRead,
    /// A whole bank fail-stops at the power event: its lines (and any
    /// queued writes headed there) are lost.
    BankFail,
}

impl FaultClass {
    /// Every fault class, in the order the torture campaign sweeps them.
    pub const ALL: [FaultClass; 6] = [
        FaultClass::Torn,
        FaultClass::BitFlip,
        FaultClass::DoubleFlip,
        FaultClass::StuckAt,
        FaultClass::TransientRead,
        FaultClass::BankFail,
    ];

    /// Stable CLI spelling of the class.
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::Torn => "torn",
            FaultClass::BitFlip => "bit-flip",
            FaultClass::DoubleFlip => "double-flip",
            FaultClass::StuckAt => "stuck-at",
            FaultClass::TransientRead => "transient-read",
            FaultClass::BankFail => "bank-fail",
        }
    }

    /// Parses a CLI spelling ([`Self::name`], case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.to_ascii_lowercase();
        Self::ALL.into_iter().find(|c| c.name() == s)
    }

    /// True for classes applied while draining the write queue at the
    /// power event (the controller's snapshot), as opposed to striking
    /// the settled crash image afterwards.
    pub fn is_power_event(self) -> bool {
        matches!(self, FaultClass::Torn | FaultClass::BankFail)
    }
}

impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One reproducible injection: a class plus the seed that fixes every
/// choice it makes (victim line, bit, tear cut/mask, failed bank, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultSpec {
    /// What kind of fault to inject.
    pub class: FaultClass,
    /// Seed for all of the injection's random choices.
    pub seed: u64,
}

/// How a checked media read fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MediaError {
    /// The read failed this time; a retry may succeed.
    Transient,
    /// ECC detected an uncorrectable (multi-bit) error.
    Corrupt,
    /// The line resides on a failed bank; its contents are gone.
    Lost,
}

impl std::fmt::Display for MediaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MediaError::Transient => f.write_str("transient read failure"),
            MediaError::Corrupt => f.write_str("uncorrectable ECC error"),
            MediaError::Lost => f.write_str("line lost with its failed bank"),
        }
    }
}

/// The drain-time tear an interrupted flush applies (from
/// [`FaultPlan::drain_tear`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainTear {
    /// Index (in drain order) of the queue entry that tears; entries
    /// after it are dropped entirely.
    pub cut: usize,
    /// 8-bit word mask for the torn entry: bit `w` set means 8-byte
    /// word `w` of the new payload landed; clear means the old word
    /// survived. Always mixes both (never 0x00 or 0xFF).
    pub mask: u8,
}

/// Tallies of what the media did to checked reads (diagnostics and the
/// torture campaign's detection evidence).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Single-bit errors ECC corrected transparently.
    pub ecc_corrections: u64,
    /// Multi-bit errors ECC detected ([`MediaError::Corrupt`] returns).
    pub ecc_detections: u64,
    /// Reads that failed transiently.
    pub transient_failures: u64,
    /// Reads of lines lost with a failed bank.
    pub lost_reads: u64,
    /// Writes dropped because their line sits on a failed bank.
    pub dropped_writes: u64,
    /// Queue entries torn or dropped by an interrupted drain.
    pub torn_entries: u64,
}

impl FaultCounters {
    /// True if any read came back wrong or failed in a *detectable* way
    /// (everything except silently-corrected single-bit flips).
    pub fn any_detected(&self) -> bool {
        self.ecc_detections > 0 || self.lost_reads > 0 || self.transient_failures > 0
    }
}

/// XORs a wrong-bit mask into its line-sized representation.
fn set_mask_bit(mask: &mut LineData, bit: usize) {
    mask[bit / 8] ^= 1 << (bit % 8);
}

/// Mixes `old` and `new` 8-byte words per a [`DrainTear`] mask.
pub fn tear_line(old: &LineData, new: &LineData, mask: u8) -> LineData {
    let mut out = *old;
    for w in 0..8 {
        if mask & (1 << w) != 0 {
            out[w * 8..(w + 1) * 8].copy_from_slice(&new[w * 8..(w + 1) * 8]);
        }
    }
    out
}

/// The seeded fault state attached to an [`NvmStore`](crate::NvmStore).
///
/// The store keeps true bytes; the plan keeps the media's *disagreement*
/// with them. [`NvmStore::read_data_checked`](crate::NvmStore::read_data_checked) and
/// [`NvmStore::read_counter_checked`](crate::NvmStore::read_counter_checked) consult the plan; the plain
/// `read_*` accessors bypass it (they model a tool inspecting the
/// simulation, not a device read).
///
/// # Examples
///
/// ```
/// use supermem_nvm::fault::{FaultClass, FaultPlan, FaultSpec, MediaError};
/// use supermem_nvm::{addr::LineAddr, NvmStore};
///
/// let mut store = NvmStore::new();
/// store.write_data(LineAddr(0x40), [7; 64]);
/// let mut plan = FaultPlan::new(FaultSpec { class: FaultClass::DoubleFlip, seed: 1 });
/// plan.flip_data_bit(LineAddr(0x40), 0);
/// plan.flip_data_bit(LineAddr(0x40), 9);
/// store.attach_faults(plan);
/// assert_eq!(store.read_data_checked(LineAddr(0x40)), Err(MediaError::Corrupt));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    spec: Option<FaultSpec>,
    /// Wrong-bit XOR masks per data line (what the media returns wrong).
    flip_data: FxHashMap<u64, LineData>,
    /// Wrong-bit XOR masks per counter line.
    flip_counters: FxHashMap<u64, LineData>,
    /// Stuck cells in data lines: line → (bit index, forced value).
    /// Stuck cells survive rewrites — the wrongness is recomputed from
    /// the currently stored bit on every read.
    stuck_data: FxHashMap<u64, (usize, bool)>,
    /// Remaining transient failures per data line.
    transient_data: FxHashMap<u64, u32>,
    /// Remaining transient failures per counter line.
    transient_counters: FxHashMap<u64, u32>,
    /// Data lines lost with a failed bank.
    lost_data: FxHashSet<u64>,
    /// Counter lines lost with a failed bank.
    lost_counters: FxHashSet<u64>,
    /// Wrong-bit XOR masks per integrity-tree node line.
    flip_tree: FxHashMap<u64, LineData>,
    /// Remaining transient failures per tree node line.
    transient_tree: FxHashMap<u64, u32>,
    /// Tree node lines lost with a failed bank.
    lost_tree: FxHashSet<u64>,
    counters: FaultCounters,
}

impl FaultPlan {
    /// An empty plan carrying the spec that will drive its choices.
    pub fn new(spec: FaultSpec) -> Self {
        Self {
            spec: Some(spec),
            ..Self::default()
        }
    }

    /// The spec this plan was built from, if any.
    pub fn spec(&self) -> Option<FaultSpec> {
        self.spec
    }

    /// Read-side tallies so far.
    pub fn counters(&self) -> FaultCounters {
        self.counters
    }

    /// Seeded drain tear for a queue of `entries` writes, or `None`
    /// unless this plan's class is [`FaultClass::Torn`].
    pub fn drain_tear(&self, entries: usize) -> Option<DrainTear> {
        let spec = self.spec?;
        if spec.class != FaultClass::Torn || entries == 0 {
            return None;
        }
        let mut rng = SplitMix64::new(spec.seed ^ 0x7EA2_11FE);
        let cut = rng.next_below(entries as u64) as usize;
        // 1..=254 guarantees the torn line mixes old and new words.
        let mask = rng.next_range(1, 255) as u8;
        Some(DrainTear { cut, mask })
    }

    /// Seeded failed-bank choice among `banks`, or `None` unless this
    /// plan's class is [`FaultClass::BankFail`].
    pub fn failed_bank(&self, banks: usize) -> Option<usize> {
        let spec = self.spec?;
        if spec.class != FaultClass::BankFail || banks == 0 {
            return None;
        }
        let mut rng = SplitMix64::new(spec.seed ^ 0xBA17_F41E);
        Some(rng.next_below(banks as u64) as usize)
    }

    /// Marks a data line as lost with its failed bank.
    pub fn note_lost_data(&mut self, line: LineAddr) {
        self.lost_data.insert(line.0);
    }

    /// Marks a counter line as lost with its failed bank.
    pub fn note_lost_counter(&mut self, page: PageId) {
        self.lost_counters.insert(page.0);
    }

    /// Records one queue entry torn or dropped by an interrupted drain.
    pub fn note_torn_entry(&mut self) {
        self.counters.torn_entries += 1;
    }

    /// Flips one media bit of a data line (read-side XOR).
    pub fn flip_data_bit(&mut self, line: LineAddr, bit: usize) {
        assert!(bit < LINE_BITS, "bit index out of line");
        set_mask_bit(self.flip_data.entry(line.0).or_insert([0; LINE_BYTES]), bit);
    }

    /// Flips one media bit of a counter line (read-side XOR).
    pub fn flip_counter_bit(&mut self, page: PageId, bit: usize) {
        assert!(bit < LINE_BITS, "bit index out of line");
        set_mask_bit(
            self.flip_counters.entry(page.0).or_insert([0; LINE_BYTES]),
            bit,
        );
    }

    /// Sticks one cell of a data line at `forced`. Unlike a flip, the
    /// stuck cell persists across rewrites.
    pub fn stick_data_cell(&mut self, line: LineAddr, bit: usize, forced: bool) {
        assert!(bit < LINE_BITS, "bit index out of line");
        self.stuck_data.insert(line.0, (bit, forced));
    }

    /// Makes the next `times` checked reads of a data line fail
    /// transiently.
    pub fn fail_data_reads(&mut self, line: LineAddr, times: u32) {
        self.transient_data.insert(line.0, times);
    }

    /// Makes the next `times` checked reads of a counter line fail
    /// transiently.
    pub fn fail_counter_reads(&mut self, page: PageId, times: u32) {
        self.transient_counters.insert(page.0, times);
    }

    /// Resolves a checked read of a data line whose stored (true) bytes
    /// are `stored`, applying loss, transient failure, and the SECDED
    /// correct-vs-detect model, in that order.
    pub fn filter_data_read(
        &mut self,
        line: LineAddr,
        stored: LineData,
    ) -> Result<LineData, MediaError> {
        if self.lost_data.contains(&line.0) {
            self.counters.lost_reads += 1;
            return Err(MediaError::Lost);
        }
        if let Some(left) = self.transient_data.get_mut(&line.0) {
            if *left > 0 {
                *left -= 1;
                self.counters.transient_failures += 1;
                return Err(MediaError::Transient);
            }
        }
        let mut mask = self
            .flip_data
            .get(&line.0)
            .copied()
            .unwrap_or([0; LINE_BYTES]);
        if let Some(&(bit, forced)) = self.stuck_data.get(&line.0) {
            let stored_bit = stored[bit / 8] >> (bit % 8) & 1 == 1;
            if stored_bit != forced {
                set_mask_bit(&mut mask, bit);
            }
        }
        self.resolve_ecc(stored, &mask)
    }

    /// [`Self::filter_data_read`] for a counter line.
    pub fn filter_counter_read(
        &mut self,
        page: PageId,
        stored: LineData,
    ) -> Result<LineData, MediaError> {
        if self.lost_counters.contains(&page.0) {
            self.counters.lost_reads += 1;
            return Err(MediaError::Lost);
        }
        if let Some(left) = self.transient_counters.get_mut(&page.0) {
            if *left > 0 {
                *left -= 1;
                self.counters.transient_failures += 1;
                return Err(MediaError::Transient);
            }
        }
        let mask = self
            .flip_counters
            .get(&page.0)
            .copied()
            .unwrap_or([0; LINE_BYTES]);
        self.resolve_ecc(stored, &mask)
    }

    /// SECDED: 0 wrong bits pass, 1 is corrected back to the stored
    /// truth, ≥2 are detected.
    fn resolve_ecc(&mut self, stored: LineData, mask: &LineData) -> Result<LineData, MediaError> {
        let wrong: u32 = mask.iter().map(|b| b.count_ones()).sum();
        match wrong {
            0 => Ok(stored),
            1 => {
                self.counters.ecc_corrections += 1;
                Ok(stored)
            }
            _ => {
                self.counters.ecc_detections += 1;
                Err(MediaError::Corrupt)
            }
        }
    }

    /// Called when a data line is rewritten: a full-line write replaces
    /// every cell, clearing pending flips. Stuck cells persist, and a
    /// write to a lost line is dropped (returns `false`).
    pub fn admit_data_write(&mut self, line: LineAddr) -> bool {
        if self.lost_data.contains(&line.0) {
            self.counters.dropped_writes += 1;
            return false;
        }
        self.flip_data.remove(&line.0);
        true
    }

    /// [`Self::admit_data_write`] for a counter line.
    pub fn admit_counter_write(&mut self, page: PageId) -> bool {
        if self.lost_counters.contains(&page.0) {
            self.counters.dropped_writes += 1;
            return false;
        }
        self.flip_counters.remove(&page.0);
        true
    }

    /// Flips one media bit of an integrity-tree node line (read-side
    /// XOR).
    pub fn flip_tree_bit(&mut self, line: u64, bit: usize) {
        assert!(bit < LINE_BITS, "bit index out of line");
        set_mask_bit(self.flip_tree.entry(line).or_insert([0; LINE_BYTES]), bit);
    }

    /// Makes the next `times` checked reads of a tree node line fail
    /// transiently.
    pub fn fail_tree_reads(&mut self, line: u64, times: u32) {
        self.transient_tree.insert(line, times);
    }

    /// Marks a tree node line as lost with its failed bank.
    pub fn note_lost_tree(&mut self, line: u64) {
        self.lost_tree.insert(line);
    }

    /// [`Self::filter_data_read`] for an integrity-tree node line.
    pub fn filter_tree_read(
        &mut self,
        line: u64,
        stored: LineData,
    ) -> Result<LineData, MediaError> {
        if self.lost_tree.contains(&line) {
            self.counters.lost_reads += 1;
            return Err(MediaError::Lost);
        }
        if let Some(left) = self.transient_tree.get_mut(&line) {
            if *left > 0 {
                *left -= 1;
                self.counters.transient_failures += 1;
                return Err(MediaError::Transient);
            }
        }
        let mask = self
            .flip_tree
            .get(&line)
            .copied()
            .unwrap_or([0; LINE_BYTES]);
        self.resolve_ecc(stored, &mask)
    }

    /// [`Self::admit_data_write`] for an integrity-tree node line.
    pub fn admit_tree_write(&mut self, line: u64) -> bool {
        if self.lost_tree.contains(&line) {
            self.counters.dropped_writes += 1;
            return false;
        }
        self.flip_tree.remove(&line);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: LineAddr = LineAddr(0x40);
    const PAGE: PageId = PageId(3);

    fn plan(class: FaultClass, seed: u64) -> FaultPlan {
        FaultPlan::new(FaultSpec { class, seed })
    }

    #[test]
    fn class_names_round_trip() {
        for c in FaultClass::ALL {
            assert_eq!(FaultClass::parse(c.name()), Some(c));
            assert_eq!(FaultClass::parse(&c.name().to_uppercase()), Some(c));
        }
        assert_eq!(FaultClass::parse("nonsense"), None);
    }

    #[test]
    fn single_flip_is_corrected_to_the_truth() {
        let mut p = plan(FaultClass::BitFlip, 7);
        p.flip_data_bit(LINE, 13);
        let got = p.filter_data_read(LINE, [0xAB; 64]).unwrap();
        assert_eq!(got, [0xAB; 64], "SECDED must correct a single flip");
        assert_eq!(p.counters().ecc_corrections, 1);
        assert_eq!(p.counters().ecc_detections, 0);
    }

    #[test]
    fn double_flip_is_detected_not_corrected() {
        let mut p = plan(FaultClass::DoubleFlip, 7);
        p.flip_data_bit(LINE, 13);
        p.flip_data_bit(LINE, 200);
        assert_eq!(
            p.filter_data_read(LINE, [0xAB; 64]),
            Err(MediaError::Corrupt)
        );
        assert_eq!(p.counters().ecc_detections, 1);
    }

    #[test]
    fn rewrite_clears_flips_but_not_stuck_cells() {
        let mut p = plan(FaultClass::StuckAt, 7);
        p.flip_data_bit(LINE, 0);
        p.flip_data_bit(LINE, 1);
        assert!(p.admit_data_write(LINE));
        assert_eq!(p.filter_data_read(LINE, [0; 64]).unwrap(), [0; 64]);

        // A cell stuck at 1 re-corrupts any rewrite that stores a 0 there.
        p.stick_data_cell(LINE, 8, true);
        assert!(p.admit_data_write(LINE));
        p.filter_data_read(LINE, [0; 64]).unwrap();
        assert_eq!(p.counters().ecc_corrections, 1);
        // Storing a 1 in the stuck cell reads clean.
        let mut agreeing = [0u8; 64];
        agreeing[1] = 1;
        p.filter_data_read(LINE, agreeing).unwrap();
        assert_eq!(p.counters().ecc_corrections, 1);
    }

    #[test]
    fn transient_reads_fail_then_recover() {
        let mut p = plan(FaultClass::TransientRead, 7);
        p.fail_data_reads(LINE, 2);
        assert_eq!(
            p.filter_data_read(LINE, [5; 64]),
            Err(MediaError::Transient)
        );
        assert_eq!(
            p.filter_data_read(LINE, [5; 64]),
            Err(MediaError::Transient)
        );
        assert_eq!(p.filter_data_read(LINE, [5; 64]), Ok([5; 64]));
        assert_eq!(p.counters().transient_failures, 2);
    }

    #[test]
    fn lost_lines_stay_lost_and_drop_writes() {
        let mut p = plan(FaultClass::BankFail, 7);
        p.note_lost_data(LINE);
        p.note_lost_counter(PAGE);
        assert_eq!(p.filter_data_read(LINE, [5; 64]), Err(MediaError::Lost));
        assert_eq!(p.filter_counter_read(PAGE, [5; 64]), Err(MediaError::Lost));
        assert!(!p.admit_data_write(LINE));
        assert!(!p.admit_counter_write(PAGE));
        // Still lost after the dropped write.
        assert_eq!(p.filter_data_read(LINE, [5; 64]), Err(MediaError::Lost));
        assert_eq!(p.filter_counter_read(PAGE, [5; 64]), Err(MediaError::Lost));
        assert_eq!(p.counters().dropped_writes, 2);
    }

    #[test]
    fn drain_tear_is_seeded_and_always_mixes() {
        let p = plan(FaultClass::Torn, 42);
        let t = p.drain_tear(10).unwrap();
        assert_eq!(p.drain_tear(10).unwrap(), t, "same seed, same tear");
        for seed in 0..64 {
            let t = plan(FaultClass::Torn, seed).drain_tear(10).unwrap();
            assert!(t.cut < 10);
            assert!(t.mask != 0 && t.mask != 0xFF, "mask must mix old and new");
        }
        assert!(plan(FaultClass::BitFlip, 42).drain_tear(10).is_none());
        assert!(p.drain_tear(0).is_none());
    }

    #[test]
    fn failed_bank_is_seeded_and_class_gated() {
        let p = plan(FaultClass::BankFail, 42);
        let b = p.failed_bank(8).unwrap();
        assert!(b < 8);
        assert_eq!(p.failed_bank(8).unwrap(), b);
        assert!(plan(FaultClass::Torn, 42).failed_bank(8).is_none());
    }

    #[test]
    fn tear_line_mixes_words_per_mask() {
        let old = [0x11u8; 64];
        let new = [0x22u8; 64];
        let torn = tear_line(&old, &new, 0b0000_0101);
        assert_eq!(&torn[0..8], &[0x22; 8]);
        assert_eq!(&torn[8..16], &[0x11; 8]);
        assert_eq!(&torn[16..24], &[0x22; 8]);
        assert_eq!(&torn[24..64], &[0x11; 40]);
        assert_eq!(tear_line(&old, &new, 0xFF), new);
        assert_eq!(tear_line(&old, &new, 0x00), old);
    }

    #[test]
    fn counter_flips_mirror_data_flips() {
        let mut p = plan(FaultClass::DoubleFlip, 7);
        p.flip_counter_bit(PAGE, 0);
        assert_eq!(p.filter_counter_read(PAGE, [9; 64]), Ok([9; 64]));
        p.flip_counter_bit(PAGE, 100);
        assert_eq!(
            p.filter_counter_read(PAGE, [9; 64]),
            Err(MediaError::Corrupt)
        );
        assert!(p.admit_counter_write(PAGE));
        assert_eq!(p.filter_counter_read(PAGE, [9; 64]), Ok([9; 64]));
    }
}
