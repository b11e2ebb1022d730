//! The CPU-side cache hierarchy.
//!
//! Private L1/L2 per core and a shared L3, all write-back/write-allocate
//! with 64-byte lines, holding *plaintext*. The hierarchy is inclusive:
//! an L3 eviction back-invalidates inner copies and merges the newest
//! dirty data so no bytes are ever silently dropped — except at a crash,
//! when [`CacheHierarchy::discard`] throws everything away, which is the
//! whole reason persistent-memory programs issue `clwb`.
//!
//! The hierarchy is purely reactive: methods return the lines that must
//! travel to the memory controller (dirty evictions, flushed lines); the
//! caller owns all interaction with the encrypted write path.

use supermem_nvm::addr::LineAddr;
use supermem_nvm::LineData;
use supermem_sim::{Config, Cycle};

use crate::setassoc::{Evicted, SetAssocCache};

/// A dirty line leaving the hierarchy toward the memory controller.
pub type Writeback = (LineAddr, LineData);

/// The dirty lines the current [`CacheHierarchy::load`] or
/// [`CacheHierarchy::fill`] displaces toward memory, kept inline in the
/// hierarchy and lent out as a slice: a fill displaces at most one line
/// per level, so three slots always suffice, and no call allocates.
#[derive(Debug, Clone)]
struct Writebacks {
    len: usize,
    lines: [Writeback; 3],
}

/// Result of a load probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadResult<'a> {
    /// The line contents if any level hit.
    pub data: Option<LineData>,
    /// Core-visible latency of the probe (sum of traversed levels).
    pub latency: Cycle,
    /// Which level hit: 1, 2, 3, or 0 for a full miss.
    pub level: u8,
    /// Dirty lines displaced to memory by promotions.
    pub writebacks: &'a [Writeback],
}

/// The simulated L1/L2/L3 cache hierarchy.
///
/// # Examples
///
/// ```
/// use supermem_cache::CacheHierarchy;
/// use supermem_nvm::addr::LineAddr;
/// use supermem_sim::Config;
///
/// let mut h = CacheHierarchy::new(&Config::default());
/// let line = LineAddr(0x1000);
/// assert!(h.load(0, line).data.is_none()); // cold miss
/// h.fill(0, line, [7u8; 64]);
/// assert_eq!(h.load(0, line).data, Some([7u8; 64]));
/// ```
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: Vec<SetAssocCache<LineData>>,
    l2: Vec<SetAssocCache<LineData>>,
    l3: SetAssocCache<LineData>,
    l1_latency: Cycle,
    l2_latency: Cycle,
    l3_latency: Cycle,
    /// `log2(line_bytes)`: line sizes are powers of two.
    line_shift: u32,
    wb: Writebacks,
}

impl CacheHierarchy {
    /// Builds the hierarchy described by `cfg` (sizes, ways, latencies,
    /// core count).
    ///
    /// # Panics
    ///
    /// Panics if the line size is not a power of two (which
    /// [`Config::validate`] rejects).
    pub fn new(cfg: &Config) -> Self {
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let mk = |bytes: u64, ways: usize| {
            SetAssocCache::with_geometry(bytes, cfg.line_bytes, ways, [0; 64])
        };
        Self {
            l1: (0..cfg.cores)
                .map(|_| mk(cfg.l1_bytes, cfg.l1_ways))
                .collect(),
            l2: (0..cfg.cores)
                .map(|_| mk(cfg.l2_bytes, cfg.l2_ways))
                .collect(),
            l3: mk(cfg.l3_bytes, cfg.l3_ways),
            l1_latency: cfg.l1_latency,
            l2_latency: cfg.l2_latency,
            l3_latency: cfg.l3_latency,
            line_shift: cfg.line_bytes.trailing_zeros(),
            wb: Writebacks {
                len: 0,
                lines: [(LineAddr(0), [0; 64]); 3],
            },
        }
    }

    fn key(&self, line: LineAddr) -> u64 {
        line.0 >> self.line_shift
    }

    /// Probes L1→L2→L3 for `line` on behalf of `core`.
    ///
    /// On an inner miss with an outer hit, the line is promoted into the
    /// inner levels; promotions may displace dirty lines all the way to
    /// memory, lent out in [`LoadResult::writebacks`].
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn load(&mut self, core: usize, line: LineAddr) -> LoadResult<'_> {
        let key = self.key(line);
        self.wb.len = 0;
        let (data, level) = if let Some(data) = self.l1[core].get(key) {
            (Some(*data), 1)
        } else if let Some(data) = self.l2[core].get(key).copied() {
            self.install_l1(core, key, data, false, true);
            (Some(data), 2)
        } else if let Some(data) = self.l3.get(key).copied() {
            self.install_l2(core, key, data, false, true);
            self.install_l1(core, key, data, false, true);
            (Some(data), 3)
        } else {
            (None, 0)
        };
        let latency = match level {
            1 => self.l1_latency,
            2 => self.l1_latency + self.l2_latency,
            _ => self.l1_latency + self.l2_latency + self.l3_latency,
        };
        LoadResult {
            data,
            latency,
            level,
            writebacks: &self.wb.lines[..self.wb.len],
        }
    }

    /// The newest cached copy of `line`, if any level of any core holds
    /// it, with no effect on LRU state, dirty bits or hit counts. The
    /// hierarchy is inclusive and every store updates the copies it
    /// keeps, so the shared L3 holds every resident line at its newest
    /// value.
    pub fn peek(&self, line: LineAddr) -> Option<LineData> {
        self.l3.peek(self.key(line)).copied()
    }

    /// Installs a line fetched from memory into all levels (inclusive
    /// fill). Returns dirty displacements toward memory.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn fill(&mut self, core: usize, line: LineAddr, data: LineData) -> &[Writeback] {
        let key = self.key(line);
        self.wb.len = 0;
        // Inclusion: a line missing from L3 is missing everywhere.
        let absent = self.l3.peek(key).is_none();
        self.install_l3(key, data, false, absent);
        self.install_l2(core, key, data, false, absent);
        self.install_l1(core, key, data, false, absent);
        &self.wb.lines[..self.wb.len]
    }

    /// Overwrites a line that is resident in L1 and marks it dirty.
    /// Returns the L1 store latency.
    ///
    /// Callers establish residency with [`Self::load`] + [`Self::fill`]
    /// first (write-allocate). The store invalidates every *other*
    /// core's private copy of the line (write-invalidate coherence), so
    /// a sharing core's next load misses its private levels and picks
    /// up the new value from the shared L3.
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident in the core's L1 — that is a
    /// protocol violation by the caller, not a recoverable condition.
    pub fn store(&mut self, core: usize, line: LineAddr, data: LineData) -> Cycle {
        let key = self.key(line);
        let (slot, dirty) = self.l1[core]
            .get_entry(key)
            .expect("store to a non-resident line: load/fill first (write-allocate)");
        *slot = data;
        *dirty = true;
        // Keep outer copies value-coherent (single-copy semantics of a
        // real coherent hierarchy): a later L2/L3 hit must never serve a
        // version older than what `clwb` already persisted.
        self.l2[core].set_value_quiet(key, data);
        self.l3.set_value_quiet(key, data);
        // Write-invalidate: other cores' private copies are now stale.
        // Their next load falls through to the shared (value-coherent)
        // L3, which is how shared lock-free structures observe each
        // other's CAS publications. An empty private cache cannot hold
        // the line.
        for (c, l1) in self.l1.iter_mut().enumerate() {
            if c != core && !l1.is_empty() {
                l1.remove(key);
            }
        }
        for (c, l2) in self.l2.iter_mut().enumerate() {
            if c != core && !l2.is_empty() {
                l2.remove(key);
            }
        }
        self.l1_latency
    }

    /// `clwb`-style flush: if the line is dirty anywhere, returns the
    /// newest copy (L1 wins over L2 over L3) and clears all dirty bits,
    /// leaving the line resident. Returns `None` when the line is clean
    /// or absent (a `clwb` of a clean line is a no-op at the memory).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn flush_line(&mut self, core: usize, line: LineAddr) -> (Option<LineData>, Cycle) {
        let key = self.key(line);
        // Every level is cleaned; an inner (newer) dirty copy wins.
        let l3 = self.l3.take_dirty(key).copied();
        let l2 = self.l2[core].take_dirty(key).copied();
        let l1 = self.l1[core].take_dirty(key).copied();
        (l1.or(l2).or(l3), self.l1_latency)
    }

    /// Drops every cached line (simulated power failure). Dirty data is
    /// lost, exactly as on real hardware.
    pub fn discard(&mut self) {
        for c in &mut self.l1 {
            c.drain();
        }
        for c in &mut self.l2 {
            c.drain();
        }
        self.l3.drain();
    }

    /// Flushes every dirty line out of the hierarchy (clean shutdown /
    /// end-of-run accounting). Inner copies win over outer ones.
    pub fn drain_dirty(&mut self) -> Vec<Writeback> {
        // Outer to inner, so among one line's copies the innermost comes
        // last and wins the dedup below.
        let mut dirty: Vec<(u64, LineData)> = Vec::new();
        let levels = std::iter::once(&mut self.l3)
            .chain(&mut self.l2)
            .chain(&mut self.l1);
        for cache in levels {
            dirty.extend(
                cache
                    .drain()
                    .into_iter()
                    .filter(|ev| ev.dirty)
                    .map(|ev| (ev.key, ev.value)),
            );
        }
        // Stable: copies of one line keep their outer-to-inner order.
        dirty.sort_by_key(|&(key, _)| key);
        let mut out: Vec<Writeback> = Vec::with_capacity(dirty.len());
        for (key, data) in dirty {
            let line = LineAddr(key << self.line_shift);
            match out.last_mut() {
                Some(last) if last.0 == line => last.1 = data,
                _ => out.push((line, data)),
            }
        }
        out
    }

    /// Inserts into `core`'s L1; `absent` says the line is known not to
    /// be there, which spares the lookup.
    fn install_l1(&mut self, core: usize, key: u64, data: LineData, dirty: bool, absent: bool) {
        if let Some(ev) = insert(&mut self.l1[core], key, data, dirty, absent) {
            if ev.dirty {
                // Dirty L1 victim sinks into L2.
                self.install_l2(core, ev.key, ev.value, true, false);
            }
        }
    }

    fn install_l2(&mut self, core: usize, key: u64, data: LineData, dirty: bool, absent: bool) {
        if let Some(ev) = insert(&mut self.l2[core], key, data, dirty, absent) {
            if ev.dirty {
                self.install_l3(ev.key, ev.value, true, false);
            }
        }
    }

    fn install_l3(&mut self, key: u64, data: LineData, dirty: bool, absent: bool) {
        let Some(ev) = insert(&mut self.l3, key, data, dirty, absent) else {
            return;
        };
        // Inclusive back-invalidation: pull the newest copy out of the
        // inner levels before the line leaves the hierarchy. An empty
        // private cache cannot hold it.
        let mut newest = ev.value;
        let mut dirty_any = ev.dirty;
        for c in self.l2.iter_mut().chain(&mut self.l1) {
            if c.is_empty() {
                continue;
            }
            if let Some((v, d)) = c.remove(ev.key) {
                if d {
                    newest = v;
                    dirty_any = true;
                }
            }
        }
        if dirty_any {
            self.wb.lines[self.wb.len] = (LineAddr(ev.key << self.line_shift), newest);
            self.wb.len += 1;
        }
    }
}

/// One level's insertion, without the lookup when the line is known to
/// be absent.
fn insert(
    cache: &mut SetAssocCache<LineData>,
    key: u64,
    data: LineData,
    dirty: bool,
    absent: bool,
) -> Option<Evicted<LineData>> {
    if absent {
        cache.insert_absent(key, data, dirty)
    } else {
        cache.insert_with_dirty(key, data, dirty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> Config {
        // Tiny caches so evictions are easy to provoke.
        Config {
            cores: 2,
            l1_bytes: 2 * 64,
            l1_ways: 1,
            l2_bytes: 4 * 64,
            l2_ways: 1,
            l3_bytes: 8 * 64,
            l3_ways: 1,
            ..Config::default()
        }
    }

    #[test]
    fn cold_miss_then_fill_then_hit() {
        let mut h = CacheHierarchy::new(&Config::default());
        let line = LineAddr(0x2000);
        let r = h.load(0, line);
        assert_eq!(r.level, 0);
        assert_eq!(r.latency, 2 + 16 + 30);
        h.fill(0, line, [1; 64]);
        let r = h.load(0, line);
        assert_eq!(r.level, 1);
        assert_eq!(r.latency, 2);
        assert_eq!(r.data, Some([1; 64]));
    }

    #[test]
    fn store_marks_dirty_and_flush_returns_newest() {
        let mut h = CacheHierarchy::new(&Config::default());
        let line = LineAddr(0x40);
        h.fill(0, line, [0; 64]);
        h.store(0, line, [9; 64]);
        let (data, _) = h.flush_line(0, line);
        assert_eq!(data, Some([9; 64]));
        // Second flush is a no-op: the line is clean now.
        let (data, _) = h.flush_line(0, line);
        assert_eq!(data, None);
        // Line stays resident after clwb.
        assert_eq!(h.load(0, line).level, 1);
    }

    #[test]
    #[should_panic(expected = "write-allocate")]
    fn store_requires_residency() {
        let mut h = CacheHierarchy::new(&Config::default());
        h.store(0, LineAddr(0x40), [1; 64]);
    }

    #[test]
    fn l2_hit_promotes_to_l1() {
        let mut h = CacheHierarchy::new(&small_cfg());
        // Two lines in the same L1 set evict each other (1-way 2-set L1:
        // keys 0 and 2 share set 0).
        let a = LineAddr(0);
        let b = LineAddr(2 * 64);
        h.fill(0, a, [1; 64]);
        h.fill(0, b, [2; 64]); // displaces `a` from L1 into L2 path
        let r = h.load(0, a);
        assert!(r.level >= 2, "a must hit an outer level, got {}", r.level);
        let r = h.load(0, a);
        assert_eq!(r.level, 1, "promotion must land a in L1");
    }

    #[test]
    fn dirty_data_survives_eviction_cascade() {
        let mut h = CacheHierarchy::new(&small_cfg());
        let a = LineAddr(0);
        h.fill(0, a, [0; 64]);
        h.store(0, a, [0xAA; 64]);
        // Blow the whole hierarchy with conflicting fills; the dirty line
        // must eventually come back out as a writeback, never vanish.
        let mut writebacks = Vec::new();
        for i in 1..64u64 {
            writebacks.extend_from_slice(h.fill(0, LineAddr(i * 2 * 64 * 8), [i as u8; 64]));
        }
        writebacks.extend(h.drain_dirty());
        let found = writebacks.iter().find(|(l, _)| *l == a);
        assert_eq!(found.map(|(_, d)| *d), Some([0xAA; 64]));
    }

    #[test]
    fn discard_loses_dirty_data() {
        let mut h = CacheHierarchy::new(&Config::default());
        let line = LineAddr(0x80);
        h.fill(0, line, [0; 64]);
        h.store(0, line, [5; 64]);
        h.discard();
        assert!(h.load(0, line).data.is_none());
        assert!(h.drain_dirty().is_empty());
    }

    #[test]
    fn cores_have_private_l1_l2() {
        let mut h = CacheHierarchy::new(&small_cfg());
        let line = LineAddr(0x40);
        h.fill(0, line, [3; 64]);
        // Core 1 misses its private levels but hits shared L3.
        let r = h.load(1, line);
        assert_eq!(r.level, 3);
    }

    #[test]
    fn store_invalidates_other_cores_private_copies() {
        // Core 1 caches a line, core 0 stores to it; core 1's next load
        // must miss its private levels and see the new value from L3.
        let mut h = CacheHierarchy::new(&small_cfg());
        let line = LineAddr(0x40);
        h.fill(1, line, [1; 64]);
        assert_eq!(h.load(1, line).level, 1);
        h.fill(0, line, [1; 64]);
        h.store(0, line, [2; 64]);
        let r = h.load(1, line);
        assert_eq!(r.level, 3, "private copies must have been invalidated");
        assert_eq!(r.data, Some([2; 64]), "L3 must serve the stored value");
        // The writer keeps its own (newest) copy.
        assert_eq!(h.load(0, line).level, 1);
    }

    #[test]
    fn flush_prefers_inner_copy() {
        let mut h = CacheHierarchy::new(&small_cfg());
        let a = LineAddr(0);
        h.fill(0, a, [0; 64]);
        h.store(0, a, [1; 64]);
        // Force `a` out of L1 into L2 (dirty), then re-fill and store a
        // newer value in L1.
        let b = LineAddr(2 * 64);
        h.fill(0, b, [2; 64]);
        let r = h.load(0, a); // promote back (L2 copy dirty, promoted clean copy in L1)
        assert!(r.data.is_some());
        h.store(0, a, [7; 64]); // L1 now has the newest version
        let (data, _) = h.flush_line(0, a);
        assert_eq!(data, Some([7; 64]), "flush must take the L1 copy");
    }

    #[test]
    fn outer_levels_never_serve_stale_data_after_clwb() {
        // Regression: store -> clwb -> clean L1 eviction. A later load
        // hitting L2/L3 must return the stored value, not the stale copy
        // installed at fill time.
        let mut h = CacheHierarchy::new(&small_cfg());
        let a = LineAddr(0);
        h.fill(0, a, [0; 64]); // L1/L2/L3 all hold the old version
        h.store(0, a, [9; 64]);
        let (flushed, _) = h.flush_line(0, a);
        assert_eq!(flushed, Some([9; 64]));
        // Conflict-evict `a` out of L1 (1-way set): key 2 shares set 0.
        h.fill(0, LineAddr(2 * 64), [1; 64]);
        let r = h.load(0, a);
        assert!(r.level >= 2, "must hit an outer level");
        assert_eq!(r.data, Some([9; 64]), "outer copy must be current");
    }

    /// `flush_line` as three probes per level (`is_dirty`, `peek`,
    /// `clear_dirty`), the form `take_dirty` replaced (test-only).
    fn flush_line_reference(
        h: &mut CacheHierarchy,
        core: usize,
        line: LineAddr,
    ) -> Option<LineData> {
        let key = h.key(line);
        let mut newest = None;
        for c in [&mut h.l3, &mut h.l2[core], &mut h.l1[core]] {
            if c.is_dirty(key) {
                newest = c.peek(key).copied();
            }
            c.clear_dirty(key);
        }
        newest
    }

    #[test]
    fn flush_line_matches_the_three_probe_reference() {
        use supermem_sim::SplitMix64;
        let mut rng = SplitMix64::new(0xC1B);
        for _ in 0..32 {
            let mut h = CacheHierarchy::new(&small_cfg());
            let mut reference = h.clone();
            for step in 0..300u64 {
                let core = rng.next_below(2) as usize;
                let line = LineAddr(rng.next_below(24) * 64);
                match rng.next_below(4) {
                    0 => {
                        assert_eq!(
                            h.fill(core, line, [step as u8; 64]),
                            reference.fill(core, line, [step as u8; 64])
                        );
                    }
                    1 => {
                        if h.load(core, line).data.is_none() {
                            h.fill(core, line, [0; 64]);
                            reference.load(core, line);
                            reference.fill(core, line, [0; 64]);
                        } else {
                            reference.load(core, line);
                        }
                        h.store(core, line, [step as u8; 64]);
                        reference.store(core, line, [step as u8; 64]);
                    }
                    2 => {
                        assert_eq!(h.load(core, line).data, reference.load(core, line).data);
                    }
                    _ => {
                        let (got, _) = h.flush_line(core, line);
                        assert_eq!(got, flush_line_reference(&mut reference, core, line));
                    }
                }
            }
            assert_eq!(h.drain_dirty(), reference.drain_dirty());
        }
    }

    #[test]
    fn drain_dirty_reports_each_line_once() {
        let mut h = CacheHierarchy::new(&Config::default());
        for i in 0..8u64 {
            let line = LineAddr(i * 64);
            h.fill(0, line, [0; 64]);
            h.store(0, line, [i as u8 + 1; 64]);
        }
        let wbs = h.drain_dirty();
        assert_eq!(wbs.len(), 8);
        let mut addrs: Vec<u64> = wbs.iter().map(|(l, _)| l.0).collect();
        addrs.dedup();
        assert_eq!(addrs.len(), 8);
    }
}
