//! The model checker's memory: an exact persistence model with a
//! persist log and per-core coherence.
//!
//! [`ModelMem`] implements [`PMem`] with two images:
//!
//! * the **volatile** image — what loads observe (modulo per-core
//!   caches, below);
//! * the **durable** image — what a crash preserves. `clwb` marks
//!   lines; `sfence` commits every marked line to the durable image
//!   *and appends one [`PersistEntry`] to the persist log* recording
//!   exactly which line values became durable.
//!
//! The log is what makes crash exploration cheap: one execution of a
//! schedule yields *every* crash image — replay the log prefix up to
//! persist `k` over the epoch-base snapshot. (No spontaneous eviction
//! is modeled; the serving protocol persists every store immediately,
//! so its durable image is exact. Eviction-racing bugs are the torture
//! harness's department.)
//!
//! Coherence is modeled with per-core caches: a load fills the reading
//! core's cache, a store updates the volatile image and the writing
//! core's cache and — unless the *drop-invalidation* mutation is armed
//! — invalidates the line in every other core's cache. Healthy
//! execution therefore behaves exactly like a single shared image; the
//! mutation makes stale reads (lost updates) expressible.

use std::collections::{BTreeMap, BTreeSet};

use supermem_persist::PMem;

/// One 64-byte line image.
pub type Line = [u8; 64];

/// One `sfence` that made lines durable: the action (schedule index)
/// it happened in and the line values that became durable.
#[derive(Debug, Clone)]
pub struct PersistEntry {
    /// Index of the schedule action this persist ran inside.
    pub action: u64,
    /// `(line address, durable bytes)` for every line committed.
    pub lines: Vec<(u64, Line)>,
}

/// Exact-persistence, coherence-modeled memory for model checking.
#[derive(Debug, Clone)]
pub struct ModelMem {
    volatile: BTreeMap<u64, Line>,
    durable: BTreeMap<u64, Line>,
    /// Lines `clwb`-marked since the last `sfence`.
    marked: BTreeSet<u64>,
    log: Vec<PersistEntry>,
    /// Durable snapshot at [`mark_epoch`](ModelMem::mark_epoch).
    epoch_base: BTreeMap<u64, Line>,
    /// Log length at the epoch mark.
    epoch_log: usize,
    caches: Vec<BTreeMap<u64, Line>>,
    core: usize,
    drop_invalidation: bool,
    action: u64,
    touched: BTreeSet<u64>,
}

impl ModelMem {
    /// An all-zero memory serving `cores` cores (core 0 active).
    pub fn new(cores: usize) -> Self {
        Self {
            volatile: BTreeMap::new(),
            durable: BTreeMap::new(),
            marked: BTreeSet::new(),
            log: Vec::new(),
            epoch_base: BTreeMap::new(),
            epoch_log: 0,
            caches: vec![BTreeMap::new(); cores.max(1)],
            core: 0,
            drop_invalidation: false,
            action: 0,
            touched: BTreeSet::new(),
        }
    }

    /// A memory whose volatile *and* durable images both equal `image`
    /// — a machine rebooting into a crash image (caches cold).
    pub fn from_image(image: BTreeMap<u64, Line>, cores: usize) -> Self {
        Self {
            volatile: image.clone(),
            durable: image,
            ..Self::new(cores)
        }
    }

    /// Selects the core whose cache subsequent accesses use.
    fn set_core(&mut self, core: usize) {
        assert!(core < self.caches.len(), "core {core} out of range");
        self.core = core;
    }

    /// Arms the *drop cross-core invalidation* mutation: stores stop
    /// invalidating other cores' cached lines.
    pub fn set_drop_invalidation(&mut self, drop: bool) {
        self.drop_invalidation = drop;
    }

    /// Starts one schedule action for `core`: persists logged from here
    /// carry `action`, and the footprint resets.
    pub fn begin_action(&mut self, action: u64, core: usize) {
        self.set_core(core);
        self.action = action;
        self.touched.clear();
    }

    /// Lines read or written since [`begin_action`], for independence
    /// checks.
    ///
    /// [`begin_action`]: ModelMem::begin_action
    pub fn take_footprint(&mut self) -> BTreeSet<u64> {
        std::mem::take(&mut self.touched)
    }

    /// Marks the start of the measured epoch: crash points count from
    /// here, over the current durable image.
    pub fn mark_epoch(&mut self) {
        assert!(self.marked.is_empty(), "epoch marked with pending clwbs");
        self.epoch_base = self.durable.clone();
        self.epoch_log = self.log.len();
    }

    /// Number of persists (non-empty `sfence`s) since the epoch mark.
    pub fn persist_count(&self) -> usize {
        self.log.len() - self.epoch_log
    }

    /// The action index the `k`-th post-epoch persist ran inside
    /// (1-based `k`).
    pub fn persist_action(&self, k: usize) -> u64 {
        assert!(
            k >= 1 && k <= self.persist_count(),
            "persist {k} out of range"
        );
        self.log[self.epoch_log + k - 1].action
    }

    /// The durable image after the `k`-th post-epoch persist (`k == 0`
    /// is the epoch-base image; `k == persist_count()` the final one).
    pub fn durable_image_after(&self, k: usize) -> BTreeMap<u64, Line> {
        assert!(k <= self.persist_count(), "persist {k} out of range");
        let mut image = self.epoch_base.clone();
        for entry in &self.log[self.epoch_log..self.epoch_log + k] {
            for &(addr, line) in &entry.lines {
                image.insert(addr, line);
            }
        }
        image
    }

    /// Reads the line through the current core's cache, filling on
    /// miss.
    fn load_line(&mut self, line: u64) -> Line {
        if let Some(&cached) = self.caches[self.core].get(&line) {
            return cached;
        }
        let fresh = self.volatile.get(&line).copied().unwrap_or([0; 64]);
        self.caches[self.core].insert(line, fresh);
        fresh
    }
}

impl PMem for ModelMem {
    fn read(&mut self, addr: u64, buf: &mut [u8]) {
        let mut off = 0usize;
        let mut a = addr;
        while off < buf.len() {
            let line = a & !63;
            let lo = (a - line) as usize;
            let n = (64 - lo).min(buf.len() - off);
            let src = self.load_line(line);
            buf[off..off + n].copy_from_slice(&src[lo..lo + n]);
            self.touched.insert(line);
            off += n;
            a += n as u64;
        }
    }

    fn write(&mut self, addr: u64, bytes: &[u8]) {
        let mut off = 0usize;
        let mut a = addr;
        while off < bytes.len() {
            let line = a & !63;
            let lo = (a - line) as usize;
            let n = (64 - lo).min(bytes.len() - off);
            let mut cur = self.volatile.get(&line).copied().unwrap_or([0; 64]);
            cur[lo..lo + n].copy_from_slice(&bytes[off..off + n]);
            self.volatile.insert(line, cur);
            self.caches[self.core].insert(line, cur);
            if !self.drop_invalidation {
                for (c, cache) in self.caches.iter_mut().enumerate() {
                    if c != self.core {
                        cache.remove(&line);
                    }
                }
            }
            self.touched.insert(line);
            off += n;
            a += n as u64;
        }
    }

    fn clwb(&mut self, addr: u64, len: u64) {
        let mut line = addr & !63;
        while line < addr + len.max(1) {
            self.marked.insert(line);
            line += 64;
        }
    }

    fn sfence(&mut self) {
        if self.marked.is_empty() {
            return;
        }
        let lines: Vec<(u64, Line)> = std::mem::take(&mut self.marked)
            .into_iter()
            .map(|l| (l, self.volatile.get(&l).copied().unwrap_or([0; 64])))
            .collect();
        for &(addr, line) in &lines {
            self.durable.insert(addr, line);
        }
        self.log.push(PersistEntry {
            action: self.action,
            lines,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unpersisted_stores_do_not_reach_the_durable_image() {
        let mut m = ModelMem::new(1);
        m.mark_epoch();
        m.write_u64(0x1000, 7);
        assert_eq!(m.persist_count(), 0);
        let img = m.durable_image_after(0);
        assert!(!img.contains_key(&0x1000));
        m.clwb(0x1000, 8);
        m.sfence();
        assert_eq!(m.persist_count(), 1);
        let img = m.durable_image_after(1);
        assert_eq!(u64::from_le_bytes(img[&0x1000][..8].try_into().unwrap()), 7);
    }

    #[test]
    fn persist_log_replays_prefix_images() {
        let mut m = ModelMem::new(1);
        m.mark_epoch();
        for (i, v) in [(0u64, 10u64), (1, 20), (0, 30)] {
            m.begin_action(i + v, 0); // arbitrary distinct action tags
            m.write_u64(0x2000 + i * 8, v);
            m.clwb(0x2000 + i * 8, 8);
            m.sfence();
        }
        let at = |img: &BTreeMap<u64, Line>, off: usize| {
            u64::from_le_bytes(img[&0x2000][off..off + 8].try_into().unwrap())
        };
        let img1 = m.durable_image_after(1);
        assert_eq!(at(&img1, 0), 10);
        let img3 = m.durable_image_after(3);
        assert_eq!(at(&img3, 0), 30);
        assert_eq!(at(&img3, 8), 20);
    }

    #[test]
    fn empty_sfence_logs_nothing() {
        let mut m = ModelMem::new(1);
        m.mark_epoch();
        m.sfence();
        m.sfence();
        assert_eq!(m.persist_count(), 0);
    }

    #[test]
    fn dropped_invalidation_serves_stale_reads() {
        let mut m = ModelMem::new(2);
        m.set_core(1);
        assert_eq!(m.read_u64(0x3000), 0); // core 1 caches the line
        m.set_core(0);
        m.write_u64(0x3000, 42);
        m.set_core(1);
        assert_eq!(m.read_u64(0x3000), 42, "coherent read sees the store");

        let mut m = ModelMem::new(2);
        m.set_drop_invalidation(true);
        m.set_core(1);
        assert_eq!(m.read_u64(0x3000), 0);
        m.set_core(0);
        m.write_u64(0x3000, 42);
        m.set_core(1);
        assert_eq!(m.read_u64(0x3000), 0, "stale cache survives the store");
        m.set_core(0);
        assert_eq!(m.read_u64(0x3000), 42, "writer sees its own store");
    }

    #[test]
    fn from_image_reboots_with_cold_caches() {
        let mut m = ModelMem::new(2);
        m.mark_epoch();
        m.write_u64(0x4000, 9);
        m.clwb(0x4000, 8);
        m.sfence();
        let mut r = ModelMem::from_image(m.durable_image_after(1), 2);
        assert_eq!(r.read_u64(0x4000), 9);
        assert_eq!(r.persist_count(), 0);
    }
}
