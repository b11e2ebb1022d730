//! The memory controller's on-chip counter cache (paper §2.2.4, §3.2).
//!
//! Caches decoded [`CounterLine`]s keyed by page. Two write policies:
//!
//! * **Write-through** (SuperMem): [`CounterCache::update`] returns
//!   [`CounterCacheOutcome::WriteThrough`], telling the controller to
//!   emit a counter write to NVM for *every* data write. Entries are
//!   never dirty, so a crash loses nothing.
//! * **Write-back** (conventional / the paper's ideal WB baseline):
//!   updates dirty the cached entry; a counter write reaches NVM only
//!   when the entry is evicted (or when a battery flushes the cache on a
//!   crash — see [`CounterCache::drain_dirty`]).

use supermem_crypto::CounterLine;
use supermem_sim::CounterCacheMode;

use crate::setassoc::{Evicted, SetAssocCache};

/// What the memory controller must do after a counter update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CounterCacheOutcome {
    /// Write-through: persist this counter line to NVM now.
    WriteThrough,
    /// Write-back: nothing to persist now; the entry is dirty in-cache.
    Deferred,
}

/// The counter cache.
///
/// # Examples
///
/// ```
/// use supermem_cache::{CounterCache, CounterCacheOutcome};
/// use supermem_crypto::CounterLine;
/// use supermem_sim::CounterCacheMode;
/// use supermem_nvm::addr::PageId;
///
/// let mut cc = CounterCache::new(256 * 1024, 64, 8, CounterCacheMode::WriteThrough);
/// assert!(cc.get(PageId(3)).is_none()); // cold
/// cc.fill(PageId(3), CounterLine::new());
/// assert!(cc.get(PageId(3)).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct CounterCache {
    cache: SetAssocCache<CounterLine>,
    mode: CounterCacheMode,
    /// Fault injection (`Mutation::WtOff`): a write-through update is
    /// silently deferred instead, stranding the counter dirty in cache.
    drop_write_through: bool,
}

impl CounterCache {
    /// Builds a counter cache with the given geometry and write policy.
    ///
    /// # Panics
    ///
    /// Panics if the geometry yields zero sets.
    pub fn new(capacity_bytes: u64, line_bytes: u64, ways: usize, mode: CounterCacheMode) -> Self {
        Self {
            cache: SetAssocCache::with_geometry(
                capacity_bytes,
                line_bytes,
                ways,
                CounterLine::new(),
            ),
            mode,
            drop_write_through: false,
        }
    }

    /// The configured write policy.
    pub fn mode(&self) -> CounterCacheMode {
        self.mode
    }

    /// Arms the `wt-off` fault injection: write-through updates are
    /// silently deferred (dirty in cache, nothing persisted). Only the
    /// checker's mutant harness turns this on.
    pub fn inject_drop_write_through(&mut self) {
        self.drop_write_through = true;
    }

    /// Looks up the counters of `page`, refreshing LRU. Counts toward the
    /// hit/miss statistics.
    pub fn get(&mut self, page: supermem_nvm::addr::PageId) -> Option<&CounterLine> {
        self.cache.get(page.0)
    }

    /// Checks residency without LRU or statistics side effects.
    pub fn peek(&self, page: supermem_nvm::addr::PageId) -> Option<&CounterLine> {
        self.cache.peek(page.0)
    }

    /// True if `page` is resident with unpersisted updates. No LRU or
    /// statistics side effects; always `false` for write-through caches.
    pub fn is_dirty(&self, page: supermem_nvm::addr::PageId) -> bool {
        self.cache.is_dirty(page.0)
    }

    /// Inserts counters fetched from NVM. Returns an evicted entry; in
    /// write-back mode a *dirty* eviction must be persisted by the
    /// caller.
    pub fn fill(
        &mut self,
        page: supermem_nvm::addr::PageId,
        line: CounterLine,
    ) -> Option<(supermem_nvm::addr::PageId, CounterLine, bool)> {
        self.cache
            .insert(page.0, line)
            .map(|Evicted { key, value, dirty }| (supermem_nvm::addr::PageId(key), value, dirty))
    }

    /// Applies an updated counter line for `page` after a data write.
    ///
    /// The entry must be resident (the controller faults it in first).
    /// Returns the policy action for the controller.
    ///
    /// # Panics
    ///
    /// Panics if `page` is not resident — the memory controller must
    /// fill before updating.
    pub fn update(
        &mut self,
        page: supermem_nvm::addr::PageId,
        line: CounterLine,
    ) -> CounterCacheOutcome {
        let (slot, dirty) = self
            .cache
            .get_entry(page.0)
            .expect("counter update for a non-resident page: fill first");
        *slot = line;
        match self.mode {
            CounterCacheMode::WriteThrough if self.drop_write_through => {
                // Injected defect: the update never reaches NVM and the
                // cache is unbacked, so a crash loses this counter.
                *dirty = true;
                CounterCacheOutcome::Deferred
            }
            CounterCacheMode::WriteThrough => {
                *dirty = false;
                CounterCacheOutcome::WriteThrough
            }
            CounterCacheMode::WriteBack => {
                *dirty = true;
                CounterCacheOutcome::Deferred
            }
        }
    }

    /// Flushes all dirty entries: returns their contents for write-back
    /// and marks them clean *in place* — resident entries stay cached
    /// (a flush is not an invalidation). Write-through caches return an
    /// empty vector.
    pub fn drain_dirty(&mut self) -> Vec<(supermem_nvm::addr::PageId, CounterLine)> {
        let dirty_keys: Vec<u64> = self
            .cache
            .iter()
            .filter(|(_, _, dirty)| *dirty)
            .map(|(key, _, _)| key)
            .collect();
        dirty_keys
            .into_iter()
            .map(|key| {
                self.cache.clear_dirty(key);
                let value = self
                    .cache
                    .peek(key)
                    .expect("dirty entry vanished during flush")
                    .clone();
                (supermem_nvm::addr::PageId(key), value)
            })
            .collect()
    }

    /// Snapshots the dirty entries without disturbing the cache — what a
    /// battery would persist at a crash instant.
    pub fn dirty_entries(&self) -> Vec<(supermem_nvm::addr::PageId, CounterLine)> {
        self.cache
            .iter()
            .filter(|(_, _, dirty)| *dirty)
            .map(|(key, value, _)| (supermem_nvm::addr::PageId(key), value.clone()))
            .collect()
    }

    /// Clears one page's dirty bit after an explicit writeback.
    /// Returns `false` if the page is not resident.
    pub fn clear_dirty(&mut self, page: supermem_nvm::addr::PageId) -> bool {
        self.cache.clear_dirty(page.0)
    }

    /// Discards everything (crash without battery).
    pub fn discard(&mut self) {
        self.cache.drain();
    }

    /// Lifetime (hits, misses) from [`CounterCache::get`].
    pub fn hit_miss(&self) -> (u64, u64) {
        self.cache.hit_miss()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supermem_nvm::addr::PageId;

    fn wt() -> CounterCache {
        CounterCache::new(64 * 64, 64, 4, CounterCacheMode::WriteThrough)
    }

    fn wb() -> CounterCache {
        CounterCache::new(64 * 64, 64, 4, CounterCacheMode::WriteBack)
    }

    #[test]
    fn write_through_updates_are_never_dirty() {
        let mut cc = wt();
        cc.fill(PageId(1), CounterLine::new());
        let mut line = CounterLine::new();
        line.increment(0);
        assert_eq!(
            cc.update(PageId(1), line),
            CounterCacheOutcome::WriteThrough
        );
        assert!(cc.drain_dirty().is_empty());
    }

    #[test]
    fn write_back_defers_and_tracks_dirty() {
        let mut cc = wb();
        cc.fill(PageId(1), CounterLine::new());
        let mut line = CounterLine::new();
        line.increment(5);
        assert_eq!(
            cc.update(PageId(1), line.clone()),
            CounterCacheOutcome::Deferred
        );
        let dirty = cc.drain_dirty();
        assert_eq!(dirty, vec![(PageId(1), line)]);
    }

    #[test]
    fn eviction_reports_dirtiness() {
        let mut cc = CounterCache::new(64, 64, 1, CounterCacheMode::WriteBack);
        cc.fill(PageId(0), CounterLine::new());
        let mut line = CounterLine::new();
        line.increment(0);
        cc.update(PageId(0), line.clone());
        // Any other page maps to the single set and evicts page 0.
        let (page, value, dirty) = cc.fill(PageId(1), CounterLine::new()).expect("eviction");
        assert_eq!(page, PageId(0));
        assert_eq!(value, line);
        assert!(dirty);
    }

    #[test]
    fn write_through_evictions_are_clean() {
        let mut cc = CounterCache::new(64, 64, 1, CounterCacheMode::WriteThrough);
        cc.fill(PageId(0), CounterLine::new());
        let mut line = CounterLine::new();
        line.increment(0);
        cc.update(PageId(0), line);
        let (_, _, dirty) = cc.fill(PageId(1), CounterLine::new()).expect("eviction");
        assert!(!dirty, "write-through entries must evict clean");
    }

    #[test]
    fn injected_wt_off_defers_and_dirties() {
        let mut cc = wt();
        cc.inject_drop_write_through();
        cc.fill(PageId(1), CounterLine::new());
        let mut line = CounterLine::new();
        line.increment(0);
        assert_eq!(cc.update(PageId(1), line), CounterCacheOutcome::Deferred);
        assert!(cc.is_dirty(PageId(1)), "dropped write-through strands dirt");
    }

    #[test]
    #[should_panic(expected = "fill first")]
    fn update_requires_residency() {
        let mut cc = wt();
        cc.update(PageId(9), CounterLine::new());
    }

    #[test]
    fn discard_drops_everything() {
        let mut cc = wb();
        cc.fill(PageId(2), CounterLine::new());
        cc.update(PageId(2), CounterLine::new());
        cc.discard();
        assert!(cc.peek(PageId(2)).is_none());
        assert!(cc.drain_dirty().is_empty());
    }

    #[test]
    fn hit_miss_counting() {
        let mut cc = wt();
        assert!(cc.get(PageId(7)).is_none());
        cc.fill(PageId(7), CounterLine::new());
        assert!(cc.get(PageId(7)).is_some());
        assert_eq!(cc.hit_miss(), (1, 1));
    }
}
