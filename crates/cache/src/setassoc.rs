//! A generic set-associative cache with true-LRU replacement.
//!
//! Keys are abstract line identifiers (`u64`); the set index is
//! `key % sets`, matching the usual low-bits indexing once callers strip
//! the line offset. Values are arbitrary, so the same structure backs the
//! data caches (64-byte payloads) and the counter cache (decoded
//! [`supermem_crypto::CounterLine`]s).

/// An entry evicted to make room for an insertion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evicted<V> {
    /// The evicted key.
    pub key: u64,
    /// The evicted value.
    pub value: V,
    /// Whether the entry was dirty at eviction time.
    pub dirty: bool,
}

#[derive(Debug, Clone)]
struct Slot<V> {
    key: u64,
    value: V,
    dirty: bool,
    stamp: u64,
}

/// A set-associative LRU cache.
///
/// # Examples
///
/// ```
/// use supermem_cache::SetAssocCache;
///
/// // 2 sets x 2 ways.
/// let mut c: SetAssocCache<&str> = SetAssocCache::new(2, 2);
/// c.insert(0, "a");
/// c.insert(2, "b"); // same set as 0
/// c.get(0);          // touch 0 so 2 becomes LRU
/// let ev = c.insert(4, "c").unwrap(); // evicts 2
/// assert_eq!(ev.key, 2);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache<V> {
    sets: Vec<Vec<Slot<V>>>,
    ways: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl<V> SetAssocCache<V> {
    /// Creates a cache with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "cache geometry must be non-zero");
        Self {
            sets: (0..sets).map(|_| Vec::with_capacity(ways)).collect(),
            ways,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Builds geometry from capacity in bytes, line size and ways
    /// (`sets = capacity / (line * ways)`).
    ///
    /// # Panics
    ///
    /// Panics if the division yields zero sets.
    pub fn with_geometry(capacity_bytes: u64, line_bytes: u64, ways: usize) -> Self {
        let sets = capacity_bytes / (line_bytes * ways as u64);
        Self::new(sets as usize, ways)
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets.len()
    }

    /// Ways per set.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total entries currently resident.
    pub fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// True if no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime (hits, misses) counted by [`Self::get`]/[`Self::get_mut`].
    pub fn hit_miss(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    fn set_of(&self, key: u64) -> usize {
        (key % self.sets.len() as u64) as usize
    }

    /// Looks up `key`, refreshing its LRU position.
    pub fn get(&mut self, key: u64) -> Option<&V> {
        self.get_entry(key).map(|(v, _)| &*v)
    }

    /// Looks up `key` mutably, refreshing its LRU position.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        self.get_entry(key).map(|(v, _)| v)
    }

    /// Looks up `key` mutably and exposes its dirty flag, refreshing LRU.
    pub fn get_entry(&mut self, key: u64) -> Option<(&mut V, &mut bool)> {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(key);
        let slot = self.sets[set].iter_mut().find(|s| s.key == key);
        if let Some(s) = slot {
            s.stamp = tick;
            self.hits += 1;
            Some((&mut s.value, &mut s.dirty))
        } else {
            self.misses += 1;
            None
        }
    }

    /// Checks residency without perturbing LRU or hit counters.
    pub fn peek(&self, key: u64) -> Option<&V> {
        let set = self.set_of(key);
        self.sets[set]
            .iter()
            .find(|s| s.key == key)
            .map(|s| &s.value)
    }

    /// True if `key` is resident and dirty (no LRU side effects).
    pub fn is_dirty(&self, key: u64) -> bool {
        let set = self.set_of(key);
        self.sets[set]
            .iter()
            .find(|s| s.key == key)
            .is_some_and(|s| s.dirty)
    }

    /// Inserts `key` clean, evicting the set's LRU entry if full.
    /// If `key` is already resident its value is replaced in place (the
    /// dirty bit is preserved) and no eviction occurs.
    pub fn insert(&mut self, key: u64, value: V) -> Option<Evicted<V>> {
        self.insert_with_dirty(key, value, false)
    }

    /// Inserts `key` with an explicit dirty flag, evicting if needed.
    /// For an already-resident key the value is replaced and the dirty
    /// flag is OR-ed in.
    pub fn insert_with_dirty(&mut self, key: u64, value: V, dirty: bool) -> Option<Evicted<V>> {
        self.tick += 1;
        let tick = self.tick;
        let ways = self.ways;
        let set_idx = self.set_of(key);
        let set = &mut self.sets[set_idx];
        if let Some(s) = set.iter_mut().find(|s| s.key == key) {
            s.value = value;
            s.dirty |= dirty;
            s.stamp = tick;
            return None;
        }
        let evicted = if set.len() == ways {
            let lru = set
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.stamp)
                .map(|(i, _)| i)
                .expect("non-empty full set");
            let victim = set.swap_remove(lru);
            Some(Evicted {
                key: victim.key,
                value: victim.value,
                dirty: victim.dirty,
            })
        } else {
            None
        };
        set.push(Slot {
            key,
            value,
            dirty,
            stamp: tick,
        });
        evicted
    }

    /// Overwrites the value of a resident entry without touching LRU
    /// state, dirty bits, or hit statistics. Returns `false` if absent.
    ///
    /// Used to keep outer-level copies value-coherent when an inner
    /// level absorbs a store.
    pub fn set_value_quiet(&mut self, key: u64, value: V) -> bool {
        let set = self.set_of(key);
        match self.sets[set].iter_mut().find(|s| s.key == key) {
            Some(s) => {
                s.value = value;
                true
            }
            None => false,
        }
    }

    /// Marks a resident entry dirty. Returns `false` if `key` is absent.
    pub fn mark_dirty(&mut self, key: u64) -> bool {
        let set = self.set_of(key);
        match self.sets[set].iter_mut().find(|s| s.key == key) {
            Some(s) => {
                s.dirty = true;
                true
            }
            None => false,
        }
    }

    /// Clears a resident entry's dirty bit. Returns `false` if absent.
    pub fn clear_dirty(&mut self, key: u64) -> bool {
        let set = self.set_of(key);
        match self.sets[set].iter_mut().find(|s| s.key == key) {
            Some(s) => {
                s.dirty = false;
                true
            }
            None => false,
        }
    }

    /// Clears a resident entry's dirty bit and returns its value if the
    /// bit was set; `None` if `key` is absent or clean. One set scan, no
    /// LRU side effects.
    pub fn take_dirty(&mut self, key: u64) -> Option<&V> {
        let set = self.set_of(key);
        let s = self.sets[set].iter_mut().find(|s| s.key == key)?;
        std::mem::take(&mut s.dirty).then_some(&s.value)
    }

    /// Removes `key`, returning its value and dirty flag.
    pub fn remove(&mut self, key: u64) -> Option<(V, bool)> {
        let set = self.set_of(key);
        let idx = self.sets[set].iter().position(|s| s.key == key)?;
        let slot = self.sets[set].swap_remove(idx);
        Some((slot.value, slot.dirty))
    }

    /// Drains every resident entry (used to flush or discard a cache).
    pub fn drain(&mut self) -> Vec<Evicted<V>> {
        let mut out = Vec::with_capacity(self.len());
        for set in &mut self.sets {
            for slot in set.drain(..) {
                out.push(Evicted {
                    key: slot.key,
                    value: slot.value,
                    dirty: slot.dirty,
                });
            }
        }
        out
    }

    /// Iterates over `(key, &value, dirty)` without LRU side effects.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V, bool)> {
        self.sets
            .iter()
            .flat_map(|set| set.iter().map(|s| (s.key, &s.value, s.dirty)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss_accounting() {
        let mut c: SetAssocCache<u8> = SetAssocCache::new(4, 2);
        assert_eq!(c.get(5), None);
        c.insert(5, 1);
        assert_eq!(c.get(5), Some(&1));
        assert_eq!(c.hit_miss(), (1, 1));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c: SetAssocCache<u8> = SetAssocCache::new(1, 2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.get(1); // 2 is now LRU
        let ev = c.insert(3, 30).expect("eviction");
        assert_eq!(ev.key, 2);
        assert!(c.peek(1).is_some());
        assert!(c.peek(3).is_some());
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut c: SetAssocCache<u8> = SetAssocCache::new(1, 2);
        c.insert(1, 10);
        c.mark_dirty(1);
        assert!(c.insert(1, 11).is_none());
        assert_eq!(c.peek(1), Some(&11));
        assert!(c.is_dirty(1), "dirty survives value replacement");
    }

    #[test]
    fn dirty_flag_lifecycle() {
        let mut c: SetAssocCache<u8> = SetAssocCache::new(2, 2);
        c.insert(4, 1);
        assert!(!c.is_dirty(4));
        assert!(c.mark_dirty(4));
        assert!(c.is_dirty(4));
        assert!(c.clear_dirty(4));
        assert!(!c.is_dirty(4));
        assert!(!c.mark_dirty(99), "absent keys cannot be dirtied");
    }

    #[test]
    fn take_dirty_returns_the_value_once_and_keeps_lru() {
        let mut c: SetAssocCache<u8> = SetAssocCache::new(1, 2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.take_dirty(1), None, "clean entries yield nothing");
        assert_eq!(c.take_dirty(99), None, "absent keys yield nothing");
        c.mark_dirty(1);
        assert_eq!(c.take_dirty(1), Some(&10));
        assert!(!c.is_dirty(1), "the dirty bit is cleared");
        assert_eq!(c.take_dirty(1), None, "a second take finds it clean");
        assert_eq!(c.peek(1), Some(&10), "the entry stays resident");
        // 1 is still the LRU entry: take_dirty did not refresh it.
        let ev = c.insert(3, 30).unwrap();
        assert_eq!(ev.key, 1);
        assert_eq!(c.hit_miss(), (0, 0), "no hit/miss accounting");
    }

    #[test]
    fn eviction_reports_dirty() {
        let mut c: SetAssocCache<u8> = SetAssocCache::new(1, 1);
        c.insert(1, 10);
        c.mark_dirty(1);
        let ev = c.insert(2, 20).unwrap();
        assert!(ev.dirty);
        assert_eq!(ev.value, 10);
    }

    #[test]
    fn keys_map_to_distinct_sets() {
        let mut c: SetAssocCache<u8> = SetAssocCache::new(2, 1);
        c.insert(0, 1); // set 0
        c.insert(1, 2); // set 1
        assert!(c.insert(2, 3).is_some()); // set 0 again -> evicts key 0
        assert_eq!(c.peek(1), Some(&2));
    }

    #[test]
    fn remove_returns_value_and_dirty() {
        let mut c: SetAssocCache<u8> = SetAssocCache::new(2, 2);
        c.insert(7, 70);
        c.mark_dirty(7);
        assert_eq!(c.remove(7), Some((70, true)));
        assert_eq!(c.remove(7), None);
    }

    #[test]
    fn drain_empties_cache() {
        let mut c: SetAssocCache<u8> = SetAssocCache::new(2, 2);
        for k in 0..4 {
            c.insert(k, k as u8);
        }
        let drained = c.drain();
        assert_eq!(drained.len(), 4);
        assert!(c.is_empty());
    }

    #[test]
    fn with_geometry_matches_paper_counter_cache() {
        // 256 KB, 64 B lines, 8 ways -> 512 sets.
        let c: SetAssocCache<u8> = SetAssocCache::with_geometry(256 * 1024, 64, 8);
        assert_eq!(c.sets(), 512);
        assert_eq!(c.ways(), 8);
    }

    #[test]
    fn peek_does_not_touch_lru() {
        let mut c: SetAssocCache<u8> = SetAssocCache::new(1, 2);
        c.insert(1, 10);
        c.insert(2, 20);
        let _ = c.peek(1); // does NOT refresh key 1
        let ev = c.insert(3, 30).unwrap();
        assert_eq!(ev.key, 1, "peek must not refresh LRU position");
    }

    #[test]
    fn get_entry_exposes_dirty_flag() {
        let mut c: SetAssocCache<u8> = SetAssocCache::new(1, 1);
        c.insert(1, 10);
        {
            let (v, dirty) = c.get_entry(1).unwrap();
            *v = 42;
            *dirty = true;
        }
        assert_eq!(c.peek(1), Some(&42));
        assert!(c.is_dirty(1));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_geometry_rejected() {
        let _: SetAssocCache<u8> = SetAssocCache::new(0, 1);
    }
}

#[cfg(test)]
mod randomized {
    //! Deterministic randomized tests (seeded SplitMix64 stands in for
    //! proptest, which is unavailable in offline builds).
    use super::*;
    use std::collections::HashMap;
    use supermem_sim::SplitMix64;

    /// The cache never exceeds its capacity and any resident entry
    /// holds the most recently inserted value for its key.
    #[test]
    fn capacity_and_coherence() {
        let mut rng = SplitMix64::new(0xCAC4E);
        for _ in 0..64 {
            let mut c: SetAssocCache<u16> = SetAssocCache::new(4, 2);
            let mut shadow: HashMap<u64, u16> = HashMap::new();
            for _ in 0..rng.next_range(1, 200) {
                let k = rng.next_below(32);
                let v = rng.next_u64() as u16;
                c.insert(k, v);
                shadow.insert(k, v);
                assert!(c.len() <= 8);
                if let Some(resident) = c.peek(k) {
                    assert_eq!(resident, &shadow[&k]);
                }
            }
            for (k, v, _) in c.iter() {
                assert_eq!(&shadow[&k], v);
            }
        }
    }

    /// Dirty data is never silently lost: an entry that was marked
    /// dirty either remains resident or is reported dirty on eviction.
    #[test]
    fn no_silent_dirty_loss() {
        let mut rng = SplitMix64::new(0xD127);
        for _ in 0..64 {
            let mut c: SetAssocCache<u64> = SetAssocCache::new(2, 2);
            let mut dirty_outstanding = std::collections::HashSet::new();
            for _ in 0..rng.next_range(1, 100) {
                let k = rng.next_below(16);
                if let Some(ev) = c.insert_with_dirty(k, k, true) {
                    if ev.dirty {
                        dirty_outstanding.remove(&ev.key);
                    }
                }
                dirty_outstanding.insert(k);
                // Every outstanding dirty key must still be resident.
                for d in &dirty_outstanding {
                    assert!(c.is_dirty(*d), "dirty key {d} lost");
                }
            }
        }
    }
}
