//! A generic set-associative cache with true-LRU replacement.
//!
//! Keys are abstract line identifiers (`u64`); the set index is the
//! key's low bits (`key & (sets - 1)`) when the set count is a power of
//! two and `key % sets` otherwise, matching the usual low-bits indexing
//! once callers strip the line offset. Values are arbitrary, so the same
//! structure backs the data caches (64-byte payloads) and the counter
//! cache (decoded [`supermem_crypto::CounterLine`]s).
//!
//! The layout is flat: one array each of keys, LRU stamps, dirty bits
//! and values, `ways` slots per set. A lookup scans only the set's keys,
//! 8 bytes a way, and touches a payload only on a hit. A set's resident
//! entries fill its first slots in insertion order; an eviction or a
//! removal moves the set's last entry into the hole (`Vec::swap_remove`
//! order), so [`SetAssocCache::iter`] and [`SetAssocCache::drain`] visit
//! entries in a fixed order that depends only on the call sequence.

// Test-only: the module file is compiled only for tests.
mod reference;

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

/// A set-associative LRU cache.
///
/// # Examples
///
/// ```
/// use supermem_cache::SetAssocCache;
///
/// // 2 sets x 2 ways.
/// let mut c: SetAssocCache<&str> = SetAssocCache::new(2, 2, "");
/// c.insert(0, "a");
/// c.insert(2, "b"); // same set as 0
/// c.get(0);          // touch 0 so 2 becomes LRU
/// let ev = c.insert(4, "c").unwrap(); // evicts 2
/// assert_eq!(ev.key, 2);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache<V> {
    keys: Vec<u64>,
    stamps: Vec<u64>,
    dirty: Vec<bool>,
    values: Vec<V>,
    /// What a vacant value slot holds.
    empty: V,
    /// Resident entries per set; they fill the set's first slots.
    lens: Vec<u32>,
    ways: usize,
    sets: u64,
    /// `sets - 1` when `sets` is a power of two.
    mask: Option<u64>,
    resident: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl<V: Clone> SetAssocCache<V> {
    /// Creates a cache with `sets` sets of `ways` ways. Vacant slots hold
    /// copies of `empty`. The slot arrays are allocated by the first
    /// insertion, so a cache that is never filled (a private cache of an
    /// idle core) costs only its per-set counts.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(sets: usize, ways: usize, empty: V) -> Self {
        assert!(sets > 0 && ways > 0, "cache geometry must be non-zero");
        Self {
            keys: Vec::new(),
            stamps: Vec::new(),
            dirty: Vec::new(),
            values: Vec::new(),
            empty,
            lens: vec![0; sets],
            ways,
            sets: sets as u64,
            mask: sets.is_power_of_two().then_some(sets as u64 - 1),
            resident: 0,
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
    pub fn with_geometry(capacity_bytes: u64, line_bytes: u64, ways: usize, empty: V) -> Self {
        let sets = capacity_bytes / (line_bytes * ways as u64);
        Self::new(sets as usize, ways, empty)
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.lens.len()
    }

    /// Ways per set.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total entries currently resident.
    pub fn len(&self) -> usize {
        self.resident
    }

    /// True if no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.resident == 0
    }

    /// Lifetime (hits, misses) counted by [`Self::get`]/[`Self::get_mut`].
    pub fn hit_miss(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    fn set_of(&self, key: u64) -> usize {
        match self.mask {
            Some(mask) => (key & mask) as usize,
            None => (key % self.sets) as usize,
        }
    }

    /// The slot holding `key`, if resident.
    fn slot(&self, key: u64) -> Option<usize> {
        let set = self.set_of(key);
        let len = self.lens[set] as usize;
        if len == 0 {
            // Also the case of a cache whose slots are not yet allocated.
            return None;
        }
        let base = set * self.ways;
        let at = self.keys[base..base + len].iter().position(|&k| k == key)?;
        Some(base + at)
    }

    /// Copies slot `from` over slot `to`.
    fn move_slot(&mut self, from: usize, to: usize) {
        if from != to {
            self.keys[to] = self.keys[from];
            self.stamps[to] = self.stamps[from];
            self.dirty[to] = self.dirty[from];
            self.values[to] = self.values[from].clone();
        }
    }

    /// Fills slot `i` with a freshly used entry.
    fn put(&mut self, i: usize, key: u64, value: V, dirty: bool) {
        self.keys[i] = key;
        self.values[i] = value;
        self.dirty[i] = dirty;
        self.stamps[i] = self.tick;
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
        if let Some(i) = self.slot(key) {
            self.stamps[i] = self.tick;
            self.hits += 1;
            Some((&mut self.values[i], &mut self.dirty[i]))
        } else {
            self.misses += 1;
            None
        }
    }

    /// Checks residency without perturbing LRU or hit counters.
    pub fn peek(&self, key: u64) -> Option<&V> {
        self.slot(key).map(|i| &self.values[i])
    }

    /// True if `key` is resident and dirty (no LRU side effects).
    pub fn is_dirty(&self, key: u64) -> bool {
        self.slot(key).is_some_and(|i| self.dirty[i])
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
        let Some(i) = self.slot(key) else {
            return self.insert_absent(key, value, dirty);
        };
        self.tick += 1;
        self.values[i] = value;
        self.dirty[i] |= dirty;
        self.stamps[i] = self.tick;
        None
    }

    /// [`Self::insert_with_dirty`] of a key the caller knows is not
    /// resident, without the lookup: the same stamp, victim and slot
    /// order.
    pub fn insert_absent(&mut self, key: u64, value: V, dirty: bool) -> Option<Evicted<V>> {
        debug_assert!(self.slot(key).is_none(), "key {key} is resident");
        self.tick += 1;
        let set = self.set_of(key);
        let len = self.lens[set] as usize;
        let base = set * self.ways;
        if len < self.ways {
            if self.keys.is_empty() {
                let slots = self.lens.len() * self.ways;
                self.keys = vec![0; slots];
                self.stamps = vec![0; slots];
                self.dirty = vec![false; slots];
                self.values = vec![self.empty.clone(); slots];
            }
            self.lens[set] += 1;
            self.resident += 1;
            self.put(base + len, key, value, dirty);
            return None;
        }
        // The first slot with the oldest stamp leaves; the set's last
        // entry fills its hole and the new entry takes the last slot.
        let tick = self.tick;
        let keys = &mut self.keys[base..base + len];
        let stamps = &mut self.stamps[base..base + len];
        let dirt = &mut self.dirty[base..base + len];
        let (mut lru, mut oldest) = (0, stamps[0]);
        for (i, &stamp) in stamps.iter().enumerate().skip(1) {
            if stamp < oldest {
                (lru, oldest) = (i, stamp);
            }
        }
        let last = len - 1;
        let (victim_key, victim_dirty) = (keys[lru], dirt[lru]);
        (keys[lru], stamps[lru], dirt[lru]) = (keys[last], stamps[last], dirt[last]);
        (keys[last], stamps[last], dirt[last]) = (key, tick, dirty);
        let moved = std::mem::replace(&mut self.values[base + last], value);
        let victim_value = if lru == last {
            moved
        } else {
            std::mem::replace(&mut self.values[base + lru], moved)
        };
        Some(Evicted {
            key: victim_key,
            value: victim_value,
            dirty: victim_dirty,
        })
    }

    /// Overwrites the value of a resident entry without touching LRU
    /// state, dirty bits, or hit statistics. Returns `false` if absent.
    ///
    /// Used to keep outer-level copies value-coherent when an inner
    /// level absorbs a store.
    pub fn set_value_quiet(&mut self, key: u64, value: V) -> bool {
        match self.slot(key) {
            Some(i) => {
                self.values[i] = value;
                true
            }
            None => false,
        }
    }

    /// Clears a resident entry's dirty bit. Returns `false` if absent.
    pub fn clear_dirty(&mut self, key: u64) -> bool {
        match self.slot(key) {
            Some(i) => {
                self.dirty[i] = false;
                true
            }
            None => false,
        }
    }

    /// Clears a resident entry's dirty bit and returns its value if the
    /// bit was set; `None` if `key` is absent or clean. One set scan, no
    /// LRU side effects.
    pub fn take_dirty(&mut self, key: u64) -> Option<&V> {
        let i = self.slot(key)?;
        std::mem::take(&mut self.dirty[i]).then_some(&self.values[i])
    }

    /// Removes `key`, returning its value and dirty flag.
    pub fn remove(&mut self, key: u64) -> Option<(V, bool)> {
        let i = self.slot(key)?;
        let set = self.set_of(key);
        let last = set * self.ways + self.lens[set] as usize - 1;
        let out = (self.values[i].clone(), self.dirty[i]);
        self.move_slot(last, i);
        self.lens[set] -= 1;
        self.resident -= 1;
        Some(out)
    }

    /// Drains every resident entry (used to flush or discard a cache).
    pub fn drain(&mut self) -> Vec<Evicted<V>> {
        let mut out = Vec::with_capacity(self.resident);
        for set in 0..self.lens.len() {
            let base = set * self.ways;
            for i in base..base + std::mem::take(&mut self.lens[set]) as usize {
                out.push(Evicted {
                    key: self.keys[i],
                    value: self.values[i].clone(),
                    dirty: self.dirty[i],
                });
            }
        }
        self.resident = 0;
        out
    }

    /// Iterates over `(key, &value, dirty)` without LRU side effects.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V, bool)> {
        self.lens.iter().enumerate().flat_map(move |(set, &len)| {
            let base = set * self.ways;
            (base..base + len as usize).map(move |i| (self.keys[i], &self.values[i], self.dirty[i]))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss_accounting() {
        let mut c: SetAssocCache<u8> = SetAssocCache::new(4, 2, 0);
        assert_eq!(c.get(5), None);
        c.insert(5, 1);
        assert_eq!(c.get(5), Some(&1));
        assert_eq!(c.hit_miss(), (1, 1));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c: SetAssocCache<u8> = SetAssocCache::new(1, 2, 0);
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
        let mut c: SetAssocCache<u8> = SetAssocCache::new(1, 2, 0);
        c.insert_with_dirty(1, 10, true);
        assert!(c.insert(1, 11).is_none());
        assert_eq!(c.peek(1), Some(&11));
        assert!(c.is_dirty(1), "dirty survives value replacement");
    }

    #[test]
    fn dirty_flag_lifecycle() {
        let mut c: SetAssocCache<u8> = SetAssocCache::new(2, 2, 0);
        c.insert(4, 1);
        assert!(!c.is_dirty(4));
        c.insert_with_dirty(4, 1, true);
        assert!(c.is_dirty(4));
        assert!(c.clear_dirty(4));
        assert!(!c.is_dirty(4));
        assert!(!c.clear_dirty(99), "absent keys cannot be cleaned");
    }

    #[test]
    fn take_dirty_returns_the_value_once_and_keeps_lru() {
        let mut c: SetAssocCache<u8> = SetAssocCache::new(1, 2, 0);
        c.insert_with_dirty(1, 10, true);
        c.insert(2, 20);
        assert_eq!(c.take_dirty(2), None, "clean entries yield nothing");
        assert_eq!(c.take_dirty(99), None, "absent keys yield nothing");
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
        let mut c: SetAssocCache<u8> = SetAssocCache::new(1, 1, 0);
        c.insert_with_dirty(1, 10, true);
        let ev = c.insert(2, 20).unwrap();
        assert!(ev.dirty);
        assert_eq!(ev.value, 10);
    }

    #[test]
    fn keys_map_to_distinct_sets() {
        let mut c: SetAssocCache<u8> = SetAssocCache::new(2, 1, 0);
        c.insert(0, 1); // set 0
        c.insert(1, 2); // set 1
        assert!(c.insert(2, 3).is_some()); // set 0 again -> evicts key 0
        assert_eq!(c.peek(1), Some(&2));
    }

    #[test]
    fn remove_returns_value_and_dirty() {
        let mut c: SetAssocCache<u8> = SetAssocCache::new(2, 2, 0);
        c.insert_with_dirty(7, 70, true);
        assert_eq!(c.remove(7), Some((70, true)));
        assert_eq!(c.remove(7), None);
    }

    #[test]
    fn drain_empties_cache() {
        let mut c: SetAssocCache<u8> = SetAssocCache::new(2, 2, 0);
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
        let c: SetAssocCache<u8> = SetAssocCache::with_geometry(256 * 1024, 64, 8, 0);
        assert_eq!(c.sets(), 512);
        assert_eq!(c.ways(), 8);
    }

    #[test]
    fn peek_does_not_touch_lru() {
        let mut c: SetAssocCache<u8> = SetAssocCache::new(1, 2, 0);
        c.insert(1, 10);
        c.insert(2, 20);
        let _ = c.peek(1); // does NOT refresh key 1
        let ev = c.insert(3, 30).unwrap();
        assert_eq!(ev.key, 1, "peek must not refresh LRU position");
    }

    #[test]
    fn get_entry_exposes_dirty_flag() {
        let mut c: SetAssocCache<u8> = SetAssocCache::new(1, 1, 0);
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
        let _: SetAssocCache<u8> = SetAssocCache::new(0, 1, 0);
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
            let mut c: SetAssocCache<u16> = SetAssocCache::new(4, 2, 0);
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
            let mut c: SetAssocCache<u64> = SetAssocCache::new(2, 2, 0);
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

#[cfg(test)]
mod differential {
    //! The flat cache against the per-set `Vec` cache it replaced
    //! ([`reference::NestedCache`]): every call's result, the
    //! `iter()`/`drain()` order and the hit/miss counts must agree.
    use super::reference::NestedCache;
    use super::*;
    use supermem_sim::SplitMix64;

    fn entries<'a>(it: impl Iterator<Item = (u64, &'a u64, bool)>) -> Vec<(u64, u64, bool)> {
        it.map(|(k, v, d)| (k, *v, d)).collect()
    }

    fn run(sets: usize, ways: usize, seed: u64) {
        let mut rng = SplitMix64::new(seed);
        let mut flat: SetAssocCache<u64> = SetAssocCache::new(sets, ways, 0);
        let mut nested: NestedCache<u64> = NestedCache::new(sets, ways);
        let keys = 4 * (sets * ways) as u64 + 3;
        for step in 0..4_000u64 {
            let k = rng.next_below(keys);
            let v = rng.next_u64();
            let d = rng.next_below(2) == 1;
            match rng.next_below(12) {
                0 => assert_eq!(flat.get(k), nested.get(k)),
                1 => {
                    let (a, b) = (flat.get_mut(k), nested.get_mut(k));
                    assert_eq!(a.is_some(), b.is_some());
                    if let (Some(a), Some(b)) = (a, b) {
                        assert_eq!(*a, *b);
                        (*a, *b) = (v, v);
                    }
                }
                2 => {
                    let (a, b) = (flat.get_entry(k), nested.get_entry(k));
                    assert_eq!(a.is_some(), b.is_some());
                    if let (Some((av, ad)), Some((bv, bd))) = (a, b) {
                        assert_eq!((*av, *ad), (*bv, *bd));
                        (*ad, *bd) = (d, d);
                    }
                }
                3 => assert_eq!(flat.peek(k), nested.peek(k)),
                4 => assert_eq!(flat.is_dirty(k), nested.is_dirty(k)),
                5 => assert_eq!(flat.insert(k, v), nested.insert(k, v)),
                6 | 7 => assert_eq!(
                    flat.insert_with_dirty(k, v, d),
                    nested.insert_with_dirty(k, v, d)
                ),
                8 => assert_eq!(flat.set_value_quiet(k, v), nested.set_value_quiet(k, v)),
                9 => assert_eq!(flat.clear_dirty(k), nested.clear_dirty(k)),
                10 => assert_eq!(flat.take_dirty(k), nested.take_dirty(k)),
                _ if step % 997 == 0 => assert_eq!(flat.drain(), nested.drain()),
                _ => assert_eq!(flat.remove(k), nested.remove(k)),
            }
            assert_eq!(flat.len(), nested.len());
            assert_eq!(flat.hit_miss(), nested.hit_miss());
            if step % 50 == 0 {
                assert_eq!(entries(flat.iter()), entries(nested.iter()), "step {step}");
            }
        }
        assert_eq!(entries(flat.iter()), entries(nested.iter()));
        assert_eq!(flat.drain(), nested.drain());
        assert!(flat.is_empty());
    }

    #[test]
    fn flat_layout_matches_the_nested_reference_at_power_of_two_set_counts() {
        for (i, (sets, ways)) in [(1, 1), (1, 4), (2, 2), (8, 4), (64, 8)]
            .into_iter()
            .enumerate()
        {
            run(sets, ways, 0xF1A7 + i as u64);
        }
    }

    #[test]
    fn flat_layout_matches_the_nested_reference_at_other_set_counts() {
        for (i, (sets, ways)) in [(3, 1), (5, 2), (6, 3), (12, 4), (100, 8)]
            .into_iter()
            .enumerate()
        {
            run(sets, ways, 0x0DD5 + i as u64);
        }
    }
}
