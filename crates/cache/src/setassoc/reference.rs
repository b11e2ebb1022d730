#![cfg(test)]
//! The cache this module's flat layout replaced, kept as the reference
//! model for the differential test in `super::tests`.
//!
//! Every set is its own `Vec` of slots, each slot holding its key,
//! value, dirty bit and LRU stamp inline. A set's slots are kept in
//! insertion order, evictions and removals `swap_remove`, and the set
//! index is `key % sets` at every set count.

use super::Evicted;

#[derive(Debug, Clone)]
struct Slot<V> {
    key: u64,
    value: V,
    dirty: bool,
    stamp: u64,
}

#[derive(Debug, Clone)]
pub struct NestedCache<V> {
    sets: Vec<Vec<Slot<V>>>,
    ways: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl<V> NestedCache<V> {
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

    /// Total entries currently resident.
    pub fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
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
