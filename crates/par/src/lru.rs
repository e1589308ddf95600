//! A small bounded LRU cache.
//!
//! Serving workloads repeat themselves: the engine sees the same pooling
//! design keys over and over, and wants *memoization with a memory
//! bound* — an unbounded map grows monotonically over a long run.
//! [`LruCache`] is the policy behind the engine's design cache: a
//! `HashMap` plus a monotonic use-stamp per entry, evicting the
//! least-recently-used entry when full.
//!
//! Design notes:
//!
//! * Hits are allocation-free (a stamp bump on an existing entry), which
//!   the engine's steady-state zero-allocation contract relies on.
//! * Eviction scans for the minimal stamp, `O(len)`. Capacities here are
//!   small (designs: tens at most), so a scan beats the pointer
//!   chasing of an intrusive list and keeps the structure trivially
//!   correct.
//! * Lookups return a reference; the design cache stores `Arc`s, so a
//!   hit clones a pointer, not a design.

use std::collections::HashMap;
use std::hash::Hash;

/// A bounded map evicting the least-recently-used entry on overflow.
#[derive(Clone, Debug)]
pub struct LruCache<K, V> {
    capacity: usize,
    clock: u64,
    map: HashMap<K, (V, u64)>,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// An empty cache holding at most `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU cache needs capacity at least 1");
        Self { capacity, clock: 0, map: HashMap::with_capacity(capacity + 1) }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Look up `key`, marking it most-recently-used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(key).map(|(v, stamp)| {
            *stamp = clock;
            &*v
        })
    }

    /// Whether `key` is present (does not touch recency).
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Insert `key → value` as most-recently-used, evicting the
    /// least-recently-used entry if the cache is full. Returns the evicted
    /// `(key, value)` pair, if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        self.clock += 1;
        let evicted = if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            self.evict_lru()
        } else {
            None
        };
        self.map.insert(key, (value, self.clock));
        evicted
    }

    /// Drop every entry (capacity unchanged).
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Iterate over the resident keys, in no particular order (does not
    /// touch recency). The engine's snapshot-lite path uses this to
    /// export the design cache's working set as keys only — values
    /// resample bit-identically from their keys.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.map.keys()
    }

    fn evict_lru(&mut self) -> Option<(K, V)> {
        let key = self.map.iter().min_by_key(|(_, (_, stamp))| *stamp).map(|(k, _)| k.clone())?;
        self.map.remove_entry(&key).map(|(k, (v, _))| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holds_at_most_capacity_entries() {
        let mut lru = LruCache::new(3);
        for i in 0..10 {
            lru.insert(i, i * 10);
            assert!(lru.len() <= 3);
        }
        assert_eq!(lru.len(), 3);
        // The three most recent survive.
        assert!(lru.contains(&7) && lru.contains(&8) && lru.contains(&9));
    }

    #[test]
    fn get_refreshes_recency() {
        let mut lru = LruCache::new(2);
        lru.insert("a", 1);
        lru.insert("b", 2);
        assert_eq!(lru.get(&"a"), Some(&1)); // "a" becomes most recent
        let evicted = lru.insert("c", 3);
        assert_eq!(evicted, Some(("b", 2)));
        assert!(lru.contains(&"a") && lru.contains(&"c"));
    }

    #[test]
    fn reinserting_existing_key_does_not_evict() {
        let mut lru = LruCache::new(2);
        lru.insert(1, "one");
        lru.insert(2, "two");
        assert_eq!(lru.insert(1, "uno"), None);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(&1), Some(&"uno"));
    }

    #[test]
    fn eviction_order_is_least_recent_first() {
        let mut lru = LruCache::new(3);
        lru.insert(1, ());
        lru.insert(2, ());
        lru.insert(3, ());
        lru.get(&1);
        lru.get(&2);
        // 3 is now least recent.
        assert_eq!(lru.insert(4, ()), Some((3, ())));
    }

    #[test]
    fn clear_empties_but_keeps_capacity() {
        let mut lru = LruCache::new(2);
        lru.insert(1, 1);
        lru.clear();
        assert!(lru.is_empty());
        assert_eq!(lru.capacity(), 2);
        lru.insert(2, 2);
        assert_eq!(lru.get(&2), Some(&2));
    }

    #[test]
    fn keys_export_the_resident_set_without_touching_recency() {
        let mut lru = LruCache::new(3);
        lru.insert(1, ());
        lru.insert(2, ());
        lru.insert(3, ());
        let mut keys: Vec<i32> = lru.keys().copied().collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![1, 2, 3]);
        // Exporting keys must not refresh anyone: 1 is still the LRU entry.
        assert_eq!(lru.insert(4, ()), Some((1, ())));
    }

    #[test]
    #[should_panic(expected = "capacity at least 1")]
    fn zero_capacity_rejected() {
        let _ = LruCache::<u32, u32>::new(0);
    }
}
