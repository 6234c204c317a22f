//! Content-addressed result cache with LRU eviction.

use crate::key::CacheKey;
use gcnrl_sim::PerformanceReport;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

#[derive(Debug)]
struct Entry {
    report: PerformanceReport,
    stamp: u64,
}

/// An LRU map from [`CacheKey`] to the bit-identical [`PerformanceReport`]
/// the simulator produced for it, with hit/miss/eviction counters.
///
/// Reports are pure functions of the key (the `Evaluator` contract), so a
/// cached report is indistinguishable from a fresh simulation. The entry map
/// and the recency index share each key's one allocation, and a lookup
/// borrows the probed bits, so a hit allocates no key.
#[derive(Debug)]
pub(crate) struct ResultCache {
    capacity: usize,
    entries: HashMap<CacheKey, Entry>,
    /// Recency index: stamp → key, oldest first. Stamps are unique because
    /// `clock` is bumped on every touch.
    recency: BTreeMap<u64, CacheKey>,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ResultCache {
    /// Creates an empty cache holding at most `capacity` reports.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        ResultCache {
            capacity,
            entries: HashMap::new(),
            recency: BTreeMap::new(),
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks up the key with these `bits`, counting a hit or miss and
    /// refreshing recency on hit.
    pub fn get(&mut self, bits: &[u64]) -> Option<PerformanceReport> {
        self.clock += 1;
        let clock = self.clock;
        match self.entries.get_mut(bits) {
            Some(entry) => {
                self.hits += 1;
                let key = self
                    .recency
                    .remove(&entry.stamp)
                    .expect("every entry has a recency stamp");
                entry.stamp = clock;
                self.recency.insert(clock, key);
                Some(entry.report.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) `key → report`, evicting the least recently
    /// used entry when the cache is full.
    pub fn insert(&mut self, key: CacheKey, report: PerformanceReport) {
        self.clock += 1;
        if let Some(old) = self.entries.remove(&key) {
            self.recency.remove(&old.stamp);
        } else if self.entries.len() >= self.capacity {
            // pop_first is stable Rust ≥ 1.66; oldest stamp = LRU entry.
            if let Some((_, lru_key)) = self.recency.pop_first() {
                self.entries.remove(&lru_key);
                self.evictions += 1;
            }
        }
        self.recency.insert(self.clock, Arc::clone(&key));
        self.entries.insert(
            key,
            Entry {
                report,
                stamp: self.clock,
            },
        );
    }

    /// Number of cached reports.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that required a simulation.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries dropped by LRU pressure.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(tag: u64) -> CacheKey {
        CacheKey::from([tag])
    }

    fn report(value: f64) -> PerformanceReport {
        let mut r = PerformanceReport::new();
        r.set("metric", value);
        r
    }

    #[test]
    fn hit_returns_the_identical_report_and_counts() {
        let mut cache = ResultCache::new(4);
        assert_eq!(cache.get(&key(1)), None);
        cache.insert(key(1), report(2.5));
        assert_eq!(cache.get(&key(1)), Some(report(2.5)));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn eviction_respects_capacity_and_lru_order() {
        let mut cache = ResultCache::new(2);
        cache.insert(key(1), report(1.0));
        cache.insert(key(2), report(2.0));
        assert!(cache.get(&key(1)).is_some()); // key 1 is now most recent
        cache.insert(key(3), report(3.0)); // evicts key 2 (LRU)
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(2)).is_none());
        assert!(cache.get(&key(3)).is_some());
    }

    #[test]
    fn reinsert_refreshes_instead_of_growing() {
        let mut cache = ResultCache::new(2);
        cache.insert(key(1), report(1.0));
        cache.insert(key(1), report(9.0));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&key(1)), Some(report(9.0)));
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = ResultCache::new(0);
    }
}
