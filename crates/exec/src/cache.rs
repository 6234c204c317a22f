//! Content-addressed result cache with LRU eviction.

use crate::key::CacheKey;
use gcnrl_sim::PerformanceReport;
use std::collections::{BTreeMap, HashMap};

#[derive(Debug, Clone)]
struct Entry {
    report: PerformanceReport,
    stamp: u64,
}

/// An LRU map from [`CacheKey`] to the bit-identical [`PerformanceReport`]
/// the simulator produced for it, with hit/miss/eviction counters.
///
/// Reports are pure functions of the key (the `Evaluator` contract), so a
/// cached report is indistinguishable from a fresh simulation.
#[derive(Debug)]
pub struct ResultCache {
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

    /// Looks up `key`, counting a hit or miss and refreshing recency on hit.
    pub fn get(&mut self, key: &CacheKey) -> Option<PerformanceReport> {
        self.clock += 1;
        let clock = self.clock;
        match self.entries.get_mut(key) {
            Some(entry) => {
                self.hits += 1;
                self.recency.remove(&entry.stamp);
                entry.stamp = clock;
                self.recency.insert(clock, key.clone());
                Some(entry.report.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Returns whether `key` is cached without touching any counter or the
    /// recency order (used by read-only introspection).
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.entries.contains_key(key)
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
        self.recency.insert(self.clock, key.clone());
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

    /// Returns `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Maximum number of cached reports.
    pub fn capacity(&self) -> usize {
        self.capacity
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

    /// Fraction of lookups served from the cache (0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// All `(key, report)` pairs in unspecified order (for persistence).
    pub fn iter(&self) -> impl Iterator<Item = (&CacheKey, &PerformanceReport)> {
        self.entries.iter().map(|(k, e)| (k, &e.report))
    }

    /// Drops all entries, keeping counters.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.recency.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnrl_circuit::benchmarks::Benchmark;

    fn key(tag: u64) -> CacheKey {
        CacheKey {
            benchmark: Benchmark::TwoStageTia,
            node: "180nm".to_owned(),
            param_bits: vec![tag],
        }
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
        assert_eq!(cache.hit_rate(), 0.5);
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
        assert!(cache.contains(&key(1)));
        assert!(!cache.contains(&key(2)));
        assert!(cache.contains(&key(3)));
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
    fn clear_keeps_counters() {
        let mut cache = ResultCache::new(2);
        cache.insert(key(1), report(1.0));
        let _ = cache.get(&key(1));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = ResultCache::new(0);
    }
}
