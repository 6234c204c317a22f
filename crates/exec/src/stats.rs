//! Execution statistics surfaced by the engine and the bench harness.

use serde::{Deserialize, Serialize};

/// Timing and cache statistics of one
/// [`BatchEvaluator::evaluate_batch`](crate::BatchEvaluator::evaluate_batch)
/// call.
///
/// Serializable so per-batch timing can ride the wire `Stats` frames and
/// trace events directly; wall time is stored as seconds rather than a
/// `Duration` so the JSON shape is a flat number.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct BatchReport {
    /// Candidates requested.
    pub size: usize,
    /// Candidates served from the cache (including intra-batch duplicates).
    pub cache_hits: usize,
    /// Candidates that ran in the simulator.
    pub simulated: usize,
    /// Worker threads that participated (1 = serial path).
    pub threads: usize,
    /// Wall time of the whole batch, in seconds.
    pub wall_seconds: f64,
}

/// Cumulative statistics of a [`BatchEvaluator`](crate::BatchEvaluator).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ExecStats {
    /// Total evaluation requests (single + batched).
    pub requests: u64,
    /// Requests that ran the simulator.
    pub simulated: u64,
    /// Requests served from the result cache.
    pub cache_hits: u64,
    /// Cache entries dropped under LRU pressure.
    pub evictions: u64,
    /// Batch calls made.
    pub batches: u64,
    /// Entries currently cached.
    pub cache_len: u64,
    /// Wall-clock seconds during which at least one call was running in
    /// the engine, a call still running included: overlapping calls count
    /// once.
    pub wall_seconds: f64,
}

impl ExecStats {
    /// Fraction of requests served from the cache.
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.requests as f64
        }
    }

    /// Evaluation requests per engine-wall second.
    pub fn throughput(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.requests as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// One-line human-readable summary for harness output.
    pub fn summary(&self) -> String {
        format!(
            "{} requests ({} simulated, {} cached, {:.1}% hit rate) in {:.3}s ({:.0} req/s, {} batches, {} cached entries)",
            self.requests,
            self.simulated,
            self.cache_hits,
            100.0 * self.hit_rate(),
            self.wall_seconds,
            self.throughput(),
            self.batches,
            self.cache_len,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_and_throughput() {
        let stats = ExecStats {
            requests: 10,
            simulated: 4,
            cache_hits: 6,
            wall_seconds: 2.0,
            ..ExecStats::default()
        };
        assert_eq!(stats.hit_rate(), 0.6);
        assert_eq!(stats.throughput(), 5.0);
        assert!(stats.summary().contains("60.0% hit rate"));
    }

    #[test]
    fn empty_stats_are_finite() {
        let stats = ExecStats::default();
        assert_eq!(stats.hit_rate(), 0.0);
        assert_eq!(stats.throughput(), 0.0);
    }

    #[test]
    fn batch_report_round_trips_through_json() {
        let report = BatchReport {
            size: 32,
            cache_hits: 12,
            simulated: 20,
            threads: 8,
            wall_seconds: 1.5,
        };
        let json = serde_json::to_string(&report).expect("serialize");
        let back: BatchReport = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, report);
    }
}
