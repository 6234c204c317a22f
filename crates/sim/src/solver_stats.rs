//! Process-wide counters for the linear-solver hot path.
//!
//! The execution engine fans evaluations out over worker threads, so the
//! counters are lock-free atomics.  The bench harness snapshots them to report
//! how much work the symbolic-reuse machinery actually saved (one symbolic
//! analysis amortised over many numeric refactorisations) and how many DC
//! Newton steps ran.

use std::sync::atomic::{AtomicU64, Ordering};

static SYMBOLIC_ANALYSES: AtomicU64 = AtomicU64::new(0);
static SPARSE_REFACTORS: AtomicU64 = AtomicU64::new(0);
static SPARSE_SOLVES: AtomicU64 = AtomicU64::new(0);
static DENSE_FACTORS: AtomicU64 = AtomicU64::new(0);
static DENSE_SOLVES: AtomicU64 = AtomicU64::new(0);
static TEMPLATE_HITS: AtomicU64 = AtomicU64::new(0);
static TEMPLATE_BUILDS: AtomicU64 = AtomicU64::new(0);
static CACHE_EVICTIONS: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the solver counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolverStats {
    /// Symbolic LU analyses performed (once per sparsity pattern).
    pub symbolic_analyses: u64,
    /// Numeric sparse refactorisations against a shared symbolic analysis.
    pub sparse_refactors: u64,
    /// Right-hand sides solved through the sparse path.
    pub sparse_solves: u64,
    /// DC Newton steps of the Three-TIA's bias solve, each counted as one
    /// factorisation of its (scalar) Jacobian.
    pub dense_factors: u64,
    /// The same steps, each counted as one solve of that Jacobian.
    pub dense_solves: u64,
    /// Compiles served by the per-topology template cache (pattern build,
    /// slot lookups and symbolic analysis all skipped).
    pub template_hits: u64,
    /// Templates built from scratch (first compile of a topology).
    pub template_builds: u64,
    /// Kept only because `perfbench` reads it; always 0.
    pub update_hits: u64,
    /// Kept only because `perfbench` reads it; always 0.
    pub refactor_fallbacks: u64,
    /// Cold entries evicted from the template cache at capacity.
    pub cache_evictions: u64,
}

impl SolverStats {
    /// Numeric refactorisations amortised per symbolic analysis.
    pub fn reuse_ratio(&self) -> f64 {
        if self.symbolic_analyses == 0 {
            0.0
        } else {
            self.sparse_refactors as f64 / self.symbolic_analyses as f64
        }
    }

    /// Fraction of compiles served by the per-topology template cache.
    pub fn template_hit_rate(&self) -> f64 {
        let total = self.template_hits + self.template_builds;
        if total == 0 {
            0.0
        } else {
            self.template_hits as f64 / total as f64
        }
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{} symbolic analyses, {} sparse refactors ({:.1}x reuse), {} sparse solves, {} dense factors, {} dense solves, {} template hits / {} builds ({:.1}% hit rate), {} cache evictions",
            self.symbolic_analyses,
            self.sparse_refactors,
            self.reuse_ratio(),
            self.sparse_solves,
            self.dense_factors,
            self.dense_solves,
            self.template_hits,
            self.template_builds,
            100.0 * self.template_hit_rate(),
            self.cache_evictions,
        )
    }
}

pub(crate) fn record_symbolic_analysis() {
    SYMBOLIC_ANALYSES.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_sparse_refactor() {
    SPARSE_REFACTORS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_sparse_solve() {
    SPARSE_SOLVES.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_dense_factor() {
    DENSE_FACTORS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_dense_solve() {
    DENSE_SOLVES.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_template_hit() {
    TEMPLATE_HITS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_template_build() {
    TEMPLATE_BUILDS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_cache_eviction() {
    CACHE_EVICTIONS.fetch_add(1, Ordering::Relaxed);
}

/// Reads the current counters.
pub fn snapshot() -> SolverStats {
    SolverStats {
        symbolic_analyses: SYMBOLIC_ANALYSES.load(Ordering::Relaxed),
        sparse_refactors: SPARSE_REFACTORS.load(Ordering::Relaxed),
        sparse_solves: SPARSE_SOLVES.load(Ordering::Relaxed),
        dense_factors: DENSE_FACTORS.load(Ordering::Relaxed),
        dense_solves: DENSE_SOLVES.load(Ordering::Relaxed),
        template_hits: TEMPLATE_HITS.load(Ordering::Relaxed),
        template_builds: TEMPLATE_BUILDS.load(Ordering::Relaxed),
        update_hits: 0,
        refactor_fallbacks: 0,
        cache_evictions: CACHE_EVICTIONS.load(Ordering::Relaxed),
    }
}

/// Resets every counter to zero (bench-harness bookkeeping).
pub fn reset() {
    SYMBOLIC_ANALYSES.store(0, Ordering::Relaxed);
    SPARSE_REFACTORS.store(0, Ordering::Relaxed);
    SPARSE_SOLVES.store(0, Ordering::Relaxed);
    DENSE_FACTORS.store(0, Ordering::Relaxed);
    DENSE_SOLVES.store(0, Ordering::Relaxed);
    TEMPLATE_HITS.store(0, Ordering::Relaxed);
    TEMPLATE_BUILDS.store(0, Ordering::Relaxed);
    CACHE_EVICTIONS.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuse_ratio_and_summary() {
        let stats = SolverStats {
            symbolic_analyses: 2,
            sparse_refactors: 50,
            sparse_solves: 60,
            dense_factors: 3,
            dense_solves: 3,
            template_hits: 9,
            template_builds: 1,
            update_hits: 12,
            refactor_fallbacks: 4,
            cache_evictions: 2,
        };
        assert!((stats.reuse_ratio() - 25.0).abs() < 1e-12);
        assert!((stats.template_hit_rate() - 0.9).abs() < 1e-12);
        assert!(stats.summary().contains("25.0x reuse"));
        assert!(stats.summary().contains("9 template hits"));
        assert!(stats.summary().contains("2 cache evictions"));
        // The perfbench-only stubs stay out of the summary.
        assert!(!stats.summary().contains("update"));
        assert!(!stats.summary().contains("fallback"));
        assert_eq!(SolverStats::default().reuse_ratio(), 0.0);
        assert_eq!(SolverStats::default().template_hit_rate(), 0.0);
    }
}
