//! The evaluation-backend abstraction: how an optimisation run reaches the
//! engine.
//!
//! Callers used to own a [`BatchEvaluator`] directly, which tied every
//! environment to a private engine instance. [`EvalBackend`] decouples the
//! two: an environment only needs *something that evaluates batches and
//! reports statistics*, which is satisfied by
//!
//! * an owned [`BatchEvaluator`] — the classic single-client setup, and
//! * a [`SessionHandle`](crate::SessionHandle) — one client of an
//!   [`EvalService`](crate::EvalService) multiplexing many concurrent
//!   sessions onto one engine + cache.

use crate::engine::BatchEvaluator;
use crate::stats::{BatchReport, ExecStats};
use gcnrl_circuit::{benchmarks::Benchmark, ParamVector, TechnologyNode};
use gcnrl_sim::{MetricSpec, PerformanceReport};

/// A route to the evaluation engine: either a privately owned
/// [`BatchEvaluator`] or a session of a shared
/// [`EvalService`](crate::EvalService).
///
/// Implementations are pure with respect to the parameter vectors — for a
/// given candidate the returned report is bit-identical regardless of
/// backend, thread count or cache state — so optimisers can swap backends
/// without changing results.
pub trait EvalBackend: Send + Sync {
    /// The benchmark this backend evaluates.
    fn benchmark(&self) -> Benchmark;

    /// The technology node the devices are evaluated in.
    fn technology(&self) -> &TechnologyNode;

    /// Metric descriptions of the underlying evaluator.
    fn metric_specs(&self) -> &[MetricSpec];

    /// Evaluates a batch of candidates, returning reports in input order.
    fn evaluate_batch(&self, params: &[ParamVector]) -> Vec<PerformanceReport>;

    /// Kept only because `perfbench` forwards it: ignores `base` and evaluates the batch.
    fn evaluate_batch_with_base(
        &self,
        base: &ParamVector,
        params: &[ParamVector],
    ) -> Vec<PerformanceReport> {
        let _ = base;
        self.evaluate_batch(params)
    }

    /// Cumulative statistics of the engine serving this backend. For session
    /// backends the statistics cover the whole shared engine, so concurrent
    /// sessions see each other's cache hits here.
    fn stats(&self) -> ExecStats;

    /// Statistics of the engine's most recent batch.
    fn last_batch(&self) -> BatchReport;
}

impl EvalBackend for BatchEvaluator {
    fn benchmark(&self) -> Benchmark {
        BatchEvaluator::benchmark(self)
    }

    fn technology(&self) -> &TechnologyNode {
        BatchEvaluator::technology(self)
    }

    fn metric_specs(&self) -> &[MetricSpec] {
        BatchEvaluator::metric_specs(self)
    }

    fn evaluate_batch(&self, params: &[ParamVector]) -> Vec<PerformanceReport> {
        BatchEvaluator::evaluate_batch(self, params)
    }

    fn stats(&self) -> ExecStats {
        BatchEvaluator::stats(self)
    }

    fn last_batch(&self) -> BatchReport {
        BatchEvaluator::last_batch(self)
    }
}
