//! Test/benchmark support: a configurable-latency stand-in evaluator, and
//! one that panics on a poisoned candidate.

use gcnrl_circuit::{benchmarks::Benchmark, ParamVector, TechnologyNode};
use gcnrl_sim::evaluators::Evaluator;
use gcnrl_sim::{MetricSpec, PerformanceReport};
use std::time::Duration;

/// A stand-in for an external (process/network-bound) simulator: it sleeps
/// for a fixed latency, then reports the flat parameter sum.
///
/// This is the regime the engine targets — the paper's real bottleneck is
/// commercial SPICE invocations whose latency is not CPU-bound — and the
/// sleep makes worker-pool overlap observable even on a single core. Used by
/// the engine's own tests and the `exec` benchmark in `gcnrl-bench`.
pub struct LatencyEvaluator {
    node: TechnologyNode,
    specs: Vec<MetricSpec>,
    latency: Duration,
}

impl LatencyEvaluator {
    /// Creates an evaluator that sleeps `latency` per candidate.
    pub fn new(latency: Duration) -> Self {
        LatencyEvaluator {
            node: TechnologyNode::tsmc180(),
            specs: Vec::new(),
            latency,
        }
    }
}

impl Evaluator for LatencyEvaluator {
    fn benchmark(&self) -> Benchmark {
        Benchmark::TwoStageTia
    }

    fn technology(&self) -> &TechnologyNode {
        &self.node
    }

    fn metric_specs(&self) -> &[MetricSpec] {
        &self.specs
    }

    fn evaluate(&self, params: &ParamVector) -> PerformanceReport {
        std::thread::sleep(self.latency);
        let mut report = PerformanceReport::new();
        report.set("flat_sum", params.to_flat().iter().sum());
        report
    }
}

/// A [`LatencyEvaluator`] that panics with `device R666 out of saturation`,
/// after its latency, on every candidate whose first parameter is `666.0`:
/// the poisoned input of the panic-propagation tests.
pub struct PanickyEvaluator(pub LatencyEvaluator);

impl Evaluator for PanickyEvaluator {
    fn benchmark(&self) -> Benchmark {
        self.0.benchmark()
    }

    fn technology(&self) -> &TechnologyNode {
        self.0.technology()
    }

    fn metric_specs(&self) -> &[MetricSpec] {
        self.0.metric_specs()
    }

    fn evaluate(&self, params: &ParamVector) -> PerformanceReport {
        let report = self.0.evaluate(params);
        assert!(
            params.to_flat()[0] != 666.0,
            "device R666 out of saturation"
        );
        report
    }
}
