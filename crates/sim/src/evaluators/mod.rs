//! Per-benchmark performance evaluators.
//!
//! An [`Evaluator`] is the simulator-facing half of the sizing environment:
//! it maps a concrete [`ParamVector`] to a [`PerformanceReport`] by running a
//! bias analysis (mirror ratios, plus the Three-TIA's scalar DC Newton solve),
//! building the linearised small-signal circuit, sweeping it with the AC
//! solver, and extracting the same metrics the paper reports for that
//! circuit.

mod common;
mod ldo;
mod three_tia;
mod two_tia;
mod two_volt;

pub use common::{BiasTable, SmallSignalBuilder};
pub use ldo::LdoEvaluator;
pub use three_tia::ThreeStageTiaEvaluator;
pub use two_tia::TwoStageTiaEvaluator;
pub use two_volt::TwoStageVoltageAmpEvaluator;

use crate::metrics::{MetricSpec, PerformanceReport};
use gcnrl_circuit::{benchmarks::Benchmark, ParamVector, TechnologyNode};

/// A deterministic map from candidate sizing to measured performance.
///
/// Implementations must be pure functions of the parameter vector (no hidden
/// state), so that optimisers may evaluate candidates in any order and the
/// learning curves of different methods are comparable.
pub trait Evaluator: Send + Sync {
    /// The benchmark this evaluator models.
    fn benchmark(&self) -> Benchmark;

    /// The technology node the devices are evaluated in.
    fn technology(&self) -> &TechnologyNode;

    /// Static description of every metric the report will contain.
    fn metric_specs(&self) -> &[MetricSpec];

    /// Evaluates one candidate sizing.
    fn evaluate(&self, params: &ParamVector) -> PerformanceReport;

    /// Kept only because `perfbench` forwards it: evaluates each candidate on its own.
    fn evaluate_group(
        &self,
        base: &ParamVector,
        candidates: &[ParamVector],
    ) -> Vec<PerformanceReport> {
        let _ = base;
        candidates.iter().map(|p| self.evaluate(p)).collect()
    }
}

/// Builds the evaluator for `benchmark` under technology `node`.
pub fn evaluator_for(benchmark: Benchmark, node: &TechnologyNode) -> Box<dyn Evaluator> {
    match benchmark {
        Benchmark::TwoStageTia => Box::new(TwoStageTiaEvaluator::new(node.clone())),
        Benchmark::TwoStageVoltageAmp => Box::new(TwoStageVoltageAmpEvaluator::new(node.clone())),
        Benchmark::ThreeStageTia => Box::new(ThreeStageTiaEvaluator::new(node.clone())),
        Benchmark::Ldo => Box::new(LdoEvaluator::new(node.clone())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluator_for_builds_all_benchmarks() {
        let node = TechnologyNode::tsmc180();
        for b in Benchmark::ALL {
            let eval = evaluator_for(b, &node);
            assert_eq!(eval.benchmark(), b);
            assert!(!eval.metric_specs().is_empty());
            assert_eq!(eval.technology().name, "180nm");
        }
    }

    #[test]
    fn nominal_designs_produce_reports_with_all_metrics() {
        let node = TechnologyNode::tsmc180();
        for b in Benchmark::ALL {
            let eval = evaluator_for(b, &node);
            let circuit = b.circuit();
            let space = circuit.design_space(&node);
            let report = eval.evaluate(&space.nominal());
            for spec in eval.metric_specs() {
                assert!(
                    report.get(spec.name).is_some(),
                    "{b}: metric {} missing from report",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn evaluation_is_deterministic() {
        let node = TechnologyNode::n65();
        for b in Benchmark::ALL {
            let eval = evaluator_for(b, &node);
            let circuit = b.circuit();
            let space = circuit.design_space(&node);
            let pv = space.nominal();
            assert_eq!(
                eval.evaluate(&pv),
                eval.evaluate(&pv),
                "{b} not deterministic"
            );
        }
    }

    #[test]
    fn extreme_small_devices_are_flagged_infeasible_or_degraded() {
        let node = TechnologyNode::tsmc180();
        let b = Benchmark::TwoStageTia;
        let eval = evaluator_for(b, &node);
        let circuit = b.circuit();
        let space = circuit.design_space(&node);
        // All actions at the extreme lower corner: minimum widths and lengths.
        let actions: Vec<Vec<f64>> = space
            .action_sizes()
            .iter()
            .map(|n| vec![-1.0; *n])
            .collect();
        let report = eval.evaluate(&space.denormalize(&actions));
        let nominal = eval.evaluate(&space.nominal());
        // Either infeasible, or clearly different from the nominal design.
        assert!(!report.feasible || report != nominal);
    }
}
