//! BO's in-program spans: one GP fit and one acquisition pass per iteration.
//! The metrics registry is process-wide, so this file holds one test.

use gcnrl::{FomConfig, SizingEnv};
use gcnrl_baselines::bayesian_optimization;
use gcnrl_circuit::{benchmarks::Benchmark, TechnologyNode};

/// Random warm-up evaluations before the first fit.
const WARMUP: usize = 10;

#[test]
fn bo_records_one_fit_and_one_acquisition_per_iteration() {
    let node = TechnologyNode::tsmc180();
    let fom = FomConfig::calibrated(Benchmark::TwoStageTia, &node, 6, 0);
    let env = SizingEnv::new(Benchmark::TwoStageTia, &node, fom);
    let budget = 14;
    let history = bayesian_optimization(&env, budget, 3);
    assert_eq!(history.len(), budget);

    let snapshot = gcnrl_telemetry::global().snapshot();
    for span in ["baselines.gp_fit.ns", "baselines.acquire.ns"] {
        let count = snapshot.histogram(span).map_or(0, |h| h.count);
        assert_eq!(count, (budget - WARMUP) as u64, "{span}");
    }
}
