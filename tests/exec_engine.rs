//! Integration tests of the `gcnrl-exec` evaluation engine through the full
//! stack: `SizingEnv::evaluate_batch` determinism across thread counts,
//! bit-identical cache hits and LRU capacity limits.

use gcn_rl_circuit_designer::circuit::{benchmarks::Benchmark, TechnologyNode};
use gcn_rl_circuit_designer::exec::{BatchEvaluator, EngineConfig};
use gcn_rl_circuit_designer::gcnrl::{FomConfig, SizingEnv, StateEncoding, StepOutcome};

fn env_with_threads(threads: usize) -> SizingEnv {
    let node = TechnologyNode::tsmc180();
    let fom = FomConfig::calibrated(Benchmark::TwoStageTia, &node, 6, 0);
    SizingEnv::with_engine_config(
        Benchmark::TwoStageTia,
        &node,
        fom,
        StateEncoding::ScalarIndex,
        EngineConfig::serial().with_threads(threads),
    )
}

fn unit_population(env: &SizingEnv, n: usize) -> Vec<Vec<f64>> {
    let d = env.num_unit_parameters();
    (0..n)
        .map(|i| {
            (0..d)
                .map(|j| ((i * 17 + j * 3) % 89) as f64 / 88.0)
                .collect()
        })
        .collect()
}

#[test]
fn evaluate_batch_is_deterministic_across_thread_counts() {
    let reference_env = env_with_threads(1);
    let units = unit_population(&reference_env, 24);
    let reference: Vec<StepOutcome> = units
        .iter()
        .map(|u| reference_env.evaluate_unit(u))
        .collect();

    for threads in [1usize, 2, 4, 8] {
        let env = env_with_threads(threads);
        let batched = env.evaluate_units(&units);
        assert_eq!(
            batched, reference,
            "order/values must match serial, threads={threads}"
        );
        let batch = env.engine().last_batch();
        assert_eq!(batch.size, 24);
        assert!(batch.threads <= threads.max(1));
    }
}

#[test]
fn cache_hits_return_bit_identical_outcomes_through_the_env() {
    let env = env_with_threads(2);
    let units = unit_population(&env, 8);
    let first = env.evaluate_units(&units);
    let stats_after_first = env.exec_stats();
    let second = env.evaluate_units(&units);
    let stats_after_second = env.exec_stats();

    assert_eq!(first, second, "cached reports must be bit-identical");
    assert_eq!(stats_after_second.simulated, stats_after_first.simulated);
    assert_eq!(
        stats_after_second.cache_hits,
        stats_after_first.cache_hits + units.len() as u64
    );
    assert!(stats_after_second.hit_rate() > 0.0);
}

#[test]
fn lru_capacity_is_respected_through_the_engine() {
    let node = TechnologyNode::tsmc180();
    let engine = BatchEvaluator::for_benchmark(
        Benchmark::TwoStageTia,
        &node,
        EngineConfig::serial().with_cache_capacity(4),
    );
    let space = Benchmark::TwoStageTia.circuit().design_space(&node);
    let candidates: Vec<_> = (0..10)
        .map(|i| {
            let unit: Vec<f64> = (0..space.num_parameters())
                .map(|j| ((i * 7 + j) % 23) as f64 / 22.0)
                .collect();
            space.from_unit(&unit)
        })
        .collect();
    let _ = engine.evaluate_batch(&candidates);
    let stats = engine.stats();
    assert_eq!(stats.cache_len, 4, "cache must not exceed its capacity");
    assert_eq!(stats.evictions, 6);
}

#[test]
fn duplicate_candidates_in_one_batch_simulate_once() {
    let env = env_with_threads(4);
    let mut units = unit_population(&env, 3);
    units.extend(unit_population(&env, 3)); // same three again
    let outcomes = env.evaluate_units(&units);
    assert_eq!(outcomes[0], outcomes[3]);
    assert_eq!(outcomes[1], outcomes[4]);
    assert_eq!(outcomes[2], outcomes[5]);
    let batch = env.engine().last_batch();
    assert_eq!(batch.simulated, 3);
    assert_eq!(batch.cache_hits, 3);
}
