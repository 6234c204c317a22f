//! Concurrent first evaluations of one topology build its templates once.
//!
//! Four threads released together by a barrier evaluate the same circuit,
//! which no earlier call in this process has seen. The process-wide
//! template cache must build each of the circuit's templates exactly once,
//! as a single thread does (the count `solver_work.rs` pins), and serve
//! every other request as a hit. This file holds a single test so it runs
//! in a process of its own: no other test touches the counters.

use gcnrl_circuit::{benchmarks::Benchmark, TechnologyNode};
use gcnrl_sim::evaluators::evaluator_for;
use gcnrl_sim::solver_stats;
use std::sync::Barrier;

#[test]
fn concurrent_first_evaluations_build_each_template_once() {
    const THREADS: u64 = 4;
    // Two-Volt lowers to two templates (two sweeps of one evaluation).
    const TEMPLATES: u64 = 2;
    let node = TechnologyNode::tsmc180();
    let benchmark = Benchmark::TwoStageVoltageAmp;
    let nominal = benchmark.circuit().design_space(&node).nominal();
    let barrier = Barrier::new(THREADS as usize);
    let before = solver_stats::snapshot();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                let evaluator = evaluator_for(benchmark, &node);
                barrier.wait();
                evaluator.evaluate(&nominal);
            });
        }
    });
    let after = solver_stats::snapshot();
    let builds = after.template_builds - before.template_builds;
    let hits = after.template_hits - before.template_hits;
    assert_eq!(
        (builds, hits),
        (TEMPLATES, (THREADS - 1) * TEMPLATES),
        "template builds and hits over {THREADS} concurrent first evaluations"
    );
}
