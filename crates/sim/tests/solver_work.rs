//! The exact linear-solver work of one evaluation, per benchmark circuit.
//!
//! Every evaluation of a nominal tsmc180 design does a fixed amount of
//! solver work, so the process-wide `solver_stats` counters move by exact
//! amounts. This file holds a single test so it runs in a process of its
//! own: no other test touches the counters while it reads them.

use gcnrl_circuit::{benchmarks::Benchmark, TechnologyNode};
use gcnrl_sim::evaluators::evaluator_for;
use gcnrl_sim::{solver_stats, SolverStats};

/// Counter movement between two snapshots.
fn delta(after: SolverStats, before: SolverStats) -> SolverStats {
    SolverStats {
        symbolic_analyses: after.symbolic_analyses - before.symbolic_analyses,
        sparse_refactors: after.sparse_refactors - before.sparse_refactors,
        sparse_solves: after.sparse_solves - before.sparse_solves,
        dense_factors: after.dense_factors - before.dense_factors,
        dense_solves: after.dense_solves - before.dense_solves,
        template_hits: after.template_hits - before.template_hits,
        template_builds: after.template_builds - before.template_builds,
        update_hits: after.update_hits - before.update_hits,
        refactor_fallbacks: after.refactor_fallbacks - before.refactor_fallbacks,
        cache_evictions: after.cache_evictions - before.cache_evictions,
    }
}

#[test]
fn each_evaluation_does_a_fixed_amount_of_solver_work() {
    let node = TechnologyNode::tsmc180();
    // (circuit, sparse refactors, sparse solves, dense factors, templates):
    // the solves include the spot transfer solve and one injection solve
    // per noise source on top of the sweep.
    let expected = [
        (Benchmark::TwoStageTia, 98, 106, 0, 1),
        (Benchmark::TwoStageVoltageAmp, 219, 227, 0, 2),
        (Benchmark::ThreeStageTia, 97, 97, 6, 1),
        (Benchmark::Ldo, 109, 109, 0, 1),
    ];
    for (benchmark, refactors, solves, dense, templates) in expected {
        let evaluator = evaluator_for(benchmark, &node);
        let nominal = benchmark.circuit().design_space(&node).nominal();
        let work = |symbolic_analyses, template_hits, template_builds| SolverStats {
            symbolic_analyses,
            sparse_refactors: refactors,
            sparse_solves: solves,
            dense_factors: dense,
            dense_solves: dense,
            template_hits,
            template_builds,
            update_hits: 0,
            refactor_fallbacks: 0,
            cache_evictions: 0,
        };

        // The first call analyses the pattern and builds the templates.
        let before = solver_stats::snapshot();
        evaluator.evaluate(&nominal);
        let first = delta(solver_stats::snapshot(), before);
        assert_eq!(first, work(1, 0, templates), "{benchmark}: first call");

        // The second call reuses both: no analysis, every template a hit.
        let before = solver_stats::snapshot();
        evaluator.evaluate(&nominal);
        let second = delta(solver_stats::snapshot(), before);
        assert_eq!(second, work(0, templates, 0), "{benchmark}: second call");
    }
}
