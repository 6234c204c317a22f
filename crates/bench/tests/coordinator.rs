//! Determinism of the sharded coordinator: the same cell queue drained by
//! 1, 2 and 4 workers must produce identical cell results and identical
//! merged engine statistics (wall time excluded — it is the only
//! nondeterministic field). Covered per binary: the Table I method grid,
//! the Table II/III method rows (weighted-FoM ablations included) and the
//! Table IV/V and Figure 7/8 transfer runs.

use gcnrl::ExecStats;
use gcnrl_bench::cells::{
    fig7_cells, fig8_cells, table2_cells, table3_cells, table4_cells, table5_cells, table_cells,
};
use gcnrl_bench::{drain_cells, merge_exec_stats, Cell, CoordinatorConfig, ExperimentConfig};
use gcnrl_circuit::{benchmarks::Benchmark, TechnologyNode};

fn tiny_cfg() -> ExperimentConfig {
    ExperimentConfig {
        budget: 8,
        warmup: 3,
        seeds: 1,
        calibration: 4,
        rollout_k: 2,
    }
}

/// An even smaller budget for the transfer cells (each runs a pretrain plus
/// a fine-tune per cell).
fn transfer_cfg() -> ExperimentConfig {
    ExperimentConfig {
        budget: 6,
        warmup: 2,
        seeds: 1,
        calibration: 3,
        rollout_k: 1,
    }
}

/// A CI-sized agent: determinism across worker counts does not depend on
/// the network size, and the paper-sized default (64 hidden, 7 GCN layers)
/// dominates the debug-build test wall clock.
fn tiny_ddpg() -> gcnrl_rl::DdpgConfig {
    gcnrl_rl::DdpgConfig {
        batch_size: 8,
        hidden_dim: 16,
        gcn_layers: 2,
        ..gcnrl_rl::DdpgConfig::default()
    }
}

/// Drains the same queue at 1, 2 and 4 workers and asserts identical
/// outputs, per-cell engine statistics and merged totals.
fn assert_drain_deterministic<C>(label: &str, cells: Vec<C>)
where
    C: Cell + Clone,
    C::Output: PartialEq + std::fmt::Debug,
{
    let worker_counts = [1usize, 2, 4];
    let runs: Vec<_> = worker_counts
        .iter()
        .map(|&workers| {
            let coord = CoordinatorConfig::default()
                .with_workers(workers)
                .with_cache_budget(4096);
            drain_cells(cells.clone(), &coord)
        })
        .collect();
    let reference = &runs[0];
    for (run, workers) in runs.iter().zip(worker_counts) {
        assert_eq!(run.cells.len(), reference.cells.len(), "{label}");
        for (i, (cell, expected)) in run.cells.iter().zip(&reference.cells).enumerate() {
            assert_eq!(
                cell.value, expected.value,
                "{label} workers={workers}: cell {i} value diverged"
            );
            assert_eq!(
                deterministic(cell.exec),
                deterministic(expected.exec),
                "{label} workers={workers}: cell {i} exec stats diverged"
            );
        }
        assert_eq!(
            deterministic(run.merged_exec),
            deterministic(reference.merged_exec),
            "{label} workers={workers}: merged totals diverged"
        );
        assert!(run.merged_exec.requests > 0, "{label}: queue simulated");
    }
}

/// Zeroes the wall-clock field so the remaining counters can be compared
/// exactly across runs.
fn deterministic(stats: ExecStats) -> ExecStats {
    ExecStats {
        wall_seconds: 0.0,
        ..stats
    }
}

#[test]
fn shard_order_and_worker_count_do_not_change_the_table() {
    let node = TechnologyNode::tsmc180();
    let cfg = tiny_cfg();
    // Two benchmarks × 7 methods × 1 seed = 14 cells: enough to interleave
    // while staying CI-sized.
    let mut cells = table_cells(&[Benchmark::TwoStageTia, Benchmark::Ldo], &node, &cfg);
    cells.iter_mut().for_each(|c| c.ddpg = tiny_ddpg());

    let runs: Vec<_> = [1usize, 2, 4]
        .iter()
        .map(|&workers| {
            let coord = CoordinatorConfig::default()
                .with_workers(workers)
                .with_cache_budget(4096);
            drain_cells(cells.clone(), &coord).cells
        })
        .collect();

    let reference = &runs[0];
    for (run, workers) in runs.iter().zip([1usize, 2, 4]) {
        assert_eq!(run.len(), cells.len(), "workers={workers}");
        for ((cell, expected), spec) in run.iter().zip(reference.iter()).zip(&cells) {
            assert_eq!(
                cell.value, expected.value,
                "workers={workers}: cell ({}, {}, seed {}) diverged",
                spec.benchmark, spec.method, spec.seed
            );
            assert_eq!(
                deterministic(cell.exec),
                deterministic(expected.exec),
                "workers={workers}: exec stats of ({}, {}) diverged",
                spec.benchmark,
                spec.method
            );
        }
        // Merged totals across the whole queue are identical too.
        let merged = deterministic(merge_exec_stats(run.iter().map(|c| c.exec)));
        let merged_ref = deterministic(merge_exec_stats(reference.iter().map(|c| c.exec)));
        assert_eq!(merged, merged_ref, "workers={workers}: merged totals");
        assert!(merged.requests > 0, "the queue actually simulated");
    }
}

// The per-binary sets below are shrunk to CI size: the full `METHODS` grid
// of method runs is already pinned by
// `shard_order_and_worker_count_do_not_change_the_table`, so each set keeps
// just enough cells to cover every cell *kind* its binary enqueues.

#[test]
fn table2_metric_cells_are_deterministic_across_worker_counts() {
    let node = TechnologyNode::tsmc180();
    // Two method rows plus two weighted-FoM ablation rows.
    let cells: Vec<_> = table2_cells(&node, &tiny_cfg())
        .into_iter()
        .enumerate()
        .filter_map(|(i, c)| [0, 6, 7, 8].contains(&i).then_some(c))
        .map(|mut c| {
            c.ddpg = tiny_ddpg();
            c
        })
        .collect();
    assert_drain_deterministic("table2", cells);
}

#[test]
fn table3_metric_cells_are_deterministic_across_worker_counts() {
    let node = TechnologyNode::tsmc180();
    let mut cells = table3_cells(&node, &tiny_cfg());
    cells.truncate(3); // Human, Random, ES cover the Two-Volt method path.
    assert_drain_deterministic("table3", cells);
}

#[test]
fn table4_node_transfer_cells_are_deterministic_across_worker_counts() {
    let node = TechnologyNode::tsmc180();
    // One target node on one benchmark covers both the scratch and the
    // pretrain+fine-tune cell paths.
    let targets = [TechnologyNode::n65()];
    let mut cells = table4_cells(&[Benchmark::TwoStageTia], &node, &targets, &transfer_cfg());
    cells.iter_mut().for_each(|c| c.ddpg = tiny_ddpg());
    assert_drain_deterministic("table4", cells);
}

#[test]
fn table5_topology_transfer_cells_are_deterministic_across_worker_counts() {
    let node = TechnologyNode::tsmc180();
    let directions = [(Benchmark::TwoStageTia, Benchmark::ThreeStageTia)];
    let mut cells = table5_cells(&directions, &node, &transfer_cfg());
    cells.iter_mut().for_each(|c| c.ddpg = tiny_ddpg());
    assert_drain_deterministic("table5", cells);
}

#[test]
fn fig7_curve_cells_are_deterministic_across_worker_counts() {
    let source = TechnologyNode::tsmc180();
    let targets = [TechnologyNode::n45()];
    let mut cells = fig7_cells(Benchmark::ThreeStageTia, &source, &targets, &transfer_cfg());
    cells.iter_mut().for_each(|c| c.ddpg = tiny_ddpg());
    assert_drain_deterministic("fig7", cells);
}

#[test]
fn fig8_curve_cells_are_deterministic_across_worker_counts() {
    let node = TechnologyNode::tsmc180();
    let directions = [(Benchmark::ThreeStageTia, Benchmark::TwoStageTia)];
    let mut cells = fig8_cells(&directions, &node, &transfer_cfg());
    cells.iter_mut().for_each(|c| c.ddpg = tiny_ddpg());
    assert_drain_deterministic("fig8", cells);
}
