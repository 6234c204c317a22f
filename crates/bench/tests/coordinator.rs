//! Determinism of the sharded coordinator: the same cell queue drained by
//! 1, 2 and 4 workers must produce identical cell results and identical
//! request, simulation and cache counts in every `(benchmark, node)` service
//! the cells share. Covered per binary: the Table I method grid, the Table
//! II/III method rows (weighted-FoM ablations included) and the Table IV/V
//! and Figure 7/8 transfer runs.

use gcnrl::ExecStats;
use gcnrl_bench::cells::{
    fig7_cells, fig8_cells, table2_cells, table3_cells, table4_cells, table5_cells, table_cells,
};
use gcnrl_bench::{drain_cells, Cell, CoordinatorConfig, DrainReport, ExperimentConfig};
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

/// Drains the same queue at 1, 2 and 4 workers, asserts identical outputs
/// and identical per-service engine counts, and returns the 1-worker drain.
fn assert_drain_deterministic<C>(label: &str, cells: Vec<C>) -> DrainReport<C::Output>
where
    C: Cell + Clone,
    C::Output: PartialEq + std::fmt::Debug,
{
    let mut runs: Vec<_> = [1usize, 2, 4]
        .into_iter()
        .map(|workers| {
            let coord = CoordinatorConfig::default().with_workers(workers);
            (workers, drain_cells(cells.clone(), &coord))
        })
        .collect();
    let (_, reference) = runs.remove(0);
    assert!(!reference.services.is_empty(), "{label}: no service opened");
    for service in &reference.services {
        assert!(service.engine.requests > 0, "{label}: idle service");
        assert_eq!(
            service.engine.evictions, 0,
            "{label}: the budget must hold every design for exact counts"
        );
    }
    for (workers, run) in &runs {
        assert_eq!(run.values.len(), cells.len(), "{label}");
        for (i, (value, expected)) in run.values.iter().zip(&reference.values).enumerate() {
            assert_eq!(
                value, expected,
                "{label} workers={workers}: cell {i} value diverged"
            );
        }
        assert_eq!(
            engine_counts(run),
            engine_counts(&reference),
            "{label} workers={workers}: engine counts diverged"
        );
    }
    reference
}

/// Each service's engine statistics, keyed by benchmark and node, with the
/// wall time zeroed. The batch count is compared too: every non-empty
/// session call is one engine batch.
fn engine_counts<T>(report: &DrainReport<T>) -> Vec<(String, String, ExecStats)> {
    report
        .services
        .iter()
        .map(|service| {
            let engine = ExecStats {
                wall_seconds: 0.0,
                ..service.engine
            };
            (service.benchmark.clone(), service.node.clone(), engine)
        })
        .collect()
}

#[test]
fn shard_order_and_worker_count_do_not_change_the_table() {
    let node = TechnologyNode::tsmc180();
    let cfg = tiny_cfg();
    // Two benchmarks × 7 methods × 1 seed = 14 cells: enough to interleave
    // while staying CI-sized.
    let mut cells = table_cells(&[Benchmark::TwoStageTia, Benchmark::Ldo], &node, &cfg);
    cells.iter_mut().for_each(|c| c.ddpg = tiny_ddpg());
    let report = assert_drain_deterministic("table1", cells);
    assert_eq!(report.services.len(), 2, "one service per benchmark");
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
    let count = cells.len() as u64;
    let report = assert_drain_deterministic("table2", cells);
    // Every cell calibrates its FoM on the same sweep, so each cell after
    // the first reads that sweep from the shared Two-TIA cache.
    let hits: u64 = report.services.iter().map(|s| s.engine.cache_hits).sum();
    let calibration = tiny_cfg().calibration as u64;
    assert!(
        hits >= (count - 1) * calibration,
        "{count} cells sharing a {calibration}-design calibration got only {hits} cache hits"
    );
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
