//! Table I: FoM comparison of all methods on the four benchmark circuits.
//!
//! All `benchmark × method × seed` method runs
//! ([`MethodCell`](gcnrl_bench::MethodCell)s) go into one work queue drained
//! by the sharded coordinator (`GCNRL_WORKERS` concurrent cells, one shared
//! evaluation cache per benchmark); the assembled table is identical for
//! any worker count.

use gcnrl_bench::cells::{method_results, table_cells};
use gcnrl_bench::{
    budget_from_env, drain_cells, print_engine_stats, write_json, CoordinatorConfig,
    ExperimentConfig,
};
use gcnrl_circuit::{benchmarks::Benchmark, TechnologyNode};

fn main() {
    let cfg = budget_from_env(ExperimentConfig::smoke());
    let coord = CoordinatorConfig::from_env();
    let node = TechnologyNode::tsmc180();
    println!(
        "Table I — FoM comparison (budget={}, seeds={}, rollout_k={}, {} workers)",
        cfg.budget, cfg.seeds, cfg.rollout_k, coord.workers
    );
    println!(
        "{:<10} {:>14} {:>14} {:>14} {:>14}",
        "Method", "Two-TIA", "Two-Volt", "Three-TIA", "LDO"
    );

    let cells = table_cells(&Benchmark::ALL, &node, &cfg);
    let report = drain_cells(cells.clone(), &coord);
    let per_bench: Vec<_> = Benchmark::ALL
        .iter()
        .map(|&b| method_results(&cells, &report.values, b))
        .collect();

    let mut rows: Vec<(String, Vec<String>)> = Vec::new();
    for (i, method) in gcnrl_bench::METHODS.iter().enumerate() {
        let cells: Vec<String> = per_bench.iter().map(|r| r[i].formatted()).collect();
        println!(
            "{:<10} {:>14} {:>14} {:>14} {:>14}",
            method, cells[0], cells[1], cells[2], cells[3]
        );
        rows.push((method.to_string(), cells));
    }
    print_engine_stats("evaluation engine — Table I queue", &report.services);
    write_json("table1", &rows);
}
