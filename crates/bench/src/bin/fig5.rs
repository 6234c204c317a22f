//! Figure 5: learning curves (best FoM vs simulation count) of every method
//! on the four benchmark circuits.
//!
//! The whole figure — all four benchmarks × seven methods × seeds — is one
//! queue of method runs ([`MethodCell`](gcnrl_bench::MethodCell)s) drained
//! by the sharded coordinator in a single pass, so the figure's cells
//! interleave across benchmarks on multi-core hosts instead of running
//! benchmark-by-benchmark. The curves are identical for any worker count.

use gcnrl_bench::cells::{method_results, table_cells};
use gcnrl_bench::{
    budget_from_env, drain_cells, print_engine_stats, print_series, write_json, CoordinatorConfig,
    ExperimentConfig, SeriesSummary,
};
use gcnrl_circuit::{benchmarks::Benchmark, TechnologyNode};

fn main() {
    let cfg = budget_from_env(ExperimentConfig::smoke());
    let coord = CoordinatorConfig::from_env();
    let node = TechnologyNode::tsmc180();
    println!(
        "Figure 5 — learning curves (budget={}, seeds={}, {} workers)",
        cfg.budget, cfg.seeds, coord.workers
    );

    let cells = table_cells(&Benchmark::ALL, &node, &cfg);
    let report = drain_cells(cells.clone(), &coord);

    let mut dump = Vec::new();
    for benchmark in Benchmark::ALL {
        let series: Vec<SeriesSummary> = method_results(&cells, &report.values, benchmark)
            .iter()
            .map(|r| SeriesSummary {
                label: r.method.clone(),
                curve: r.best_curve.clone(),
            })
            .collect();
        print_series(&format!("{benchmark}"), &series);
        dump.push((benchmark.paper_name().to_string(), series));
    }
    print_engine_stats("evaluation engine — Figure 5 queue", &report.services);
    write_json("fig5", &dump);
}
