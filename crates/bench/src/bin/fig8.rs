//! Figure 8: topology-transfer learning curves between the Two-TIA and the
//! Three-TIA, comparing GCN-RL transfer, NG-RL transfer and no transfer.
//!
//! Every (direction, mode) curve is the best-FoM curve of one transfer run
//! ([`TransferCell`](gcnrl_bench::TransferCell)) drained through the
//! sharded coordinator; the curves are identical for any worker count.

use gcnrl::AgentKind;
use gcnrl_bench::cells::{fig8_cells, finetune_budget};
use gcnrl_bench::{
    budget_from_env, drain_cells, print_engine_stats, print_series, write_json, CoordinatorConfig,
    ExperimentConfig, SeriesSummary,
};
use gcnrl_circuit::{benchmarks::Benchmark, TechnologyNode};

fn main() {
    let cfg = budget_from_env(ExperimentConfig::smoke());
    let coord = CoordinatorConfig::from_env();
    let node = TechnologyNode::tsmc180();
    let directions = [
        (Benchmark::TwoStageTia, Benchmark::ThreeStageTia),
        (Benchmark::ThreeStageTia, Benchmark::TwoStageTia),
    ];
    let (budget, warmup) = finetune_budget(&cfg);

    println!(
        "Figure 8 — topology-transfer curves (finetune budget={budget}, warm-up={warmup}, {} workers)",
        coord.workers
    );

    let cells = fig8_cells(&directions, &node, &cfg);
    let report = drain_cells(cells.clone(), &coord);
    // The queue holds three mode curves per direction, in direction order;
    // the specs are re-checked per chunk so reordering cannot mislabel one.
    let mut dump = Vec::new();
    for (((source, target), trio), specs) in directions
        .iter()
        .zip(report.values.chunks(3))
        .zip(cells.chunks(3))
    {
        assert!(
            specs.len() == 3
                && specs.iter().all(|c| c.target.0 == *target)
                && specs[0].source.is_none()
                && specs[1..]
                    .iter()
                    .all(|c| c.source.as_ref().map(|s| s.0) == Some(*source)),
            "fig8 queue order diverged from the panel layout for {} -> {}",
            source.paper_name(),
            target.paper_name()
        );
        let series: Vec<_> = specs
            .iter()
            .zip(trio)
            .map(|(spec, run)| SeriesSummary {
                label: match (&spec.source, spec.kind) {
                    (None, _) => "No Transfer",
                    (Some(_), AgentKind::NonGcn) => "NG-RL Transfer",
                    (Some(_), AgentKind::Gcn) => "GCN-RL Transfer",
                }
                .to_owned(),
                curve: run.best_curve(),
            })
            .collect();
        print_series(
            &format!("{} -> {}", source.paper_name(), target.paper_name()),
            &series,
        );
        dump.push((
            format!("{}->{}", source.paper_name(), target.paper_name()),
            series,
        ));
    }
    print_engine_stats("evaluation engine — Figure 8 queue", &report.services);
    write_json("fig8", &dump);
}
