//! Figure 7: node-transfer learning curves on the Three-TIA — the agent
//! trained at 180 nm is fine-tuned at 45/65/130/250 nm and compared against
//! training from scratch with the same small budget and the same seeds.
//!
//! Every (target node, mode) curve is the best-FoM curve of one transfer run
//! ([`TransferCell`](gcnrl_bench::TransferCell)) drained through the
//! sharded coordinator; the curves are identical for any worker count.

use gcnrl_bench::cells::{fig7_cells, finetune_budget};
use gcnrl_bench::{
    budget_from_env, drain_cells, print_engine_stats, print_series, write_json, CoordinatorConfig,
    ExperimentConfig, SeriesSummary,
};
use gcnrl_circuit::{benchmarks::Benchmark, TechnologyNode};

fn main() {
    let cfg = budget_from_env(ExperimentConfig::smoke());
    let coord = CoordinatorConfig::from_env();
    let source = TechnologyNode::tsmc180();
    let benchmark = Benchmark::ThreeStageTia;
    let targets = [
        TechnologyNode::n45(),
        TechnologyNode::n65(),
        TechnologyNode::n130(),
        TechnologyNode::n250(),
    ];
    let (budget, warmup) = finetune_budget(&cfg);

    println!(
        "Figure 7 — Three-TIA node-transfer curves (finetune budget={budget}, warm-up={warmup}, {} workers)",
        coord.workers
    );

    let cells = fig7_cells(benchmark, &source, &targets, &cfg);
    let report = drain_cells(cells.clone(), &coord);
    // The queue pairs (scratch, transfer) per target, in target order; the
    // specs are re-checked per chunk so reordering cannot mislabel a panel.
    let mut dump = Vec::new();
    for ((target, pair), specs) in targets
        .iter()
        .zip(report.values.chunks(2))
        .zip(cells.chunks(2))
    {
        assert!(
            specs.len() == 2
                && specs.iter().all(|c| c.target.1.name == target.name)
                && specs[0].source.is_none()
                && specs[1].source.is_some(),
            "fig7 queue order diverged from the panel layout for {}",
            target.name
        );
        let series: Vec<_> = specs
            .iter()
            .zip(pair)
            .map(|(spec, run)| SeriesSummary {
                label: match &spec.source {
                    Some((_, node)) => format!("Transfer from {}", node.name),
                    None => "No Transfer".to_owned(),
                },
                curve: run.best_curve(),
            })
            .collect();
        print_series(&format!("target node {}", target.name), &series);
        dump.push((target.name.clone(), series));
    }
    print_engine_stats("evaluation engine — Figure 7 queue", &report.services);
    write_json("fig7", &dump);
}
