//! Table IV: knowledge transfer from 180 nm to 250/130/65/45 nm on the
//! Two-TIA and Three-TIA, transfer vs no transfer under a 300-step budget
//! (100 warm-up + 200 exploration in the paper).
//!
//! Every `(benchmark, target node, mode, seed)` combination is one transfer
//! run ([`TransferCell`](gcnrl_bench::TransferCell)) in a single work queue
//! drained by the sharded coordinator; cells with a source pretrain at
//! 180 nm and then fine-tune. All cells of one benchmark and node share one
//! evaluation cache, the 180 nm pretraining runs included. Each table entry
//! is the mean best FoM over the seeds. The assembled table is identical
//! for any worker count.

use gcnrl_bench::cells::{finetune_budget, table4_cells};
use gcnrl_bench::{
    budget_from_env, drain_cells, print_engine_stats, write_json, CoordinatorConfig,
    ExperimentConfig,
};
use gcnrl_circuit::{benchmarks::Benchmark, TechnologyNode};

fn main() {
    let cfg = budget_from_env(ExperimentConfig::smoke());
    let coord = CoordinatorConfig::from_env();
    let source_node = TechnologyNode::tsmc180();
    let targets = [
        TechnologyNode::n250(),
        TechnologyNode::n130(),
        TechnologyNode::n65(),
        TechnologyNode::n45(),
    ];
    let benchmarks = [Benchmark::TwoStageTia, Benchmark::ThreeStageTia];

    println!(
        "Table IV — node transfer from 180nm (pretrain budget={}, finetune budget={}, seeds={}, {} workers)",
        cfg.budget,
        finetune_budget(&cfg).0,
        cfg.seeds,
        coord.workers
    );
    println!(
        "{:<32} {:>10} {:>10} {:>10} {:>10}",
        "Setting", "250nm", "130nm", "65nm", "45nm"
    );

    let cells = table4_cells(&benchmarks, &source_node, &targets, &cfg);
    let report = drain_cells(cells.clone(), &coord);

    // Fold the per-seed cells back into the table's (benchmark, mode) rows.
    // The queue order is re-checked against the cell specs at every slot so
    // a reordering of `table4_cells` can never silently mis-bin a row.
    let seeds = cfg.seeds.max(1);
    let mut dump = Vec::new();
    let mut index = 0;
    for benchmark in benchmarks {
        let mut rows: Vec<Vec<f64>> = Vec::new();
        for mode in 0..2 {
            let mut row = Vec::new();
            for target in &targets {
                for (offset, spec) in cells[index..index + seeds].iter().enumerate() {
                    assert!(
                        spec.target.0 == benchmark
                            && spec.source.is_some() == (mode == 1)
                            && spec.target.1.name == target.name
                            && spec.seed == offset as u64,
                        "table4 queue order diverged from the folding layout at cell {}",
                        index + offset
                    );
                }
                let foms: Vec<f64> = report.values[index..index + seeds]
                    .iter()
                    .map(|history| history.best_fom())
                    .collect();
                index += seeds;
                row.push(foms.iter().sum::<f64>() / foms.len() as f64);
            }
            rows.push(row);
        }
        println!(
            "{:<32} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
            format!("{} (no transfer)", benchmark.paper_name()),
            rows[0][0],
            rows[0][1],
            rows[0][2],
            rows[0][3]
        );
        println!(
            "{:<32} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
            format!("{} (transfer from 180nm)", benchmark.paper_name()),
            rows[1][0],
            rows[1][1],
            rows[1][2],
            rows[1][3]
        );
        dump.push((
            benchmark.paper_name().to_string(),
            rows[0].clone(),
            rows[1].clone(),
        ));
    }
    print_engine_stats("evaluation engine — Table IV queue", &report.services);
    write_json("table4", &dump);
}
