//! Table V: knowledge transfer between topologies (Two-TIA <-> Three-TIA)
//! comparing no transfer, NG-RL transfer and GCN-RL transfer.
//!
//! Every `(mode, direction, seed)` combination is one transfer run
//! ([`TransferCell`](gcnrl_bench::TransferCell)) in a single work queue
//! drained by the sharded coordinator; all cells of a topology share one
//! evaluation cache. Each table entry is the mean best FoM over the seeds.
//! The assembled table is identical for any worker count.

use gcnrl::AgentKind;
use gcnrl_bench::cells::{finetune_budget, table5_cells};
use gcnrl_bench::{
    budget_from_env, drain_cells, print_engine_stats, write_json, CoordinatorConfig,
    ExperimentConfig,
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

    println!(
        "Table V — topology transfer (pretrain budget={}, finetune budget={}, seeds={}, {} workers)",
        cfg.budget,
        finetune_budget(&cfg).0,
        cfg.seeds,
        coord.workers
    );
    println!(
        "{:<18} {:>22} {:>22}",
        "Setting", "Two-TIA -> Three-TIA", "Three-TIA -> Two-TIA"
    );

    let cells = table5_cells(&directions, &node, &cfg);
    let report = drain_cells(cells.clone(), &coord);

    // The queue is ordered modes-outer, directions-middle, seeds-inner; the
    // folding re-checks every slot against the cell specs so a reordering
    // of `table5_cells` can never silently mis-bin a row.
    let modes = [
        ("No Transfer", false, AgentKind::Gcn),
        ("NG-RL Transfer", true, AgentKind::NonGcn),
        ("GCN-RL Transfer", true, AgentKind::Gcn),
    ];
    let seeds = cfg.seeds.max(1);
    let mut index = 0;
    let mut rows: Vec<Vec<f64>> = Vec::new();
    for (label, transfer, kind) in modes {
        let mut row = Vec::new();
        for &(source, target) in &directions {
            for (offset, spec) in cells[index..index + seeds].iter().enumerate() {
                assert!(
                    spec.source.as_ref().map(|s| s.0) == transfer.then_some(source)
                        && spec.kind == kind
                        && spec.target.0 == target
                        && spec.seed == offset as u64,
                    "table5 queue order diverged from the folding layout at cell {}",
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
        println!("{:<18} {:>22.2} {:>22.2}", label, row[0], row[1]);
        rows.push(row);
    }
    print_engine_stats("evaluation engine — Table V queue", &report.services);
    write_json(
        "table5",
        &(rows[0].clone(), rows[1].clone(), rows[2].clone()),
    );
}
