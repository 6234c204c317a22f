//! Table II: Two-TIA per-metric breakdown plus the weighted-FoM variants
//! GCN-RL-1..5 (10x weight on BW, gain, power, noise, peaking respectively).
//!
//! Every row — the seven Table I methods and the five emphasis ablations —
//! is one method run ([`MethodCell`](gcnrl_bench::MethodCell)) in a single
//! work queue drained by the sharded coordinator (`GCNRL_WORKERS`
//! concurrent cells over one shared Two-TIA evaluation cache); each row
//! prints the best design's metrics. The assembled table is identical for
//! any worker count.

use gcnrl_bench::cells::table2_cells;
use gcnrl_bench::{
    best_metrics, budget_from_env, drain_cells, print_engine_stats, write_json, CoordinatorConfig,
    ExperimentConfig,
};
use gcnrl_circuit::TechnologyNode;

const METRICS: [&str; 6] = [
    "bw_ghz",
    "gain_ohm",
    "power_mw",
    "noise_pa_rthz",
    "peaking_db",
    "gbw_thz_ohm",
];

fn print_row(label: &str, metrics: &[(String, f64)]) {
    let get = |name: &str| {
        metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| format!("{v:11.3}"))
            .unwrap_or_else(|| format!("{:>11}", "-"))
    };
    let cells: Vec<String> = METRICS.iter().map(|m| get(m)).collect();
    println!("{label:<10} {}", cells.join(" "));
}

fn main() {
    let cfg = budget_from_env(ExperimentConfig::smoke());
    let coord = CoordinatorConfig::from_env();
    let node = TechnologyNode::tsmc180();
    println!(
        "Table II — Two-TIA metrics (budget={}, seeds={}, {} workers)",
        cfg.budget, cfg.seeds, coord.workers
    );
    println!(
        "{:<10} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11}",
        "Method", "BW(GHz)", "Gain(Ohm)", "Power(mW)", "Noise(pA)", "Peak(dB)", "GBW"
    );

    let cells = table2_cells(&node, &cfg);
    let report = drain_cells(cells.clone(), &coord);
    let mut dump = Vec::new();
    let mut ablations = 0;
    for (cell, history) in cells.iter().zip(&report.values) {
        let label = match cell.emphasis {
            Some(_) => {
                ablations += 1;
                format!("GCN-RL-{ablations}")
            }
            None => cell.method.clone(),
        };
        let metrics = best_metrics(history);
        print_row(&label, &metrics);
        dump.push((label, metrics));
    }
    print_engine_stats("evaluation engine — Table II queue", &report.services);
    write_json("table2", &dump);
}
