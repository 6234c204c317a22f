//! Table III: Two-Volt per-metric breakdown for every method.
//!
//! Each method row is one method run
//! ([`MethodCell`](gcnrl_bench::MethodCell)) drained through the sharded
//! coordinator and prints the best design's metrics; the assembled table is
//! identical for any worker count.

use gcnrl_bench::cells::table3_cells;
use gcnrl_bench::{
    best_metrics, budget_from_env, drain_cells, print_engine_stats, write_json, CoordinatorConfig,
    ExperimentConfig,
};
use gcnrl_circuit::TechnologyNode;

const METRICS: [&str; 7] = [
    "bw_mhz",
    "cpm_deg",
    "dpm_deg",
    "power_mw",
    "noise_nv_rthz",
    "gain_kvv",
    "gbw_thz",
];

fn main() {
    let cfg = budget_from_env(ExperimentConfig::smoke());
    let coord = CoordinatorConfig::from_env();
    let node = TechnologyNode::tsmc180();
    println!(
        "Table III — Two-Volt metrics (budget={}, seeds={}, {} workers)",
        cfg.budget, cfg.seeds, coord.workers
    );
    println!(
        "{:<10} {:>10} {:>8} {:>8} {:>10} {:>10} {:>10} {:>9}",
        "Method", "BW(MHz)", "CPM", "DPM", "Power(mW)", "Noise(nV)", "Gain(k)", "GBW(THz)"
    );

    let cells = table3_cells(&node, &cfg);
    let report = drain_cells(cells.clone(), &coord);
    let mut dump = Vec::new();
    for (cell, history) in cells.iter().zip(&report.values) {
        let metrics = best_metrics(history);
        let get = |name: &str| {
            metrics
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| *v)
                .unwrap_or(f64::NAN)
        };
        println!(
            "{:<10} {:>10.2} {:>8.1} {:>8.1} {:>10.3} {:>10.2} {:>10.2} {:>9.3}",
            cell.method,
            get(METRICS[0]),
            get(METRICS[1]),
            get(METRICS[2]),
            get(METRICS[3]),
            get(METRICS[4]),
            get(METRICS[5]),
            get(METRICS[6]),
        );
        dump.push((cell.method.clone(), metrics));
    }
    print_engine_stats("evaluation engine — Table III queue", &report.services);
    write_json("table3", &dump);
}
