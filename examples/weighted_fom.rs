//! Design-focus flexibility (paper Table II, rows GCN-RL-1..5): putting a 10x
//! larger FoM weight on a single metric steers the optimiser towards designs
//! that excel on that metric.
//!
//! Run with: `cargo run --release --example weighted_fom`

use gcn_rl_circuit_designer::circuit::{benchmarks::Benchmark, TechnologyNode};
use gcn_rl_circuit_designer::gcnrl::{FomConfig, GcnRlDesigner, SizingEnv};
use gcn_rl_circuit_designer::rl::DdpgConfig;

fn main() {
    let node = TechnologyNode::tsmc180();
    let benchmark = Benchmark::TwoStageTia;
    let emphases = [
        ("bw_ghz", "GCN-RL-1 (bandwidth)"),
        ("gain_ohm", "GCN-RL-2 (gain)"),
        ("power_mw", "GCN-RL-3 (power)"),
        ("noise_pa_rthz", "GCN-RL-4 (noise)"),
        ("peaking_db", "GCN-RL-5 (peaking)"),
    ];

    for (metric, label) in emphases {
        let fom = FomConfig::calibrated(benchmark, &node, 60, 0)
            .with_weight_emphasis(metric, 10.0)
            .unwrap_or_else(|error| panic!("{label}: {error}"));
        let env = SizingEnv::new(benchmark, &node, fom);
        let config = DdpgConfig::default().with_budget(100, 40);
        let history = GcnRlDesigner::new(env, config).run();
        let value = history
            .best_report
            .as_ref()
            .and_then(|r| r.get(metric))
            .unwrap_or(f64::NAN);
        println!(
            "{label:<22} best FoM = {:>7.3}   emphasised metric {metric} = {value:.4}",
            history.best_fom()
        );
    }
}
