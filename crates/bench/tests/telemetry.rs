//! Tracing must observe, never perturb: a table run with `GCNRL_TRACE`
//! JSONL tracing enabled has to produce bit-identical results to the same
//! run with tracing off, and the trace it writes has to be non-empty and
//! schema-valid.

use gcnrl::RunHistory;
use gcnrl_bench::cells::table2_cells;
use gcnrl_bench::{drain_cells, CoordinatorConfig, ExperimentConfig};
use gcnrl_circuit::TechnologyNode;
use serde::Value;

fn tiny_cfg() -> ExperimentConfig {
    ExperimentConfig {
        budget: 10,
        warmup: 4,
        seeds: 1,
        calibration: 6,
        rollout_k: 2,
    }
}

/// Runs a two-row slice of Table II (one baseline, one RL method, so both
/// the serial and the speculative-rollout engine paths execute) and returns
/// the runs' histories. The RL row trains a CI-sized agent: every span fires
/// at any network size, and the paper-sized default dominates a debug build.
fn run_table_slice() -> Vec<RunHistory> {
    let node = TechnologyNode::tsmc180();
    let cfg = tiny_cfg();
    let cells: Vec<_> = table2_cells(&node, &cfg)
        .into_iter()
        .filter(|cell| {
            cell.emphasis.is_none() && (cell.method == "Random" || cell.method == "GCN-RL")
        })
        .map(|mut cell| {
            cell.ddpg = gcnrl_rl::DdpgConfig {
                batch_size: 8,
                hidden_dim: 16,
                gcn_layers: 2,
                ..cell.ddpg
            };
            cell
        })
        .collect();
    assert_eq!(cells.len(), 2, "expected a Random and a GCN-RL cell");
    let coord = CoordinatorConfig::default().with_workers(2);
    drain_cells(cells, &coord).values
}

#[test]
fn tracing_does_not_change_a_single_bit_and_writes_valid_jsonl() {
    let trace_path =
        std::env::temp_dir().join(format!("gcnrl-telemetry-test-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&trace_path);

    // Pass 1: tracing on (the in-process equivalent of GCNRL_TRACE=path).
    gcnrl_telemetry::set_trace_file(&trace_path).expect("open trace file");
    let traced = run_table_slice();
    gcnrl_telemetry::disable_trace();

    // Pass 2: tracing off. Same cells, same seeds — the rows must match to
    // the last bit, or the observability layer is changing results.
    let untraced = run_table_slice();
    assert_eq!(traced, untraced, "tracing perturbed the experiment results");

    // The trace itself: non-empty, every line a schema-valid event covering
    // at least the engine batch and solver spans the runs must have hit.
    let text = std::fs::read_to_string(&trace_path).expect("read trace");
    let mut names = std::collections::BTreeSet::new();
    let mut events = 0usize;
    for (i, line) in text.lines().filter(|l| !l.trim().is_empty()).enumerate() {
        let value = serde_json::parse_value(line)
            .unwrap_or_else(|e| panic!("trace line {}: invalid JSON: {e}", i + 1));
        let Value::Map(entries) = &value else {
            panic!("trace line {}: not an object", i + 1);
        };
        let get = |key: &str| entries.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        match get("name") {
            Some(Value::Str(name)) if !name.is_empty() => {
                names.insert(name.clone());
            }
            other => panic!("trace line {}: bad `name`: {other:?}", i + 1),
        }
        for key in ["start_ns", "dur_ns"] {
            match get(key) {
                Some(Value::UInt(_)) => {}
                Some(Value::Int(v)) if *v >= 0 => {}
                other => panic!("trace line {}: bad `{key}`: {other:?}", i + 1),
            }
        }
        events += 1;
    }
    assert!(events > 0, "tracing was on but the trace file is empty");
    for expected in [
        "exec.batch.ns",
        "train.propose.ns",
        "train.evaluate.ns",
        "train.critic_forward.ns",
        "train.critic_backward.ns",
        "train.adam.ns",
        "train.actor.ns",
    ] {
        assert!(
            names.contains(expected),
            "trace never recorded {expected}; spans seen: {names:?}"
        );
    }

    let _ = std::fs::remove_file(&trace_path);
}
