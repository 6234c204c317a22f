//! Knowledge transfer between technology nodes and topologies (paper Sec. III-E).
//!
//! Transfer works by saving the trained actor–critic weights as an
//! [`AgentCheckpoint`] and loading them into the designer for a new
//! environment.  Because the default state encoding uses a scalar component
//! index, the state dimension is the same for every circuit, so the same
//! checkpoint can warm-start a different technology node *or* a different
//! topology.

pub use crate::agent::AgentCheckpoint;
use crate::agent::AgentKind;
use crate::designer::GcnRlDesigner;
use crate::env::SizingEnv;
use crate::history::RunHistory;
use gcnrl_rl::DdpgConfig;
use std::path::Path;

/// Serialises a checkpoint to pretty-printed JSON on disk.
///
/// # Errors
///
/// Returns an I/O error if the file cannot be written, or a serialisation
/// error wrapped in `std::io::Error`.
pub fn save_checkpoint(ckpt: &AgentCheckpoint, path: &Path) -> std::io::Result<()> {
    let json = serde_json::to_string_pretty(ckpt)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    std::fs::write(path, json)
}

/// Loads a checkpoint previously written by [`save_checkpoint`].
///
/// # Errors
///
/// Returns an I/O error if the file cannot be read, and one of kind
/// [`InvalidData`](std::io::ErrorKind::InvalidData) if it does not parse,
/// holds a layer that is malformed or does not fit the checkpoint's own
/// dimensions, or holds a weight or bias that is not finite.
pub fn load_checkpoint(path: &Path) -> std::io::Result<AgentCheckpoint> {
    let invalid = |e| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
    let json = std::fs::read_to_string(path)?;
    let ckpt: AgentCheckpoint = serde_json::from_str(&json).map_err(|e| invalid(e.to_string()))?;
    ckpt.validate().map_err(invalid)?;
    ckpt.check_finite().map_err(invalid)?;
    Ok(ckpt)
}

/// Trains an agent on `source_env`, then fine-tunes it on `target_env` with a
/// (typically much smaller) budget.  Returns the pre-training history, the
/// fine-tuning history and the checkpoint that was transferred.
///
/// This is the paper's experimental protocol for both Table IV (technology
/// transfer) and Table V (topology transfer); the caller picks the two
/// environments.
pub fn pretrain_and_transfer(
    source_env: SizingEnv,
    target_env: SizingEnv,
    kind: AgentKind,
    pretrain_config: DdpgConfig,
    finetune_config: DdpgConfig,
) -> (RunHistory, RunHistory, AgentCheckpoint) {
    let mut source = GcnRlDesigner::with_kind(source_env, pretrain_config, kind);
    let pretrain_history = source.run();
    let ckpt = source.agent().checkpoint();

    let mut target = GcnRlDesigner::with_kind(target_env, finetune_config, kind);
    target.agent_mut().load_checkpoint(&ckpt);
    let finetune_history = target.run();
    (pretrain_history, finetune_history, ckpt)
}

/// Fine-tunes from an existing checkpoint on `target_env` (used when the
/// pre-trained agent is loaded from disk).
pub fn transfer_from_checkpoint(
    ckpt: &AgentCheckpoint,
    target_env: SizingEnv,
    kind: AgentKind,
    finetune_config: DdpgConfig,
) -> RunHistory {
    let mut target = GcnRlDesigner::with_kind(target_env, finetune_config, kind);
    target.agent_mut().load_checkpoint(ckpt);
    target.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fom::FomConfig;
    use gcnrl_circuit::{benchmarks::Benchmark, TechnologyNode};

    fn tiny() -> DdpgConfig {
        DdpgConfig {
            episodes: 16,
            warmup: 6,
            batch_size: 4,
            hidden_dim: 16,
            gcn_layers: 2,
            ..DdpgConfig::default()
        }
    }

    fn env(benchmark: Benchmark, node: &TechnologyNode) -> SizingEnv {
        let fom = FomConfig::calibrated(benchmark, node, 6, 0);
        SizingEnv::new(benchmark, node, fom)
    }

    #[test]
    fn checkpoint_round_trips_through_disk() {
        let node = TechnologyNode::tsmc180();
        let designer = GcnRlDesigner::new(env(Benchmark::TwoStageTia, &node), tiny());
        let ckpt = designer.agent().checkpoint();
        let dir = std::env::temp_dir().join("gcnrl_ckpt_test.json");
        save_checkpoint(&ckpt, &dir).expect("write checkpoint");
        let loaded = load_checkpoint(&dir).expect("read checkpoint");
        assert_eq!(loaded, ckpt);
        let _ = std::fs::remove_file(&dir);
    }

    /// Saves `ckpt` with `edit` applied to its JSON text and loads it back.
    fn load_edited(
        ckpt: &AgentCheckpoint,
        name: &str,
        edit: impl Fn(&str) -> String,
    ) -> std::io::Result<AgentCheckpoint> {
        let json = serde_json::to_string_pretty(ckpt).expect("serialise checkpoint");
        let edited = edit(&json);
        assert_ne!(edited, json, "the edit changes the file");
        let path = std::env::temp_dir().join(format!("{name}_{}.json", std::process::id()));
        std::fs::write(&path, edited).expect("write checkpoint");
        let loaded = load_checkpoint(&path);
        let _ = std::fs::remove_file(&path);
        loaded
    }

    #[test]
    fn malformed_layers_fail_to_load() {
        let node = TechnologyNode::tsmc180();
        let designer = GcnRlDesigner::new(env(Benchmark::TwoStageTia, &node), tiny());
        let ckpt = designer.agent().checkpoint();
        // One weight's `rows` no longer matches its data.
        let bad_rows = load_edited(&ckpt, "gcnrl_ckpt_bad_rows", |json| {
            let key = "\"rows\": ";
            let start = json.find(key).expect("a weight matrix") + key.len();
            let digits = json[start..]
                .find(|c: char| !c.is_ascii_digit())
                .expect("the number ends");
            let rows: usize = json[start..start + digits].parse().expect("a count");
            format!("{}{}{}", &json[..start], rows + 1, &json[start + digits..])
        });
        // One bias loses its first entry.
        let short_bias = load_edited(&ckpt, "gcnrl_ckpt_short_bias", |json| {
            let key = "\"bias\": [";
            let start = json.find(key).expect("a bias") + key.len();
            let comma = start + json[start..].find(',').expect("two bias entries");
            format!("{}{}", &json[..start], &json[comma + 1..])
        });
        for loaded in [bad_rows, short_bias] {
            let err = loaded.expect_err("a malformed layer is rejected");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        }
    }

    /// The first `actor_input` weight spelled as `value`.
    fn first_weight(json: &str, value: &str) -> String {
        let key = "\"data\": [";
        let start = json.find(key).expect("the actor_input weights") + key.len();
        let comma = start + json[start..].find(',').expect("two weights");
        format!("{}{value}{}", &json[..start], &json[comma..])
    }

    #[test]
    fn non_finite_weights_fail_to_load_and_large_finite_ones_load() {
        let node = TechnologyNode::tsmc180();
        let designer = GcnRlDesigner::new(env(Benchmark::TwoStageTia, &node), tiny());
        let ckpt = designer.agent().checkpoint();
        for value in ["1e999", "-1e999"] {
            let err = load_edited(&ckpt, "gcnrl_ckpt_non_finite", |json| {
                first_weight(json, value)
            })
            .expect_err("an infinite weight is rejected");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains("actor_input[0]"), "{err}");
        }
        load_edited(&ckpt, "gcnrl_ckpt_large", |json| {
            first_weight(json, "1e300")
        })
        .expect("a large finite weight loads");
    }

    #[test]
    fn technology_transfer_runs_end_to_end() {
        let n180 = TechnologyNode::tsmc180();
        let n45 = TechnologyNode::n45();
        let (pre, fine, ckpt) = pretrain_and_transfer(
            env(Benchmark::TwoStageTia, &n180),
            env(Benchmark::TwoStageTia, &n45),
            AgentKind::Gcn,
            tiny(),
            tiny(),
        );
        assert_eq!(pre.len(), 16);
        assert_eq!(fine.len(), 16);
        assert_eq!(ckpt.kind, AgentKind::Gcn);
    }

    #[test]
    fn topology_transfer_is_possible_with_scalar_states() {
        // Two-TIA and Three-TIA have different sizes; the scalar-index state
        // encoding keeps the agent architecture compatible.
        let node = TechnologyNode::tsmc180();
        let (_, fine, ckpt) = pretrain_and_transfer(
            env(Benchmark::TwoStageTia, &node),
            env(Benchmark::ThreeStageTia, &node),
            AgentKind::Gcn,
            tiny(),
            tiny(),
        );
        assert_eq!(fine.len(), 16);
        // And the checkpoint can be reused again directly.
        let again = transfer_from_checkpoint(
            &ckpt,
            env(Benchmark::ThreeStageTia, &node),
            AgentKind::Gcn,
            tiny(),
        );
        assert_eq!(again.len(), 16);
    }
}
