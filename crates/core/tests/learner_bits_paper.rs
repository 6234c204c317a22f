//! Golden bits of the paper-size learner.
//!
//! Two DDPG rounds (`critic_update` then `actor_update`) of the paper's GCN
//! agent on Two-TIA (hidden 64, 7 GCN layers, minibatch 32), hashed bit for
//! bit like `learner_bits.rs` hashes its small agents. At this size the
//! critic's products (288 × 64 by 64 × 64) are large enough to be split
//! between the caller and the linalg helper thread, so this pins the shared
//! kernels to the single-thread bits. One `#[test]` per file keeps the
//! process to one caller, so the helper is never retired by a concurrent
//! test.

use gcnrl::{state_matrix, AgentKind, GcnAgent, StateEncoding};
use gcnrl_circuit::{benchmarks::Benchmark, TechnologyNode};
use gcnrl_linalg::Matrix;
use gcnrl_nn::Linear;
use serde::Deserialize;

/// Every layer of a checkpoint, read back from its JSON form (which prints
/// each `f64` in shortest round-trip form, so the parse restores its bits).
/// The header fields are not read.
#[derive(Deserialize)]
struct Layers {
    actor_input: Linear,
    actor_hidden: Vec<Linear>,
    actor_decoders: Vec<Linear>,
    critic_state: Linear,
    critic_action: Vec<Linear>,
    critic_hidden: Vec<Linear>,
    critic_out: Linear,
}

/// 64-bit FNV-1a over the bit patterns of a stream of `f64`s.
struct BitHash(u64);

impl BitHash {
    fn add(&mut self, values: &[f64]) {
        for v in values {
            for byte in v.to_bits().to_le_bytes() {
                self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }

    fn add_layer(&mut self, layer: &Linear) {
        self.add(layer.weight().as_slice());
        self.add(layer.bias());
    }
}

#[test]
fn paper_size_gcn_learner_bits_are_pinned() {
    let circuit = Benchmark::TwoStageTia.circuit();
    let node = TechnologyNode::tsmc180();
    let states = state_matrix(&circuit, &node, StateEncoding::ScalarIndex);
    let adjacency = circuit.topology_graph().normalized_adjacency();
    let types: Vec<usize> = circuit
        .components()
        .iter()
        .map(|c| c.kind.type_index())
        .collect();
    let n = types.len();
    let mut agent = GcnAgent::new(AgentKind::Gcn, states.cols(), 64, 7, &types, 1e-3, 1e-3, 5);
    let mut hash = BitHash(0xcbf2_9ce4_8422_2325);
    for round in 0..2 {
        let batch: Vec<(Matrix, f64)> = (0..32)
            .map(|b| {
                let actions = Matrix::from_fn(n, 3, |r, c| {
                    ((round * 97 + b * 31 + r * 7 + c * 3) as f64 * 0.61).sin()
                });
                (actions, ((round * 32 + b) as f64 * 0.37).cos())
            })
            .collect();
        let loss = agent.critic_update(&states, &adjacency, &batch, 0.1);
        let q = agent.actor_update(&states, &adjacency);
        hash.add(&[loss, q]);
    }
    let json = serde_json::to_string(&agent.checkpoint()).expect("checkpoint serialises");
    let layers: Layers = serde_json::from_str(&json).expect("checkpoint parses");
    hash.add_layer(&layers.actor_input);
    layers.actor_hidden.iter().for_each(|l| hash.add_layer(l));
    layers.actor_decoders.iter().for_each(|l| hash.add_layer(l));
    hash.add_layer(&layers.critic_state);
    layers.critic_action.iter().for_each(|l| hash.add_layer(l));
    layers.critic_hidden.iter().for_each(|l| hash.add_layer(l));
    hash.add_layer(&layers.critic_out);
    hash.add(agent.act(&states, &adjacency).as_slice());
    assert_eq!(hash.0, 0x2f68_e7a8_5704_0abf);
}
