//! Every cell rides the serve tier `GCNRL_SERVE_ADDR` names: a transfer
//! cell pointed at a dead address fails loudly instead of running on
//! private engines, and against a live server both of its engines (source
//! and target) are remote, with a history bit-identical to the local run.
//!
//! One `#[test]` in its own process, because it sets the variable.

use gcnrl::{AgentKind, EngineConfig};
use gcnrl_bench::{Cell, CellContext, ExperimentConfig, TransferCell};
use gcnrl_circuit::{benchmarks::Benchmark, TechnologyNode};
use gcnrl_serve::{EvalServer, RegistryConfig, ServerConfig};

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default()
}

#[test]
fn a_transfer_cell_rides_the_serve_tier_or_fails_loudly() {
    std::env::remove_var("GCNRL_SERVE_ADDR");
    let cell = TransferCell {
        source: Some((Benchmark::TwoStageTia, TechnologyNode::tsmc180())),
        target: (Benchmark::TwoStageTia, TechnologyNode::n65()),
        kind: AgentKind::Gcn,
        seed: 0,
        cfg: ExperimentConfig {
            budget: 6,
            warmup: 2,
            seeds: 1,
            calibration: 3,
            rollout_k: 1,
        },
        ddpg: gcnrl_rl::DdpgConfig {
            batch_size: 8,
            hidden_dim: 16,
            gcn_layers: 2,
            ..gcnrl_rl::DdpgConfig::default()
        },
    };
    assert_eq!(cell.weight(), 2, "a cell with a source runs two engines");
    let ctx = CellContext {
        engine: EngineConfig::serial(),
    };
    let (local, _) = cell.run(&ctx);
    assert!(!local.is_empty());

    // (a) A dead address: a port that was just free, with nothing listening.
    let dead = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|listener| listener.local_addr())
        .expect("reserve a loopback port");
    std::env::set_var("GCNRL_SERVE_ADDR", dead.to_string());
    let caught = std::panic::catch_unwind(|| cell.run(&ctx))
        .expect_err("a cell pointed at a dead serve tier ran on private engines");
    let message = panic_message(caught.as_ref());
    assert!(
        message.contains("is set but unusable"),
        "unexpected panic: {message}"
    );

    // (b) A live in-process server: both engines go remote, bit-identically.
    let server = EvalServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            registry: RegistryConfig {
                engine: EngineConfig::serial(),
                ..RegistryConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback server");
    std::env::set_var("GCNRL_SERVE_ADDR", server.local_addr().to_string());
    let (remote, _) = cell.run(&ctx);
    std::env::remove_var("GCNRL_SERVE_ADDR");
    assert_eq!(
        remote, local,
        "the remote history diverged from the local one"
    );
    let connections = server.stats().connections_total;
    assert!(
        connections >= 2,
        "the source and target engines must both be remote, saw {connections} connection(s)"
    );
    server.shutdown();
}
