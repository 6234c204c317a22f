//! Every cell rides the serve tier `GCNRL_SERVE_ADDR` names: cells pointed
//! at a dead address fail loudly instead of running on local engines, and
//! against a live server every environment of every cell (a transfer's
//! source and target both) is remote and the drain opens no local service.
//! The histories are bit-identical to a local drain's, and the server's
//! engines count exactly the requests, simulations and cache hits the local
//! drain's services report.
//!
//! One `#[test]` in its own process, because it sets the variable.

use gcnrl::{AgentKind, EngineConfig, ExecStats};
use gcnrl_bench::{drain_cells, CoordinatorConfig, ExperimentConfig, TransferCell};
use gcnrl_circuit::{benchmarks::Benchmark, TechnologyNode};
use gcnrl_serve::{EvalServer, RegistryConfig, ServerConfig, ServiceEntryStats};

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default()
}

/// Each service's engine statistics, keyed by benchmark and node, with the
/// wall time and the batch count zeroed: a remote client cuts its batches
/// into pipelined sub-batches, so only the per-candidate counts compare.
fn engine_counts(services: &[ServiceEntryStats]) -> Vec<(String, String, ExecStats)> {
    services
        .iter()
        .map(|service| {
            let engine = ExecStats {
                wall_seconds: 0.0,
                batches: 0,
                ..service.engine
            };
            (service.benchmark.clone(), service.node.clone(), engine)
        })
        .collect()
}

#[test]
fn a_transfer_cell_rides_the_serve_tier_or_fails_loudly() {
    std::env::remove_var("GCNRL_SERVE_ADDR");
    let transfer = TransferCell {
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
    // The same target trained from scratch shares the transfer's 65 nm
    // service, so the cache counts cover cross-cell hits too.
    let scratch = TransferCell {
        source: None,
        ..transfer.clone()
    };
    let cells = vec![transfer, scratch];
    let coord = CoordinatorConfig::default().with_workers(1);
    let local = drain_cells(cells.clone(), &coord);
    assert!(local.values.iter().all(|history| !history.is_empty()));
    assert_eq!(local.services.len(), 2, "a 180 nm and a 65 nm service");

    // (a) A dead address: a port that was just free, with nothing listening.
    let dead = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|listener| listener.local_addr())
        .expect("reserve a loopback port");
    std::env::set_var("GCNRL_SERVE_ADDR", dead.to_string());
    let caught = std::panic::catch_unwind(|| drain_cells(cells.clone(), &coord))
        .expect_err("cells pointed at a dead serve tier ran on local engines");
    let message = panic_message(caught.as_ref());
    assert!(
        message.contains("is set but unusable"),
        "unexpected panic: {message}"
    );

    // (b) A live in-process server: every environment goes remote,
    // bit-identically.
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
    let remote = drain_cells(cells, &coord);
    std::env::remove_var("GCNRL_SERVE_ADDR");
    assert_eq!(
        remote.values, local.values,
        "the remote histories diverged from the local ones"
    );
    assert!(
        remote.services.is_empty(),
        "a remote drain opened local services: {:?}",
        remote.services
    );
    let stats = server.stats();
    assert_eq!(
        stats.connections_total, 3,
        "the transfer's source and target and the scratch run must all be remote"
    );
    assert_eq!(
        engine_counts(&stats.services),
        engine_counts(&local.services),
        "the server's engines must count exactly what the local drain's did"
    );
    server.shutdown();
}
