//! Integration tests of the network evaluation server through the full
//! stack: N concurrent remote clients (each a `RemoteBackend` session of one
//! shared `EvalServer`) run calibration + optimisation bit-identically to
//! solo local runs, their overlapping traffic shows up as cross-client cache
//! hits in the merged per-service statistics, and the wire protocol's edge
//! cases (torn frames, oversized frames, version mismatch, mid-batch
//! disconnect) fail the way the protocol promises.

use gcn_rl_circuit_designer::baselines::random_search;
use gcn_rl_circuit_designer::circuit::{benchmarks::Benchmark, TechnologyNode};
use gcn_rl_circuit_designer::exec::{EngineConfig, EvalBackend, EvalService, ServiceConfig};
use gcn_rl_circuit_designer::gcnrl::{
    AgentKind, FomConfig, GcnRlDesigner, RunHistory, SizingEnv, StateEncoding,
};
use gcn_rl_circuit_designer::rl::DdpgConfig;
use gcn_rl_circuit_designer::serve::{
    protocol, EvalServer, ReconnectConfig, RegistryConfig, RemoteBackend, RemoteConfig,
    ServerConfig,
};

const BENCHMARK: Benchmark = Benchmark::TwoStageTia;
const CALIBRATION: usize = 8;
const BUDGET: usize = 10;

fn open_server() -> EvalServer {
    EvalServer::bind(
        "127.0.0.1:0",
        ServerConfig {
            registry: RegistryConfig {
                engine: EngineConfig::serial(),
                ..RegistryConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback server")
}

/// Builds a calibrated environment whose calibration sweep *and*
/// optimisation traffic both ride the given backend.
fn env_over(backend: Box<dyn EvalBackend>) -> SizingEnv {
    let node = TechnologyNode::tsmc180();
    let fom =
        FomConfig::calibrated_with_backend(BENCHMARK, &node, CALIBRATION, 7, backend.as_ref());
    SizingEnv::with_backend(BENCHMARK, &node, fom, StateEncoding::ScalarIndex, backend)
}

fn remote_backend(server_addr: std::net::SocketAddr, name: &str) -> RemoteBackend {
    RemoteBackend::connect_with(
        server_addr,
        BENCHMARK,
        &TechnologyNode::tsmc180(),
        RemoteConfig {
            session: Some(name.to_owned()),
            ..RemoteConfig::default()
        },
    )
    .expect("connect remote backend")
}

/// A local reference run: a fresh single-engine service session (the
/// process-local path the remote one must reproduce bit-for-bit).
fn local_session() -> gcn_rl_circuit_designer::exec::SessionHandle {
    EvalService::for_benchmark(
        BENCHMARK,
        &TechnologyNode::tsmc180(),
        EngineConfig::serial(),
        ServiceConfig::default(),
    )
    .session()
}

#[test]
fn concurrent_remote_clients_match_solo_local_runs_and_share_the_cache() {
    const CLIENTS: usize = 3;

    // Reference: each seed on its own private local service.
    let solo: Vec<RunHistory> = (0..CLIENTS)
        .map(|seed| {
            let env = env_over(Box::new(local_session()));
            random_search(&env, BUDGET, seed as u64)
        })
        .collect();

    // The same seeds as concurrent remote sessions of one shared server.
    let server = open_server();
    let addr = server.local_addr();
    let workers: Vec<_> = (0..CLIENTS)
        .map(|seed| {
            std::thread::spawn(move || {
                let env = env_over(Box::new(remote_backend(addr, &format!("client-{seed}"))));
                random_search(&env, BUDGET, seed as u64)
            })
        })
        .collect();
    let remote: Vec<RunHistory> = workers
        .into_iter()
        .map(|w| w.join().expect("client thread"))
        .collect();

    for (seed, (remote_run, solo_run)) in remote.iter().zip(&solo).enumerate() {
        assert_eq!(
            remote_run, solo_run,
            "seed {seed}: the wire must not change the run"
        );
    }

    // All clients calibrated with the same sweep on one shared registry
    // service, so every client after the first was served those candidates
    // from the shared cache (or deduplicated in flight) — visible in the
    // merged per-service statistics.
    server.shutdown();
    let stats = server.stats();
    assert_eq!(stats.connections_total as usize, CLIENTS);
    assert_eq!(stats.connections_active, 0);
    assert_eq!(stats.services.len(), 1, "one (benchmark, node) service");
    let engine = &stats.services[0].engine;
    assert!(
        engine.cache_hits >= ((CLIENTS - 1) * CALIBRATION) as u64,
        "cross-client calibration reuse missing from the merged stats: {engine:?}"
    );
    assert_eq!(engine.requests, engine.simulated + engine.cache_hits);

    // Every connection closed, so its per-session accounting folded into
    // the service-level aggregate (the live map must not leak entries for
    // retired sessions), fully drained.
    let service = &stats.services[0];
    assert!(
        service.sessions.is_empty(),
        "retired sessions must leave the live map: {:?}",
        service.sessions
    );
    let closed = &service.closed;
    assert_eq!(closed.sessions as usize, CLIENTS);
    assert_eq!(
        closed.submitted, closed.resolved,
        "requests left pending: {closed:?}"
    );
    assert!(
        closed.candidates >= (CLIENTS * (CALIBRATION + BUDGET)) as u64,
        "candidates unaccounted: {closed:?}"
    );
}

#[test]
fn remote_designer_trajectories_match_their_solo_local_trainings() {
    let config = DdpgConfig {
        episodes: 12,
        warmup: 4,
        batch_size: 8,
        hidden_dim: 16,
        gcn_layers: 2,
        ..DdpgConfig::default()
    }
    .with_rollout_k(3);

    fn designer_run(backend: Box<dyn EvalBackend>, config: DdpgConfig, seed: u64) -> RunHistory {
        GcnRlDesigner::with_kind(env_over(backend), config.with_seed(seed), AgentKind::Gcn).run()
    }

    let solo: Vec<RunHistory> = (0..2)
        .map(|seed| designer_run(Box::new(local_session()), config, seed))
        .collect();

    let server = open_server();
    let addr = server.local_addr();
    let remote: Vec<RunHistory> = (0..2u64)
        .map(|seed| {
            std::thread::spawn(move || {
                designer_run(
                    Box::new(remote_backend(addr, &format!("designer-{seed}"))),
                    config,
                    seed,
                )
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|w| w.join().expect("designer thread"))
        .collect();

    assert_eq!(remote[0], solo[0], "designer trajectory diverged over TCP");
    assert_eq!(remote[1], solo[1]);
    // Both concurrent designers hit one shared engine; the calibration
    // overlap is visible as cross-client cache traffic.
    server.shutdown();
    let stats = server.stats();
    assert!(
        stats.services[0].engine.cache_hits >= CALIBRATION as u64,
        "{:?}",
        stats.services[0].engine
    );
}

#[test]
fn protocol_rejects_version_mismatch_and_survives_mid_batch_disconnects() {
    use protocol::{write_frame, ClientMsg, FrameReader, Hello, ServerMsg};
    use std::io::Write;
    use std::net::TcpStream;

    let server = open_server();
    let node = TechnologyNode::tsmc180();

    // Version mismatch: rejected with an Error frame during the handshake.
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    write_frame(
        &mut stream,
        &ClientMsg::Hello(Hello {
            version: protocol::PROTOCOL_VERSION + 1,
            benchmark: BENCHMARK,
            node: node.clone(),
            session: None,
        }),
    )
    .expect("send hello");
    let mut reader = FrameReader::new();
    match reader
        .read_msg::<ServerMsg>(&mut stream, protocol::DEFAULT_MAX_FRAME_BYTES)
        .expect("handshake reply")
    {
        ServerMsg::Error { message, .. } => assert!(message.contains("version"), "{message}"),
        other => panic!("expected version rejection, got {other:?}"),
    }
    drop(stream);

    // Mid-batch disconnect: a client vanishes after a partial frame; the
    // server keeps serving new clients on the same service.
    let mut torn = TcpStream::connect(server.local_addr()).expect("connect");
    write_frame(
        &mut torn,
        &ClientMsg::Hello(Hello {
            version: protocol::PROTOCOL_VERSION,
            benchmark: BENCHMARK,
            node: node.clone(),
            session: Some("torn".to_owned()),
        }),
    )
    .expect("send hello");
    let mut reader = FrameReader::new();
    assert!(matches!(
        reader
            .read_msg::<ServerMsg>(&mut torn, protocol::DEFAULT_MAX_FRAME_BYTES)
            .expect("welcome"),
        ServerMsg::Welcome(_)
    ));
    torn.write_all(&64u32.to_be_bytes()).expect("prefix only");
    drop(torn);

    let healthy = remote_backend(server.local_addr(), "healthy");
    let space = BENCHMARK.circuit().design_space(&node);
    let reports = EvalBackend::evaluate_batch(&healthy, &[space.nominal()]);
    assert_eq!(reports.len(), 1);
    drop(healthy);
    server.shutdown();
    let stats = server.stats();
    assert_eq!(stats.connections_rejected, 1);
    assert_eq!(stats.connections_active, 0);
}

#[test]
fn pipelined_and_multiplexed_clients_match_solo_local_runs() {
    let node = TechnologyNode::tsmc180();
    let tia_space = BENCHMARK.circuit().design_space(&node);
    let batches: Vec<Vec<_>> = (0..6)
        .map(|i| {
            (0..3)
                .map(|j| {
                    let unit: Vec<f64> = (0..tia_space.num_parameters())
                        .map(|k| ((i * 31 + j * 7 + k) % 97) as f64 / 96.0)
                        .collect();
                    tia_space.from_unit(&unit)
                })
                .collect()
        })
        .collect();

    // Local reference: one private session.
    let local_tia: Vec<_> = batches
        .iter()
        .map(|b| local_session().evaluate_batch(b))
        .collect();

    // Remote: every batch rides the wire concurrently (the full pipeline
    // window in flight at once) — and not a bit may change.
    let server = open_server();
    let remote = RemoteBackend::connect_with(
        server.local_addr(),
        BENCHMARK,
        &node,
        RemoteConfig {
            session: Some("pipelined".to_owned()),
            pipeline: batches.len(),
            ..RemoteConfig::default()
        },
    )
    .expect("connect");
    let in_flight: Vec<_> = batches
        .iter()
        .map(|b| remote.submit_batch(b).expect("submit"))
        .collect();
    for (reply, reference) in in_flight.into_iter().zip(&local_tia) {
        assert_eq!(
            &reply.wait().expect("pipelined batch"),
            reference,
            "pipelining must not change a single bit"
        );
    }
    remote.goodbye().expect("clean close");
    server.shutdown();
    let stats = server.stats();
    assert_eq!(stats.connections_total, 1, "one socket carried everything");
}

#[test]
fn clients_reconnect_with_backoff_across_a_server_restart() {
    let node = TechnologyNode::tsmc180();
    let space = BENCHMARK.circuit().design_space(&node);
    let batch: Vec<_> = (0..3)
        .map(|i| {
            let unit: Vec<f64> = (0..space.num_parameters())
                .map(|k| ((i * 41 + k * 11) % 83) as f64 / 82.0)
                .collect();
            space.from_unit(&unit)
        })
        .collect();
    let reference = local_session().evaluate_batch(&batch);

    let server = open_server();
    let addr = server.local_addr();
    let remote = RemoteBackend::connect_with(
        addr,
        BENCHMARK,
        &node,
        RemoteConfig {
            session: Some("survivor".to_owned()),
            reconnect: ReconnectConfig {
                max_retries: 10,
                base_delay: std::time::Duration::from_millis(20),
                max_delay: std::time::Duration::from_millis(200),
            },
            ..RemoteConfig::default()
        },
    )
    .expect("connect");
    assert_eq!(remote.try_evaluate_batch(&batch).expect("first"), reference);
    assert_eq!(remote.reconnects(), 0);

    // Kill the server and restart a fresh one on the same address: the
    // client re-handshakes behind the scenes and the next batch still
    // matches the local reference bit-for-bit.
    server.shutdown();
    let server = EvalServer::bind(
        addr,
        ServerConfig {
            registry: RegistryConfig {
                engine: EngineConfig::serial(),
                ..RegistryConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("rebind after restart");
    assert_eq!(
        remote.try_evaluate_batch(&batch).expect("after restart"),
        reference,
        "the restart must be invisible in the results"
    );
    assert!(
        remote.reconnects() >= 1,
        "the backend should have re-handshaked"
    );
    remote.goodbye().expect("clean close");
    server.shutdown();
    assert_eq!(server.stats().connections_total, 1);
}

#[test]
fn oversized_and_torn_frames_error_at_the_protocol_layer() {
    use protocol::{write_frame, ClientMsg, FrameError, FrameReader};

    // Oversized: the length prefix is rejected against the configured cap
    // before any payload allocation happens.
    let mut wire = Vec::new();
    wire.extend_from_slice(&(1u32 << 30).to_be_bytes());
    let mut reader = FrameReader::new();
    let mut cursor = std::io::Cursor::new(wire);
    assert!(matches!(
        reader.read_msg::<ClientMsg>(&mut cursor, 4096),
        Err(FrameError::Oversized { len, max: 4096 }) if len == 1 << 30
    ));

    // Torn: EOF in the middle of a frame is distinguished from a clean
    // close at a frame boundary.
    let mut full = Vec::new();
    write_frame(&mut full, &ClientMsg::Stats { id: 1 }).expect("write frame");
    let mut reader = FrameReader::new();
    let mut cursor = std::io::Cursor::new(full[..full.len() - 2].to_vec());
    assert!(matches!(
        reader.read_msg::<ClientMsg>(&mut cursor, 4096),
        Err(FrameError::Torn { .. })
    ));
    let mut reader = FrameReader::new();
    let mut empty = std::io::Cursor::new(Vec::new());
    assert!(matches!(
        reader.read_msg::<ClientMsg>(&mut empty, 4096),
        Err(FrameError::Closed)
    ));
}
