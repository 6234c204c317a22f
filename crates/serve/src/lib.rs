//! # gcnrl-serve — the network evaluation server and its remote backend
//!
//! PR 4's [`EvalService`](gcnrl_exec::EvalService) multiplexes concurrent
//! optimisation sessions onto one engine + cache, but only inside one
//! process. This crate exposes that session queue over a wire protocol, so
//! remote GCN-RL trainers, baselines and sizing clients share a standalone
//! evaluation service — the evaluate-batch RPC shape the paper's
//! simulator-in-the-loop training implies:
//!
//! ```text
//!   trainer ──┐  RemoteBackend             EvalServer
//!   bench   ──┼──(EvalBackend over TCP)──▶ reader + responder ──▶ ServiceRegistry
//!   sizing  ──┘  length-prefixed JSON      threads per            1 EvalService per
//!                frames, pipelined by      connection             (benchmark, node),
//!                request id                                       shared cache
//! ```
//!
//! Three layers:
//!
//! * [`protocol`] — length-prefixed JSON frames carrying serde messages.
//!   Every request carries an `id` echoed on its response, so clients
//!   pipeline and match replies by id; each connection carries exactly one
//!   session, and the handshake accepts exactly one [`PROTOCOL_VERSION`].
//!   Std-only; floats round-trip bit-exactly.
//! * [`EvalServer`] — an accept thread plus, per connection, a reader
//!   thread (handshake, frame decoding, immediate submission to the
//!   session) and a responder thread (replies written in request order),
//!   fronted by the multi-benchmark [`ServiceRegistry`] (one engine per
//!   `(benchmark, node)` under a global cache-budget split), with graceful
//!   drain-on-shutdown, admission control and per-connection statistics.
//! * [`RemoteBackend`] — a client implementing
//!   [`EvalBackend`](gcnrl_exec::EvalBackend), so `SizingEnv::with_backend`
//!   and `FomConfig::calibrated_with_backend` run unchanged against a remote
//!   server with bit-identical results — now keeping a configurable window
//!   of batches in flight ([`RemoteConfig::pipeline`]) and transparently
//!   reconnecting with bounded backoff ([`ReconnectConfig`]).
//!
//! Observability: every connection's handshake/frame timings feed the
//! process-wide `gcnrl-telemetry` registry; clients can pull the full
//! snapshot over the wire (`ClientMsg::Metrics` →
//! [`RemoteBackend::metrics`]), and [`MetricsHttpServer`] exposes the same
//! registry in Prometheus text format over plain HTTP (wired to
//! `GCNRL_METRICS_ADDR` in the serve binary).

pub mod protocol;

mod accept;
mod client;
mod metrics_http;
mod registry;
mod server;
mod sharded;

pub use client::{PendingReply, ReconnectConfig, RemoteBackend, RemoteConfig, ServeError};
pub use metrics_http::MetricsHttpServer;
pub use metrics_http::ReadinessCheck;
pub use protocol::{FrameError, WireStats, PROTOCOL_VERSION};
pub use registry::{RegistryConfig, ServiceEntryStats, ServiceRegistry};
pub use server::{EvalServer, ServerConfig, ServerStats};
pub use sharded::{addrs_from_env, rendezvous_owner, ShardedBackend, ShardedConfig};

#[cfg(test)]
mod tests {
    use super::*;
    use gcnrl_circuit::{benchmarks::Benchmark, ParamVector, TechnologyNode};
    use gcnrl_exec::testing::LatencyEvaluator;
    use gcnrl_exec::{BatchEvaluator, EngineConfig, EvalBackend, EvalService, ServiceConfig};
    use std::time::Duration;

    fn serial_server() -> EvalServer {
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

    fn candidates(benchmark: Benchmark, node: &TechnologyNode, n: usize) -> Vec<ParamVector> {
        let space = benchmark.circuit().design_space(node);
        (0..n)
            .map(|i| {
                let unit: Vec<f64> = (0..space.num_parameters())
                    .map(|j| ((i * 17 + j * 3) % 89) as f64 / 88.0)
                    .collect();
                space.from_unit(&unit)
            })
            .collect()
    }

    #[test]
    fn remote_reports_are_bit_identical_to_a_local_engine() {
        let node = TechnologyNode::tsmc180();
        let batch = candidates(Benchmark::TwoStageTia, &node, 5);
        let local =
            BatchEvaluator::for_benchmark(Benchmark::TwoStageTia, &node, EngineConfig::serial());
        let reference = local.evaluate_batch(&batch);

        let server = serial_server();
        let remote = RemoteBackend::connect(server.local_addr(), Benchmark::TwoStageTia, &node)
            .expect("connect");
        assert_eq!(EvalBackend::benchmark(&remote), Benchmark::TwoStageTia);
        assert_eq!(remote.technology(), &node);
        assert_eq!(remote.metric_specs(), local.metric_specs());
        let reports = EvalBackend::evaluate_batch(&remote, &batch);
        assert_eq!(reports, reference, "the wire must not change a single bit");
        // Empty batches do not round-trip at all.
        assert!(EvalBackend::evaluate_batch(&remote, &[]).is_empty());
        // Engine stats travel back: 5 simulated candidates on the server.
        let stats = EvalBackend::stats(&remote);
        assert_eq!(stats.simulated, 5);
        let last = remote.last_batch();
        assert_eq!(last.size, 5);
        remote.goodbye().expect("clean close");
        server.shutdown();
    }

    #[test]
    fn two_clients_share_one_registry_service_and_its_cache() {
        let node = TechnologyNode::tsmc180();
        let batch = candidates(Benchmark::Ldo, &node, 4);
        let server = serial_server();
        let a = RemoteBackend::connect_with(
            server.local_addr(),
            Benchmark::Ldo,
            &node,
            RemoteConfig {
                session: Some("client-a".to_owned()),
                ..RemoteConfig::default()
            },
        )
        .expect("connect a");
        let b = RemoteBackend::connect_with(
            server.local_addr(),
            Benchmark::Ldo,
            &node,
            RemoteConfig {
                session: Some("client-b".to_owned()),
                ..RemoteConfig::default()
            },
        )
        .expect("connect b");
        let ra = EvalBackend::evaluate_batch(&a, &batch);
        let rb = EvalBackend::evaluate_batch(&b, &batch);
        assert_eq!(ra, rb);
        // b's identical batch was served from the shared cache.
        let stats = b.remote_stats().expect("stats");
        assert_eq!(stats.engine.simulated, 4);
        assert_eq!(stats.engine.cache_hits, 4);
        assert_eq!(stats.session.name, "client-b");
        assert_eq!(stats.session.candidates, 4);
        assert_eq!(server.registry().len(), 1);
        drop((a, b));
        server.shutdown();
        let server_stats = server.stats();
        assert_eq!(server_stats.connections_total, 2);
        assert_eq!(server_stats.services.len(), 1);
        // Both connections closed, so their sessions folded into the
        // service-level aggregate instead of lingering in the live map.
        let service = &server_stats.services[0];
        assert!(service.sessions.is_empty(), "closed sessions must fold out");
        assert_eq!(service.closed.sessions, 2);
        assert_eq!(service.closed.candidates, 8);
        assert_eq!(service.closed.submitted, service.closed.resolved);
    }

    #[test]
    fn dropped_pending_replies_do_not_block_goodbye() {
        let node = TechnologyNode::tsmc180();
        let server = serial_server();
        // A slow evaluator keeps the first reply provably unresolved when
        // its handle is dropped.
        let slow = EvalService::new(
            BatchEvaluator::new(
                Box::new(LatencyEvaluator::new(Duration::from_millis(100))),
                EngineConfig::serial(),
            ),
            ServiceConfig::default(),
        );
        server
            .registry()
            .insert_service(Benchmark::TwoStageTia, &node, slow);
        let remote = RemoteBackend::connect(server.local_addr(), Benchmark::TwoStageTia, &node)
            .expect("connect");
        let batch = candidates(Benchmark::TwoStageTia, &node, 1);
        // One reply dropped while the server still evaluates it, one dropped
        // after it arrived (replies come back in order, so it has resolved
        // once the later batch has).
        drop(remote.submit_batch(&batch).expect("submit abandoned"));
        let resolved = remote.submit_batch(&batch).expect("submit resolved");
        remote
            .submit_batch(&batch)
            .expect("submit last")
            .wait()
            .expect("last batch");
        drop(resolved);
        // `goodbye` waits for every request to settle; a bounded wait turns
        // a leaked slot into a failure instead of a hang.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = done_tx.send(remote.goodbye());
        });
        done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("goodbye hung on an abandoned reply")
            .expect("clean close");
        server.shutdown();
    }

    #[test]
    fn metrics_rpc_returns_a_live_telemetry_snapshot() {
        let node = TechnologyNode::tsmc180();
        let server = serial_server();
        let remote = RemoteBackend::connect(server.local_addr(), Benchmark::TwoStageTia, &node)
            .expect("connect");
        EvalBackend::evaluate_batch(&remote, &candidates(Benchmark::TwoStageTia, &node, 3));
        let snapshot = remote.metrics().expect("metrics over the wire");
        // The batch above must have left nonzero counts in every layer the
        // request traversed: serve framing, service dispatch, engine, solver.
        for name in [
            "serve.handshake.ns",
            "serve.frame_read.ns",
            "serve.frame_write.ns",
            "service.round_assemble.ns",
            "service.queue_wait.ns",
            "exec.batch.ns",
            "exec.simulate.ns",
            "sim.factor.ns",
            "sim.solve.ns",
        ] {
            let hist = snapshot
                .histogram(name)
                .unwrap_or_else(|| panic!("histogram {name} missing from the snapshot"));
            assert!(hist.count >= 1, "{name} recorded nothing");
            assert!(hist.sum > 0, "{name} has zero total duration");
        }
        // The same snapshot renders as Prometheus text on the client side.
        let prom = snapshot.render_prometheus();
        assert!(prom.contains("serve_handshake_ns_count"), "{prom}");
        assert!(prom.contains("exec_batch_ns_bucket"), "{prom}");
        remote.goodbye().expect("clean close");
        server.shutdown();
    }

    #[test]
    fn different_benchmarks_get_their_own_service_under_one_facade() {
        let node = TechnologyNode::tsmc180();
        let server = serial_server();
        let tia = RemoteBackend::connect(server.local_addr(), Benchmark::TwoStageTia, &node)
            .expect("connect tia");
        let ldo = RemoteBackend::connect(server.local_addr(), Benchmark::Ldo, &node)
            .expect("connect ldo");
        EvalBackend::evaluate_batch(&tia, &candidates(Benchmark::TwoStageTia, &node, 2));
        EvalBackend::evaluate_batch(&ldo, &candidates(Benchmark::Ldo, &node, 3));
        assert_eq!(server.registry().len(), 2);
        let share = server.registry().config().cache_share();
        assert!(share >= 1);
        drop((tia, ldo));
        server.shutdown();
        let mut simulated: Vec<u64> = server
            .stats()
            .services
            .iter()
            .map(|s| s.engine.simulated)
            .collect();
        simulated.sort_unstable();
        assert_eq!(simulated, vec![2, 3]);
    }

    #[test]
    fn sharded_backend_routes_deterministically_and_survives_a_killed_shard() {
        let node = TechnologyNode::tsmc180();
        let batch = candidates(Benchmark::TwoStageTia, &node, 12);
        // The solo local reference every sharded run must match bit-for-bit.
        let local =
            BatchEvaluator::for_benchmark(Benchmark::TwoStageTia, &node, EngineConfig::serial());
        let reference = local.evaluate_batch(&batch);

        let mut servers: Vec<EvalServer> = (0..3).map(|_| serial_server()).collect();
        let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
        let sharded = ShardedBackend::connect(
            &addrs,
            Benchmark::TwoStageTia,
            &node,
            ShardedConfig::default(),
        )
        .expect("connect ring");
        assert_eq!(sharded.live_shards(), addrs);
        // Routing is a pure function of the candidate: stable across calls.
        for params in &batch {
            assert_eq!(sharded.shard_for(params), sharded.shard_for(params));
        }
        let first = sharded.try_evaluate_batch(&batch).expect("first pass");
        assert_eq!(first, reference, "sharded run diverged from local");

        // Kill one of the three shards; its keys re-hash onto the survivors
        // and the batch must still complete, bit-identically.
        let victim = servers.remove(1);
        victim.shutdown();
        drop(victim);
        let second = sharded.try_evaluate_batch(&batch).expect("post-kill pass");
        assert_eq!(second, reference, "failover changed evaluation results");
        assert_eq!(sharded.live_shards().len(), 2, "dead shard not marked");
        // Survivor-owned keys did not move: a third pass is all cache hits.
        let hits_before = EvalBackend::stats(&sharded).cache_hits;
        let third = sharded.try_evaluate_batch(&batch).expect("warm pass");
        assert_eq!(third, reference);
        assert!(EvalBackend::stats(&sharded).cache_hits > hits_before);
        sharded.goodbye().expect("clean close");
        for server in servers {
            server.shutdown();
        }
    }

    #[test]
    fn graceful_shutdown_drains_active_sessions() {
        let node = TechnologyNode::tsmc180();
        let server = serial_server();
        let remote = RemoteBackend::connect(server.local_addr(), Benchmark::TwoStageTia, &node)
            .expect("connect");
        EvalBackend::evaluate_batch(&remote, &candidates(Benchmark::TwoStageTia, &node, 3));
        server.shutdown();
        // Every submitted request resolved before the drain completed (the
        // drained connections have retired into the closed aggregate).
        for service in server.stats().services {
            assert!(service.sessions.is_empty());
            assert_eq!(service.closed.submitted, service.closed.resolved);
        }
        // The torn-down server refuses further batches with an error (the
        // EvalBackend wrapper would panic; the try_ variant reports it).
        assert!(remote
            .try_evaluate_batch(&candidates(Benchmark::TwoStageTia, &node, 1))
            .is_err());
    }
}
