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
//!   server with bit-identical results — cutting each batch into pipelined
//!   sub-batches that share a configurable window of requests in flight
//!   ([`RemoteConfig::pipeline`]) and transparently reconnecting with
//!   bounded backoff ([`ReconnectConfig`]).
//!
//! Observability: every connection's handshake/frame timings feed the
//! process-wide `gcnrl-telemetry` registry, which [`MetricsHttpServer`]
//! serves as a Prometheus scrape over plain HTTP (wired to
//! `GCNRL_METRICS_ADDR` in the serve binary); with `GCNRL_TRACE` set, each
//! request's client and server spans link into one trace across processes.

pub mod protocol;

mod accept;
mod client;
mod metrics_http;
mod registry;
mod server;

pub use client::{PendingReply, ReconnectConfig, RemoteBackend, RemoteConfig, ServeError};
pub use metrics_http::MetricsHttpServer;
pub use protocol::{FrameError, WireStats, PROTOCOL_VERSION};
pub use registry::{RegistryConfig, ServiceEntryStats, ServiceRegistry};
pub use server::{EvalServer, ServerConfig, ServerStats};

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
    fn metrics_scrape_shows_every_layer_after_one_remote_batch() {
        use std::io::{Read, Write};
        let node = TechnologyNode::tsmc180();
        let server = serial_server();
        let remote = RemoteBackend::connect(server.local_addr(), Benchmark::TwoStageTia, &node)
            .expect("connect");
        EvalBackend::evaluate_batch(&remote, &candidates(Benchmark::TwoStageTia, &node, 3));
        let endpoint = MetricsHttpServer::bind("127.0.0.1:0").expect("bind metrics endpoint");
        let mut scrape =
            std::net::TcpStream::connect(endpoint.local_addr()).expect("connect to the scrape");
        scrape
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")
            .expect("send scrape request");
        let mut text = String::new();
        scrape.read_to_string(&mut text).expect("read the scrape");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        // The value of the unlabeled exposition line `{name} <value>`.
        let value = |name: &str| -> u64 {
            text.lines()
                .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
                .unwrap_or_else(|| panic!("{name} missing from the scrape"))
                .parse()
                .unwrap_or_else(|error| panic!("{name}: {error}"))
        };
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
            let family = name.replace('.', "_");
            assert!(
                value(&format!("{family}_count")) >= 1,
                "{name} recorded nothing"
            );
            assert!(
                value(&format!("{family}_sum")) > 0,
                "{name} has zero total duration"
            );
        }
        endpoint.shutdown();
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
    fn sub_batched_evaluations_match_a_local_engine_at_every_window() {
        let node = TechnologyNode::tsmc180();
        let local =
            BatchEvaluator::for_benchmark(Benchmark::TwoStageTia, &node, EngineConfig::serial());
        let sizes = [1, 8, 9, 24];
        for window in [1, 8] {
            let server = serial_server();
            let remote = RemoteBackend::connect_with(
                server.local_addr(),
                Benchmark::TwoStageTia,
                &node,
                RemoteConfig {
                    pipeline: window,
                    ..RemoteConfig::default()
                },
            )
            .expect("connect");
            for n in sizes {
                let batch = candidates(Benchmark::TwoStageTia, &node, n);
                assert_eq!(
                    EvalBackend::evaluate_batch(&remote, &batch),
                    local.evaluate_batch(&batch),
                    "{n} candidates at window {window}"
                );
            }
            // Each batch rode the wire as ceil(n / 8) requests.
            let requests: usize = sizes.iter().map(|n| n.div_ceil(client::SUB_BATCH)).sum();
            let session = remote.remote_stats().expect("stats").session;
            assert_eq!(session.submitted, requests as u64, "window {window}");
            remote.goodbye().expect("clean close");
            server.shutdown();
        }
    }

    #[test]
    fn a_failed_later_sub_batch_rejects_the_batch_and_leaks_no_window_slot() {
        use gcnrl_circuit::ComponentParams;
        use gcnrl_exec::testing::PanickyEvaluator;
        let node = TechnologyNode::tsmc180();
        let server = serial_server();
        let service = EvalService::new(
            BatchEvaluator::new(
                Box::new(PanickyEvaluator(LatencyEvaluator::new(Duration::ZERO))),
                EngineConfig::serial(),
            ),
            ServiceConfig::default(),
        );
        server
            .registry()
            .insert_service(Benchmark::TwoStageTia, &node, service);
        let remote = RemoteBackend::connect_with(
            server.local_addr(),
            Benchmark::TwoStageTia,
            &node,
            RemoteConfig {
                pipeline: 2,
                ..RemoteConfig::default()
            },
        )
        .expect("connect");
        // 24 candidates, the poisoned one in the third sub-batch.
        let batch: Vec<ParamVector> = (0..24)
            .map(|i| {
                let ohms = if i == 20 { 666.0 } else { 100.0 + i as f64 };
                ParamVector::new(vec![ComponentParams::Resistance(ohms)])
            })
            .collect();
        match remote.try_evaluate_batch(&batch) {
            Err(ServeError::Rejected(message)) => assert!(message.contains("R666"), "{message}"),
            other => panic!("expected Rejected, got {other:?}"),
        }
        // `goodbye` waits for every request to settle; a bounded wait turns
        // a leaked slot into a failure instead of a hang.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = done_tx.send(remote.goodbye());
        });
        done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("goodbye hung on an abandoned sub-batch")
            .expect("clean close");
        server.shutdown();
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
