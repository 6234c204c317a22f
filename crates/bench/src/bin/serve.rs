//! `serve` — the standalone network evaluation server.
//!
//! Binds `GCNRL_SERVE_ADDR` (default `127.0.0.1:7733`) and serves the
//! multi-benchmark evaluation registry (protocol v7) until killed: every
//! connection carries exactly one session of the `EvalService` for its
//! `(benchmark, node)` pair, so remote trainers, baselines and the bench
//! binaries (run with `GCNRL_SERVE_ADDR` pointing here) share one engine +
//! cache per pair. Each connection is served on a reader and a responder
//! thread of its own, so the server has no thread-count knob; the engine's
//! compute pool follows `GCNRL_THREADS`.
//!
//! Knobs (all strict-parsed; a typo panics rather than silently defaulting):
//!
//! * `GCNRL_SERVE_ADDR` — bind address (`host:port`; port 0 = ephemeral).
//! * `GCNRL_SERVE_CACHE_CAP` — total cached reports across all services
//!   (default 65536), split evenly over the slots.
//! * `GCNRL_SERVE_SLOTS` — expected number of `(benchmark, node)` services
//!   sharing the budget (default 4).
//! * `GCNRL_SERVE_PIPELINE` — client-side pipeline window used by the smoke
//!   clients (and by bench binaries riding `GCNRL_SERVE_ADDR`); `1` keeps
//!   one batch in flight.
//! * `GCNRL_SERVE_BACKLOG` — admission control: reject new handshakes with
//!   `Error{busy}` while more than this many evaluation requests are
//!   pending across the registry (unset = admit unconditionally).
//! * `GCNRL_SERVE_ADDRS` — client side of the sharded tier: bench binaries
//!   and trainers seeing this route each candidate to a shard by rendezvous
//!   hash via `ShardedBackend` instead of dialing `GCNRL_SERVE_ADDR`.
//! * `GCNRL_THREADS` / `GCNRL_CACHE_PATH` — engine template, as everywhere.
//! * `GCNRL_METRICS_ADDR` — when set (`host:port`), also bind a plain-HTTP
//!   `/metrics` endpoint: a Prometheus scrape of the process's telemetry
//!   registry.
//! * `GCNRL_TRACE` — the JSONL span sink, honoured as everywhere; its events
//!   carry distributed trace ids.
//! * `GCNRL_SERVE_SMOKE` — run the CI smoke instead of serving: bind, run
//!   this many concurrent pipelined remote random-search clients over real
//!   loopback TCP, assert their runs are bit-identical to solo local runs,
//!   assert cross-client cache hits, a clean drain, live per-layer
//!   histograms in a Prometheus scrape (of the `GCNRL_METRICS_ADDR`
//!   endpoint, or of an ephemeral one when it is unset) and a
//!   kill-and-restart reconnect scenario, then exit.
//! * `GCNRL_SERVE_SHARDED_SMOKE` — run the sharded-tier CI smoke instead of
//!   serving: bind two shards on ephemeral ports, run this many concurrent
//!   `ShardedBackend` clients, kill one shard mid-run and assert every
//!   client fails over with results bit-identical to a solo local run, then
//!   exit.
//! * `GCNRL_SERVE_MULTIPROC_SMOKE` — run the cross-process tracing smoke:
//!   re-exec this binary twice as real shard processes (each tracing to
//!   `trace_shard{i}.jsonl`), fan one `ShardedBackend` batch out over both,
//!   assert results bit-identical to a solo local run, then assert the
//!   client's root trace id shows up in all three JSONL files, on a
//!   `serve.request.ns` segment in each shard's — one request tree provably
//!   spanning three processes — and exit.

use gcnrl_bench::{
    budget_from_env, env_for_backend, env_for_session, serve_pipeline, service_session,
    ExperimentConfig,
};
use gcnrl_circuit::{benchmarks::Benchmark, ParamVector, TechnologyNode};
use gcnrl_exec::{env_usize, BatchEvaluator, EngineConfig};
use gcnrl_serve::{
    EvalServer, MetricsHttpServer, ReconnectConfig, RegistryConfig, RemoteBackend, RemoteConfig,
    ServerConfig, ShardedBackend, ShardedConfig,
};
use std::io::{Read, Write};
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn server_config() -> ServerConfig {
    let registry = RegistryConfig {
        engine: EngineConfig::from_env(),
        ..RegistryConfig::default()
    }
    .with_cache_budget(env_usize("GCNRL_SERVE_CACHE_CAP").unwrap_or(65_536))
    .with_cache_slots(env_usize("GCNRL_SERVE_SLOTS").unwrap_or(Benchmark::ALL.len()));
    ServerConfig {
        registry,
        backlog_limit: env_usize("GCNRL_SERVE_BACKLOG").map(|limit| limit as u64),
        ..ServerConfig::default()
    }
}

fn smoke_client_config(session: String) -> RemoteConfig {
    RemoteConfig {
        session: Some(session),
        pipeline: serve_pipeline().unwrap_or(RemoteConfig::default().pipeline),
        ..RemoteConfig::default()
    }
}

/// Kill-and-restart scenario on a scratch server: a pipelined client must
/// ride the reconnect-with-backoff path across a full server restart on the
/// same address with bit-identical results.
fn restart_smoke(benchmark: Benchmark, node: &TechnologyNode) {
    let space = benchmark.circuit().design_space(node);
    let batch: Vec<_> = (0..3)
        .map(|i| {
            let unit: Vec<f64> = (0..space.num_parameters())
                .map(|k| ((i * 41 + k * 11) % 83) as f64 / 82.0)
                .collect();
            space.from_unit(&unit)
        })
        .collect();

    let server = EvalServer::bind("127.0.0.1:0", server_config()).expect("bind scratch server");
    let addr = server.local_addr();
    let remote = RemoteBackend::connect_with(
        addr,
        benchmark,
        node,
        RemoteConfig {
            reconnect: ReconnectConfig {
                max_retries: 10,
                base_delay: std::time::Duration::from_millis(20),
                max_delay: std::time::Duration::from_millis(500),
            },
            ..smoke_client_config("restart-smoke".to_owned())
        },
    )
    .expect("restart client connect");
    let before = remote
        .try_evaluate_batch(&batch)
        .expect("pre-restart batch");

    server.shutdown();
    let server = EvalServer::bind(addr, server_config()).expect("rebind after restart");
    let after = remote
        .try_evaluate_batch(&batch)
        .expect("post-restart batch");
    assert_eq!(
        before, after,
        "the restart must be invisible in the results"
    );
    assert!(
        remote.reconnects() >= 1,
        "the backend should have re-handshaked across the restart"
    );
    remote.goodbye().expect("restart client goodbye");
    server.shutdown();
    assert_eq!(server.stats().connections_total, 1);
    println!("restart smoke OK: reconnect-with-backoff across a server restart");
}

fn sharded_client_config(seed: usize) -> ShardedConfig {
    ShardedConfig {
        remote: RemoteConfig {
            reconnect: ReconnectConfig {
                max_retries: 2,
                base_delay: Duration::from_millis(10),
                max_delay: Duration::from_millis(50),
            },
            ..smoke_client_config(format!("sharded-smoke-{seed}"))
        },
        ..ShardedConfig::default()
    }
}

/// The sharded-tier CI smoke: two shards on ephemeral ports, concurrent
/// `ShardedBackend` clients routing by rendezvous hash, then one shard is
/// killed mid-run and every client must fail over to the survivor with
/// results bit-identical to a solo local run.
fn sharded_smoke(clients: usize) {
    let benchmark = Benchmark::TwoStageTia;
    let node = TechnologyNode::tsmc180();
    let space = benchmark.circuit().design_space(&node);
    let batches: Vec<Vec<ParamVector>> = (0..clients)
        .map(|client| {
            (0..8)
                .map(|i| {
                    let unit: Vec<f64> = (0..space.num_parameters())
                        .map(|k| ((client * 29 + i * 13 + k * 7) % 97) as f64 / 96.0)
                        .collect();
                    space.from_unit(&unit)
                })
                .collect()
        })
        .collect();

    // Solo local reference: the sharded tier must be invisible in the
    // results, shard kill included.
    let engine = BatchEvaluator::for_benchmark(benchmark, &node, EngineConfig::serial());
    let reference: Vec<Vec<_>> = batches.iter().map(|b| engine.evaluate_batch(b)).collect();

    let mut servers: Vec<EvalServer> = (0..2)
        .map(|_| EvalServer::bind("127.0.0.1:0", server_config()).expect("bind shard"))
        .collect();
    let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
    println!("sharded smoke: {clients} clients over shards {addrs:?}");

    // Barriers fence the kill: every client finishes its first pass, the
    // main thread shoots shard 1, then the clients re-evaluate through the
    // failover path with their connections still open.
    let warmed = Arc::new(Barrier::new(clients + 1));
    let resume = Arc::new(Barrier::new(clients + 1));
    let workers: Vec<_> = batches
        .iter()
        .cloned()
        .enumerate()
        .map(|(seed, batch)| {
            let addrs = addrs.clone();
            let node = node.clone();
            let warmed = Arc::clone(&warmed);
            let resume = Arc::clone(&resume);
            std::thread::spawn(move || {
                let sharded =
                    ShardedBackend::connect(&addrs, benchmark, &node, sharded_client_config(seed))
                        .expect("sharded client connect");
                let before = sharded
                    .try_evaluate_batch(&batch)
                    .expect("pre-kill sharded batch");
                warmed.wait();
                resume.wait();
                let after = sharded
                    .try_evaluate_batch(&batch)
                    .expect("post-kill sharded batch");
                let live = sharded.live_shards();
                let _ = sharded.goodbye();
                (before, after, live)
            })
        })
        .collect();

    warmed.wait();

    let victim = servers.remove(1);
    victim.shutdown();
    drop(victim);
    resume.wait();

    for (seed, worker) in workers.into_iter().enumerate() {
        let (before, after, live) = worker.join().expect("sharded client thread");
        assert_eq!(
            before, reference[seed],
            "client {seed}: pre-kill sharded run diverged from the local reference"
        );
        assert_eq!(
            after, reference[seed],
            "client {seed}: post-kill failover run diverged from the local reference"
        );
        assert_eq!(
            live,
            vec![addrs[0].clone()],
            "client {seed}: dead shard still counted as live after failover"
        );
    }

    let survivor = &servers[0];
    survivor.shutdown();
    print_stats(survivor);
    let stats = survivor.stats();
    assert_eq!(stats.connections_active, 0, "connections not drained");
    println!("sharded smoke OK: {clients} clients bit-identical across a shard kill");
}

/// Cross-process distributed-tracing smoke: the sharded smokes above run
/// every shard in-process, so they cannot prove that a trace context
/// survives the wire between real processes. This one re-execs the `serve`
/// binary twice as shard processes, each with its own `GCNRL_TRACE` sink,
/// fans one `ShardedBackend` batch out over both, and asserts the client's
/// deterministic root trace id appears in all three JSONL files, with each
/// shard's file carrying a `serve.request.ns` segment of that trace.
fn multiproc_smoke() {
    let benchmark = Benchmark::TwoStageTia;
    let node = TechnologyNode::tsmc180();

    // The client's own sink: honour GCNRL_TRACE when CI set it, else default
    // next to the shard files.
    let client_trace = match std::env::var("GCNRL_TRACE") {
        Ok(path) if !path.is_empty() => path,
        _ => {
            gcnrl_telemetry::set_trace_file("trace_client.jsonl").expect("open client trace sink");
            "trace_client.jsonl".to_owned()
        }
    };

    // Reserve two loopback ports so the client knows both shards before
    // they start (ephemeral discovery would need stdout parsing; the
    // bind-and-drop window is negligible for a smoke).
    let ring: Vec<String> = (0..2)
        .map(|_| {
            let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("reserve shard port");
            probe.local_addr().expect("reserved addr").to_string()
        })
        .collect();
    let exe = std::env::current_exe().expect("current executable");
    let shard_traces: Vec<String> = (0..2).map(|i| format!("trace_shard{i}.jsonl")).collect();
    let mut children: Vec<std::process::Child> = (0..2)
        .map(|i| {
            std::process::Command::new(&exe)
                .env_remove("GCNRL_SERVE_MULTIPROC_SMOKE")
                .env_remove("GCNRL_SERVE_SMOKE")
                .env_remove("GCNRL_SERVE_SHARDED_SMOKE")
                .env_remove("GCNRL_METRICS_ADDR")
                .env_remove("GCNRL_SERVE_ADDRS")
                .env("GCNRL_SERVE_ADDR", &ring[i])
                .env("GCNRL_TRACE", &shard_traces[i])
                .spawn()
                .unwrap_or_else(|error| panic!("spawn shard {i}: {error}"))
        })
        .collect();
    let kill_children = |children: &mut Vec<std::process::Child>| {
        for child in children.iter_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
    };

    // Wait until both shards answer their listener.
    for addr in &ring {
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        loop {
            match std::net::TcpStream::connect(addr.as_str()) {
                Ok(_) => break,
                Err(_) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(error) => {
                    kill_children(&mut children);
                    panic!("shard {addr} never came up: {error}");
                }
            }
        }
    }
    println!("multiproc smoke: shards up on {ring:?}");

    let space = benchmark.circuit().design_space(&node);
    let batch: Vec<ParamVector> = (0..16)
        .map(|i| {
            let unit: Vec<f64> = (0..space.num_parameters())
                .map(|k| ((i * 19 + k * 5) % 91) as f64 / 90.0)
                .collect();
            space.from_unit(&unit)
        })
        .collect();
    let engine = BatchEvaluator::for_benchmark(benchmark, &node, EngineConfig::serial());
    let reference = engine.evaluate_batch(&batch);

    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let sharded = ShardedBackend::connect(
            &ring,
            benchmark,
            &node,
            ShardedConfig {
                remote: smoke_client_config("multiproc".to_owned()),
                ..ShardedConfig::default()
            },
        )
        .expect("connect sharded client");
        let mut per_shard = [0usize; 2];
        for params in &batch {
            per_shard[sharded.shard_for(params).expect("live shard")] += 1;
        }
        assert!(
            per_shard.iter().all(|&n| n > 0),
            "the batch never fanned out over both shards: {per_shard:?}"
        );
        let reports = sharded.try_evaluate_batch(&batch).expect("traced batch");
        assert_eq!(reports, reference, "traced multiproc run changed a bit");
        sharded.goodbye().expect("sharded goodbye");
    }));
    gcnrl_telemetry::disable_trace();
    kill_children(&mut children);
    if let Err(panic) = outcome {
        std::panic::resume_unwind(panic);
    }

    // One tree across three processes: the sharded session is "multiproc"
    // and this was its first batch, so the root trace id is deterministic.
    // Substring probes are enough for a smoke — `traceview` in CI does the
    // full structural reassembly.
    let trace_id = gcnrl_telemetry::trace_id_for("multiproc", 0);
    let id_probe = format!("\"trace_id\":{trace_id}");
    for (path, is_shard) in [
        (client_trace.as_str(), false),
        (shard_traces[0].as_str(), true),
        (shard_traces[1].as_str(), true),
    ] {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|error| panic!("read trace file {path}: {error}"));
        assert!(
            text.lines().any(|line| line.contains(&id_probe)),
            "{path}: the client's trace id never reached this process"
        );
        if is_shard {
            assert!(
                text.lines().any(|line| {
                    line.contains(&id_probe) && line.contains("\"name\":\"serve.request.ns\"")
                }),
                "{path}: no server-side request segment joined the client's trace"
            );
        }
    }
    println!(
        "multiproc smoke OK: trace {trace_id:#018x} spans the client and both shard processes"
    );
}

fn print_stats(server: &EvalServer) {
    let stats = server.stats();
    println!(
        "connections: {} total, {} active, {} rejected",
        stats.connections_total, stats.connections_active, stats.connections_rejected
    );
    for service in &stats.services {
        println!(
            "  {:<10} @ {:<6} {}",
            service.benchmark,
            service.node,
            service.engine.summary()
        );
        for session in &service.sessions {
            println!(
                "    session {:<28} submitted={} resolved={} candidates={} shared_rounds={}",
                session.name,
                session.submitted,
                session.resolved,
                session.candidates,
                session.shared_rounds
            );
        }
        let closed = &service.closed;
        if closed.sessions > 0 {
            println!(
                "    closed  {:>3} sessions: submitted={} resolved={} candidates={} shared_rounds={}",
                closed.sessions,
                closed.submitted,
                closed.resolved,
                closed.candidates,
                closed.shared_rounds
            );
        }
    }
}

/// One raw-HTTP `GET` against the metrics endpoint (what a Prometheus
/// scraper does), returning the response text.
fn scrape_metrics(addr: std::net::SocketAddr) -> String {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect to metrics endpoint");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")
        .expect("send scrape request");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read scrape response");
    response
}

/// The CI smoke: N concurrent remote random-search sessions over loopback
/// TCP against one shared server, checked bit-identical against solo local
/// runs, with cross-client cache reuse, a clean drain and a Prometheus
/// scrape of live per-layer histograms asserted.
fn smoke(server: &EvalServer, metrics: Option<&MetricsHttpServer>, clients: usize) {
    let cfg = budget_from_env(ExperimentConfig {
        budget: 8,
        warmup: 3,
        seeds: 1,
        calibration: 6,
        rollout_k: 1,
    });
    let benchmark = Benchmark::TwoStageTia;
    let node = TechnologyNode::tsmc180();

    // Reference: each seed alone on a fresh local service session.
    let solo: Vec<_> = (0..clients)
        .map(|seed| {
            let session = service_session(benchmark, &node, EngineConfig::serial());
            gcnrl_baselines::random_search(
                &env_for_session(&session, &cfg),
                cfg.budget,
                seed as u64,
            )
        })
        .collect();

    let addr = server.local_addr();
    let workers: Vec<_> = (0..clients)
        .map(|seed| {
            let node = node.clone();
            std::thread::spawn(move || {
                let remote = RemoteBackend::connect_with(
                    addr,
                    benchmark,
                    &node,
                    smoke_client_config(format!("smoke-{seed}")),
                )
                .expect("smoke client connect");
                gcnrl_baselines::random_search(
                    &env_for_backend(Box::new(remote), &cfg, None),
                    cfg.budget,
                    seed as u64,
                )
            })
        })
        .collect();
    let remote: Vec<_> = workers
        .into_iter()
        .map(|w| w.join().expect("smoke client thread"))
        .collect();

    for (seed, (remote_run, solo_run)) in remote.iter().zip(&solo).enumerate() {
        assert_eq!(
            remote_run, solo_run,
            "seed {seed}: remote run diverged from the local reference"
        );
    }

    // The scrape of the process's registry (the GCNRL_METRICS_ADDR endpoint,
    // or an ephemeral one): the traffic above must have left nonzero latency
    // counts in every layer a batch traverses.
    let ephemeral;
    let endpoint = match metrics {
        Some(endpoint) => endpoint,
        None => {
            ephemeral =
                MetricsHttpServer::bind("127.0.0.1:0").expect("bind an ephemeral metrics endpoint");
            &ephemeral
        }
    };
    let response = scrape_metrics(endpoint.local_addr());
    assert!(
        response.starts_with("HTTP/1.1 200 OK\r\n"),
        "scrape did not return 200: {response}"
    );
    for name in [
        "serve.handshake.ns",
        "serve.frame_read.ns",
        "serve.frame_write.ns",
        "service.round_assemble.ns",
        "service.queue_wait.ns",
        "exec.batch.ns",
        "sim.solve.ns",
    ] {
        let count_line = format!("{}_count ", name.replace('.', "_"));
        let count: u64 = response
            .lines()
            .find_map(|line| line.strip_prefix(&count_line))
            .unwrap_or_else(|| panic!("histogram {name} missing from the scrape"))
            .parse()
            .unwrap_or_else(|error| panic!("histogram {name}: unreadable count: {error}"));
        assert!(count > 0, "{name} recorded nothing during the smoke");
    }
    assert!(
        response.contains("le=\"+Inf\""),
        "scrape missing its +Inf buckets"
    );
    println!("metrics scrape OK on {}", endpoint.local_addr());

    server.shutdown();
    print_stats(server);
    let stats = server.stats();
    assert_eq!(stats.connections_active, 0, "connections not drained");
    assert_eq!(stats.connections_total as usize, clients);
    assert_eq!(stats.services.len(), 1);
    let engine = &stats.services[0].engine;
    assert!(
        engine.cache_hits >= ((clients - 1) * cfg.calibration) as u64,
        "cross-client calibration reuse missing: {engine:?}"
    );
    // Every connection closed, so its session folded into the service-level
    // aggregate; nothing may linger in the live map and nothing may be left
    // pending after the drain.
    let service = &stats.services[0];
    assert!(
        service.sessions.is_empty(),
        "closed sessions must fold out of the live map: {:?}",
        service.sessions
    );
    let closed = &service.closed;
    assert_eq!(closed.sessions as usize, clients);
    assert_eq!(
        closed.submitted, closed.resolved,
        "requests left pending after drain"
    );
    assert!(
        closed.candidates >= (clients * (cfg.calibration + cfg.budget)) as u64,
        "closed aggregate lost candidates: {closed:?}"
    );
    println!(
        "serve smoke OK: {clients} remote clients bit-identical to solo runs, \
         {} cross-client cache hits, clean drain, telemetry live",
        engine.cache_hits
    );

    restart_smoke(benchmark, &node);
}

fn main() {
    if let Some(clients) = env_usize("GCNRL_SERVE_SHARDED_SMOKE") {
        sharded_smoke(clients.max(2));
        return;
    }
    if env_usize("GCNRL_SERVE_MULTIPROC_SMOKE").is_some() {
        multiproc_smoke();
        return;
    }

    let addr = std::env::var("GCNRL_SERVE_ADDR").unwrap_or_else(|_| "127.0.0.1:7733".to_owned());
    let server = EvalServer::bind(&addr, server_config()).unwrap_or_else(|error| {
        panic!("failed to bind evaluation server on {addr}: {error}");
    });
    println!(
        "gcnrl evaluation server listening on {} (protocol v{})",
        server.local_addr(),
        gcnrl_serve::PROTOCOL_VERSION
    );

    // Optional Prometheus scrape endpoint over the process-wide telemetry
    // registry. Strict-parsed: a malformed address panics at startup.
    let metrics = gcnrl_telemetry::env_socket_addr("GCNRL_METRICS_ADDR").map(|addr| {
        let endpoint = MetricsHttpServer::bind(addr)
            .unwrap_or_else(|error| panic!("failed to bind metrics endpoint on {addr}: {error}"));
        println!("metrics endpoint listening on {}", endpoint.local_addr());
        endpoint
    });

    if let Some(clients) = env_usize("GCNRL_SERVE_SMOKE") {
        smoke(&server, metrics.as_ref(), clients.max(2));
        return;
    }

    // Serve until killed, logging a stats snapshot every 30 s once traffic
    // has arrived.
    let mut last_total = 0;
    loop {
        std::thread::sleep(std::time::Duration::from_secs(30));
        let total = server.stats().connections_total;
        if total != last_total {
            last_total = total;
            print_stats(&server);
        }
    }
}
