//! `serve` — the standalone network evaluation server.
//!
//! Binds `GCNRL_SERVE_ADDR` (default `127.0.0.1:7733`) and serves the
//! multi-benchmark evaluation registry (protocol v8) until killed: every
//! connection carries exactly one session of the `EvalService` for its
//! `(benchmark, node)` pair, so remote trainers, baselines and sizing
//! clients share one engine + cache per pair. Each connection is served on
//! a reader and a responder thread of its own, so the server has no
//! thread-count knob; the engine's compute pool follows `GCNRL_THREADS`.
//!
//! Knobs (all strict-parsed; a typo panics rather than silently defaulting):
//!
//! * `GCNRL_SERVE_ADDR` — bind address (`host:port`; port 0 = ephemeral).
//! * `GCNRL_SERVE_BACKLOG` — admission control: reject new handshakes with
//!   `Error{busy}` while more than this many evaluation requests are
//!   pending across the registry (unset = admit unconditionally).
//! * `GCNRL_THREADS` / `GCNRL_CACHE_CAP` — engine template, as everywhere;
//!   `GCNRL_CACHE_CAP` is the total cache budget, split evenly over the
//!   four paper benchmarks' services (`RegistryConfig::from_env`).
//! * `GCNRL_METRICS_ADDR` — when set (`host:port`), also bind a plain-HTTP
//!   `/metrics` endpoint: a Prometheus scrape of the process's telemetry
//!   registry.
//! * `GCNRL_TRACE` — the JSONL span sink, honoured as everywhere; its events
//!   carry distributed trace ids.
//! * `GCNRL_SERVE_SMOKE` — run the CI smoke instead of serving: bind, run
//!   this many concurrent pipelined remote clients over real loopback TCP,
//!   each sending the same 6 designs and then 8 designs of its own seed,
//!   assert every reply bit-identical to a local serial engine, assert
//!   cross-client cache hits, a clean drain, live per-layer
//!   histograms in a Prometheus scrape (of the `GCNRL_METRICS_ADDR`
//!   endpoint, or of an ephemeral one when it is unset) and a
//!   kill-and-restart reconnect scenario, then exit.
//! * `GCNRL_SERVE_MULTIPROC_SMOKE` — run the cross-process tracing smoke:
//!   re-exec this binary as a real server process (tracing to
//!   `trace_server.jsonl`), send it one `RemoteBackend` batch, assert results
//!   bit-identical to a solo local run, then assert the client's root trace
//!   id shows up in both JSONL files, on a `serve.request.ns` segment in the
//!   server's — one request tree provably spanning two processes — and exit.

use gcnrl_circuit::{benchmarks::Benchmark, DesignSpace, ParamVector, TechnologyNode};
use gcnrl_exec::{env_usize, BatchEvaluator, EngineConfig};
use gcnrl_serve::{
    EvalServer, MetricsHttpServer, ReconnectConfig, RegistryConfig, RemoteBackend, RemoteConfig,
    ServerConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::time::Duration;

fn server_config() -> ServerConfig {
    ServerConfig {
        registry: RegistryConfig::from_env(),
        backlog_limit: env_usize("GCNRL_SERVE_BACKLOG").map(|limit| limit as u64),
        ..ServerConfig::default()
    }
}

/// Designs every smoke client sends first, the same for all of them (like
/// the FoM calibration sweep every experiment cell of a circuit runs).
const SHARED_DESIGNS: usize = 6;
/// Designs of its own seed each smoke client sends next.
const OWN_DESIGNS: usize = 8;
/// The smoke clients' pipeline window.
const PIPELINE: usize = 4;

fn smoke_client_config(session: String) -> RemoteConfig {
    RemoteConfig {
        session: Some(session),
        pipeline: PIPELINE,
        ..RemoteConfig::default()
    }
}

/// `n` random designs of `seed`, drawn as the FoM calibration sweep draws
/// its designs.
fn designs(space: &DesignSpace, seed: u64, n: usize) -> Vec<ParamVector> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let unit: Vec<f64> = (0..space.num_parameters()).map(|_| rng.gen()).collect();
            space.from_unit(&unit)
        })
        .collect()
}

/// Kill-and-restart scenario on a scratch server: a pipelined client must
/// ride the reconnect-with-backoff path across a full server restart on the
/// same address with bit-identical results.
fn restart_smoke(benchmark: Benchmark, node: &TechnologyNode) {
    let batch = designs(&benchmark.circuit().design_space(node), 0, 3);

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

/// Cross-process distributed-tracing smoke: the in-process tests cannot
/// prove that a trace context survives the wire between real processes.
/// This one re-execs the `serve` binary as a server process with its own
/// `GCNRL_TRACE` sink, sends it one `RemoteBackend` batch, and asserts the
/// client's deterministic root trace id appears in both JSONL files, with
/// the server's file carrying a `serve.request.ns` segment of that trace.
fn multiproc_smoke() {
    let benchmark = Benchmark::TwoStageTia;
    let node = TechnologyNode::tsmc180();

    // The client's own sink: honour GCNRL_TRACE when CI set it, else default
    // next to the server's file.
    let client_trace = match std::env::var("GCNRL_TRACE") {
        Ok(path) if !path.is_empty() => path,
        _ => {
            gcnrl_telemetry::set_trace_file("trace_client.jsonl").expect("open client trace sink");
            "trace_client.jsonl".to_owned()
        }
    };

    // Reserve a loopback port so the client knows the server's address
    // before it starts (ephemeral discovery would need stdout parsing; the
    // bind-and-drop window is negligible for a smoke).
    let addr = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|probe| probe.local_addr())
        .expect("reserve a server port")
        .to_string();
    let server_trace = "trace_server.jsonl";
    let mut child =
        std::process::Command::new(std::env::current_exe().expect("current executable"))
            .env_remove("GCNRL_SERVE_MULTIPROC_SMOKE")
            .env_remove("GCNRL_SERVE_SMOKE")
            .env_remove("GCNRL_METRICS_ADDR")
            .env("GCNRL_SERVE_ADDR", &addr)
            .env("GCNRL_TRACE", server_trace)
            .spawn()
            .unwrap_or_else(|error| panic!("spawn the server process: {error}"));
    let mut kill_child = || {
        let _ = child.kill();
        let _ = child.wait();
    };

    // Wait until the server answers its listener.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while let Err(error) = std::net::TcpStream::connect(addr.as_str()) {
        if std::time::Instant::now() >= deadline {
            kill_child();
            panic!("server {addr} never came up: {error}");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    println!("multiproc smoke: server up on {addr}");

    let batch = designs(&benchmark.circuit().design_space(&node), 0, 16);
    let engine = BatchEvaluator::for_benchmark(benchmark, &node, EngineConfig::serial());
    let reference = engine.evaluate_batch(&batch);

    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let remote = RemoteBackend::connect_with(
            addr.as_str(),
            benchmark,
            &node,
            smoke_client_config("multiproc".to_owned()),
        )
        .expect("connect the remote client");
        let reports = remote.try_evaluate_batch(&batch).expect("traced batch");
        assert_eq!(reports, reference, "traced multiproc run changed a bit");
        remote.goodbye().expect("remote goodbye");
    }));
    gcnrl_telemetry::disable_trace();
    kill_child();
    if let Err(panic) = outcome {
        std::panic::resume_unwind(panic);
    }

    // One tree across two processes: the session is "multiproc" and this was
    // its first batch, so the root trace id is deterministic. Substring
    // probes are enough for a smoke — `traceview` in CI does the full
    // structural reassembly.
    let trace_id = gcnrl_telemetry::trace_id_for("multiproc", 0);
    let id_probe = format!("\"trace_id\":{trace_id}");
    for (path, is_server) in [(client_trace.as_str(), false), (server_trace, true)] {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|error| panic!("read trace file {path}: {error}"));
        assert!(
            text.lines().any(|line| line.contains(&id_probe)),
            "{path}: the client's trace id never reached this process"
        );
        if is_server {
            assert!(
                text.lines().any(|line| {
                    line.contains(&id_probe) && line.contains("\"name\":\"serve.request.ns\"")
                }),
                "{path}: no server-side request segment joined the client's trace"
            );
        }
    }
    println!("multiproc smoke OK: trace {trace_id:#018x} spans the client and the server process");
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
                "    session {:<28} submitted={} resolved={} candidates={}",
                session.name, session.submitted, session.resolved, session.candidates
            );
        }
        let closed = &service.closed;
        if closed.sessions > 0 {
            println!(
                "    closed  {:>3} sessions: submitted={} resolved={} candidates={}",
                closed.sessions, closed.submitted, closed.resolved, closed.candidates
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

/// The CI smoke: N concurrent remote sessions over loopback TCP against one
/// shared server, each sending the shared designs and then its own, checked
/// bit-identical against a local engine, with cross-client cache reuse, a
/// clean drain and a Prometheus scrape of live per-layer histograms
/// asserted.
fn smoke(server: &EvalServer, metrics: Option<&MetricsHttpServer>, clients: usize) {
    let benchmark = Benchmark::TwoStageTia;
    let node = TechnologyNode::tsmc180();
    let space = benchmark.circuit().design_space(&node);
    let shared = designs(&space, u64::MAX, SHARED_DESIGNS);

    let addr = server.local_addr();
    let workers: Vec<_> = (0..clients)
        .map(|seed| {
            let node = node.clone();
            let batches = [shared.clone(), designs(&space, seed as u64, OWN_DESIGNS)];
            std::thread::spawn(move || {
                let remote = RemoteBackend::connect_with(
                    addr,
                    benchmark,
                    &node,
                    smoke_client_config(format!("smoke-{seed}")),
                )
                .expect("smoke client connect");
                let replies: Vec<_> = batches
                    .iter()
                    .map(|batch| remote.try_evaluate_batch(batch).expect("smoke batch"))
                    .collect();
                remote.goodbye().expect("smoke client goodbye");
                (batches, replies)
            })
        })
        .collect();
    let local = BatchEvaluator::for_benchmark(benchmark, &node, EngineConfig::serial());
    for (seed, worker) in workers.into_iter().enumerate() {
        let (batches, replies) = worker.join().expect("smoke client thread");
        for (batch, reply) in batches.iter().zip(replies) {
            assert_eq!(
                reply,
                local.evaluate_batch(batch),
                "client {seed}: a remote reply differs from the local engine"
            );
        }
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
        engine.cache_hits >= ((clients - 1) * SHARED_DESIGNS) as u64,
        "cross-client reuse of the shared designs missing: {engine:?}"
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
        closed.candidates >= (clients * (SHARED_DESIGNS + OWN_DESIGNS)) as u64,
        "closed aggregate lost candidates: {closed:?}"
    );
    println!(
        "serve smoke OK: {clients} remote clients bit-identical to a local engine, \
         {} cross-client cache hits, clean drain, telemetry live",
        engine.cache_hits
    );

    restart_smoke(benchmark, &node);
}

fn main() {
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
