//! Pipelined vs blocking remote evaluation throughput over real loopback TCP.
//!
//! The question, answered in `BENCH_serve.json`: with a latency-bound
//! service (a fixed sleep per candidate — the regime of the paper's external
//! SPICE processes) and 32 concurrent remote clients, how much aggregate
//! throughput does a pipeline window buy over keeping one batch in flight?
//!
//! Each scenario binds a fresh server (a reader and a responder thread per
//! connection, so 64 server threads at 32 clients) whose Two-TIA service
//! wraps a [`LatencyEvaluator`] on a wide worker pool, then runs every
//! client on its own thread: submit all batches into the configured
//! pipeline window, collect all replies, stop the clock when the last
//! client finishes. The candidates are identical across scenarios (unique
//! *within* a run so the cache never short-circuits the sleep), so the
//! pipelined reports must be bit-identical to the blocking ones.
//!
//! Acceptance gate: pipelining must at least **double** aggregate throughput
//! in this latency-bound configuration. The sleeps overlap even on a
//! single-core runner, so the gate holds in CI.

use gcnrl_circuit::{benchmarks::Benchmark, ComponentParams, ParamVector, TechnologyNode};
use gcnrl_exec::testing::LatencyEvaluator;
use gcnrl_exec::{BatchEvaluator, EngineConfig, EvalService, ServiceConfig};
use gcnrl_serve::{EvalServer, RegistryConfig, RemoteBackend, RemoteConfig, ServerConfig};
use gcnrl_sim::PerformanceReport;
use serde::Serialize;
use std::time::{Duration, Instant};

/// Concurrent remote clients (the CI smoke scale).
const CLIENTS: usize = 32;
/// Batches each client pushes through the wire.
const BATCHES: usize = 64;
/// Pipeline window of the pipelined scenario; `1` is the blocking baseline.
const WINDOW: usize = 8;
/// Simulated per-candidate simulator latency.
const LATENCY: Duration = Duration::from_millis(4);
/// Engine worker threads — enough to overlap every in-flight candidate of
/// the pipelined scenario (`CLIENTS * WINDOW`), so the measured difference
/// is the wire discipline, not engine starvation.
const THREADS: usize = CLIENTS * WINDOW;

const BENCHMARK: Benchmark = Benchmark::TwoStageTia;

#[derive(Debug, Serialize)]
struct Scenario {
    window: usize,
    wall_s: f64,
    batches: usize,
    /// Aggregate batches per second across all clients.
    throughput: f64,
    connections_total: u64,
}

#[derive(Debug, Serialize)]
struct BenchServeReport {
    clients: usize,
    batches_per_client: usize,
    latency_ms: f64,
    engine_threads: usize,
    blocking: Scenario,
    pipelined: Scenario,
    /// `pipelined.throughput / blocking.throughput`.
    speedup: f64,
    /// Process-wide telemetry at the end of every scenario — the
    /// handshake/frame/queue-wait latency histograms behind the numbers.
    telemetry: gcnrl_telemetry::RegistrySnapshot,
}

/// The batch every client `c` sends as its `b`-th request: one candidate,
/// unique across the whole run so every evaluation pays the full latency.
fn batch(client: usize, index: usize) -> Vec<ParamVector> {
    let unique = (client * BATCHES + index) as f64;
    vec![ParamVector::new(vec![ComponentParams::Resistance(
        100.0 + unique,
    )])]
}

/// Binds a fresh server whose Two-TIA service is the latency-bound stand-in
/// on a pool wide enough for every in-flight candidate.
fn open_server() -> EvalServer {
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
    let service = EvalService::new(
        BatchEvaluator::new(
            Box::new(LatencyEvaluator::new(LATENCY)),
            EngineConfig::serial().with_threads(THREADS),
        ),
        ServiceConfig::default(),
    );
    server
        .registry()
        .insert_service(BENCHMARK, &TechnologyNode::tsmc180(), service);
    server
}

/// Runs all clients against a fresh server with the given pipeline window,
/// returning the scenario stats and every client's reports in submit order.
fn run_scenario(window: usize) -> (Scenario, Vec<Vec<PerformanceReport>>) {
    let server = open_server();
    let addr = server.local_addr();
    let node = TechnologyNode::tsmc180();

    let start = Instant::now();
    let workers: Vec<_> = (0..CLIENTS)
        .map(|client| {
            let node = node.clone();
            std::thread::spawn(move || {
                let remote = RemoteBackend::connect_with(
                    addr,
                    BENCHMARK,
                    &node,
                    RemoteConfig {
                        session: Some(format!("bench-{window}-{client}")),
                        pipeline: window,
                        ..RemoteConfig::default()
                    },
                )
                .expect("client connect");
                // Fill the window before collecting anything: with window 1
                // this degenerates to the blocking submit/wait lockstep, with
                // a wider window the submits overlap the replies in flight.
                let mut reports = Vec::with_capacity(BATCHES);
                let mut pending = std::collections::VecDeque::new();
                for index in 0..BATCHES {
                    pending.push_back(remote.submit_batch(&batch(client, index)).expect("submit"));
                    while pending.len() >= window.max(1) {
                        let reply = pending.pop_front().expect("pending reply");
                        reports.extend(reply.wait().expect("reply"));
                    }
                }
                for reply in pending {
                    reports.extend(reply.wait().expect("reply"));
                }
                remote.goodbye().expect("goodbye");
                reports
            })
        })
        .collect();
    let reports: Vec<_> = workers
        .into_iter()
        .map(|w| w.join().expect("client thread"))
        .collect();
    let wall = start.elapsed().as_secs_f64();

    server.shutdown();
    let stats = server.stats();
    assert_eq!(stats.connections_active, 0, "connections not drained");
    let batches = CLIENTS * BATCHES;
    (
        Scenario {
            window,
            wall_s: wall,
            batches,
            throughput: batches as f64 / wall,
            connections_total: stats.connections_total,
        },
        reports,
    )
}

fn main() {
    let (blocking, blocking_reports) = run_scenario(1);
    println!(
        "blocking  (window 1): {} batches in {:.3}s = {:.0} batches/s",
        blocking.batches, blocking.wall_s, blocking.throughput
    );
    let (pipelined, pipelined_reports) = run_scenario(WINDOW);
    println!(
        "pipelined (window {WINDOW}): {} batches in {:.3}s = {:.0} batches/s",
        pipelined.batches, pipelined.wall_s, pipelined.throughput
    );

    // Pipelining must not change a single bit: same candidates, same wire,
    // same reports, only the overlap differs.
    assert_eq!(
        pipelined_reports, blocking_reports,
        "pipelined reports diverged from the blocking baseline"
    );

    let speedup = pipelined.throughput / blocking.throughput;
    println!("aggregate throughput speedup: {speedup:.2}x");
    // Acceptance gate: at 32 latency-bound clients the pipelined wire must
    // at least double the blocking aggregate throughput.
    assert!(
        speedup >= 2.0,
        "pipelining must at least double latency-bound aggregate throughput; \
         measured {speedup:.2}x (blocking {:.0}/s, pipelined {:.0}/s)",
        blocking.throughput,
        pipelined.throughput
    );

    let report = BenchServeReport {
        clients: CLIENTS,
        batches_per_client: BATCHES,
        latency_ms: LATENCY.as_secs_f64() * 1e3,
        engine_threads: THREADS,
        blocking,
        pipelined,
        speedup,
        telemetry: gcnrl_telemetry::global().snapshot(),
    };
    let json = serde_json::to_string_pretty(&report).expect("serialise report");
    let path = std::env::var("BENCH_SERVE_PATH")
        .unwrap_or_else(|_| format!("{}/../../BENCH_serve.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&path, json).expect("write BENCH_serve.json");
    println!("wrote {path}");
}
