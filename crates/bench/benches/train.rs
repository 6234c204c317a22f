//! Serial (`k = 1`) vs speculative batched (`k = 4/8/16`) exploration.
//!
//! Two questions, answered in `BENCH_train.json`:
//!
//! 1. **Latency-bound time-to-quality** — with a simulator that costs wall
//!    time per call (a 2 ms latency wrapper around the real Two-TIA
//!    evaluator, the regime of the paper's external SPICE processes), how
//!    fast does batched exploration reach the serial trainer's best FoM?
//!    Rollout rounds are evaluated as one engine batch, so `k` candidates
//!    overlap on the worker pool; the acceptance gate is **≤ ½ of the serial
//!    wall-clock** for some `k ≥ 4`.  Sleeps overlap even on a single-core
//!    container, so this is the scaling witness CI can check.
//! 2. **Equal-budget quality** — on all four paper benchmarks (real,
//!    CPU-bound evaluators), the final best FoM of best-of-`k` training at
//!    the *same simulation budget* next to the serial trainer's, recorded
//!    for comparison; only the time-to-quality gate above is asserted.
//!
//! The FoM trajectories are deterministic per seed (evaluators are pure and
//! the latency wrapper does not change results), so only the measured wall
//! times vary between machines.

use gcnrl::{EngineConfig, FomConfig, GcnRlDesigner, SizingEnv, StateEncoding};
use gcnrl_circuit::{benchmarks::Benchmark, ParamVector, TechnologyNode};
use gcnrl_rl::DdpgConfig;
use gcnrl_sim::evaluators::{evaluator_for, Evaluator};
use gcnrl_sim::{MetricSpec, PerformanceReport};
use serde::Serialize;
use std::time::{Duration, Instant};

/// Simulated per-call simulator latency (the external-process regime).
const LATENCY: Duration = Duration::from_millis(2);
/// Worker threads of the latency-bound engine.
const THREADS: usize = 8;
/// Simulation budget of every run (warm-up included).
const BUDGET: usize = 40;
/// Warm-up episodes of the latency-bound runs.
const LATENCY_WARMUP: usize = 8;
/// Warm-up episodes of the equal-budget quality runs.
const QUALITY_WARMUP: usize = 12;
/// Seeds averaged in the equal-budget comparison.
const QUALITY_SEEDS: [u64; 5] = [0, 1, 2, 3, 4];
/// Rollout widths compared against serial.
const WIDTHS: [usize; 3] = [4, 8, 16];
/// Rollout widths of the equal-budget quality comparison.
const QUALITY_WIDTHS: [usize; 2] = [4, 8];

/// Delegates to the real evaluator after a fixed sleep: same reports, SPICE
/// economics.
struct LatencyWrapped {
    inner: Box<dyn Evaluator>,
    delay: Duration,
}

impl Evaluator for LatencyWrapped {
    fn benchmark(&self) -> Benchmark {
        self.inner.benchmark()
    }

    fn technology(&self) -> &TechnologyNode {
        self.inner.technology()
    }

    fn metric_specs(&self) -> &[MetricSpec] {
        self.inner.metric_specs()
    }

    fn evaluate(&self, params: &ParamVector) -> PerformanceReport {
        std::thread::sleep(self.delay);
        self.inner.evaluate(params)
    }
}

#[derive(Debug, Serialize)]
struct LatencyCase {
    k: usize,
    total_wall_s: f64,
    final_fom: f64,
    /// Wall seconds until the best-so-far FoM matched the serial trainer's
    /// final best (absent when the run never reached it).
    wall_to_serial_best_s: Option<f64>,
    /// `serial_wall_s / wall_to_serial_best_s`.
    time_to_quality_speedup: Option<f64>,
}

#[derive(Debug, Serialize)]
struct QualityCase {
    benchmark: String,
    k: usize,
    final_foms: Vec<f64>,
    mean_final_fom: f64,
    mean_wall_s: f64,
}

#[derive(Debug, Serialize)]
struct BenchTrainReport {
    latency_ms: f64,
    threads: usize,
    budget: usize,
    serial_wall_s: f64,
    serial_best_fom: f64,
    latency_cases: Vec<LatencyCase>,
    best_time_to_quality_speedup: f64,
    quality: Vec<QualityCase>,
    /// Process-wide telemetry at the end of the run — the
    /// propose/evaluate/learn and engine-batch latency histograms behind the
    /// wall-clock numbers above.
    telemetry: gcnrl_telemetry::RegistrySnapshot,
}

fn latency_env(node: &TechnologyNode) -> SizingEnv {
    // Calibrate against the raw evaluator (no sleeps), then wrap it.
    let engine = EngineConfig::serial().with_threads(THREADS);
    let fom = FomConfig::calibrated_with_engine(
        Benchmark::TwoStageTia,
        node,
        20,
        7,
        EngineConfig::serial(),
    );
    SizingEnv::with_custom_evaluator(
        Benchmark::TwoStageTia,
        node,
        fom,
        StateEncoding::ScalarIndex,
        engine,
        Box::new(LatencyWrapped {
            inner: evaluator_for(Benchmark::TwoStageTia, node),
            delay: LATENCY,
        }),
    )
}

/// Runs one latency-bound training and returns `(best-curve of (elapsed,
/// best_fom) per round, total wall, final best)`.
fn run_latency(node: &TechnologyNode, k: usize) -> (Vec<(f64, f64)>, f64, f64) {
    let env = latency_env(node);
    let config = DdpgConfig::default()
        .with_seed(0)
        .with_budget(BUDGET, LATENCY_WARMUP)
        .with_rollout_k(k);
    let mut designer = GcnRlDesigner::new(env, config);
    let start = Instant::now();
    let mut marks: Vec<(f64, f64)> = Vec::new();
    let history = designer.run_observed(&mut |h| {
        marks.push((start.elapsed().as_secs_f64(), h.best_fom()));
    });
    let wall = start.elapsed().as_secs_f64();
    (marks, wall, history.best_fom())
}

fn quality_case(benchmark: Benchmark, node: &TechnologyNode, k: usize) -> QualityCase {
    let fom = FomConfig::calibrated(benchmark, node, 20, 7);
    let mut finals = Vec::new();
    let mut walls = Vec::new();
    for &seed in &QUALITY_SEEDS {
        let env = SizingEnv::with_engine_config(
            benchmark,
            node,
            fom.clone(),
            StateEncoding::ScalarIndex,
            EngineConfig::serial(),
        );
        let config = DdpgConfig::default()
            .with_seed(seed)
            .with_budget(BUDGET, QUALITY_WARMUP)
            .with_rollout_k(k);
        let start = Instant::now();
        let history = GcnRlDesigner::new(env, config).run();
        walls.push(start.elapsed().as_secs_f64());
        finals.push(history.best_fom());
    }
    let mean = finals.iter().sum::<f64>() / finals.len() as f64;
    QualityCase {
        benchmark: benchmark.paper_name().to_owned(),
        k,
        final_foms: finals,
        mean_final_fom: mean,
        mean_wall_s: walls.iter().sum::<f64>() / walls.len() as f64,
    }
}

fn main() {
    let node = TechnologyNode::tsmc180();

    // ---- Part 1: latency-bound time-to-quality --------------------------
    let (_, serial_wall, serial_best) = run_latency(&node, 1);
    println!(
        "latency-bound serial (k=1): wall {:.3}s, best FoM {serial_best:.4}",
        serial_wall
    );

    let mut latency_cases = Vec::new();
    for k in WIDTHS {
        let (marks, wall, final_fom) = run_latency(&node, k);
        let reached = marks
            .iter()
            .find(|&&(_, best)| best >= serial_best)
            .map(|&(t, _)| t);
        let speedup = reached.map(|t| serial_wall / t);
        println!(
            "latency-bound k={k}: wall {wall:.3}s, best {final_fom:.4}, reached serial best {}",
            match (reached, speedup) {
                (Some(t), Some(s)) => format!("after {t:.3}s ({s:.1}x faster than serial)"),
                _ => "never".to_owned(),
            }
        );
        latency_cases.push(LatencyCase {
            k,
            total_wall_s: wall,
            final_fom,
            wall_to_serial_best_s: reached,
            time_to_quality_speedup: speedup,
        });
    }
    let best_speedup = latency_cases
        .iter()
        .filter_map(|c| c.time_to_quality_speedup)
        .fold(0.0f64, f64::max);
    // Acceptance gate: some k >= 4 reaches the serial trainer's best FoM in
    // at most half the serial wall-clock on the latency-bound configuration.
    assert!(
        best_speedup >= 2.0,
        "batched exploration must reach the serial best FoM in <= 1/2 the \
         serial wall-clock; best time-to-quality speedup was {best_speedup:.2}x"
    );

    // ---- Part 2: equal-budget quality on the paper benchmarks -----------
    let mut quality = Vec::new();
    for benchmark in Benchmark::ALL {
        let serial = quality_case(benchmark, &node, 1);
        for k in QUALITY_WIDTHS {
            let batched = quality_case(benchmark, &node, k);
            println!(
                "{:<12} equal budget ({} sims x {} seeds): serial {:.4}, best-of-{k} {:.4}",
                serial.benchmark,
                BUDGET,
                QUALITY_SEEDS.len(),
                serial.mean_final_fom,
                batched.mean_final_fom
            );
            quality.push(batched);
        }
        quality.push(serial);
    }

    let report = BenchTrainReport {
        latency_ms: LATENCY.as_secs_f64() * 1e3,
        threads: THREADS,
        budget: BUDGET,
        serial_wall_s: serial_wall,
        serial_best_fom: serial_best,
        latency_cases,
        best_time_to_quality_speedup: best_speedup,
        quality,
        telemetry: gcnrl_telemetry::global().snapshot(),
    };
    gcnrl_bench::print_latency_table();
    let json = serde_json::to_string_pretty(&report).expect("serialise report");
    let path = std::env::var("BENCH_TRAIN_PATH")
        .unwrap_or_else(|_| format!("{}/../../BENCH_train.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&path, json).expect("write BENCH_train.json");
    println!("wrote {path}");
}
