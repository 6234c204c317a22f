//! Shared experiment-running machinery.

use gcnrl::{
    AgentKind, EngineConfig, EvalService, ExecStats, FomConfig, GcnRlDesigner, RunHistory,
    ServiceConfig, SessionHandle, SizingEnv, StateEncoding,
};
use gcnrl_baselines::{
    bayesian_optimization, evolution_strategy, human_expert, mace, random_search,
};
use gcnrl_circuit::{benchmarks::Benchmark, TechnologyNode};
use gcnrl_rl::DdpgConfig;
use serde::Serialize;

/// All methods compared in the paper's Table I, in table order.
pub const METHODS: [&str; 7] = ["Human", "Random", "ES", "BO", "MACE", "NG-RL", "GCN-RL"];

/// Budget / seed configuration of one experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ExperimentConfig {
    /// Simulation budget per optimisation run (the paper uses 10 000).
    pub budget: usize,
    /// Warm-up episodes for the RL methods.
    pub warmup: usize,
    /// Number of independent repetitions (the paper uses 3).
    pub seeds: usize,
    /// Random-sampling budget used to calibrate the FoM normalisation
    /// (the paper uses 5000).
    pub calibration: usize,
    /// Speculative rollout width `k` for the RL methods (candidates proposed
    /// and batch-evaluated per policy step; 1 = classic serial exploration).
    pub rollout_k: usize,
}

impl ExperimentConfig {
    /// A configuration small enough for CI-style smoke runs.
    pub fn smoke() -> Self {
        ExperimentConfig {
            budget: 40,
            warmup: 15,
            seeds: 1,
            calibration: 20,
            rollout_k: 1,
        }
    }
}

/// Reads the experiment scale from environment variables, falling back to the
/// given defaults: `GCNRL_BUDGET`, `GCNRL_WARMUP`, `GCNRL_SEEDS`,
/// `GCNRL_CALIBRATION`, `GCNRL_ROLLOUT_K`.
///
/// # Panics
///
/// Panics when a variable is set but unparseable (see
/// [`gcnrl_exec::env_usize`]) — a typo in a launch script must not silently
/// run the default experiment scale.
pub fn budget_from_env(default: ExperimentConfig) -> ExperimentConfig {
    let read = |name: &str, fallback: usize| gcnrl_exec::env_usize(name).unwrap_or(fallback);
    ExperimentConfig {
        budget: read("GCNRL_BUDGET", default.budget),
        warmup: read("GCNRL_WARMUP", default.warmup),
        seeds: read("GCNRL_SEEDS", default.seeds),
        calibration: read("GCNRL_CALIBRATION", default.calibration),
        rollout_k: read("GCNRL_ROLLOUT_K", default.rollout_k).max(1),
    }
}

/// Mean and standard deviation of one method's best FoM over repeated runs,
/// plus the per-run learning curves (for the figures).
#[derive(Debug, Clone, Serialize)]
pub struct MethodResult {
    /// Method name as used in the paper's tables.
    pub method: String,
    /// Best FoM per seed.
    pub best_foms: Vec<f64>,
    /// Best-so-far learning curve of the best-performing seed.
    pub best_curve: Vec<f64>,
    /// Metric values of the overall best design.
    pub best_metrics: Vec<(String, f64)>,
    /// Evaluation-engine statistics summed over the seeds (throughput, cache
    /// hit rate, wall time inside the engine).
    pub exec: Option<ExecStats>,
}

impl MethodResult {
    /// Groups one method's per-seed histories (engine statistics unset).
    pub(crate) fn from_histories(method: &str, histories: Vec<RunHistory>) -> Self {
        let best_foms: Vec<f64> = histories.iter().map(|h| h.best_fom()).collect();
        let best_idx = best_foms
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0);
        MethodResult {
            method: method.to_owned(),
            best_curve: histories[best_idx].best_curve(),
            best_foms,
            best_metrics: best_metrics(&histories[best_idx]),
            exec: None,
        }
    }

    /// Mean best FoM across seeds.
    pub fn mean(&self) -> f64 {
        self.best_foms.iter().sum::<f64>() / self.best_foms.len().max(1) as f64
    }

    /// Standard deviation of the best FoM across seeds.
    pub fn std(&self) -> f64 {
        let m = self.mean();
        let n = self.best_foms.len().max(1) as f64;
        (self.best_foms.iter().map(|f| (f - m).powi(2)).sum::<f64>() / n).sqrt()
    }

    /// `mean ± std` formatted like the paper's tables.
    pub fn formatted(&self) -> String {
        if self.best_foms.len() > 1 {
            format!("{:.2} ± {:.2}", self.mean(), self.std())
        } else {
            format!("{:.2}", self.mean())
        }
    }
}

/// The metric values of the best design a run found (empty when the run
/// recorded none).
pub fn best_metrics(history: &RunHistory) -> Vec<(String, f64)> {
    history
        .best_report
        .as_ref()
        .map(|r| r.iter().map(|(k, v)| (k.to_owned(), v)).collect())
        .unwrap_or_default()
}

/// A named learning-curve series (for figure binaries).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SeriesSummary {
    /// Series label (method or condition).
    pub label: String,
    /// Best-so-far FoM per episode.
    pub curve: Vec<f64>,
}

/// The evaluation-server address the benches should ride, when set
/// (`GCNRL_SERVE_ADDR=host:port`). With the variable unset every bench run
/// owns its local engine/service as before.
pub fn serve_addr() -> Option<String> {
    std::env::var("GCNRL_SERVE_ADDR")
        .ok()
        .filter(|addr| !addr.is_empty())
}

/// The remote pipeline window (`GCNRL_SERVE_PIPELINE`): how many batches a
/// remote backend keeps in flight concurrently. Defaults to the client
/// default when unset; `1` keeps one batch in flight.
pub fn serve_pipeline() -> Option<usize> {
    gcnrl_exec::env_usize("GCNRL_SERVE_PIPELINE")
}

/// The evaluation backend a bench run should use for `(benchmark, node)`:
/// a [`RemoteBackend`](gcnrl_serve::RemoteBackend) session on the shared
/// server named by `GCNRL_SERVE_ADDR` when that knob is set, else a session
/// of a fresh local [`EvalService`] over `engine`. Results are bit-identical
/// in both modes; the knob only moves where the engine and its cache live.
///
/// # Panics
///
/// Panics when `GCNRL_SERVE_ADDR` is set but that server is unreachable or
/// rejects the handshake — a bench pointed at a dead tier must fail loudly,
/// not silently fall back to a private engine.
pub fn backend_for(
    benchmark: Benchmark,
    node: &TechnologyNode,
    engine: EngineConfig,
) -> Box<dyn gcnrl_exec::EvalBackend> {
    match serve_addr() {
        Some(addr) => {
            let remote = gcnrl_serve::RemoteBackend::connect_with(
                &addr,
                benchmark,
                node,
                gcnrl_serve::RemoteConfig {
                    session: Some(format!("bench:{benchmark}@{}", node.name)),
                    pipeline: serve_pipeline()
                        .unwrap_or(gcnrl_serve::RemoteConfig::default().pipeline),
                    ..gcnrl_serve::RemoteConfig::default()
                },
            )
            .unwrap_or_else(|error| panic!("GCNRL_SERVE_ADDR={addr} is set but unusable: {error}"));
            Box::new(remote)
        }
        None => Box::new(service_session(benchmark, node, engine)),
    }
}

/// Builds a calibrated environment over an evaluation backend: the one path
/// every cell takes after [`backend_for`]. The calibration sweep runs through
/// the backend too, so it lands in whatever cache the backend shares. With
/// `emphasis` set, that metric's FoM weight is multiplied by 10 (the paper's
/// GCN-RL-1..5 rows of Table II).
pub fn env_for_backend(
    backend: Box<dyn gcnrl_exec::EvalBackend>,
    cfg: &ExperimentConfig,
    emphasis: Option<&str>,
) -> SizingEnv {
    let benchmark = backend.benchmark();
    let node = backend.technology().clone();
    let mut fom =
        FomConfig::calibrated_with_backend(benchmark, &node, cfg.calibration, 7, backend.as_ref());
    if let Some(metric) = emphasis {
        fom = fom.with_weight_emphasis(metric, 10.0);
    }
    SizingEnv::with_backend(benchmark, &node, fom, StateEncoding::ScalarIndex, backend)
}

/// Opens a fresh single-engine [`EvalService`] for `benchmark` at `node` and
/// returns one session on it: the local backend [`backend_for`] hands out
/// when no serve tier is configured, so every benchmark binary reaches the
/// solver via the same queue-fed path a multi-session client would.
pub fn service_session(
    benchmark: Benchmark,
    node: &TechnologyNode,
    engine: EngineConfig,
) -> SessionHandle {
    EvalService::for_benchmark(benchmark, node, engine, ServiceConfig::default())
        .session_named(format!("{benchmark}@{}", node.name))
}

/// Builds a calibrated environment over an existing service session. The
/// calibration sweep runs through the session too, so its results land in
/// the shared engine cache: sessions calibrating the same benchmark serve
/// each other's sweeps as cache hits. Keep a clone of the handle to read
/// engine statistics after the environment is consumed by a designer.
pub fn env_for_session(session: &SessionHandle, cfg: &ExperimentConfig) -> SizingEnv {
    env_for_backend(Box::new(session.clone()), cfg, None)
}

/// `base` with one full-budget run's seed, budget, warm-up (at most half the
/// budget) and rollout width applied.
pub(crate) fn run_config(base: DdpgConfig, cfg: &ExperimentConfig, seed: u64) -> DdpgConfig {
    base.with_seed(seed)
        .with_budget(cfg.budget, cfg.warmup.min(cfg.budget / 2))
        .with_rollout_k(cfg.rollout_k)
}

/// Trains a fresh `kind` agent on `env` and returns its history plus the
/// environment's engine statistics.
pub(crate) fn train(env: SizingEnv, ddpg: DdpgConfig, kind: AgentKind) -> (RunHistory, ExecStats) {
    let mut designer = GcnRlDesigner::with_kind(env, ddpg, kind);
    let history = designer.run();
    (history, designer.env().exec_stats())
}

/// Runs one named method (one of [`METHODS`]) on `env` with the given seed
/// and returns its history plus the environment's evaluation-engine
/// statistics. The RL methods train from `ddpg_base` with the seed, budget
/// and rollout width of `cfg` applied on top; the black-box baselines ignore
/// it.
pub(crate) fn run_method(
    method: &str,
    env: SizingEnv,
    cfg: &ExperimentConfig,
    seed: u64,
    ddpg_base: DdpgConfig,
) -> (RunHistory, ExecStats) {
    let history = match method {
        "Human" => human_expert(&env),
        "Random" => random_search(&env, cfg.budget, seed),
        "ES" => evolution_strategy(&env, cfg.budget, seed),
        "BO" => bayesian_optimization(&env, cfg.budget, seed),
        "MACE" => mace(&env, cfg.budget, seed),
        "NG-RL" => return train(env, run_config(ddpg_base, cfg, seed), AgentKind::NonGcn),
        "GCN-RL" => return train(env, run_config(ddpg_base, cfg, seed), AgentKind::Gcn),
        other => panic!("unknown method `{other}`"),
    };
    (history, env.exec_stats())
}

/// Sums engine statistics across runs (cache length keeps the maximum, since
/// caches are per-environment).
pub fn merge_exec_stats(stats: impl IntoIterator<Item = ExecStats>) -> ExecStats {
    stats.into_iter().fold(ExecStats::default(), |mut acc, s| {
        acc.requests += s.requests;
        acc.simulated += s.simulated;
        acc.cache_hits += s.cache_hits;
        acc.evictions += s.evictions;
        acc.batches += s.batches;
        acc.cache_len = acc.cache_len.max(s.cache_len);
        acc.wall_seconds += s.wall_seconds;
        acc
    })
}

/// Prints one engine-statistics line per method (used by the table binaries
/// after their result tables). The solver counters and the latency table are
/// process-wide totals, so callers print them once, after every section.
pub fn print_exec_stats(title: &str, results: &[MethodResult]) {
    println!("\n{title}");
    for r in results {
        if let Some(exec) = &r.exec {
            println!("  {:<10} {}", r.method, exec.summary());
        }
    }
}

/// Prints the coordinator's merged engine statistics plus the cumulative
/// linear-solver counters (used by the cell-queue binaries after their
/// tables).
pub fn print_merged_exec(title: &str, merged: &ExecStats) {
    println!("\n{title}");
    println!("  engine     {}", merged.summary());
    println!(
        "  solver     {}",
        gcnrl_sim::solver_stats::snapshot().summary()
    );
    print_latency_table();
}

/// Formats nanoseconds human-readably (histogram quantiles are bucket upper
/// bounds, so sub-microsecond precision would be false precision anyway).
fn fmt_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}µs", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// Prints every latency histogram of the process-wide telemetry registry as
/// a count/mean/p50/p90/p99 table — the per-layer breakdown (solver, engine,
/// service, serve, trainer) behind the engine summaries above. Quantiles are
/// log-bucket upper bounds (~2x resolution), good for spotting orders of
/// magnitude, not microbenchmarking.
pub fn print_latency_table() {
    let snapshot = gcnrl_telemetry::global().snapshot();
    let timings: Vec<_> = snapshot
        .histograms
        .iter()
        .filter(|(name, h)| name.ends_with(".ns") && h.count > 0)
        .collect();
    if timings.is_empty() {
        return;
    }
    println!("\ntelemetry — per-layer latency (log-bucket quantiles)");
    println!(
        "  {:<28} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "span", "count", "mean", "p50", "p90", "p99"
    );
    for (name, h) in timings {
        println!(
            "  {:<28} {:>10} {:>10} {:>10} {:>10} {:>10}",
            name,
            h.count,
            fmt_ns(h.mean() as u64),
            fmt_ns(h.quantile(0.5)),
            fmt_ns(h.quantile(0.9)),
            fmt_ns(h.quantile(0.99)),
        );
    }
}

/// Writes an experiment result as JSON under `target/experiments/<name>.json`.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = std::path::Path::new("target/experiments");
    if std::fs::create_dir_all(dir).is_ok() {
        if let Ok(json) = serde_json::to_string_pretty(value) {
            let _ = std::fs::write(dir.join(format!("{name}.json")), json);
        }
    }
}

/// Prints a learning-curve series as a compact text sparkline table.
pub fn print_series(title: &str, series: &[SeriesSummary]) {
    println!("\n{title}");
    for s in series {
        let last = s.curve.last().copied().unwrap_or(f64::NAN);
        let step = (s.curve.len() / 8).max(1);
        let samples: Vec<String> = s
            .curve
            .iter()
            .step_by(step)
            .map(|v| format!("{v:.2}"))
            .collect();
        println!(
            "  {:<22} final={last:6.3}  curve=[{}]",
            s.label,
            samples.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_config_and_env_override() {
        let cfg = ExperimentConfig::smoke();
        assert!(cfg.budget > cfg.warmup);
        let same = budget_from_env(cfg);
        assert_eq!(same.budget, cfg.budget);
    }

    #[test]
    fn method_result_statistics() {
        let mut h1 = RunHistory::new("X");
        let mut h2 = RunHistory::new("X");
        let pv =
            gcnrl_circuit::ParamVector::new(vec![gcnrl_circuit::ComponentParams::Resistance(1.0)]);
        let rep = gcnrl_sim::PerformanceReport::new();
        h1.record(1.0, &pv, &rep);
        h2.record(3.0, &pv, &rep);
        let r = MethodResult::from_histories("X", vec![h1, h2]);
        assert_eq!(r.mean(), 2.0);
        assert_eq!(r.std(), 1.0);
        assert!(r.formatted().contains("±"));
    }

    #[test]
    fn every_table1_method_runs_one_tiny_experiment() {
        let cfg = ExperimentConfig {
            budget: 12,
            warmup: 4,
            seeds: 1,
            calibration: 6,
            rollout_k: 1,
        };
        // A CI-sized agent: every method's code path runs the same at any
        // network size, and the paper-sized default dominates a debug build.
        let ddpg = DdpgConfig {
            batch_size: 8,
            hidden_dim: 16,
            gcn_layers: 2,
            ..DdpgConfig::default()
        };
        let node = TechnologyNode::tsmc180();
        for method in METHODS {
            let backend = backend_for(Benchmark::TwoStageTia, &node, EngineConfig::from_env());
            let env = env_for_backend(backend, &cfg, None);
            let (h, _) = run_method(method, env, &cfg, 0, ddpg);
            assert!(!h.is_empty(), "{method} produced no records");
        }
    }
}
