//! Set-up shared by the workloads: hermetic engines, environments and the
//! correctness checks on optimiser histories.

use crate::probe::{self, BatchMark, StepClock};
use crate::report::{median, quarter, Outcome};
use crate::trace::{TimedBackend, TimedEvaluator, Tracer};
use gcnrl::{FomConfig, RunHistory, SizingEnv, StateEncoding};
use gcnrl_circuit::{benchmarks::Benchmark, TechnologyNode};
use gcnrl_exec::{BatchEvaluator, EngineConfig, DEFAULT_QUANTIZE_DIGITS};
use gcnrl_sim::evaluators::evaluator_for;
use gcnrl_sim::PerformanceReport;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The `GCNRL_*` knobs set in the environment. Any of them (`GCNRL_THREADS`,
/// `GCNRL_CACHE_PATH`, `GCNRL_SERVE_ADDR`, `GCNRL_TRACE`, ...) could make the
/// program read inputs or settings other than the ones the benchmark builds.
pub fn foreign_knobs() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(name, _)| name.into_string().ok())
        .filter(|name| name.starts_with("GCNRL_"))
        .collect()
}

/// Random designs sampled to calibrate the FoM normalisation. The
/// calibration seed is fixed, so every workload seed optimises the same FoM.
const CALIBRATION_SAMPLES: usize = 1000;
/// Set-up repetitions before and after the timed phase; spreading them over
/// the run lets `setup_s` find quiet moments of a shared machine.
pub const SETUP_BEFORE: usize = 6;
pub const SETUP_AFTER: usize = 5;

pub fn node() -> TechnologyNode {
    TechnologyNode::tsmc180()
}

/// Every engine of the benchmark: one thread, an in-memory cache, no
/// persistence, independent of `GCNRL_*` environment knobs.
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        threads: 1,
        cache_capacity: 1 << 16,
        quantize_digits: DEFAULT_QUANTIZE_DIGITS,
        persist_path: None,
    }
}

pub fn calibrate(benchmark: Benchmark) -> FomConfig {
    FomConfig::calibrated_with_engine(benchmark, &node(), CALIBRATION_SAMPLES, 0, engine_config())
}

/// Which layer boundaries of an environment's evaluation path are timed.
#[derive(Clone, Copy)]
pub enum Timing<'a> {
    Off,
    /// A [`StepClock`] on the backend: one probed timestamp per batch.
    Steps(&'a Arc<Mutex<Vec<BatchMark>>>),
    /// `exec.backend` and `sim.evaluate` spans.
    Full(&'a Arc<Tracer>),
}

/// A sizing environment on a fresh local engine, decorated per `timing`.
pub fn env(benchmark: Benchmark, fom: &FomConfig, timing: Timing<'_>) -> SizingEnv {
    let evaluator = evaluator_for(benchmark, &node());
    let backend: Box<dyn gcnrl_exec::EvalBackend> = match timing {
        Timing::Off => Box::new(BatchEvaluator::new(evaluator, engine_config())),
        Timing::Steps(log) => Box::new(StepClock::new(
            Box::new(BatchEvaluator::new(evaluator, engine_config())),
            Arc::clone(log),
        )),
        Timing::Full(tracer) => {
            let timed = TimedEvaluator::new(evaluator, Arc::clone(tracer));
            let engine = BatchEvaluator::new(Box::new(timed), engine_config());
            Box::new(TimedBackend::new(Box::new(engine), Arc::clone(tracer)))
        }
    };
    SizingEnv::with_backend(
        benchmark,
        &node(),
        fom.clone(),
        StateEncoding::ScalarIndex,
        backend,
    )
}

/// Runs `build` `reps` times; returns the last result and every duration in
/// seconds at the probe's reference speed (see [`crate::probe`]).
pub fn timed_setup<T>(reps: usize, mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let start = Instant::now();
        let built = build();
        let elapsed = start.elapsed().as_secs_f64();
        times.push(probe::at_reference_speed(elapsed, probe::probe()));
        last = Some(built);
    }
    (last.expect("at least one set-up"), times)
}

/// Records `setup_s`: the median of the fastest quarter of every set-up
/// repetition of the run, the rule the timed phase applies to its chunks.
pub fn record_setup(outcome: &mut Outcome, mut times: Vec<f64>) {
    times.sort_by(f64::total_cmp);
    outcome.set("setup_s", median(&times[..quarter(times.len())]));
}

/// Calls `run(i)` for `i = 0, 1, ...` until `seconds` have passed and at
/// least `min_runs` calls returned. Returns the number of calls and the wall
/// time.
pub fn repeat_runs(min_runs: usize, seconds: f64, mut run: impl FnMut(usize)) -> (usize, f64) {
    let start = Instant::now();
    let mut runs = 0;
    while runs < min_runs || start.elapsed().as_secs_f64() < seconds {
        run(runs);
        runs += 1;
    }
    (runs, start.elapsed().as_secs_f64())
}

/// Optimiser seed of run `run` of a workload seeded with `seed`.
pub fn run_seed(seed: u64, run: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(run as u64)
}

/// Checks one optimiser history: its length is the budget and every FoM is
/// finite.
pub fn check_history(outcome: &mut Outcome, label: &str, history: &RunHistory, budget: usize) {
    outcome.attempted += budget as u64;
    outcome.check(history.len() == budget, || {
        format!(
            "{label}: history has {} records, budget is {budget}",
            history.len()
        )
    });
    let bad = history
        .records
        .iter()
        .filter(|r| !r.fom.is_finite())
        .count();
    outcome.check(bad == 0, || format!("{label}: {bad} non-finite FoM values"));
}

/// Bitwise equality of two reports (NaN-safe, unlike `==`).
pub fn same_report(a: &PerformanceReport, b: &PerformanceReport) -> bool {
    a.feasible == b.feasible
        && a.len() == b.len()
        && a.iter()
            .zip(b.iter())
            .all(|((ka, va), (kb, vb))| ka == kb && va.to_bits() == vb.to_bits())
}

/// Bitwise equality of two optimiser histories.
pub fn same_history(a: &RunHistory, b: &RunHistory) -> bool {
    let reports = match (&a.best_report, &b.best_report) {
        (Some(x), Some(y)) => same_report(x, y),
        (None, None) => true,
        _ => false,
    };
    a.method == b.method
        && a.best_params == b.best_params
        && reports
        && a.records.len() == b.records.len()
        && a.records.iter().zip(&b.records).all(|(x, y)| {
            x.episode == y.episode
                && x.fom.to_bits() == y.fom.to_bits()
                && x.best_fom.to_bits() == y.best_fom.to_bits()
        })
}

/// The lowest value the FoM's weighted sum of normalised metrics can take
/// (every metric at its worst); infeasible designs score above it.
pub fn fom_floor(fom: &FomConfig) -> f64 {
    fom.metrics().iter().map(|m| m.weight.min(0.0)).sum()
}

/// Records `best_fom`: the mean of the runs' `best` FoM values, measured
/// from the FoM floor so that it is positive and its spread reads as a share
/// of the FoM's range rather than of a value near zero.
pub fn record_best_fom(outcome: &mut Outcome, fom: &FomConfig, best: &[f64]) {
    let mean = best.iter().sum::<f64>() / best.len() as f64;
    outcome.set("best_fom", mean - fom_floor(fom));
    outcome.notes.push(format!(
        "best_fom: mean best FoM {mean:.6} over {} seeds, reported above the FoM floor {}",
        best.len(),
        fom_floor(fom)
    ));
}
