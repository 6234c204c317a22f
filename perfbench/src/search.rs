//! `search_es` and `bo_gp`: the paper's black-box baselines on Three-TIA, the
//! largest circuit, each run on a fresh single-threaded engine.

use crate::common::{self, check_history, run_seed, same_history, Timing};
use crate::layers::{self, SolverMark};
use crate::probe;
use crate::report::{peak_rss_mb, Chunk, Outcome};
use crate::trace::{thread_tag, Tracer};
use gcnrl::{ExecStats, FomConfig, RunHistory, SizingEnv};
use gcnrl_baselines::{bayesian_optimization, evolution_strategy};
use gcnrl_circuit::benchmarks::Benchmark;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const BENCHMARK: Benchmark = Benchmark::ThreeStageTia;

/// One baseline optimiser and its workload shape.
#[derive(Clone, Copy)]
pub struct Method {
    /// The span around one optimiser call.
    span: &'static str,
    /// The per-layer metric of the span's self time.
    self_metric: &'static str,
    optimise: fn(&SizingEnv, usize, u64) -> RunHistory,
    /// Simulations per run.
    budget: usize,
    /// `best_fom` averages the first this-many runs (always completed).
    quality_runs: usize,
    /// Percentile reported as `step_tail_ms`.
    tail: f64,
    /// Iterations per timing chunk.
    chunk_steps: usize,
}

/// The (µ, λ) ES at a large budget of distinct candidates: simulator bound.
pub const ES: Method = Method {
    span: "baselines.es",
    self_metric: "baselines.es.self_s",
    optimise: evolution_strategy,
    budget: 3000,
    quality_runs: 32,
    tail: 98.0,
    chunk_steps: 16,
};

/// GP-EI Bayesian optimisation at a modest budget: surrogate bound.
pub const BO: Method = Method {
    span: "baselines.bo",
    self_metric: "baselines.bo.self_s",
    optimise: bayesian_optimization,
    budget: 150,
    quality_runs: 16,
    tail: 90.0,
    chunk_steps: 8,
};

struct Run {
    history: RunHistory,
    /// Seconds (at the probe's reference speed) between the starts of
    /// consecutive engine batches — one optimiser iteration (ES generation,
    /// BO acquisition) each — with the candidates of the iteration's batch.
    steps: Vec<(f64, usize)>,
}

/// One optimiser run whose only decoration is a probed timestamp per batch.
fn stepped_run(method: Method, fom: &FomConfig, seed: u64) -> Run {
    let log = Arc::new(Mutex::new(Vec::new()));
    let env = common::env(BENCHMARK, fom, Timing::Steps(&log));
    let history = (method.optimise)(&env, method.budget, seed);
    let steps = probe::steps(&log.lock().expect("step log lock"));
    Run { history, steps }
}

pub fn run(method: Method, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut outcome = Outcome::default();
    let setup = || {
        let fom = common::calibrate(BENCHMARK);
        drop(common::env(BENCHMARK, &fom, Timing::Off));
        fom
    };
    let (fom, mut setup_times) = common::timed_setup(common::SETUP_BEFORE, setup);
    if trace {
        traced(&mut outcome, method, &fom, seed, seconds);
        return outcome;
    }
    // Each run is checked and reduced as it ends, so memory does not grow
    // with the number of runs.
    let mut best = Vec::new();
    let mut chunks = Vec::new();
    let (runs, wall) =
        common::repeat_runs(method.quality_runs, seconds, |i| {
            let run = stepped_run(method, &fom, run_seed(seed, i));
            check_history(
                &mut outcome,
                &format!("run {i}"),
                &run.history,
                method.budget,
            );
            if i < method.quality_runs {
                best.push(run.history.best_fom());
            }
            chunks.extend(run.steps.chunks(method.chunk_steps).enumerate().map(
                |(group, steps)| Chunk {
                    group,
                    candidates: steps.iter().map(|s| s.1).sum(),
                    wall: steps.iter().map(|s| s.0).sum(),
                    steps: steps.iter().map(|s| s.0).collect(),
                },
            ));
        });
    setup_times.extend(common::timed_setup(common::SETUP_AFTER, setup).1);
    common::record_setup(&mut outcome, setup_times);
    outcome.set_chunks(
        &chunks,
        method.tail,
        &format!(
            "{} iterations each; a step is one iteration",
            method.chunk_steps
        ),
    );
    common::record_best_fom(&mut outcome, &fom, &best);
    outcome.set("peak_rss_mb", peak_rss_mb());
    outcome.notes.push(format!(
        "{runs} runs of {} simulations in {wall:.3} s",
        method.budget
    ));
    outcome
}

/// Untraced runs for half the time, then the same seeds on fully decorated
/// environments with a span around each optimiser call; both must produce
/// bit-identical histories.
fn traced(outcome: &mut Outcome, method: Method, fom: &FomConfig, seed: u64, seconds: f64) {
    let mut runs = Vec::new();
    let (_, untraced_wall) = common::repeat_runs(1, seconds / 2.0, |i| {
        let env = common::env(BENCHMARK, fom, Timing::Off);
        runs.push((method.optimise)(&env, method.budget, run_seed(seed, i)));
    });
    let tracer: Arc<Tracer> = Tracer::new();
    let solver = SolverMark::now();
    let mut engine = ExecStats::default();
    let start = Instant::now();
    for (i, reference) in runs.iter().enumerate() {
        let env = common::env(BENCHMARK, fom, Timing::Full(&tracer));
        let history = tracer.time(method.span, || {
            (method.optimise)(&env, method.budget, run_seed(seed, i))
        });
        layers::add_exec(&mut engine, &env.exec_stats());
        check_history(outcome, &format!("traced run {i}"), &history, method.budget);
        outcome.check(same_history(&history, reference), || {
            format!("traced run {i} diverged from the undecorated run")
        });
    }
    let traced_wall = start.elapsed().as_secs_f64();
    let solver = solver.delta();
    let trace = tracer.summary();
    outcome.set(method.self_metric, trace.get(method.span).self_s);
    layers::record_eval_path(outcome, &trace, &engine, &solver);
    layers::record_attribution(
        outcome,
        &trace,
        &[(thread_tag(), traced_wall)],
        untraced_wall,
        traced_wall,
    );
    outcome.notes.push(format!(
        "{} decorated runs bit-identical to their undecorated twins",
        runs.len()
    ));
}
