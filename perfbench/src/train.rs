//! `train_gcnrl`: the paper's method, GCN-RL on Two-TIA @ tsmc180 with the
//! paper-default network (hidden 64, 7 GCN layers, batch 32, k = 1).

use crate::common::{self, check_history, run_seed, same_history, Timing};
use crate::layers::{self, SolverMark};
use crate::probe;
use crate::report::{median, peak_rss_mb, Chunk, Outcome};
use crate::trace::{thread_tag, Tracer};
use gcnrl::{AgentKind, ExecStats, FomConfig, GcnAgent, GcnRlDesigner, RunHistory, SizingEnv};
use gcnrl_circuit::benchmarks::Benchmark;
use gcnrl_linalg::Matrix;
use gcnrl_rl::{DdpgConfig, EmaBaseline, ExplorationNoise, ReplayBuffer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const BENCHMARK: Benchmark = Benchmark::TwoStageTia;
/// Simulations per run; the warm-up fills one full minibatch.
const EPISODES: usize = 160;
const WARMUP: usize = 32;
/// `best_fom` averages the first this-many runs (always completed).
const QUALITY_RUNS: usize = 6;
const TAIL: f64 = 90.0;
/// Exploration rounds per timing chunk.
const CHUNK_ROUNDS: usize = 4;

fn config(seed: u64) -> DdpgConfig {
    DdpgConfig {
        seed,
        ..DdpgConfig::default()
    }
    .with_budget(EPISODES, WARMUP)
}

struct Run {
    history: RunHistory,
    /// Seconds (at the probe's reference speed) of every exploration round.
    rounds: Vec<f64>,
}

fn designer_run(fom: &FomConfig, seed: u64) -> Run {
    let mut designer = GcnRlDesigner::new(common::env(BENCHMARK, fom, Timing::Off), config(seed));
    // The observer runs after the warm-up and after every round; the probe
    // it runs is kept out of the next round's time.
    let mut rounds = Vec::with_capacity(EPISODES - WARMUP);
    let mut resumed: Option<Instant> = None;
    let history = designer.run_observed(&mut |_| {
        let ended = Instant::now();
        let probe_s = probe::probe();
        if let Some(resumed) = resumed {
            let round = (ended - resumed).as_secs_f64();
            rounds.push(probe::at_reference_speed(round, probe_s));
        }
        resumed = Some(Instant::now());
    });
    Run { history, rounds }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut outcome = Outcome::default();
    let setup = || {
        let fom = common::calibrate(BENCHMARK);
        let designer = GcnRlDesigner::new(common::env(BENCHMARK, &fom, Timing::Off), config(seed));
        drop(designer);
        fom
    };
    let (fom, mut setup_times) = common::timed_setup(common::SETUP_BEFORE, setup);
    if trace {
        traced(&mut outcome, &fom, seed, seconds);
        return outcome;
    }
    // Each run is checked and reduced as it ends, so memory does not grow
    // with the number of runs.
    let mut best = Vec::new();
    let mut chunks = Vec::new();
    let (runs, wall) = common::repeat_runs(QUALITY_RUNS, seconds, |i| {
        let run = designer_run(&fom, run_seed(seed, i));
        check_history(&mut outcome, &format!("run {i}"), &run.history, EPISODES);
        if i < QUALITY_RUNS {
            best.push(run.history.best_fom());
        }
        // At k = 1 every exploration round scores one candidate.
        chunks.extend(
            run.rounds
                .chunks(CHUNK_ROUNDS)
                .enumerate()
                .map(|(group, rounds)| Chunk {
                    group,
                    candidates: rounds.len(),
                    wall: rounds.iter().sum(),
                    steps: rounds.to_vec(),
                }),
        );
    });
    setup_times.extend(common::timed_setup(common::SETUP_AFTER, setup).1);
    common::record_setup(&mut outcome, setup_times);
    outcome.set_chunks(
        &chunks,
        TAIL,
        &format!(
            "{CHUNK_ROUNDS} exploration rounds each; a step is one propose-evaluate-learn round"
        ),
    );
    common::record_best_fom(&mut outcome, &fom, &best);
    outcome.set("peak_rss_mb", peak_rss_mb());
    outcome.notes.push(format!(
        "{runs} runs of {EPISODES} simulations in {wall:.3} s"
    ));
    outcome
}

/// Untraced designer runs for half the time, then the same seeds through the
/// re-driven, traced loop on decorated environments; both must produce
/// bit-identical histories.
fn traced(outcome: &mut Outcome, fom: &FomConfig, seed: u64, seconds: f64) {
    let mut runs = Vec::new();
    let (_, untraced_wall) = common::repeat_runs(1, seconds / 2.0, |i| {
        let env = common::env(BENCHMARK, fom, Timing::Off);
        runs.push(GcnRlDesigner::new(env, config(run_seed(seed, i))).run());
    });
    let tracer = Tracer::new();
    let solver = SolverMark::now();
    let mut engine = ExecStats::default();
    let start = Instant::now();
    for (i, reference) in runs.iter().enumerate() {
        let env = common::env(BENCHMARK, fom, Timing::Full(&tracer));
        let history = traced_loop(&env, config(run_seed(seed, i)), &tracer);
        layers::add_exec(&mut engine, &env.exec_stats());
        check_history(outcome, &format!("traced run {i}"), &history, EPISODES);
        outcome.check(same_history(&history, reference), || {
            format!("traced run {i} diverged from GcnRlDesigner::run")
        });
    }
    let traced_wall = start.elapsed().as_secs_f64();
    let solver = solver.delta();
    let trace = tracer.summary();

    for (span, [calls, total, p50]) in [
        (
            "core.agent.critic_update",
            [
                "core.agent.critic_update.calls",
                "core.agent.critic_update.total_s",
                "core.agent.critic_update.p50_ms",
            ],
        ),
        (
            "core.agent.actor_update",
            [
                "core.agent.actor_update.calls",
                "core.agent.actor_update.total_s",
                "core.agent.actor_update.p50_ms",
            ],
        ),
    ] {
        let totals = trace.get(span);
        outcome.set(calls, totals.calls as f64);
        outcome.set(total, totals.total_s);
        outcome.set(p50, 1e3 * median(&totals.durations));
    }
    let act = trace.get("core.agent.act");
    outcome.set("core.agent.act.calls", act.calls as f64);
    outcome.set("core.agent.act.total_s", act.total_s);
    outcome.set(
        "core.env.rollout.self_s",
        trace.get("core.env.rollout").self_s,
    );
    let sample = trace.get("rl.replay.sample");
    outcome.set("rl.replay.sample.total_s", sample.total_s);
    let learn = trace.get("core.agent.critic_update").total_s
        + trace.get("core.agent.actor_update").total_s
        + sample.total_s;
    outcome.set("core.learn.share", learn / traced_wall);
    layers::record_eval_path(outcome, &trace, &engine, &solver);
    layers::record_attribution(
        outcome,
        &trace,
        &[(thread_tag(), traced_wall)],
        untraced_wall,
        traced_wall,
    );
    outcome.notes.push(format!(
        "{} runs re-driven through the public agent API, bit-identical to GcnRlDesigner::run",
        runs.len()
    ));
}

/// `GcnRlDesigner::run_observed` re-driven through the public
/// `GcnAgent`/`SizingEnv`/`ReplayBuffer`/`ExplorationNoise` API with a span
/// around every call into a layer. Must stay step-for-step identical to the
/// designer; the caller checks the histories bit for bit.
fn traced_loop(env: &SizingEnv, config: DdpgConfig, tracer: &Tracer) -> RunHistory {
    assert!(
        !config.grouped_rollouts && !config.prioritized_replay,
        "the re-driven loop covers the default rollout and replay paths only"
    );
    let mut agent = GcnAgent::new(
        AgentKind::Gcn,
        env.states().cols(),
        config.hidden_dim,
        config.gcn_layers,
        &env.component_types(),
        config.actor_lr,
        config.critic_lr,
        config.seed,
    );
    let mut history = RunHistory::new("GCN-RL");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut noise =
        ExplorationNoise::new(config.noise_sigma, config.noise_decay, config.seed ^ 0x5eed);
    let mut baseline = EmaBaseline::new(config.baseline_decay);
    let mut replay: ReplayBuffer<Matrix> = ReplayBuffer::new(config.replay_capacity);
    let states = env.states().clone();
    let adjacency = env.adjacency().clone();

    let warmup = config.warmup.min(config.episodes);
    let actions: Vec<Matrix> = (0..warmup).map(|_| env.random_actions(&mut rng)).collect();
    let rollouts = tracer.time("core.env.rollout", || env.rollout_actions(actions));
    for r in rollouts.iter() {
        history.record(r.reward, &r.outcome.params, &r.outcome.report);
        baseline.update(r.reward);
    }
    replay.ingest(&rollouts);

    let rho = config.rollout_rho.clamp(0.0, 1.0);
    let mut episode = warmup;
    while episode < config.episodes {
        let width = config
            .rollout_width_at(noise.decay_progress())
            .min(config.episodes - episode);
        let base = tracer.time("core.agent.act", || agent.act(&states, &adjacency));
        let entries = base.rows() * base.cols();
        let proposals: Vec<Matrix> = noise
            .sample_correlated(width, entries, rho)
            .into_iter()
            .map(|perturbation| {
                let mut actions = base.clone();
                for (v, n) in actions.as_mut_slice().iter_mut().zip(perturbation) {
                    *v = (*v + n).clamp(-1.0, 1.0);
                }
                actions
            })
            .collect();
        noise.decay_step();
        let rollouts = tracer.time("core.env.rollout", || env.rollout_actions(proposals));
        for r in rollouts.iter() {
            history.record(r.reward, &r.outcome.params, &r.outcome.report);
        }
        replay.ingest(&rollouts);
        baseline.update(rollouts.best().expect("non-empty rollout round").reward);
        let step_seed = config.seed ^ (history.len() as u64 - 1);
        let batch: Vec<(Matrix, f64)> = tracer.time("rl.replay.sample", || {
            replay
                .sample(config.batch_size, step_seed)
                .into_iter()
                .map(|(a, r)| (a.clone(), r))
                .collect()
        });
        tracer.time("core.agent.critic_update", || {
            agent.critic_update(&states, &adjacency, &batch, baseline.value())
        });
        tracer.time("core.agent.actor_update", || {
            agent.actor_update(&states, &adjacency)
        });
        episode += width;
    }
    history
}
