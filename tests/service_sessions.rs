//! Integration tests of the `gcnrl-exec` evaluation service through the
//! full stack: N concurrent optimisation sessions share one engine + cache,
//! produce results bit-identical to each session running alone, and their
//! overlapping traffic (here: the identical FoM calibration sweeps) shows up
//! as cross-session cache hits in the merged engine statistics.

use gcn_rl_circuit_designer::baselines::random_search;
use gcn_rl_circuit_designer::circuit::{benchmarks::Benchmark, TechnologyNode};
use gcn_rl_circuit_designer::exec::{EngineConfig, EvalService, ServiceConfig, SessionHandle};
use gcn_rl_circuit_designer::gcnrl::{
    AgentKind, FomConfig, GcnRlDesigner, RunHistory, SizingEnv, StateEncoding,
};
use gcn_rl_circuit_designer::rl::DdpgConfig;

const BENCHMARK: Benchmark = Benchmark::TwoStageTia;
const CALIBRATION: usize = 8;
const BUDGET: usize = 10;

fn open_service() -> EvalService {
    EvalService::for_benchmark(
        BENCHMARK,
        &TechnologyNode::tsmc180(),
        EngineConfig::serial(),
        ServiceConfig::default(),
    )
}

/// Builds a calibrated environment whose calibration sweep *and*
/// optimisation traffic both go through the session.
fn env_over(session: &SessionHandle) -> SizingEnv {
    let node = TechnologyNode::tsmc180();
    let fom = FomConfig::calibrated_with_backend(BENCHMARK, &node, CALIBRATION, 7, session);
    SizingEnv::with_backend(
        BENCHMARK,
        &node,
        fom,
        StateEncoding::ScalarIndex,
        Box::new(session.clone()),
    )
}

fn random_search_run(session: &SessionHandle, seed: u64) -> RunHistory {
    random_search(&env_over(session), BUDGET, seed)
}

#[test]
fn concurrent_sessions_match_solo_runs_and_share_the_cache() {
    const SESSIONS: usize = 3;

    // Reference: each seed on its own fresh service + engine.
    let solo: Vec<RunHistory> = (0..SESSIONS)
        .map(|seed| {
            let service = open_service();
            random_search_run(&service.session(), seed as u64)
        })
        .collect();

    // The same seeds as concurrent sessions of one shared service.
    let service = open_service();
    let workers: Vec<_> = (0..SESSIONS)
        .map(|seed| {
            let session = service.session_named(format!("client-{seed}"));
            std::thread::spawn(move || random_search_run(&session, seed as u64))
        })
        .collect();
    let shared: Vec<RunHistory> = workers
        .into_iter()
        .map(|w| w.join().expect("session thread"))
        .collect();

    for (seed, (shared_run, solo_run)) in shared.iter().zip(&solo).enumerate() {
        assert_eq!(
            shared_run, solo_run,
            "seed {seed}: sharing the engine must not change the run"
        );
    }

    // All three sessions calibrate with the same sweep, so every session
    // after the first is served those candidates from the shared cache (or
    // waits for them while another session simulates them).
    let stats = service.engine_stats();
    assert!(
        stats.cache_hits >= ((SESSIONS - 1) * CALIBRATION) as u64,
        "cross-session calibration reuse missing from the merged stats: {stats:?}"
    );
    assert_eq!(stats.requests, stats.simulated + stats.cache_hits);

    // Per-session accounting covers every client.
    let sessions = service.session_stats();
    assert_eq!(sessions.len(), SESSIONS);
    for s in &sessions {
        assert!(s.name.starts_with("client-"));
        assert_eq!(s.submitted, s.resolved, "{}: requests left pending", s.name);
        assert!(
            s.candidates >= (CALIBRATION + BUDGET) as u64,
            "{}: candidates unaccounted",
            s.name
        );
    }
    service.shutdown();
}

#[test]
fn concurrent_designer_sessions_match_their_solo_trainings() {
    let config = DdpgConfig {
        episodes: 12,
        warmup: 4,
        batch_size: 8,
        hidden_dim: 16,
        gcn_layers: 2,
        ..DdpgConfig::default()
    }
    .with_rollout_k(3);

    fn designer_run(session: &SessionHandle, config: DdpgConfig, seed: u64) -> RunHistory {
        GcnRlDesigner::with_kind(env_over(session), config.with_seed(seed), AgentKind::Gcn).run()
    }

    let solo: Vec<RunHistory> = (0..2)
        .map(|seed| {
            let service = open_service();
            designer_run(&service.session(), config, seed)
        })
        .collect();

    let service = open_service();
    let shared: Vec<RunHistory> = (0..2u64)
        .map(|seed| {
            let session = service.session_named(format!("designer-{seed}"));
            std::thread::spawn(move || designer_run(&session, config, seed))
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|w| w.join().expect("designer thread"))
        .collect();

    assert_eq!(shared[0], solo[0]);
    assert_eq!(shared[1], solo[1]);
    // The shared engine saw both sessions; the calibration overlap is
    // visible as cross-session cache traffic.
    let stats = service.engine_stats();
    assert!(stats.cache_hits >= CALIBRATION as u64, "{stats:?}");
}
