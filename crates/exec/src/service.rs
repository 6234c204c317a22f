//! The evaluation service: many concurrent optimisation sessions over one
//! engine + cache.
//!
//! [`EvalService`] shares one [`BatchEvaluator`] among any number of
//! [`SessionHandle`]s. A session evaluates on its caller's thread: there is
//! no queue and no dispatcher thread, so no session waits for another
//! session's batch to finish, only for a design that batch is already
//! simulating. [`SessionHandle::try_submit`] returns a deferred
//! [`PendingBatch`] that is evaluated when someone waits on it; the network
//! server resolves every batch queued on one connection as one engine call
//! ([`PendingBatch::try_wait_all`]).
//!
//! ```text
//!   session A ── evaluate_batch ──┐   (each on its caller's thread)
//!   session B ── evaluate_batch ──┼──▶ BatchEvaluator: one cache,
//!   session C ── try_wait_all ────┘    in-flight dedup, worker pool
//! ```
//!
//! What sharing one engine buys over handing every session its own:
//!
//! * **One cache.** All sessions share the engine's content-addressed result
//!   cache, so a candidate simulated for one session is a hit for every
//!   other — visible in the merged [`ExecStats`].
//! * **In-flight deduplication.** A session that misses a design another
//!   session is simulating waits for that report, counted as a cache hit,
//!   instead of simulating it again (see
//!   [`BatchEvaluator::evaluate_batch`]).
//! * **Per-session accounting.** [`SessionStats`] per live session, folded
//!   into [`ClosedSessionStats`] when the session retires.
//!
//! [`EvalService::shutdown`] stops accepting new batches; a batch already
//! submitted still resolves. Results are bit-identical to each session
//! running alone against a private engine (evaluators are pure functions of
//! the parameter vector), which is what lets the bench coordinator and
//! multi-session clients share one engine without changing any reported
//! number.

use crate::engine::BatchEvaluator;
use crate::stats::ExecStats;
use gcnrl_circuit::ParamVector;
use gcnrl_sim::PerformanceReport;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Configuration of an [`EvalService`]: empty. Kept only because the
/// `perfbench/` benchmark names it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceConfig {}

/// Per-session accounting, kept by the service and surfaced through
/// [`SessionHandle::session_stats`] / [`EvalService::session_stats`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SessionStats {
    /// Session name (auto-generated `session-N` unless given at creation).
    pub name: String,
    /// Requests the session has submitted.
    pub submitted: u64,
    /// Requests resolved with reports.
    pub resolved: u64,
    /// Candidates evaluated on the session's behalf.
    pub candidates: u64,
}

/// Service-level aggregate of every retired session, folded in by
/// [`SessionHandle::retire`]. A long-lived service used to keep one
/// [`SessionStats`] entry per session it had *ever* hosted; closed sessions
/// now collapse into this fixed-size summary, so the per-session map holds
/// live sessions only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ClosedSessionStats {
    /// Sessions retired so far.
    pub sessions: u64,
    /// Requests those sessions submitted.
    pub submitted: u64,
    /// Requests resolved for them with reports.
    pub resolved: u64,
    /// Candidates evaluated on their behalf.
    pub candidates: u64,
}

impl ClosedSessionStats {
    /// Folds one closing session into the aggregate.
    pub fn fold(&mut self, stats: &SessionStats) {
        self.sessions += 1;
        self.submitted += stats.submitted;
        self.resolved += stats.resolved;
        self.candidates += stats.candidates;
    }
}

/// The reports of one request, or the message of the evaluator panic that
/// failed it.
type Outcome = Result<Vec<PerformanceReport>, String>;

struct ServiceShared {
    engine: BatchEvaluator,
    sessions: Mutex<HashMap<u64, SessionStats>>,
    /// Aggregate of every retired session (see [`ClosedSessionStats`]).
    closed: Mutex<ClosedSessionStats>,
    /// Requests submitted and neither resolved nor dropped: the backlog the
    /// serve tier reads for admission control.
    pending: AtomicU64,
    open: AtomicBool,
    next_session: AtomicU64,
}

/// The session-multiplexed front-end over one [`BatchEvaluator`]. Cloning is
/// cheap (an `Arc`).
#[derive(Clone)]
pub struct EvalService {
    shared: Arc<ServiceShared>,
}

impl std::fmt::Debug for EvalService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalService")
            .field("engine", &self.shared.engine)
            .finish()
    }
}

/// The error returned when submitting to a service that has been shut down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceClosed;

impl std::fmt::Display for ServiceClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "the evaluation service has been shut down")
    }
}

impl std::error::Error for ServiceClosed {}

impl EvalService {
    /// Opens a service over an existing engine (the [`ServiceConfig`] is an
    /// empty stub).
    pub fn new(engine: BatchEvaluator, _config: ServiceConfig) -> Self {
        EvalService {
            shared: Arc::new(ServiceShared {
                engine,
                sessions: Mutex::new(HashMap::new()),
                closed: Mutex::new(ClosedSessionStats::default()),
                pending: AtomicU64::new(0),
                open: AtomicBool::new(true),
                next_session: AtomicU64::new(0),
            }),
        }
    }

    /// Builds the engine for `benchmark` at `node` and opens a service over
    /// it.
    pub fn for_benchmark(
        benchmark: gcnrl_circuit::benchmarks::Benchmark,
        node: &gcnrl_circuit::TechnologyNode,
        engine: crate::engine::EngineConfig,
        config: ServiceConfig,
    ) -> Self {
        Self::new(
            BatchEvaluator::for_benchmark(benchmark, node, engine),
            config,
        )
    }

    /// Opens a new session with an auto-generated name (`session-N`).
    pub fn session(&self) -> SessionHandle {
        self.open_session(None)
    }

    /// Opens a new session under an explicit name (shown in
    /// [`SessionStats`]).
    pub fn session_named(&self, name: impl Into<String>) -> SessionHandle {
        self.open_session(Some(name.into()))
    }

    fn open_session(&self, name: Option<String>) -> SessionHandle {
        let id = self.shared.next_session.fetch_add(1, Ordering::Relaxed);
        let name = name.unwrap_or_else(|| format!("session-{id}"));
        self.shared.sessions().insert(
            id,
            SessionStats {
                name,
                ..SessionStats::default()
            },
        );
        SessionHandle {
            service: self.clone(),
            id,
        }
    }

    /// The shared engine.
    pub fn engine(&self) -> &BatchEvaluator {
        &self.shared.engine
    }

    /// Cumulative statistics of the shared engine — the merged view across
    /// every session, where cross-session cache hits show up.
    pub fn engine_stats(&self) -> ExecStats {
        self.shared.engine.stats()
    }

    /// Aggregate accounting of every session retired so far (live sessions
    /// appear in [`EvalService::session_stats`] instead).
    pub fn closed_session_stats(&self) -> ClosedSessionStats {
        *self
            .shared
            .closed
            .lock()
            .expect("service closed-session lock")
    }

    /// Per-session accounting of the *live* sessions, in session-creation
    /// order (retired sessions are folded into
    /// [`EvalService::closed_session_stats`]).
    pub fn session_stats(&self) -> Vec<SessionStats> {
        let sessions = self.shared.sessions();
        let mut ids: Vec<&u64> = sessions.keys().collect();
        ids.sort();
        ids.into_iter().map(|id| sessions[id].clone()).collect()
    }

    /// Stops accepting new batches; batches already submitted still resolve.
    /// Idempotent.
    pub fn shutdown(&self) {
        self.shared.open.store(false, Ordering::SeqCst);
    }

    /// Requests submitted but not yet resolved, across every session. This
    /// is the backlog a front-end reads for admission control: it counts a
    /// request from the moment [`SessionHandle::try_submit`] accepts it until
    /// its [`PendingBatch`] resolves or is dropped.
    pub fn pending_requests(&self) -> u64 {
        self.shared.pending.load(Ordering::Relaxed)
    }

    /// Whether the service still accepts submissions.
    pub fn is_open(&self) -> bool {
        self.shared.open.load(Ordering::SeqCst)
    }
}

impl ServiceShared {
    fn sessions(&self) -> std::sync::MutexGuard<'_, HashMap<u64, SessionStats>> {
        self.sessions.lock().expect("service sessions lock")
    }
}

/// One client of an [`EvalService`]: a cheap cloneable handle that evaluates
/// on the shared engine. Clones share the session identity (and its
/// statistics).
///
/// `SessionHandle` implements [`EvalBackend`](crate::EvalBackend), so a
/// `SizingEnv` or any other engine client can run over a session exactly as
/// it would over a private engine — same results, shared cache.
#[derive(Clone)]
pub struct SessionHandle {
    service: EvalService,
    id: u64,
}

impl std::fmt::Debug for SessionHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionHandle")
            .field("id", &self.id)
            .field("name", &self.session_stats().name)
            .finish()
    }
}

impl SessionHandle {
    /// The service this session belongs to.
    pub fn service(&self) -> &EvalService {
        &self.service
    }

    /// Accepts a batch without evaluating it; it is evaluated when someone
    /// waits on the returned [`PendingBatch`]. Several pending batches may
    /// be outstanding at once.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceClosed`] after [`EvalService::shutdown`].
    pub fn try_submit(&self, params: Vec<ParamVector>) -> Result<PendingBatch, ServiceClosed> {
        let shared = &self.service.shared;
        if !shared.open.load(Ordering::SeqCst) {
            return Err(ServiceClosed);
        }
        if let Some(stats) = shared.sessions().get_mut(&self.id) {
            stats.submitted += 1;
        }
        shared.pending.fetch_add(1, Ordering::Relaxed);
        Ok(PendingBatch {
            session: self.clone(),
            params,
            submitted_at: Instant::now(),
        })
    }

    /// Evaluates a batch on the calling thread, returning reports in input
    /// order — the session-side equivalent of
    /// [`BatchEvaluator::evaluate_batch`].
    ///
    /// # Panics
    ///
    /// Panics if the service was shut down, or if the evaluator panicked on
    /// one of the candidates (mirroring the direct-engine contract).
    pub fn evaluate_batch(&self, params: &[ParamVector]) -> Vec<PerformanceReport> {
        if params.is_empty() {
            return Vec::new();
        }
        let pending = self
            .try_submit(params.to_vec())
            .expect("evaluate_batch on a shut-down evaluation service");
        match pending.try_wait() {
            Ok(reports) => reports,
            Err(message) => panic!("evaluation service request failed: {message}"),
        }
    }

    /// Retires this session once it will submit no more: its
    /// [`SessionStats`] entry is folded into the service-level
    /// [`ClosedSessionStats`] aggregate, so the per-session stats map does
    /// not grow with every session a long-lived service has ever hosted. A
    /// retired session that submits anyway still works but is no longer
    /// accounted per-session. The network server calls this when a
    /// connection closes.
    pub fn retire(&self) {
        let shared = &self.service.shared;
        let folded = shared.sessions().remove(&self.id);
        if let Some(stats) = folded {
            shared
                .closed
                .lock()
                .expect("service closed-session lock")
                .fold(&stats);
        }
    }

    /// This session's accounting (requests and candidates).
    pub fn session_stats(&self) -> SessionStats {
        self.service
            .shared
            .sessions()
            .get(&self.id)
            .cloned()
            .unwrap_or_default()
    }
}

impl crate::EvalBackend for SessionHandle {
    fn benchmark(&self) -> gcnrl_circuit::benchmarks::Benchmark {
        self.service.engine().benchmark()
    }

    fn technology(&self) -> &gcnrl_circuit::TechnologyNode {
        self.service.engine().technology()
    }

    fn metric_specs(&self) -> &[gcnrl_sim::MetricSpec] {
        self.service.engine().metric_specs()
    }

    fn evaluate_batch(&self, params: &[ParamVector]) -> Vec<PerformanceReport> {
        SessionHandle::evaluate_batch(self, params)
    }

    fn stats(&self) -> ExecStats {
        self.service.engine_stats()
    }

    fn last_batch(&self) -> crate::BatchReport {
        self.service.engine().last_batch()
    }
}

/// A submitted batch, evaluated on the engine when someone waits on it.
/// Dropping it unresolved withdraws the request.
pub struct PendingBatch {
    session: SessionHandle,
    params: Vec<ParamVector>,
    /// When the batch was submitted: `service.queue_wait.ns` records the
    /// time from here to the start of its evaluation.
    submitted_at: Instant,
}

impl Drop for PendingBatch {
    fn drop(&mut self) {
        self.session
            .service
            .shared
            .pending
            .fetch_sub(1, Ordering::Relaxed);
    }
}

impl PendingBatch {
    /// Evaluates the batch on the calling thread, returning the failure as a
    /// value instead of panicking.
    ///
    /// # Errors
    ///
    /// The panic message of the evaluator.
    pub fn try_wait(self) -> Result<Vec<PerformanceReport>, String> {
        Self::try_wait_all(vec![self])
            .pop()
            .expect("one outcome per batch")
    }

    /// Evaluates batches of one service as one engine call on the calling
    /// thread, returning each batch's reports (or failure) in order. If the
    /// evaluator panics, each batch is evaluated alone, so only the batches
    /// that fail on their own fail, each with its own message. The network
    /// server's responder resolves every batch queued on its connection
    /// this way.
    ///
    /// # Panics
    ///
    /// Panics if the batches belong to different services.
    pub fn try_wait_all(batches: Vec<PendingBatch>) -> Vec<Result<Vec<PerformanceReport>, String>> {
        let Some(first) = batches.first() else {
            return Vec::new();
        };
        let shared = Arc::clone(&first.session.service.shared);
        assert!(
            batches
                .iter()
                .all(|batch| Arc::ptr_eq(&batch.session.service.shared, &shared)),
            "batches of different services cannot share an engine call"
        );
        static QUEUE_WAIT: OnceLock<Arc<gcnrl_telemetry::Histogram>> = OnceLock::new();
        let queue_wait =
            QUEUE_WAIT.get_or_init(|| gcnrl_telemetry::global().histogram("service.queue_wait.ns"));
        for batch in &batches {
            queue_wait.record_duration(batch.submitted_at.elapsed());
        }

        let merged: Cow<[ParamVector]> = match &batches[..] {
            [one] => Cow::Borrowed(&one.params),
            _ => batches
                .iter()
                .flat_map(|batch| batch.params.iter().cloned())
                .collect(),
        };
        let outcomes: Vec<Outcome> = match evaluate(&shared.engine, &merged) {
            Ok(reports) => {
                let mut reports = reports.into_iter();
                batches
                    .iter()
                    .map(|batch| Ok(reports.by_ref().take(batch.params.len()).collect()))
                    .collect()
            }
            Err(message) if batches.len() == 1 => vec![Err(message)],
            // Some batch panicked the evaluator. Evaluate each alone, so
            // only the batches that fail on their own fail.
            Err(_) => batches
                .iter()
                .map(|batch| evaluate(&shared.engine, &batch.params))
                .collect(),
        };

        let mut sessions = shared.sessions();
        for (batch, outcome) in batches.iter().zip(&outcomes) {
            if let (Ok(reports), Some(stats)) = (outcome, sessions.get_mut(&batch.session.id)) {
                stats.resolved += 1;
                stats.candidates += reports.len() as u64;
            }
        }
        outcomes
    }
}

/// Extracts the human-readable message out of a caught panic payload (the
/// common `&str` / `String` cases, with a generic fallback). Shared by the
/// service's failure path and the network server's per-request error
/// reporting, so the same panic reads the same at every layer.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "evaluator panicked".to_owned())
}

/// One engine call (none for no candidates), with an evaluator panic caught
/// and turned into its message.
fn evaluate(engine: &BatchEvaluator, params: &[ParamVector]) -> Outcome {
    if params.is_empty() {
        return Ok(Vec::new());
    }
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine.evaluate_batch(params)
    }))
    .map_err(|payload| panic_message(payload.as_ref()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::testing::LatencyEvaluator;
    use crate::EvalBackend;
    use gcnrl_circuit::{benchmarks::Benchmark, ComponentParams, TechnologyNode};
    use std::time::Duration;

    fn latency_service(delay_ms: u64) -> EvalService {
        EvalService::new(
            BatchEvaluator::new(
                Box::new(LatencyEvaluator::new(Duration::from_millis(delay_ms))),
                EngineConfig::serial(),
            ),
            ServiceConfig::default(),
        )
    }

    fn pv(r: f64) -> ParamVector {
        ParamVector::new(vec![ComponentParams::Resistance(r)])
    }

    #[test]
    fn session_results_match_the_direct_engine_path() {
        let node = TechnologyNode::tsmc180();
        let engine_config = EngineConfig::serial();
        let direct =
            BatchEvaluator::for_benchmark(Benchmark::TwoStageTia, &node, engine_config.clone());
        let space = Benchmark::TwoStageTia.circuit().design_space(&node);
        let candidates: Vec<ParamVector> = (0..6)
            .map(|i| {
                let unit: Vec<f64> = (0..space.num_parameters())
                    .map(|j| ((i * 19 + j * 5) % 83) as f64 / 82.0)
                    .collect();
                space.from_unit(&unit)
            })
            .collect();
        let reference = direct.evaluate_batch(&candidates);

        let service = EvalService::for_benchmark(
            Benchmark::TwoStageTia,
            &node,
            engine_config,
            ServiceConfig::default(),
        );
        let session = service.session();
        assert_eq!(session.evaluate_batch(&candidates), reference);
        assert_eq!(EvalBackend::benchmark(&session), Benchmark::TwoStageTia);
        let stats = session.session_stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.resolved, 1);
        assert_eq!(stats.candidates, 6);
    }

    #[test]
    fn a_session_does_not_wait_behind_another_sessions_batch() {
        // A serial engine at 100 ms per candidate: session A's four
        // candidates take 400 ms. Session B's one candidate, submitted 10 ms
        // after A's, evaluates on B's own thread and resolves first.
        let service = latency_service(100);
        let a = service.session_named("a");
        let b = service.session_named("b");
        let order = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            scope.spawn(|| {
                a.evaluate_batch(&[pv(1.0), pv(2.0), pv(3.0), pv(4.0)]);
                order.lock().unwrap().push("a");
            });
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(10));
                b.evaluate_batch(&[pv(5.0)]);
                order.lock().unwrap().push("b");
            });
        });
        assert_eq!(order.into_inner().unwrap(), ["b", "a"]);
    }

    #[test]
    fn fair_rounds_do_not_let_a_deep_backlog_starve_a_light_session() {
        // Session A queues five two-candidate batches and drains them on its
        // thread, one after another: 100 ms each on a serial engine at 50 ms
        // per candidate. Session B queues one candidate after A's backlog
        // and waits on its own thread, so it resolves at 50 ms, before A's
        // second batch, instead of behind A's whole backlog.
        let service = latency_service(50);
        let a = service.session_named("deep");
        let b = service.session_named("light");
        let deep: Vec<PendingBatch> = (0..5)
            .map(|i| {
                a.try_submit(vec![pv(10.0 + i as f64), pv(20.0 + i as f64)])
                    .expect("open service")
            })
            .collect();
        let light = b.try_submit(vec![pv(99.0)]).expect("open service");
        let order = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for (i, pending) in deep.into_iter().enumerate() {
                    pending.try_wait().expect("healthy request");
                    order.lock().unwrap().push(format!("deep-{i}"));
                }
            });
            scope.spawn(|| {
                light.try_wait().expect("healthy request");
                order.lock().unwrap().push("light".to_owned());
            });
        });
        let order = order.into_inner().unwrap();
        let position = |label: &str| order.iter().position(|o| o == label).unwrap();
        for later in ["deep-1", "deep-2", "deep-3", "deep-4"] {
            assert!(
                position("light") < position(later),
                "light session starved behind the deep backlog: {order:?}"
            );
        }
        assert_eq!(b.session_stats().resolved, 1);
        assert_eq!(a.session_stats().resolved, 5);
    }

    #[test]
    fn one_request_per_session_per_sweep_splits_rounds_evenly() {
        // Two sessions with equal backlogs of four one-candidate batches,
        // each drained on its own thread against a serial engine at 100 ms
        // per candidate: both progress together, so the first four batches
        // to resolve hold two of each session.
        let service = latency_service(100);
        let sessions = [service.session_named("a"), service.session_named("b")];
        let order = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for (s, session) in sessions.iter().enumerate() {
                let backlog: Vec<PendingBatch> = (0..4)
                    .map(|i| {
                        session
                            .try_submit(vec![pv((100 * s + i) as f64)])
                            .expect("open service")
                    })
                    .collect();
                let order = &order;
                scope.spawn(move || {
                    for pending in backlog {
                        pending.try_wait().expect("healthy request");
                        order.lock().unwrap().push(s);
                    }
                });
            }
        });
        let order = order.into_inner().unwrap();
        assert_eq!(order.len(), 8);
        assert_eq!(
            order[..4].iter().filter(|&&s| s == 0).count(),
            2,
            "one session ran ahead of the other: {order:?}"
        );
        for session in &sessions {
            let stats = session.session_stats();
            assert_eq!(
                (stats.submitted, stats.resolved, stats.candidates),
                (4, 4, 4)
            );
        }
    }

    #[test]
    fn retiring_a_session_folds_its_stats_into_the_closed_aggregate() {
        let service = latency_service(0);
        let session = service.session_named("transient");
        assert_eq!(session.evaluate_batch(&[pv(1.0)]).len(), 1);
        assert_eq!(service.session_stats().len(), 1);
        assert_eq!(
            service.closed_session_stats(),
            ClosedSessionStats::default()
        );

        session.retire();
        // The per-session entry is gone; its numbers live on in the
        // service-level aggregate.
        assert!(service.session_stats().is_empty());
        let closed = service.closed_session_stats();
        assert_eq!(closed.sessions, 1);
        assert_eq!(closed.submitted, 1);
        assert_eq!(closed.resolved, 1);
        assert_eq!(closed.candidates, 1);
        // A retired session that submits anyway still works (no per-session
        // accounting).
        assert_eq!(session.evaluate_batch(&[pv(2.0)]).len(), 1);
        assert_eq!(service.closed_session_stats().candidates, 1);
        // Retire is idempotent: a second call folds nothing new.
        session.retire();
        assert_eq!(service.closed_session_stats().sessions, 1);
    }

    #[test]
    fn shutdown_resolves_every_queued_request_and_rejects_new_ones() {
        let service = latency_service(10);
        let session = service.session();
        let submit = |r: f64| session.try_submit(vec![pv(r)]).expect("open service");
        let pending: Vec<PendingBatch> = (0..3).map(|i| submit(i as f64)).collect();
        // A dropped batch is withdrawn: never simulated, no longer pending.
        drop(submit(9.0));
        assert_eq!(service.pending_requests(), 3);
        service.shutdown();
        assert!(!service.is_open());
        for (i, p) in pending.into_iter().enumerate() {
            let reports = p.try_wait().expect("healthy request");
            assert_eq!(reports.len(), 1, "queued request {i} must resolve");
        }
        assert_eq!(service.pending_requests(), 0);
        assert!(session.try_submit(vec![pv(7.0)]).is_err());
        assert_eq!(service.engine_stats().simulated, 3);
        // Shutdown is idempotent.
        service.shutdown();
    }

    #[test]
    fn evaluator_panics_fail_the_waiting_request_with_the_original_message() {
        struct Poisoned(LatencyEvaluator);
        impl gcnrl_sim::evaluators::Evaluator for Poisoned {
            fn benchmark(&self) -> Benchmark {
                self.0.benchmark()
            }
            fn technology(&self) -> &TechnologyNode {
                self.0.technology()
            }
            fn metric_specs(&self) -> &[gcnrl_sim::MetricSpec] {
                self.0.metric_specs()
            }
            fn evaluate(&self, params: &ParamVector) -> PerformanceReport {
                let flat = params.to_flat()[0];
                if (666.0..=668.0).contains(&flat) {
                    panic!("device R{flat:.0} out of saturation");
                }
                self.0.evaluate(params)
            }
        }
        let service = EvalService::new(
            BatchEvaluator::new(
                Box::new(Poisoned(LatencyEvaluator::new(Duration::ZERO))),
                EngineConfig::serial(),
            ),
            ServiceConfig::default(),
        );
        let session = service.session();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            session.evaluate_batch(&[pv(666.0)])
        }))
        .expect_err("the poisoned candidate must fail the request");
        let message = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            message.contains("R666"),
            "original panic must reach the waiter; got `{message}`"
        );
        // The service keeps serving healthy requests afterwards...
        assert_eq!(session.evaluate_batch(&[pv(1.0)]).len(), 1);
        // ...and a later failure reports its own message, not the first one.
        let second = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            session.evaluate_batch(&[pv(667.0)])
        }))
        .expect_err("the second poisoned candidate must fail too");
        let message = second.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            message.contains("R667"),
            "later failures must carry their own message; got `{message}`"
        );

        // A healthy and a poisoned batch of two sessions resolved as one
        // engine call: only the poisoned one may fail.
        let healthy = service.session_named("healthy");
        let poisoned = service.session_named("poisoned");
        let fine = healthy.try_submit(vec![pv(2.0)]).expect("open service");
        let bad = poisoned.try_submit(vec![pv(668.0)]).expect("open service");
        let mut outcomes = PendingBatch::try_wait_all(vec![fine, bad]).into_iter();
        let solo = BatchEvaluator::new(
            Box::new(LatencyEvaluator::new(Duration::ZERO)),
            EngineConfig::serial(),
        );
        assert_eq!(outcomes.next(), Some(Ok(solo.evaluate_batch(&[pv(2.0)]))));
        let message = outcomes
            .next()
            .expect("one outcome per batch")
            .expect_err("the poisoned request must fail");
        assert!(
            message.contains("R668"),
            "the poisoned request must fail with its own message; got `{message}`"
        );
        assert_eq!(healthy.session_stats().resolved, 1);
        assert_eq!(poisoned.session_stats().resolved, 0);
    }

    #[test]
    fn empty_batches_resolve_without_touching_the_queue() {
        let service = latency_service(50);
        let session = service.session();
        assert!(session.evaluate_batch(&[]).is_empty());
        assert_eq!(session.session_stats().submitted, 0);
    }

    #[test]
    fn a_session_outlives_its_service_handle() {
        let service = latency_service(1);
        let session = service.session();
        drop(service);
        // The session keeps the service alive and usable.
        assert_eq!(session.evaluate_batch(&[pv(1.0)]).len(), 1);
        assert!(session.service().is_open());
    }
}
