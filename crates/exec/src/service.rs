//! The evaluation service: a request-queue front-end multiplexing many
//! concurrent optimisation sessions onto one engine + cache.
//!
//! [`BatchEvaluator::evaluate_batch`] is a blocking call owned by one caller.
//! [`EvalService`] turns it into a shared facility: any number of
//! [`SessionHandle`]s submit evaluation requests from their own threads, a
//! single dispatcher thread assembles them into engine batches, and each
//! request resolves through its own reply channel ([`PendingBatch`]).
//!
//! ```text
//!   session A ──submit──┐                       ┌─▶ reply channel A
//!   session B ──submit──┤   ┌────────────────┐  ├─▶ reply channel B
//!   session C ──submit──┼──▶│ dispatcher     │──┤
//!                       │   │  fair rounds   │  └─▶ reply channel C
//!        (mpsc queue)   │   │  mega-batches  │
//!                       │   └───────┬────────┘
//!                       │           ▼
//!                       │   BatchEvaluator (cache + worker pool)
//! ```
//!
//! What the queue buys over handing every session its own engine:
//!
//! * **One cache.** All sessions share the engine's content-addressed result
//!   cache, so a candidate simulated for one session is a hit for every
//!   other — visible in the merged [`ExecStats`].
//! * **In-flight deduplication by construction.** Because every request
//!   passes through the single dispatcher, identical candidates submitted
//!   concurrently by different sessions land in the *same* engine batch and
//!   are simulated once (the engine's intra-batch dedup), a guarantee raw
//!   concurrent `evaluate_batch` calls on a shared engine cannot give.
//! * **Fair scheduling.** Each dispatch round takes requests round-robin
//!   across sessions (oldest first per session) up to a candidate cap, so a
//!   session with a deep backlog cannot starve a light one.
//! * **Graceful shutdown.** [`EvalService::shutdown`] stops accepting new
//!   requests, drains every queued request, and joins the dispatcher; it is
//!   also invoked automatically when the last service/session handle drops.
//!
//! Results are bit-identical to each session running alone against a private
//! engine (evaluators are pure functions of the parameter vector), which is
//! what lets the bench coordinator and multi-session clients share one
//! engine without changing any reported number.

use crate::engine::BatchEvaluator;
use crate::stats::ExecStats;
use gcnrl_circuit::ParamVector;
use gcnrl_sim::PerformanceReport;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Configuration of an [`EvalService`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Candidate budget of one dispatch round. The dispatcher keeps adding
    /// requests (round-robin across sessions) while the round holds fewer
    /// candidates than this, so a single oversized request still dispatches
    /// alone rather than deadlocking. Smaller values trade engine batch size
    /// for scheduling granularity (a long round delays every later request).
    pub max_round_candidates: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_round_candidates: 1024,
        }
    }
}

impl ServiceConfig {
    /// Returns a copy with a different per-round candidate budget.
    pub fn with_max_round_candidates(mut self, cap: usize) -> Self {
        self.max_round_candidates = cap.max(1);
        self
    }
}

/// Per-session accounting, kept by the service and surfaced through
/// [`SessionHandle::session_stats`] / [`EvalService::session_stats`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SessionStats {
    /// Session name (auto-generated `session-N` unless given at creation).
    pub name: String,
    /// Requests the session has submitted.
    pub submitted: u64,
    /// Requests the dispatcher has resolved.
    pub resolved: u64,
    /// Candidates evaluated on the session's behalf.
    pub candidates: u64,
    /// Dispatch rounds that batched this session together with at least one
    /// other session (the multiplexing witness).
    pub shared_rounds: u64,
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
    /// Requests the dispatcher resolved for them.
    pub resolved: u64,
    /// Candidates evaluated on their behalf.
    pub candidates: u64,
    /// Dispatch rounds they shared with at least one other session.
    pub shared_rounds: u64,
}

impl ClosedSessionStats {
    /// Folds one closing session into the aggregate.
    pub fn fold(&mut self, stats: &SessionStats) {
        self.sessions += 1;
        self.submitted += stats.submitted;
        self.resolved += stats.resolved;
        self.candidates += stats.candidates;
        self.shared_rounds += stats.shared_rounds;
    }
}

/// What the dispatcher sends back per request: the reports, or the message
/// of the evaluator panic that failed the request (each failure carries its
/// own message — a later failure is never masked by an earlier one, and a
/// healthy request is never failed by another's).
type RoundOutcome = Result<Vec<PerformanceReport>, Arc<String>>;

/// One queued evaluation request.
struct Request {
    session: u64,
    params: Vec<ParamVector>,
    reply: Sender<RoundOutcome>,
    /// When the request entered the queue — the dispatcher records the
    /// submit-to-dispatch delta as `service.queue_wait.ns`.
    submitted_at: Instant,
}

/// State shared between the handles and the dispatcher thread. The
/// dispatcher holds only this (not [`ServiceShared`]), so dropping the last
/// handle can join the dispatcher without an `Arc` cycle.
struct DispatchState {
    engine: BatchEvaluator,
    sessions: Mutex<HashMap<u64, SessionStats>>,
    /// Aggregate of every retired session (see [`ClosedSessionStats`]).
    closed: Mutex<ClosedSessionStats>,
    /// Requests submitted but not yet resolved — the live queue depth the
    /// serve tier reads for admission control.
    pending: AtomicU64,
}

struct ServiceShared {
    state: Arc<DispatchState>,
    config: ServiceConfig,
    submit: Mutex<Option<Sender<Request>>>,
    dispatcher: Mutex<Option<JoinHandle<()>>>,
    next_session: AtomicU64,
}

impl ServiceShared {
    /// Stops intake, drains the queue and joins the dispatcher. Idempotent.
    fn shutdown(&self) {
        // Dropping the submit sender closes the queue; the dispatcher
        // finishes the backlog and exits.
        drop(self.submit.lock().expect("service submit lock").take());
        let handle = self
            .dispatcher
            .lock()
            .expect("service dispatcher lock")
            .take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

impl Drop for ServiceShared {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The session-multiplexed front-end over one [`BatchEvaluator`]. Cloning is
/// cheap (an `Arc`); the underlying dispatcher shuts down when the last
/// service or session handle drops.
#[derive(Clone)]
pub struct EvalService {
    shared: Arc<ServiceShared>,
}

impl std::fmt::Debug for EvalService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalService")
            .field("engine", &self.shared.state.engine)
            .field("config", &self.shared.config)
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
    /// Starts a service (and its dispatcher thread) over an existing engine.
    pub fn new(engine: BatchEvaluator, config: ServiceConfig) -> Self {
        let state = Arc::new(DispatchState {
            engine,
            sessions: Mutex::new(HashMap::new()),
            closed: Mutex::new(ClosedSessionStats::default()),
            pending: AtomicU64::new(0),
        });
        let (tx, rx) = channel::<Request>();
        let dispatcher = {
            let state = Arc::clone(&state);
            let dispatch_config = config.clone();
            std::thread::Builder::new()
                .name("gcnrl-eval-service".to_owned())
                .spawn(move || dispatch_loop(&state, &rx, &dispatch_config))
                .expect("spawn gcnrl-eval-service dispatcher")
        };
        EvalService {
            shared: Arc::new(ServiceShared {
                state,
                config,
                submit: Mutex::new(Some(tx)),
                dispatcher: Mutex::new(Some(dispatcher)),
                next_session: AtomicU64::new(0),
            }),
        }
    }

    /// Builds the engine for `benchmark` at `node` and starts a service over
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
        self.shared
            .state
            .sessions
            .lock()
            .expect("service sessions lock")
            .insert(
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

    /// The engine behind the queue.
    pub fn engine(&self) -> &BatchEvaluator {
        &self.shared.state.engine
    }

    /// Cumulative statistics of the shared engine — the merged view across
    /// every session, where cross-session cache hits show up.
    pub fn engine_stats(&self) -> ExecStats {
        self.shared.state.engine.stats()
    }

    /// Aggregate accounting of every session retired so far (live sessions
    /// appear in [`EvalService::session_stats`] instead).
    pub fn closed_session_stats(&self) -> ClosedSessionStats {
        *self
            .shared
            .state
            .closed
            .lock()
            .expect("service closed-session lock")
    }

    /// Per-session accounting of the *live* sessions, in session-creation
    /// order (retired sessions are folded into
    /// [`EvalService::closed_session_stats`]).
    pub fn session_stats(&self) -> Vec<SessionStats> {
        let sessions = self
            .shared
            .state
            .sessions
            .lock()
            .expect("service sessions lock");
        let mut ids: Vec<&u64> = sessions.keys().collect();
        ids.sort();
        ids.into_iter().map(|id| sessions[id].clone()).collect()
    }

    /// Stops accepting new requests, resolves every queued request, and
    /// joins the dispatcher thread. Idempotent; also runs when the last
    /// handle (service or session) drops.
    pub fn shutdown(&self) {
        self.shared.shutdown();
    }

    /// Requests submitted but not yet resolved, across every session. This
    /// is the queue depth a front-end reads for admission control: it counts
    /// a request from the moment [`SessionHandle::try_submit`] (or a blocking
    /// submit) accepts it until the dispatcher sends its reply.
    pub fn pending_requests(&self) -> u64 {
        self.shared.state.pending.load(Ordering::Relaxed)
    }

    /// Whether the service still accepts submissions.
    pub fn is_open(&self) -> bool {
        self.shared
            .submit
            .lock()
            .expect("service submit lock")
            .is_some()
    }

    fn submit_request(
        &self,
        session: u64,
        params: Vec<ParamVector>,
    ) -> Result<PendingBatch, ServiceClosed> {
        let size = params.len();
        let (reply_tx, reply_rx) = channel();
        let bump_submitted = |delta: i64| {
            if let Some(stats) = self
                .shared
                .state
                .sessions
                .lock()
                .expect("service sessions lock")
                .get_mut(&session)
            {
                stats.submitted = stats.submitted.wrapping_add_signed(delta);
            }
        };
        {
            let guard = self.shared.submit.lock().expect("service submit lock");
            let Some(sender) = guard.as_ref() else {
                return Err(ServiceClosed);
            };
            // Count the submission before the dispatcher can possibly
            // resolve it, so `submitted >= resolved` (and a non-negative
            // pending count) holds for any concurrent reader; roll back if
            // the send fails.
            bump_submitted(1);
            self.shared.state.pending.fetch_add(1, Ordering::Relaxed);
            if sender
                .send(Request {
                    session,
                    params,
                    reply: reply_tx,
                    submitted_at: Instant::now(),
                })
                .is_err()
            {
                bump_submitted(-1);
                self.shared.state.pending.fetch_sub(1, Ordering::Relaxed);
                return Err(ServiceClosed);
            }
        }
        Ok(PendingBatch {
            reply: reply_rx,
            size,
        })
    }
}

/// One client of an [`EvalService`]: a cheap cloneable handle that submits
/// evaluation requests onto the shared queue. Clones share the session
/// identity (and its statistics).
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

    /// Submits a batch without blocking; resolve it with
    /// [`PendingBatch::wait`]. Several pending batches may be in flight at
    /// once (they resolve in submission order — the dispatcher never
    /// reorders requests of one session).
    ///
    /// # Errors
    ///
    /// Returns [`ServiceClosed`] after [`EvalService::shutdown`].
    pub fn try_submit(&self, params: Vec<ParamVector>) -> Result<PendingBatch, ServiceClosed> {
        self.service.submit_request(self.id, params)
    }

    /// Submits a batch without blocking.
    ///
    /// # Panics
    ///
    /// Panics if the service has been shut down (use
    /// [`SessionHandle::try_submit`] to handle that case).
    pub fn submit(&self, params: Vec<ParamVector>) -> PendingBatch {
        self.try_submit(params)
            .expect("submit on a shut-down evaluation service")
    }

    /// Submits a batch and blocks until it resolves, returning reports in
    /// input order — the session-side equivalent of
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
        self.submit(params.to_vec()).wait()
    }

    /// Retires this session once it will submit no more: its
    /// [`SessionStats`] entry is folded into the service-level
    /// [`ClosedSessionStats`] aggregate, so the per-session stats map does
    /// not grow with every session a long-lived service has ever hosted. A
    /// retired session that submits anyway still works but is no longer
    /// accounted per-session. The network server calls this when a
    /// connection closes.
    pub fn retire(&self) {
        let state = &self.service.shared.state;
        let folded = state
            .sessions
            .lock()
            .expect("service sessions lock")
            .remove(&self.id);
        if let Some(stats) = folded {
            state
                .closed
                .lock()
                .expect("service closed-session lock")
                .fold(&stats);
        }
    }

    /// This session's accounting (requests, candidates, shared rounds).
    pub fn session_stats(&self) -> SessionStats {
        self.service
            .shared
            .state
            .sessions
            .lock()
            .expect("service sessions lock")
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
        self.service.shared.state.engine.technology()
    }

    fn metric_specs(&self) -> &[gcnrl_sim::MetricSpec] {
        self.service.shared.state.engine.metric_specs()
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

/// A submitted-but-unresolved evaluation request (a poor man's future over
/// an mpsc reply channel).
pub struct PendingBatch {
    reply: Receiver<RoundOutcome>,
    size: usize,
}

impl PendingBatch {
    /// Number of candidates in the request.
    pub fn len(&self) -> usize {
        self.size
    }

    /// Whether the request was empty.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// Blocks until the dispatcher resolves the request, returning reports
    /// in input order.
    ///
    /// # Panics
    ///
    /// Panics if the request was dropped because the evaluator panicked
    /// (the original panic message is included).
    pub fn wait(self) -> Vec<PerformanceReport> {
        match self.try_wait() {
            Ok(reports) => reports,
            Err(message) => panic!("evaluation service request failed: {message}"),
        }
    }

    /// Blocks until the dispatcher resolves the request, returning the
    /// failure as a value instead of panicking — a network server's
    /// per-connection responder thread uses this to turn an evaluator panic
    /// into an `Error` frame for the one affected client while every other
    /// connection keeps being served.
    ///
    /// # Errors
    ///
    /// The panic message of the evaluator, or a note that the service
    /// dropped the request.
    pub fn try_wait(self) -> Result<Vec<PerformanceReport>, String> {
        match self.reply.recv() {
            Ok(Ok(reports)) => Ok(reports),
            Ok(Err(message)) => Err(message.as_ref().clone()),
            Err(_) => Err("the evaluation service dropped a pending request".to_owned()),
        }
    }
}

/// Takes one fair dispatch round out of the backlog: sweep the queue in
/// arrival order taking at most one request per session per sweep,
/// repeating until the candidate cap is reached or the backlog is empty.
/// The first request of a round is always admitted, so an oversized request
/// cannot wedge the queue.
fn next_round(backlog: &mut VecDeque<Request>, cap: usize) -> Vec<Request> {
    let mut round: Vec<Request> = Vec::new();
    let mut candidates = 0usize;
    loop {
        let mut taken_this_sweep: HashSet<u64> = HashSet::new();
        let mut kept: VecDeque<Request> = VecDeque::with_capacity(backlog.len());
        let mut progressed = false;
        for request in backlog.drain(..) {
            if candidates < cap && taken_this_sweep.insert(request.session) {
                candidates += request.params.len();
                round.push(request);
                progressed = true;
            } else {
                kept.push_back(request);
            }
        }
        *backlog = kept;
        if !progressed || backlog.is_empty() || candidates >= cap {
            return round;
        }
    }
}

fn dispatch_loop(state: &DispatchState, queue: &Receiver<Request>, config: &ServiceConfig) {
    let cap = config.max_round_candidates.max(1);
    let mut backlog: VecDeque<Request> = VecDeque::new();
    let mut open = true;
    while open || !backlog.is_empty() {
        if backlog.is_empty() {
            // Nothing queued: block for the next request (or shutdown).
            match queue.recv() {
                Ok(request) => backlog.push_back(request),
                Err(_) => {
                    open = false;
                    continue;
                }
            }
        }
        // Round assembly — from "at least one request is queued" to "the
        // round is closed" — is timed as `service.round_assemble.ns`: it
        // covers the non-blocking drain and the fair sweep, i.e. the
        // scheduling latency the service adds on top of the engine.
        let round = {
            let _assemble = gcnrl_telemetry::span!("service.round_assemble.ns");
            // Pull in everything else that is already waiting, without
            // blocking: concurrent sessions coalesce into one engine batch
            // here.
            loop {
                match queue.try_recv() {
                    Ok(request) => backlog.push_back(request),
                    Err(std::sync::mpsc::TryRecvError::Empty) => break,
                    Err(std::sync::mpsc::TryRecvError::Disconnected) => {
                        open = false;
                        break;
                    }
                }
            }
            next_round(&mut backlog, cap)
        };
        if round.is_empty() {
            continue;
        }
        {
            // Requests still queued after the fair sweep = the depth the
            // *next* round starts from; the gauge tracks the live value, the
            // histogram its distribution across rounds.
            static QUEUE_DEPTH: OnceLock<Arc<gcnrl_telemetry::Histogram>> = OnceLock::new();
            static BACKLOG: OnceLock<Arc<gcnrl_telemetry::Gauge>> = OnceLock::new();
            QUEUE_DEPTH
                .get_or_init(|| gcnrl_telemetry::global().histogram("service.queue_depth"))
                .record(backlog.len() as u64);
            BACKLOG
                .get_or_init(|| gcnrl_telemetry::global().gauge("service.backlog"))
                .set(backlog.len() as i64);
        }
        run_round(state, round);
    }
}

/// Extracts the human-readable message out of a caught panic payload (the
/// common `&str` / `String` cases, with a generic fallback). Shared by the
/// dispatcher's round failure path and the network server's per-request
/// error reporting, so the same panic reads the same at every layer.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "evaluator panicked".to_owned())
}

fn run_round(state: &DispatchState, round: Vec<Request>) {
    // Round occupancy and per-request queueing delay. These are value
    // histograms (not durations) except queue_wait, which measures
    // submit-to-dispatch latency per request.
    {
        static QUEUE_WAIT: OnceLock<Arc<gcnrl_telemetry::Histogram>> = OnceLock::new();
        static ROUND_SESSIONS: OnceLock<Arc<gcnrl_telemetry::Histogram>> = OnceLock::new();
        static ROUND_CANDIDATES: OnceLock<Arc<gcnrl_telemetry::Histogram>> = OnceLock::new();
        let queue_wait =
            QUEUE_WAIT.get_or_init(|| gcnrl_telemetry::global().histogram("service.queue_wait.ns"));
        for request in &round {
            queue_wait.record_duration(request.submitted_at.elapsed());
        }
        let mut sessions: Vec<u64> = round.iter().map(|r| r.session).collect();
        sessions.sort_unstable();
        sessions.dedup();
        ROUND_SESSIONS
            .get_or_init(|| gcnrl_telemetry::global().histogram("service.round.sessions"))
            .record(sessions.len() as u64);
        ROUND_CANDIDATES
            .get_or_init(|| gcnrl_telemetry::global().histogram("service.round.candidates"))
            .record(round.iter().map(|r| r.params.len() as u64).sum());
    }
    let mega: Vec<ParamVector> = round
        .iter()
        .flat_map(|request| request.params.iter().cloned())
        .collect();
    let outcomes: Vec<RoundOutcome> = match evaluate(state, &mega) {
        Ok(reports) => {
            let mut rest = reports.as_slice();
            round
                .iter()
                .map(|request| {
                    let (mine, tail) = rest.split_at(request.params.len());
                    rest = tail;
                    Ok(mine.to_vec())
                })
                .collect()
        }
        Err(message) if round.len() == 1 => vec![Err(message)],
        // Some request of the round panicked the evaluator. Evaluate each
        // request alone, so only the requests that fail on their own fail,
        // each with its own message.
        Err(_) => round
            .iter()
            .map(|request| evaluate(state, &request.params))
            .collect(),
    };

    let shared_round = round.len() > 1
        && round
            .iter()
            .any(|request| request.session != round[0].session);
    let mut sessions = state.sessions.lock().expect("service sessions lock");
    for (request, outcome) in round.into_iter().zip(outcomes) {
        if let (Ok(reports), Some(stats)) = (&outcome, sessions.get_mut(&request.session)) {
            stats.resolved += 1;
            stats.candidates += reports.len() as u64;
            if shared_round {
                stats.shared_rounds += 1;
            }
        }
        // A dropped waiter (abandoned session) is not an error.
        let _ = request.reply.send(outcome);
        state.pending.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One engine batch, with an evaluator panic caught and turned into its
/// message, so the dispatcher keeps serving later requests.
fn evaluate(state: &DispatchState, params: &[ParamVector]) -> RoundOutcome {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        state.engine.evaluate_batch(params)
    }))
    .map_err(|payload| Arc::new(panic_message(payload.as_ref())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::testing::LatencyEvaluator;
    use crate::EvalBackend;
    use gcnrl_circuit::{benchmarks::Benchmark, ComponentParams, TechnologyNode};
    use std::time::Duration;

    fn latency_service(delay_ms: u64, cap: usize) -> EvalService {
        EvalService::new(
            BatchEvaluator::new(
                Box::new(LatencyEvaluator::new(Duration::from_millis(delay_ms))),
                EngineConfig::serial(),
            ),
            ServiceConfig::default().with_max_round_candidates(cap),
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
    fn concurrent_identical_submissions_are_deduplicated_in_flight() {
        // 30ms latency: the first round occupies the dispatcher long enough
        // for both sessions' identical batches to queue up and coalesce into
        // one engine batch, where the duplicate candidates simulate once.
        let service = latency_service(30, 1024);
        let a = service.session_named("a");
        let b = service.session_named("b");
        let warmup = a.submit(vec![pv(1.0)]);
        std::thread::sleep(Duration::from_millis(5));
        let batch = vec![pv(10.0), pv(20.0), pv(30.0)];
        let pending_a = a.submit(batch.clone());
        let pending_b = b.submit(batch.clone());
        let _ = warmup.wait();
        let ra = pending_a.wait();
        let rb = pending_b.wait();
        assert_eq!(ra, rb);
        let stats = service.engine_stats();
        // 1 warm-up + 3 unique candidates simulated; the duplicated trio is
        // served as in-batch duplicates or cache hits, never re-simulated.
        assert_eq!(stats.simulated, 4);
        assert_eq!(stats.cache_hits, 3);
        let sa = a.session_stats();
        let sb = b.session_stats();
        assert_eq!(sa.candidates, 4);
        assert_eq!(sb.candidates, 3);
        assert!(sa.shared_rounds >= 1, "the trio round was multiplexed");
        assert!(sb.shared_rounds >= 1);
    }

    #[test]
    fn fair_rounds_do_not_let_a_deep_backlog_starve_a_light_session() {
        // Session A queues five two-candidate requests behind a slow first
        // round; session B queues one. The round cap (4 candidates) forces
        // one request per session per round, so B resolves in the first fair
        // round alongside A's oldest request instead of behind A's backlog.
        let service = latency_service(20, 4);
        let a = service.session_named("deep");
        let b = service.session_named("light");
        let first = a.submit(vec![pv(0.0)]);
        std::thread::sleep(Duration::from_millis(5));
        let deep: Vec<PendingBatch> = (0..5)
            .map(|i| a.submit(vec![pv(10.0 + i as f64), pv(20.0 + i as f64)]))
            .collect();
        let light = b.submit(vec![pv(99.0)]);
        let _ = first.wait();

        let order = Arc::new(Mutex::new(Vec::<String>::new()));
        let mut waiters = Vec::new();
        for (i, pending) in deep.into_iter().enumerate() {
            let order = Arc::clone(&order);
            waiters.push(std::thread::spawn(move || {
                let _ = pending.wait();
                order.lock().unwrap().push(format!("deep-{i}"));
            }));
        }
        {
            let order = Arc::clone(&order);
            waiters.push(std::thread::spawn(move || {
                let _ = light.wait();
                order.lock().unwrap().push("light".to_owned());
            }));
        }
        for waiter in waiters {
            waiter.join().expect("waiter thread");
        }
        let order = order.lock().unwrap().clone();
        let position = |label: &str| order.iter().position(|o| o == label).unwrap();
        // B rides the first fair round (possibly alongside deep-0/deep-1,
        // whose completions race with it inside that round); deep-2..4 can
        // only resolve in strictly later rounds.
        assert!(
            position("light") < position("deep-2"),
            "light session starved behind the deep backlog: {order:?}"
        );
        assert!(position("light") < position("deep-3"));
        assert!(position("light") < position("deep-4"));
    }

    #[test]
    fn one_request_per_session_per_sweep_splits_rounds_evenly() {
        // Two sessions with equal backlogs of one-candidate requests: each
        // sweep admits one request per session, so under a 4-candidate round
        // cap each fair round carries two requests of each.
        let requests_of =
            |round: &[Request], session: u64| round.iter().filter(|r| r.session == session).count();
        let mk = |session: u64, r: f64| {
            let (reply, _rx) = channel();
            Request {
                session,
                params: vec![pv(r)],
                reply,
                submitted_at: Instant::now(),
            }
        };
        let mut backlog: VecDeque<Request> = VecDeque::new();
        for i in 0..4 {
            backlog.push_back(mk(0, i as f64));
            backlog.push_back(mk(1, 100.0 + i as f64));
        }
        let round = next_round(&mut backlog, 4);
        assert_eq!(requests_of(&round, 0), 2);
        assert_eq!(requests_of(&round, 1), 2);
    }

    #[test]
    fn retiring_a_session_folds_its_stats_into_the_closed_aggregate() {
        let service = latency_service(0, 1024);
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
        let service = latency_service(10, 1024);
        let session = service.session();
        let pending: Vec<PendingBatch> =
            (0..3).map(|i| session.submit(vec![pv(i as f64)])).collect();
        service.shutdown();
        assert!(!service.is_open());
        for (i, p) in pending.into_iter().enumerate() {
            let reports = p.wait();
            assert_eq!(reports.len(), 1, "queued request {i} must resolve");
        }
        assert!(session.try_submit(vec![pv(7.0)]).is_err());
        assert_eq!(service.engine_stats().simulated, 3);
        // Shutdown is idempotent.
        service.shutdown();
    }

    #[test]
    fn evaluator_panics_fail_the_waiting_request_with_the_original_message() {
        const SLOW: f64 = 999.0;
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
                if flat == SLOW {
                    std::thread::sleep(Duration::from_millis(200));
                }
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

        // A slow request of a third session holds the dispatcher while a
        // healthy and a poisoned request of two more sessions queue, so both
        // ride the next round: only the poisoned one may fail.
        let holder = service.session_named("holder");
        let healthy = service.session_named("healthy");
        let poisoned = service.session_named("poisoned");
        let slow = holder.submit(vec![pv(SLOW)]);
        std::thread::sleep(Duration::from_millis(50));
        let fine = healthy.submit(vec![pv(2.0)]);
        let bad = poisoned.submit(vec![pv(668.0)]);
        assert_eq!(slow.wait().len(), 1);
        let solo = BatchEvaluator::new(
            Box::new(LatencyEvaluator::new(Duration::ZERO)),
            EngineConfig::serial(),
        );
        assert_eq!(fine.try_wait(), Ok(solo.evaluate_batch(&[pv(2.0)])));
        assert_eq!(
            healthy.session_stats().shared_rounds,
            1,
            "the healthy request was dispatched with the poisoned one"
        );
        let message = bad.try_wait().expect_err("the poisoned request must fail");
        assert!(
            message.contains("R668"),
            "the poisoned request must fail with its own message; got `{message}`"
        );
    }

    #[test]
    fn empty_batches_resolve_without_touching_the_queue() {
        let service = latency_service(50, 1024);
        let session = service.session();
        assert!(session.evaluate_batch(&[]).is_empty());
        assert_eq!(session.session_stats().submitted, 0);
    }

    #[test]
    fn dropping_the_last_handle_shuts_the_dispatcher_down() {
        let service = latency_service(1, 1024);
        let session = service.session();
        drop(service);
        // The session keeps the service alive and usable...
        assert_eq!(session.evaluate_batch(&[pv(1.0)]).len(), 1);
        // ...and dropping it tears the dispatcher down (nothing to assert
        // beyond "this returns rather than hanging").
        drop(session);
    }
}
