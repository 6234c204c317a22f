//! `serve_cached`: a closed loop of two pipelined `RemoteBackend` clients
//! against one in-process `EvalServer` on loopback. Most candidates repeat
//! from a shared seeded pool, so most are served from the engine cache.

use crate::common::{self, engine_config, node, same_report};
use crate::layers::{self, exec_delta, SolverMark};
use crate::report::{peak_rss_mb, Chunk, Outcome};
use crate::trace::{thread_tag, TimedEvaluator, Tracer};
use gcnrl::{EvalService, ExecStats, FomConfig, ServiceConfig, SessionHandle};
use gcnrl_circuit::{benchmarks::Benchmark, DesignSpace, ParamVector};
use gcnrl_exec::BatchEvaluator;
use gcnrl_serve::{
    EvalServer, RegistryConfig, RemoteBackend, RemoteConfig, ServerConfig, ServerStats,
};
use gcnrl_sim::evaluators::evaluator_for;
use gcnrl_sim::PerformanceReport;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

const BENCHMARK: Benchmark = Benchmark::TwoStageTia;
const CLIENTS: usize = 2;
/// Batches each client keeps in flight.
const WINDOW: usize = 4;
const BATCH: usize = 8;
/// Distinct candidates in the shared pool.
const POOL: usize = 2048;
/// `best_fom` averages the best this-many pool designs.
const BEST: usize = POOL / 10;
/// Probability that a candidate is drawn from the pool rather than fresh.
const REPEAT: f64 = 0.9;
const TAIL: f64 = 99.0;
/// Answered batches per timing chunk (about 0.1 s).
const CHUNK_BATCHES: usize = 256;
/// Server cache entries: the pool plus the most recent fresh candidates.
const SERVER_CACHE: usize = 2 * POOL;

/// The generated inputs: the shared pool and its reference reports from a
/// solo local engine.
struct Inputs {
    seed: u64,
    space: DesignSpace,
    pool: Vec<ParamVector>,
    reference: Vec<PerformanceReport>,
}

impl Inputs {
    fn new(seed: u64) -> Self {
        let space = BENCHMARK.circuit().design_space(&node());
        let mut rng = StdRng::seed_from_u64(seed);
        let pool: Vec<ParamVector> = (0..POOL).map(|_| random_design(&space, &mut rng)).collect();
        let reference = BatchEvaluator::for_benchmark(BENCHMARK, &node(), engine_config())
            .evaluate_batch(&pool);
        Inputs {
            seed,
            space,
            pool,
            reference,
        }
    }

    /// Batch `index` of client `client`: each candidate is a pool entry
    /// (`Some(i)`) or a fresh design (`None`).
    fn batch(&self, client: usize, index: usize) -> (Vec<ParamVector>, Vec<Option<usize>>) {
        let mut rng = StdRng::seed_from_u64(
            self.seed ^ ((client as u64 + 1) << 48) ^ (index as u64).wrapping_mul(0x9e37_79b9),
        );
        (0..BATCH)
            .map(|_| {
                if rng.gen::<f64>() < REPEAT {
                    let i = rng.gen_range(0..POOL);
                    (self.pool[i].clone(), Some(i))
                } else {
                    (random_design(&self.space, &mut rng), None)
                }
            })
            .unzip()
    }
}

fn random_design(space: &DesignSpace, rng: &mut StdRng) -> ParamVector {
    let unit: Vec<f64> = (0..space.num_parameters()).map(|_| rng.gen()).collect();
    space.from_unit(&unit)
}

/// A submitted batch; calling it blocks until the reply arrives.
type Pending = Box<dyn FnOnce() -> Result<Vec<PerformanceReport>, String>>;

/// A pipelined client: a remote connection or a local service session.
trait Client: Sync {
    fn submit(&self, batch: Vec<ParamVector>) -> Result<Pending, String>;
}

impl Client for RemoteBackend {
    fn submit(&self, batch: Vec<ParamVector>) -> Result<Pending, String> {
        let pending = self.submit_batch(&batch).map_err(|e| e.to_string())?;
        Ok(Box::new(move || pending.wait().map_err(|e| e.to_string())))
    }
}

impl Client for SessionHandle {
    fn submit(&self, batch: Vec<ParamVector>) -> Result<Pending, String> {
        let pending = self.try_submit(batch).map_err(|e| e.to_string())?;
        Ok(Box::new(move || pending.try_wait()))
    }
}

/// When a client stops submitting.
#[derive(Clone, Copy)]
enum Stop {
    After(f64),
    Batches(usize),
}

/// What one client thread saw.
#[derive(Default)]
struct ClientLog {
    id: usize,
    thread: u32,
    wall: f64,
    batches: usize,
    candidates: u64,
    failed: u64,
    /// Submit-to-reply seconds of every answered batch.
    latencies: Vec<f64>,
    /// When each answered batch completed, in seconds since the phase began.
    done: Vec<f64>,
    errors: Vec<String>,
    /// `(batch, position, reply digest)` of every fresh candidate, checked
    /// after the loop (the candidate is regenerated from its position).
    fresh: Vec<(usize, usize, u64)>,
}

/// The closed loop of one client: keep `WINDOW` batches in flight, check
/// every reply. With a tracer, submits, waits and checks are spans.
fn client_loop<C: Client>(
    client: &C,
    inputs: &Inputs,
    id: usize,
    stop: Stop,
    phase: Instant,
    tracer: Option<&Tracer>,
) -> ClientLog {
    let mut log = ClientLog {
        id,
        thread: thread_tag(),
        ..ClientLog::default()
    };
    let start = Instant::now();
    let mut inflight = VecDeque::with_capacity(WINDOW);
    loop {
        while inflight.len() < WINDOW
            && match stop {
                Stop::After(seconds) => start.elapsed().as_secs_f64() < seconds,
                Stop::Batches(n) => log.batches < n,
            }
        {
            let submitted = span(tracer, "bench.generate_submit", || {
                let (params, picks) = inputs.batch(id, log.batches);
                let sent = Instant::now();
                (sent, client.submit(params), log.batches, picks)
            });
            inflight.push_back(submitted);
            log.batches += 1;
        }
        let Some((sent, pending, index, picks)) = inflight.pop_front() else {
            break;
        };
        let reply = span(tracer, "serve.wait", || pending.and_then(|wait| wait()));
        log.latencies.push(sent.elapsed().as_secs_f64());
        log.done.push(phase.elapsed().as_secs_f64());
        span(tracer, "bench.check", || {
            check_reply(&mut log, inputs, reply, index, &picks)
        });
    }
    log.wall = start.elapsed().as_secs_f64();
    log
}

/// Runs `f` inside a span when tracing.
fn span<R>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(tracer) => tracer.time(name, f),
        None => f(),
    }
}

fn check_reply(
    log: &mut ClientLog,
    inputs: &Inputs,
    reply: Result<Vec<PerformanceReport>, String>,
    index: usize,
    picks: &[Option<usize>],
) {
    let reports = match reply {
        Ok(reports) if reports.len() == picks.len() => reports,
        Ok(reports) => {
            log.errors.push(format!(
                "{} reports for {} candidates",
                reports.len(),
                picks.len()
            ));
            log.failed += picks.len() as u64;
            return;
        }
        Err(_) => {
            log.failed += picks.len() as u64;
            return;
        }
    };
    log.candidates += picks.len() as u64;
    for (position, (report, pick)) in reports.iter().zip(picks).enumerate() {
        match pick {
            Some(i) if !same_report(report, &inputs.reference[*i]) => {
                log.errors
                    .push(format!("pool candidate {i} differs from the local engine"));
            }
            Some(_) => {}
            None => log.fresh.push((index, position, digest(report))),
        }
    }
}

/// A hash of every bit of a report.
fn digest(report: &PerformanceReport) -> u64 {
    let mut hasher = DefaultHasher::new();
    report.feasible.hash(&mut hasher);
    for (name, value) in report.iter() {
        name.hash(&mut hasher);
        value.to_bits().hash(&mut hasher);
    }
    hasher.finish()
}

/// Runs `CLIENTS` client threads; returns their logs and the phase wall time.
fn closed_loop<C: Client>(
    clients: &[C],
    inputs: &Inputs,
    stops: &[Stop],
    tracer: Option<&Tracer>,
) -> (Vec<ClientLog>, f64) {
    let start = Instant::now();
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter()
            .zip(stops)
            .enumerate()
            .map(|(id, (client, stop))| {
                scope.spawn(move || client_loop(client, inputs, id, *stop, start, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (logs, start.elapsed().as_secs_f64())
}

/// Folds the client logs into the outcome's counts and checks. Fresh
/// candidates are checked against a solo local engine here, outside the
/// timed loop, a chunk at a time so the check holds little memory.
fn absorb(outcome: &mut Outcome, inputs: &Inputs, logs: &mut [ClientLog], phase: &str) {
    const CHUNK: usize = 256;
    let local = BatchEvaluator::for_benchmark(
        BENCHMARK,
        &node(),
        engine_config().with_cache_capacity(CHUNK),
    );
    for log in logs.iter_mut() {
        outcome.attempted += (log.batches * BATCH) as u64;
        outcome.failed += log.failed;
        for error in log.errors.drain(..) {
            outcome.errors.push(format!("{phase}: {error}"));
        }
        let mut differ = 0;
        for chunk in log.fresh.chunks(CHUNK) {
            let params: Vec<ParamVector> = chunk
                .iter()
                .map(|&(index, position, _)| inputs.batch(log.id, index).0.swap_remove(position))
                .collect();
            let reference = local.evaluate_batch(&params);
            differ += chunk
                .iter()
                .zip(&reference)
                .filter(|((_, _, reply), local)| *reply != digest(local))
                .count();
        }
        log.fresh.clear();
        outcome.check(differ == 0, || {
            format!("{phase}: {differ} fresh candidates differ from the local engine")
        });
    }
}

fn server_config() -> ServerConfig {
    ServerConfig {
        registry: RegistryConfig {
            cache_budget: SERVER_CACHE,
            cache_slots: 1,
            service: ServiceConfig::default(),
            engine: engine_config(),
        },
        workers: CLIENTS,
        ..ServerConfig::default()
    }
}

/// A running server and its connected clients (clients drop first).
struct Stack {
    clients: Vec<RemoteBackend>,
    server: EvalServer,
}

/// Binds a server and connects the clients. With a tracer, the server's
/// Two-TIA service evaluates through a [`TimedEvaluator`].
fn build_stack(tracer: Option<&Arc<Tracer>>) -> Stack {
    let config = server_config();
    let server = EvalServer::bind("127.0.0.1:0", config.clone()).expect("bind loopback server");
    if let Some(tracer) = tracer {
        // What the registry would build for the service, with a timed evaluator.
        let timed = TimedEvaluator::new(evaluator_for(BENCHMARK, &node()), Arc::clone(tracer));
        let engine = BatchEvaluator::new(
            Box::new(timed),
            config
                .registry
                .engine
                .clone()
                .with_cache_capacity(config.registry.cache_share()),
        );
        server.registry().insert_service(
            BENCHMARK,
            &node(),
            EvalService::new(engine, config.registry.service.clone()),
        );
    }
    let clients = (0..CLIENTS)
        .map(|i| {
            let remote = RemoteConfig {
                session: Some(format!("client-{i}")),
                pipeline: WINDOW,
                ..RemoteConfig::default()
            };
            RemoteBackend::connect_with(server.local_addr(), BENCHMARK, &node(), remote)
                .expect("connect to the loopback server")
        })
        .collect();
    Stack { clients, server }
}

/// Sends every pool candidate once through `client`, so the timed loop
/// starts on a warm cache.
fn warm<C: Client>(outcome: &mut Outcome, client: &C, inputs: &Inputs) {
    for (chunk, reference) in inputs
        .pool
        .chunks(BATCH)
        .zip(inputs.reference.chunks(BATCH))
    {
        let ok = client
            .submit(chunk.to_vec())
            .and_then(|wait| wait())
            .is_ok_and(|reports| {
                reports
                    .iter()
                    .zip(reference)
                    .all(|(a, b)| same_report(a, b))
            });
        outcome.check(ok, || {
            "cache warm-up reply differs from the local engine".into()
        });
    }
}

/// Engine statistics of the server's Two-TIA service.
fn server_engine(stats: &ServerStats) -> ExecStats {
    stats
        .services
        .iter()
        .map(|s| s.engine)
        .next()
        .unwrap_or_default()
}

/// Evaluation requests submitted to the server's services, live and closed.
fn submitted(stats: &ServerStats) -> u64 {
    stats
        .services
        .iter()
        .map(|s| s.closed.submitted + s.sessions.iter().map(|x| x.submitted).sum::<u64>())
        .sum()
}

/// Closes the clients, drains the server and checks nothing stays connected.
fn drain(outcome: &mut Outcome, stack: Stack) -> ServerStats {
    for client in stack.clients {
        let closed = client.goodbye();
        outcome.check(closed.is_ok(), || format!("goodbye failed: {closed:?}"));
    }
    stack.server.shutdown();
    let stats = stack.server.stats();
    outcome.check(stats.connections_active == 0, || {
        format!(
            "{} connections still active after the drain",
            stats.connections_active
        )
    });
    stats
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut outcome = Outcome::default();
    let setup = || (common::calibrate(BENCHMARK), build_stack(None));
    let ((fom, stack), mut setup_times) = common::timed_setup(common::SETUP_BEFORE, setup);
    let inputs = Inputs::new(seed);
    warm(&mut outcome, &stack.clients[0], &inputs);
    if trace {
        traced(&mut outcome, stack, &inputs, seconds);
        return outcome;
    }
    let stops = [Stop::After(seconds); CLIENTS];
    let (mut logs, wall) = closed_loop(&stack.clients, &inputs, &stops, None);
    let candidates: u64 = logs.iter().map(|l| l.candidates).sum();
    let chunks = chunks(&logs, seconds);
    absorb(&mut outcome, &inputs, &mut logs, "remote");
    drain(&mut outcome, stack);
    setup_times.extend(common::timed_setup(common::SETUP_AFTER, setup).1);
    common::record_setup(&mut outcome, setup_times);
    outcome.set_chunks(
        &chunks,
        TAIL,
        &format!("{CHUNK_BATCHES} batches each; a step is one batch from submit to reply"),
    );
    let best = best_pool_fom(&fom, &inputs);
    outcome.set("best_fom", best - common::fom_floor(&fom));
    outcome.notes.push(format!(
        "best_fom: mean FoM {best:.6} of the best {BEST} pool designs, reported above the FoM floor {}",
        common::fom_floor(&fom)
    ));
    outcome.set("peak_rss_mb", peak_rss_mb());
    outcome.notes.push(format!(
        "{CLIENTS} clients x {WINDOW} batches of {BATCH} in flight; {candidates} candidates in {wall:.3} s"
    ));
    outcome
}

/// The batches answered in the first `seconds` of the phase (before the
/// clients stop submitting and drain), cut in completion order into chunks
/// of `CHUNK_BATCHES`; a chunk's wall time runs from the previous chunk's
/// last completion to its own.
fn chunks(logs: &[ClientLog], seconds: f64) -> Vec<Chunk> {
    let mut answered: Vec<(f64, f64)> = logs
        .iter()
        .flat_map(|log| log.done.iter().copied().zip(log.latencies.iter().copied()))
        .filter(|&(done, _)| done <= seconds)
        .collect();
    answered.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut since = 0.0;
    answered
        .chunks_exact(CHUNK_BATCHES)
        .map(|batches| {
            let last = batches[batches.len() - 1].0;
            let chunk = Chunk {
                group: 0,
                candidates: batches.len() * BATCH,
                wall: last - since,
                steps: batches.iter().map(|b| b.1).collect(),
            };
            since = last;
            chunk
        })
        .collect()
}

/// The mean FoM of the best `BEST` pool designs (every pool reply is
/// checked bit-identical to its reference report).
fn best_pool_fom(fom: &FomConfig, inputs: &Inputs) -> f64 {
    let mut foms: Vec<f64> = inputs.reference.iter().map(|r| fom.fom(r)).collect();
    foms.sort_by(|a, b| b.total_cmp(a));
    foms[..BEST].iter().sum::<f64>() / BEST as f64
}

/// Three phases over the same batches, each on a fresh warm cache: untraced
/// remote (a third of the time), traced remote, and a local `EvalService`
/// with the same clients and windows but no wire.
fn traced(outcome: &mut Outcome, stack: Stack, inputs: &Inputs, seconds: f64) {
    let stops = [Stop::After(seconds / 3.0); CLIENTS];
    let (mut logs, untraced_wall) = closed_loop(&stack.clients, inputs, &stops, None);
    absorb(outcome, inputs, &mut logs, "remote");
    drain(outcome, stack);
    let replay: Vec<Stop> = logs.iter().map(|l| Stop::Batches(l.batches)).collect();

    let tracer = Tracer::new();
    let traced_stack = build_stack(Some(&tracer));
    warm(outcome, &traced_stack.clients[0], inputs);
    tracer.clear();
    let before = traced_stack.server.stats();
    let solver = SolverMark::now();
    let (mut logs, traced_wall) =
        closed_loop(&traced_stack.clients, inputs, &replay, Some(&tracer));
    let solver = solver.delta();
    absorb(outcome, inputs, &mut logs, "traced remote");
    let after = drain(outcome, traced_stack);
    let trace = tracer.summary();
    let engine = exec_delta(&server_engine(&after), &server_engine(&before));
    layers::record_eval_path(outcome, &trace, &engine, &solver);
    outcome.set(
        "serve.requests",
        (submitted(&after) - submitted(&before)) as f64,
    );
    outcome.set("serve.connections_total", after.connections_total as f64);
    outcome.set("serve.admission_rejected", after.admission_rejected as f64);
    let walls: Vec<(u32, f64)> = logs.iter().map(|l| (l.thread, l.wall)).collect();
    layers::record_attribution(outcome, &trace, &walls, untraced_wall, traced_wall);

    // The same engine and dispatcher settings as the server's service.
    let registry = server_config().registry;
    let engine = registry
        .engine
        .clone()
        .with_cache_capacity(registry.cache_share());
    let service = EvalService::new(
        BatchEvaluator::for_benchmark(BENCHMARK, &node(), engine),
        registry.service,
    );
    let sessions: Vec<SessionHandle> = (0..CLIENTS).map(|_| service.session()).collect();
    warm(outcome, &sessions[0], inputs);
    let before = service.engine_stats();
    let (mut logs, local_wall) = closed_loop(&sessions, inputs, &replay, None);
    let local_engine = exec_delta(&service.engine_stats(), &before);
    absorb(outcome, inputs, &mut logs, "local service");
    drop(sessions);
    service.shutdown();
    outcome.set(
        "exec.service.self_s",
        local_wall - local_engine.wall_seconds,
    );
    outcome.set("serve.wire_share", 1.0 - local_wall / untraced_wall);
    outcome.notes.push(format!(
        "same batches: remote {untraced_wall:.3} s, local EvalService {local_wall:.3} s"
    ));
}
