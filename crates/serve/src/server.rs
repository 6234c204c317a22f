//! The network evaluation server: a nonblocking reactor owning every client
//! socket, feeding a small worker pool over the [`ServiceRegistry`].
//!
//! ```text
//!   client A ──TCP──┐                        ┌ worker ┐
//!   client B ──TCP──┤  reactor (poll loop)   ├ worker ┤   EvalService(s)
//!   client C ──TCP──┼─ owns all sockets,  ───┼ worker ┼──(one per benchmark
//!                   │  decodes frames,       └────────┘   + node, shared
//!                   │  submits inline        completions   engine + cache)
//!                   └────────────────────────────────────── ServiceRegistry
//! ```
//!
//! Concurrency model: **one reactor I/O thread, N worker threads**. The
//! reactor does every socket read/write (incremental, `WouldBlock`-tolerant,
//! via [`FrameReader`]/[`FrameWriter`]) and — crucially — submits decoded
//! `EvalBatch` requests onto their [`EvalService`] queue *inline*, so the
//! dispatcher sees the whole pipelined window at once and packs full rounds.
//! Workers only do the blocking part: harvesting resolved batches
//! ([`PendingBatch::try_wait`]), building registry services on handshakes,
//! and serialising response frames off the I/O thread. Completed responses
//! come back through a completion queue plus a loopback wake socket.
//!
//! Connections pipeline freely (responses carry the request `id`, so they
//! may return out of order); each connection carries exactly one session.
//!
//! Shutdown is a graceful drain: the listener drops immediately (freeing
//! the port), every connection keeps being served until it has been quiet
//! for a few poll ticks with nothing in flight, then gets `Goodbye` and
//! closes; [`DRAIN_GRACE`] bounds a client that keeps submitting. Afterwards
//! the workers drain and the registry joins every dispatcher.

use crate::poll::PollSet;
use crate::protocol::{
    encode_frame, ClientMsg, FrameError, FrameReader, FrameWriter, Hello, ServerMsg, Welcome,
    WireStats, DEFAULT_MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use crate::registry::{RegistryConfig, ServiceEntryStats, ServiceRegistry};
use gcnrl_exec::{panic_message, PendingBatch, SessionHandle};
use gcnrl_sim::PerformanceReport;
use gcnrl_telemetry::SpanHandle;
use serde::Serialize;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The reactor's poll tick: how long one readiness wait blocks when nothing
/// is happening (shutdown latency is bounded by it).
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// On shutdown, how long a connection keeps being served before it is
/// force-closed. Each connection says Goodbye once it has been quiet — no
/// frames, nothing in flight — for 3 × [`POLL_INTERVAL`] (one quiet tick
/// cannot distinguish "idle" from "request in transit"), so shutdown costs
/// at least that; the grace window only bounds a client that keeps
/// submitting into the closing server.
const DRAIN_GRACE: Duration = Duration::from_secs(2);

/// Per-connection cap on requests in flight; a client exceeding it gets
/// per-request `Error` frames instead of unbounded server-side state.
const MAX_PIPELINE: usize = 1024;

/// Configuration of an [`EvalServer`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Registry (engine template, cache budget split, service dispatcher)
    /// behind the connections.
    pub registry: RegistryConfig,
    /// Worker threads harvesting resolved batches and serialising
    /// responses. They never run evaluations (the engine has its own pool);
    /// a handful is plenty even at hundreds of connections.
    pub workers: usize,
    /// Admission control: when set, a `Hello` arriving while more than this
    /// many evaluation requests are pending across the registry is rejected
    /// with an `Error{busy}` frame (`GCNRL_SERVE_BACKLOG` in the serve
    /// binary), and `/readyz` reports not-ready. `None` admits
    /// unconditionally.
    pub backlog_limit: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            registry: RegistryConfig::default(),
            workers: 4,
            backlog_limit: None,
        }
    }
}

/// Connection-level counters, serialisable for reports.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServerStats {
    /// Connections accepted since the server started.
    pub connections_total: u64,
    /// Connections currently being served.
    pub connections_active: u64,
    /// Connections rejected during the handshake (version mismatch,
    /// malformed hello).
    pub connections_rejected: u64,
    /// Handshakes turned away by admission control (backlog over
    /// [`ServerConfig::backlog_limit`]).
    pub admission_rejected: u64,
    /// Per-service statistics of every instantiated registry entry.
    pub services: Vec<ServiceEntryStats>,
}

struct ServerShared {
    registry: ServiceRegistry,
    config: ServerConfig,
    shutdown: AtomicBool,
    connections_total: AtomicU64,
    connections_active: AtomicU64,
    connections_rejected: AtomicU64,
    admission_rejected: AtomicU64,
}

/// The evaluation server. Dropping it (or calling [`EvalServer::shutdown`])
/// drains gracefully.
pub struct EvalServer {
    shared: Arc<ServerShared>,
    addr: SocketAddr,
    /// Write end of the reactor's wake socket (a loopback pair): one byte
    /// makes the poll loop spin immediately. Workers hold clones.
    wake: TcpStream,
    reactor: Mutex<Option<JoinHandle<()>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for EvalServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalServer")
            .field("addr", &self.addr)
            .field("registry", &self.shared.registry)
            .finish()
    }
}

/// A connected loopback pair used as a self-wake channel: anything written
/// to the returned writer makes the reader end poll-readable.
fn wake_pair() -> std::io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let tx = TcpStream::connect(listener.local_addr()?)?;
    let (rx, _) = listener.accept()?;
    tx.set_nonblocking(true)?;
    tx.set_nodelay(true)?;
    rx.set_nonblocking(true)?;
    Ok((tx, rx))
}

impl EvalServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
    /// the reactor + worker threads.
    ///
    /// # Errors
    ///
    /// Returns the bind error (address in use, permission, ...).
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (wake_tx, wake_rx) = wake_pair()?;
        let shared = Arc::new(ServerShared {
            registry: ServiceRegistry::new(config.registry.clone()),
            config,
            shutdown: AtomicBool::new(false),
            connections_total: AtomicU64::new(0),
            connections_active: AtomicU64::new(0),
            connections_rejected: AtomicU64::new(0),
            admission_rejected: AtomicU64::new(0),
        });
        let (task_tx, task_rx) = channel::<Task>();
        let task_rx = Arc::new(Mutex::new(task_rx));
        let completions: Arc<Mutex<Vec<Done>>> = Arc::new(Mutex::new(Vec::new()));
        let mut workers = Vec::new();
        for i in 0..shared.config.workers.max(1) {
            let shared = Arc::clone(&shared);
            let task_rx = Arc::clone(&task_rx);
            let completions = Arc::clone(&completions);
            let wake = wake_tx.try_clone()?;
            workers.push(
                std::thread::Builder::new()
                    .name(format!("gcnrl-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &task_rx, &completions, &wake))
                    .expect("spawn gcnrl-serve worker"),
            );
        }
        let reactor = {
            let reactor = Reactor {
                shared: Arc::clone(&shared),
                listener: Some(listener),
                wake_rx,
                tasks: task_tx,
                completions,
                conns: Vec::new(),
                next_gen: 0,
                drain: None,
                poll: PollSet::new(),
            };
            std::thread::Builder::new()
                .name("gcnrl-serve-reactor".to_owned())
                .spawn(move || reactor.run())
                .expect("spawn gcnrl-serve reactor")
        };
        Ok(EvalServer {
            shared,
            addr,
            wake: wake_tx,
            reactor: Mutex::new(Some(reactor)),
            workers: Mutex::new(workers),
        })
    }

    /// The address the server is listening on (with the concrete port when
    /// bound ephemerally).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The registry of per-benchmark services behind the connections.
    pub fn registry(&self) -> &ServiceRegistry {
        &self.shared.registry
    }

    /// Connection counters plus per-service statistics.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            connections_total: self.shared.connections_total.load(Ordering::Relaxed),
            connections_active: self.shared.connections_active.load(Ordering::Relaxed),
            connections_rejected: self.shared.connections_rejected.load(Ordering::Relaxed),
            admission_rejected: self.shared.admission_rejected.load(Ordering::Relaxed),
            services: self.shared.registry.stats(),
        }
    }

    /// Whether this server would currently admit a new session: `Err` with
    /// a reason while draining, or while the same backlog limit that gates
    /// `Hello` frames is exceeded. This is what the `/readyz` endpoint
    /// reports (see [`readiness_check`](Self::readiness_check)).
    ///
    /// # Errors
    ///
    /// The human-readable reason the server is not ready.
    pub fn readiness(&self) -> Result<(), String> {
        readiness_of(&self.shared)
    }

    /// A clonable [`ReadinessCheck`](crate::metrics_http::ReadinessCheck)
    /// over this server's state, for
    /// [`MetricsHttpServer::bind_with`](crate::MetricsHttpServer::bind_with).
    /// The probe holds only the shared server state, so it stays valid (and
    /// reports "draining") across shutdown.
    pub fn readiness_check(&self) -> crate::metrics_http::ReadinessCheck {
        let shared = Arc::clone(&self.shared);
        Arc::new(move || readiness_of(&shared))
    }

    /// Graceful drain: the listener drops (freeing the port), every
    /// connection finishes what is in flight, gets `Goodbye` and closes,
    /// then the workers drain and every service dispatcher joins.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let mut wake = &self.wake;
        let _ = wake.write(&[1]);
        if let Some(reactor) = self.reactor.lock().expect("reactor handle lock").take() {
            let _ = reactor.join();
        }
        // The reactor dropped the task sender on exit; workers finish the
        // queued tasks and stop.
        let workers: Vec<JoinHandle<()>> = self
            .workers
            .lock()
            .expect("worker handles lock")
            .drain(..)
            .collect();
        for worker in workers {
            let _ = worker.join();
        }
        self.shared.registry.shutdown();
    }
}

impl Drop for EvalServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Drain- and admission-aware readiness: the `/readyz` answer.
fn readiness_of(shared: &ServerShared) -> Result<(), String> {
    if shared.shutdown.load(Ordering::SeqCst) {
        return Err("draining: shutdown in progress".to_owned());
    }
    shared
        .registry
        .admission_report(shared.config.backlog_limit)
}

/// Work handed from the reactor to the worker pool. Every task carries the
/// connection's slab token + generation so a completion for a
/// since-closed connection is recognised and discarded.
enum Task {
    /// Build (or look up) the registry service for a handshake and open the
    /// connection's session.
    Hello {
        token: usize,
        gen: u64,
        hello: Hello,
        peer: SocketAddr,
    },
    /// Harvest a batch the reactor already submitted to its service.
    Wait {
        token: usize,
        gen: u64,
        id: u64,
        pending: PendingBatch,
        /// The request's `serve.request.ns` server segment; finished once
        /// the batch resolves.
        segment: Option<SpanHandle>,
    },
}

/// A worker's result, applied to the connection by the reactor.
struct Done {
    token: usize,
    gen: u64,
    /// Pre-serialised response frames to queue on the connection.
    frames: Vec<Vec<u8>>,
    /// The handshake finished (success or failure) — resume reading.
    handshake_done: bool,
    /// The handshake succeeded: the connection's session.
    session: Option<SessionHandle>,
    /// One in-flight batch completed.
    request_done: bool,
    /// Close the connection once the queued frames flush.
    close: bool,
}

impl Done {
    fn base(token: usize, gen: u64) -> Self {
        Done {
            token,
            gen,
            frames: Vec::new(),
            handshake_done: false,
            session: None,
            request_done: false,
            close: false,
        }
    }
}

/// Serialises an `Error` response.
fn error_frame(id: Option<u64>, message: String) -> Vec<u8> {
    encode_frame(&ServerMsg::Error { id, message }).unwrap_or_default()
}

/// The name of the first non-finite metric value in `reports`, if any.
fn first_non_finite(reports: &[PerformanceReport]) -> Option<String> {
    reports.iter().find_map(|report| {
        report
            .iter()
            .find(|(_, value)| !value.is_finite())
            .map(|(name, _)| name.to_owned())
    })
}

fn worker_loop(
    shared: &ServerShared,
    tasks: &Mutex<Receiver<Task>>,
    completions: &Mutex<Vec<Done>>,
    wake: &TcpStream,
) {
    loop {
        // Take the receiver lock only to pull one task; blocking in recv
        // while holding it would serialise the pool.
        let task = match tasks.lock().expect("worker task lock").try_recv() {
            Ok(task) => Some(task),
            Err(std::sync::mpsc::TryRecvError::Disconnected) => return,
            Err(std::sync::mpsc::TryRecvError::Empty) => None,
        };
        let task = match task {
            Some(task) => task,
            None => {
                // Queue empty: block in recv_timeout under the lock — other
                // idle workers just wait their turn for the lock, and a
                // short timeout keeps them rotating.
                match tasks
                    .lock()
                    .expect("worker task lock")
                    .recv_timeout(Duration::from_millis(20))
                {
                    Ok(task) => task,
                    Err(std::sync::mpsc::RecvTimeoutError::Timeout) => continue,
                    Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return,
                }
            }
        };
        let done = process_task(shared, task);
        completions
            .lock()
            .expect("completion queue lock")
            .push(done);
        // One byte on the wake socket spins the reactor; WouldBlock means
        // bytes are already pending, which wakes it just the same.
        let mut wake = wake;
        let _ = wake.write(&[1]);
    }
}

fn process_task(shared: &ServerShared, task: Task) -> Done {
    match task {
        Task::Hello {
            token,
            gen,
            hello,
            peer,
        } => {
            let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let service = shared.registry.service_for(hello.benchmark, &hello.node);
                let name = hello.session.clone().unwrap_or_else(|| peer.to_string());
                let session = service.session_named(name.clone());
                let specs = service.engine().metric_specs().to_vec();
                (session, name, specs)
            }));
            let mut done = Done::base(token, gen);
            done.handshake_done = true;
            match built {
                Ok((session, name, specs)) => {
                    done.frames.push(
                        encode_frame(&ServerMsg::Welcome(Welcome {
                            version: PROTOCOL_VERSION,
                            session: name,
                            metric_specs: specs,
                        }))
                        .unwrap_or_default(),
                    );
                    done.session = Some(session);
                }
                Err(payload) => {
                    shared.connections_rejected.fetch_add(1, Ordering::Relaxed);
                    done.frames.push(error_frame(
                        None,
                        format!("handshake failed: {}", panic_message(payload.as_ref())),
                    ));
                    done.close = true;
                }
            }
            done
        }
        Task::Wait {
            token,
            gen,
            id,
            pending,
            mut segment,
        } => {
            let mut done = Done::base(token, gen);
            done.request_done = true;
            let outcome = pending.try_wait();
            // The server segment closes when the batch resolves: its
            // duration covers submit→harvest, and finishing it files the
            // segment with the flight recorder (the parent lives in the
            // client process).
            if let Some(segment) = segment.as_mut() {
                segment.finish();
            }
            let frame = match outcome {
                Ok(reports) => match first_non_finite(&reports) {
                    // JSON cannot carry inf/NaN losslessly (they render as
                    // null); failing the request loudly beats silently
                    // corrupting a value and breaking the bit-exactness the
                    // remote path promises. No current evaluator emits
                    // non-finite metrics, so this is a guard, not a path.
                    None => {
                        encode_frame(&ServerMsg::BatchResult { id, reports }).unwrap_or_default()
                    }
                    Some(metric) => error_frame(
                        Some(id),
                        format!(
                            "metric `{metric}` is non-finite and cannot travel \
                             losslessly over the JSON wire"
                        ),
                    ),
                },
                Err(message) => error_frame(Some(id), message),
            };
            done.frames.push(frame);
            done
        }
    }
}

/// One client socket owned by the reactor.
struct Conn {
    stream: TcpStream,
    peer: SocketAddr,
    /// Generation stamp distinguishing this connection from a later one
    /// reusing the same slab slot (stale completions are discarded).
    gen: u64,
    reader: FrameReader,
    writer: FrameWriter,
    /// A `Hello` is with a worker; reads pause until it returns.
    handshaking: bool,
    /// The session the handshake opened; until then, the next frame must be
    /// a `Hello`.
    session: Option<SessionHandle>,
    /// Requests handed to workers and not yet completed.
    in_flight: usize,
    /// The client said Goodbye; acknowledge once everything in flight is
    /// answered.
    goodbye_wanted: bool,
    /// Goodbye is queued; stop reading, close after the flush.
    goodbye_queued: bool,
    /// Close once the write buffer drains and nothing is in flight.
    close_after_flush: bool,
    /// The transport failed; close immediately.
    dead: bool,
    /// When the last complete frame arrived (drain quiescence check).
    last_frame: Instant,
    /// When the connection was accepted (handshake latency span).
    opened_at: Instant,
}

impl Conn {
    fn new(stream: TcpStream, peer: SocketAddr, gen: u64) -> Self {
        let now = Instant::now();
        Conn {
            stream,
            peer,
            gen,
            reader: FrameReader::new(),
            writer: FrameWriter::new(),
            handshaking: false,
            session: None,
            in_flight: 0,
            goodbye_wanted: false,
            goodbye_queued: false,
            close_after_flush: false,
            dead: false,
            last_frame: now,
            opened_at: now,
        }
    }

    fn wants_read(&self) -> bool {
        !self.dead && !self.handshaking && !self.close_after_flush && !self.goodbye_queued
    }

    fn closable(&self) -> bool {
        self.dead
            || (self.close_after_flush
                && self.writer.is_empty()
                && self.in_flight == 0
                && !self.handshaking)
    }

    fn queue_msg<T: Serialize>(&mut self, msg: &T) {
        if let Ok(frame) = encode_frame(msg) {
            self.writer.queue_frame(&frame);
        }
    }

    fn queue_error(&mut self, id: Option<u64>, message: String) {
        self.writer.queue_frame(&error_frame(id, message));
    }
}

fn connections_gauge() -> &'static Arc<gcnrl_telemetry::Gauge> {
    static GAUGE: OnceLock<Arc<gcnrl_telemetry::Gauge>> = OnceLock::new();
    GAUGE.get_or_init(|| gcnrl_telemetry::global().gauge("serve.connections"))
}

fn pipeline_depth_hist() -> &'static Arc<gcnrl_telemetry::Histogram> {
    static HIST: OnceLock<Arc<gcnrl_telemetry::Histogram>> = OnceLock::new();
    HIST.get_or_init(|| gcnrl_telemetry::global().histogram("serve.pipeline_depth"))
}

fn reactor_wake_hist() -> &'static Arc<gcnrl_telemetry::Histogram> {
    static HIST: OnceLock<Arc<gcnrl_telemetry::Histogram>> = OnceLock::new();
    HIST.get_or_init(|| gcnrl_telemetry::global().histogram("serve.reactor_wake.ns"))
}

fn handshake_hist() -> &'static Arc<gcnrl_telemetry::Histogram> {
    static HIST: OnceLock<Arc<gcnrl_telemetry::Histogram>> = OnceLock::new();
    HIST.get_or_init(|| gcnrl_telemetry::global().histogram("serve.handshake.ns"))
}

fn frame_read_hist() -> &'static Arc<gcnrl_telemetry::Histogram> {
    static HIST: OnceLock<Arc<gcnrl_telemetry::Histogram>> = OnceLock::new();
    HIST.get_or_init(|| gcnrl_telemetry::global().histogram("serve.frame_read.ns"))
}

fn frame_write_hist() -> &'static Arc<gcnrl_telemetry::Histogram> {
    static HIST: OnceLock<Arc<gcnrl_telemetry::Histogram>> = OnceLock::new();
    HIST.get_or_init(|| gcnrl_telemetry::global().histogram("serve.frame_write.ns"))
}

/// Writes as much buffered output as the socket accepts; a transport error
/// kills the connection.
fn flush_conn(conn: &mut Conn) {
    if conn.dead || conn.writer.is_empty() {
        return;
    }
    let started = Instant::now();
    match conn.writer.flush_into(&mut conn.stream) {
        Ok(_) => frame_write_hist().record_duration(started.elapsed()),
        Err(_) => conn.dead = true,
    }
}

struct Reactor {
    shared: Arc<ServerShared>,
    listener: Option<TcpListener>,
    wake_rx: TcpStream,
    tasks: Sender<Task>,
    completions: Arc<Mutex<Vec<Done>>>,
    /// Connection slab; slots are reused, generations disambiguate.
    conns: Vec<Option<Conn>>,
    next_gen: u64,
    /// Set when the drain begins: the force-close deadline.
    drain: Option<Instant>,
    poll: PollSet,
}

impl Reactor {
    fn run(mut self) {
        loop {
            if self.shared.shutdown.load(Ordering::SeqCst) && self.drain.is_none() {
                self.drain = Some(Instant::now() + DRAIN_GRACE);
                // Free the port immediately so a restarted server can bind.
                self.listener = None;
                // Give every connection a fresh quiet window: frames already
                // in the kernel buffer still get read and answered.
                let now = Instant::now();
                for conn in self.conns.iter_mut().flatten() {
                    conn.last_frame = now;
                }
            }
            let touched = self.apply_completions();
            let had_completions = !touched.is_empty();
            for slot in touched {
                self.pump_read(slot);
            }
            if self.drain.is_some() {
                self.drain_tick();
            }
            self.sweep_closes();
            if self.drain.is_some() && self.conns.iter().all(Option::is_none) {
                return;
            }

            // Register interest: read while the connection accepts frames,
            // write only while output is buffered.
            self.poll.clear();
            let wake_token = self.poll.register(&self.wake_rx, true, false);
            let listener_token = match &self.listener {
                Some(listener) => Some(self.poll.register(listener, true, false)),
                None => None,
            };
            let mut conn_tokens: Vec<(usize, usize)> = Vec::new();
            for (slot, conn) in self.conns.iter().enumerate() {
                let Some(conn) = conn else { continue };
                let read = conn.wants_read();
                let write = !conn.writer.is_empty() && !conn.dead;
                if read || write {
                    conn_tokens.push((slot, self.poll.register(&conn.stream, read, write)));
                }
            }
            let mut timeout = POLL_INTERVAL;
            if let Some(deadline) = self.drain {
                timeout = timeout.min(deadline.saturating_duration_since(Instant::now()));
            }
            let _ = self.poll.wait(timeout.max(Duration::from_millis(1)));

            let started = Instant::now();
            let mut worked = had_completions;
            if self.poll.readable(wake_token) {
                worked = true;
                let mut buf = [0u8; 256];
                let mut wake = &self.wake_rx;
                while matches!(wake.read(&mut buf), Ok(n) if n > 0) {}
            }
            if listener_token.is_some_and(|token| self.poll.readable(token)) {
                worked = true;
                self.accept_new();
            }
            let events: Vec<(usize, bool, bool)> = conn_tokens
                .into_iter()
                .map(|(slot, token)| (slot, self.poll.readable(token), self.poll.writable(token)))
                .collect();
            for (slot, readable, writable) in events {
                if writable {
                    if let Some(conn) = self.conns[slot].as_mut() {
                        flush_conn(conn);
                    }
                }
                if readable {
                    self.pump_read(slot);
                }
                worked |= readable || writable;
            }
            if worked {
                reactor_wake_hist().record_duration(started.elapsed());
            }
        }
    }

    fn accept_new(&mut self) {
        let Some(listener) = self.listener.take() else {
            return;
        };
        loop {
            match listener.accept() {
                Ok((stream, peer)) => {
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    self.shared
                        .connections_total
                        .fetch_add(1, Ordering::Relaxed);
                    self.shared
                        .connections_active
                        .fetch_add(1, Ordering::Relaxed);
                    connections_gauge().inc();
                    self.next_gen += 1;
                    let conn = Conn::new(stream, peer, self.next_gen);
                    match self.conns.iter().position(Option::is_none) {
                        Some(slot) => self.conns[slot] = Some(conn),
                        None => self.conns.push(Some(conn)),
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                // Transient accept failure (e.g. EMFILE); keep serving.
                Err(_) => break,
            }
        }
        self.listener = Some(listener);
    }

    /// Applies finished worker results; returns the touched slots (their
    /// buffered frames may now be decodable, and their output needs a
    /// flush).
    fn apply_completions(&mut self) -> Vec<usize> {
        let done_list: Vec<Done> =
            std::mem::take(&mut *self.completions.lock().expect("completion queue lock"));
        let mut touched = Vec::new();
        for done in done_list {
            let conn = self
                .conns
                .get_mut(done.token)
                .and_then(Option::as_mut)
                .filter(|conn| conn.gen == done.gen);
            let Some(conn) = conn else {
                // The connection closed while the worker ran: discard the
                // result, but retire the session it may have opened.
                if let Some(session) = done.session {
                    session.retire();
                }
                continue;
            };
            if done.handshake_done {
                conn.handshaking = false;
                handshake_hist().record_duration(conn.opened_at.elapsed());
            }
            if done.session.is_some() {
                conn.session = done.session;
            }
            if done.request_done {
                conn.in_flight = conn.in_flight.saturating_sub(1);
            }
            for frame in &done.frames {
                conn.writer.queue_frame(frame);
            }
            if done.close {
                conn.close_after_flush = true;
            }
            touched.push(done.token);
        }
        touched
    }

    /// Decodes and dispatches every frame currently available on the
    /// connection (buffered + whatever the socket holds), then flushes.
    fn pump_read(&mut self, slot: usize) {
        let Some(mut conn) = self.conns.get_mut(slot).and_then(Option::take) else {
            return;
        };
        let started = Instant::now();
        let mut frames = 0usize;
        while conn.wants_read() {
            match conn
                .reader
                .poll::<ClientMsg>(&mut conn.stream, DEFAULT_MAX_FRAME_BYTES)
            {
                Ok(Some(msg)) => {
                    frames += 1;
                    conn.last_frame = Instant::now();
                    // The session moves out for the call so the handler can
                    // borrow it next to the connection.
                    match conn.session.take() {
                        Some(session) => {
                            self.handle_msg(slot, &mut conn, &session, msg);
                            conn.session = Some(session);
                        }
                        None => self.handle_pre(slot, &mut conn, msg),
                    }
                }
                Ok(None) => break,
                Err(error) => {
                    if !self.read_error(&mut conn, error) {
                        break;
                    }
                }
            }
        }
        if frames > 0 {
            frame_read_hist().record_duration(started.elapsed());
        }
        maybe_goodbye(&mut conn);
        flush_conn(&mut conn);
        self.conns[slot] = Some(conn);
    }

    /// Handles a frame-read failure; returns whether reading may continue.
    fn read_error(&mut self, conn: &mut Conn, error: FrameError) -> bool {
        match error {
            // Mid-batch (or idle) disconnect: tolerated, sessions retired.
            FrameError::Closed | FrameError::Torn { .. } | FrameError::Io(_) => {
                conn.dead = true;
                false
            }
            FrameError::Oversized { .. } => {
                // Oversized frames cannot be skipped (the buffer holds only
                // their prefix); close rather than desynchronise.
                if conn.session.is_none() {
                    self.shared
                        .connections_rejected
                        .fetch_add(1, Ordering::Relaxed);
                }
                conn.queue_error(None, error.to_string());
                conn.close_after_flush = true;
                false
            }
            FrameError::Malformed(_) => {
                conn.queue_error(None, error.to_string());
                if conn.session.is_none() {
                    // A garbage handshake is a rejection; established
                    // connections may continue (the bad frame is consumed).
                    self.shared
                        .connections_rejected
                        .fetch_add(1, Ordering::Relaxed);
                    conn.close_after_flush = true;
                    false
                } else {
                    true
                }
            }
        }
    }

    /// First frame on a connection: must be a `Hello` speaking
    /// [`PROTOCOL_VERSION`] (admission control also gates here).
    fn handle_pre(&mut self, slot: usize, conn: &mut Conn, msg: ClientMsg) {
        let ClientMsg::Hello(hello) = msg else {
            self.shared
                .connections_rejected
                .fetch_add(1, Ordering::Relaxed);
            conn.queue_error(None, format!("expected Hello, got {msg:?}"));
            conn.close_after_flush = true;
            return;
        };
        if hello.version != PROTOCOL_VERSION {
            self.shared
                .connections_rejected
                .fetch_add(1, Ordering::Relaxed);
            conn.queue_error(
                None,
                format!(
                    "protocol version mismatch: client speaks v{}, server speaks v{}",
                    hello.version, PROTOCOL_VERSION
                ),
            );
            conn.close_after_flush = true;
            handshake_hist().record_duration(conn.opened_at.elapsed());
            return;
        }
        if let Err(reason) = self
            .shared
            .registry
            .admission_report(self.shared.config.backlog_limit)
        {
            self.shared
                .admission_rejected
                .fetch_add(1, Ordering::Relaxed);
            conn.queue_error(None, format!("{reason}; retry later"));
            conn.close_after_flush = true;
            handshake_hist().record_duration(conn.opened_at.elapsed());
            return;
        }
        conn.handshaking = true;
        if self
            .tasks
            .send(Task::Hello {
                token: slot,
                gen: conn.gen,
                hello,
                peer: conn.peer,
            })
            .is_err()
        {
            conn.dead = true;
        }
    }

    /// One decoded frame on an established connection.
    fn handle_msg(
        &mut self,
        slot: usize,
        conn: &mut Conn,
        session: &SessionHandle,
        msg: ClientMsg,
    ) {
        match msg {
            ClientMsg::Hello(_) => {
                conn.queue_error(
                    None,
                    "duplicate Hello on an established connection".to_owned(),
                );
            }
            ClientMsg::EvalBatch { id, params, trace } => {
                if conn.in_flight >= MAX_PIPELINE {
                    conn.queue_error(
                        Some(id),
                        format!("pipeline window of {MAX_PIPELINE} exceeded"),
                    );
                    return;
                }
                // The server-side segment of the request tree: a remote
                // child of the client's `serve.rpc.ns` span (frames without a
                // trace context record no segment).
                let segment = trace.map(|ctx| SpanHandle::remote("serve.request.ns", ctx));
                // Submit inline so the service dispatcher sees the whole
                // pipelined window and packs full rounds; the worker only
                // harvests the result.
                match session.try_submit(params) {
                    Ok(pending) => {
                        conn.in_flight += 1;
                        pipeline_depth_hist().record(conn.in_flight as u64);
                        if self
                            .tasks
                            .send(Task::Wait {
                                token: slot,
                                gen: conn.gen,
                                id,
                                pending,
                                segment,
                            })
                            .is_err()
                        {
                            conn.dead = true;
                        }
                    }
                    Err(_) => {
                        conn.queue_error(
                            Some(id),
                            "the evaluation service has been shut down".to_owned(),
                        );
                    }
                }
            }
            ClientMsg::Stats { id } => {
                let service = session.service();
                let stats = WireStats {
                    engine: service.engine_stats(),
                    session: session.session_stats(),
                    last_batch: service.engine().last_batch(),
                };
                conn.queue_msg(&ServerMsg::Stats { id, stats });
            }
            ClientMsg::Metrics { id } => {
                conn.queue_msg(&ServerMsg::Metrics {
                    id,
                    snapshot: gcnrl_telemetry::global().snapshot(),
                });
            }
            ClientMsg::Goodbye => {
                conn.goodbye_wanted = true;
            }
        }
    }

    /// During a drain, says Goodbye to quiet connections and force-closes
    /// everything at the deadline.
    fn drain_tick(&mut self) {
        let Some(deadline) = self.drain else { return };
        let now = Instant::now();
        let quiet = POLL_INTERVAL * 3;
        for conn in self.conns.iter_mut().flatten() {
            if conn.dead || conn.goodbye_queued {
                if now >= deadline {
                    conn.dead = true;
                }
                continue;
            }
            let idle = conn.in_flight == 0
                && !conn.handshaking
                && conn.writer.is_empty()
                && !conn.reader.mid_frame()
                && now.duration_since(conn.last_frame) >= quiet;
            if now >= deadline || idle {
                conn.queue_msg(&ServerMsg::Goodbye);
                conn.goodbye_queued = true;
                conn.close_after_flush = true;
                flush_conn(conn);
                if now >= deadline {
                    conn.dead = true;
                }
            }
        }
    }

    /// Closes every connection that has finished (or died), retiring its
    /// session.
    fn sweep_closes(&mut self) {
        for slot in 0..self.conns.len() {
            let done = self.conns[slot]
                .as_ref()
                .is_some_and(|conn| conn.closable());
            if !done {
                continue;
            }
            if let Some(conn) = self.conns[slot].take() {
                // The connection is done: retire its session — its
                // statistics fold into the service-level closed-session
                // aggregate, so the stats map does not grow with every
                // connection a long-lived server has ever hosted.
                if let Some(session) = conn.session {
                    session.retire();
                }
                self.shared
                    .connections_active
                    .fetch_sub(1, Ordering::Relaxed);
                connections_gauge().dec();
            }
        }
    }
}

/// Acknowledges a client `Goodbye` once everything in flight is answered.
fn maybe_goodbye(conn: &mut Conn) {
    if conn.goodbye_wanted && !conn.goodbye_queued && conn.in_flight == 0 {
        conn.queue_msg(&ServerMsg::Goodbye);
        conn.goodbye_queued = true;
        conn.close_after_flush = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::write_frame;
    use gcnrl_circuit::{benchmarks::Benchmark, TechnologyNode};
    use gcnrl_exec::testing::LatencyEvaluator;
    use gcnrl_exec::{BatchEvaluator, EngineConfig, EvalService, ServiceConfig};

    fn test_server() -> EvalServer {
        test_server_with(ServerConfig::default())
    }

    fn test_server_with(mut config: ServerConfig) -> EvalServer {
        config.registry = RegistryConfig {
            engine: EngineConfig::serial(),
            ..RegistryConfig::default()
        };
        EvalServer::bind("127.0.0.1:0", config).expect("bind loopback")
    }

    fn raw_hello(version: u32) -> ClientMsg {
        ClientMsg::Hello(Hello {
            version,
            benchmark: Benchmark::TwoStageTia,
            node: TechnologyNode::tsmc180(),
            session: Some("raw".to_owned()),
        })
    }

    fn read_reply(stream: &mut TcpStream) -> ServerMsg {
        let mut reader = FrameReader::new();
        reader
            .read_msg(stream, DEFAULT_MAX_FRAME_BYTES)
            .expect("server reply")
    }

    fn nominal() -> gcnrl_circuit::ParamVector {
        Benchmark::TwoStageTia
            .circuit()
            .design_space(&TechnologyNode::tsmc180())
            .nominal()
    }

    #[test]
    fn version_mismatch_is_rejected_with_an_error_frame() {
        let server = test_server();
        // Every version but the current one is refused, older ones included.
        let versions = [2, 3, 4, 5, PROTOCOL_VERSION + 7];
        for version in versions {
            let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
            write_frame(&mut stream, &raw_hello(version)).expect("send hello");
            match read_reply(&mut stream) {
                ServerMsg::Error { id, message, .. } => {
                    assert_eq!(id, None, "v{version}: connection-level error expected");
                    assert!(message.contains("version mismatch"), "{message}");
                }
                other => panic!("v{version}: expected Error, got {other:?}"),
            }
        }
        // A well-versioned client still connects fine afterwards.
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        write_frame(&mut stream, &raw_hello(PROTOCOL_VERSION)).expect("send hello");
        assert!(matches!(read_reply(&mut stream), ServerMsg::Welcome(_)));
        server.shutdown();
        assert_eq!(server.stats().connections_rejected, versions.len() as u64);
    }

    #[test]
    fn pipeline_depth_keeps_one_histogram_across_sessions() {
        let server = test_server();
        for name in ["depth-a", "depth-b"] {
            let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
            let hello = ClientMsg::Hello(Hello {
                version: PROTOCOL_VERSION,
                benchmark: Benchmark::TwoStageTia,
                node: TechnologyNode::tsmc180(),
                session: Some(name.to_owned()),
            });
            write_frame(&mut stream, &hello).expect("send hello");
            assert!(matches!(read_reply(&mut stream), ServerMsg::Welcome(_)));
            write_frame(
                &mut stream,
                &ClientMsg::EvalBatch {
                    id: 1,
                    params: vec![nominal()],
                    trace: None,
                },
            )
            .expect("send batch");
            assert!(matches!(
                read_reply(&mut stream),
                ServerMsg::BatchResult { .. }
            ));
        }
        server.shutdown();
        // Depth lands in the one global histogram; no session name mints a
        // labeled histogram of its own.
        let snapshot = gcnrl_telemetry::global().snapshot();
        assert!(snapshot
            .histogram("serve.pipeline_depth")
            .is_some_and(|hist| hist.count >= 2));
        let per_session: Vec<&str> = snapshot
            .histograms
            .iter()
            .map(|(name, _)| name.as_str())
            .filter(|name| name.starts_with("serve.pipeline_depth{"))
            .collect();
        assert!(per_session.is_empty(), "{per_session:?}");
    }

    #[test]
    fn first_message_must_be_hello() {
        let server = test_server();
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        write_frame(&mut stream, &ClientMsg::Stats { id: 1 }).expect("send");
        assert!(matches!(read_reply(&mut stream), ServerMsg::Error { .. }));
        server.shutdown();
    }

    #[test]
    fn mid_batch_disconnects_leave_the_server_healthy() {
        let server = test_server();
        // Client 1 handshakes, starts a batch frame and vanishes mid-frame.
        {
            let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
            write_frame(&mut stream, &raw_hello(PROTOCOL_VERSION)).expect("send hello");
            assert!(matches!(read_reply(&mut stream), ServerMsg::Welcome(_)));
            // A torn EvalBatch: length prefix promising more than is sent.
            stream.write_all(&1024u32.to_be_bytes()).expect("prefix");
            stream.write_all(b"{\"EvalBatch\"").expect("partial");
            drop(stream); // mid-batch disconnect
        }
        // Client 2 is served normally on the same (still healthy) service.
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        write_frame(&mut stream, &raw_hello(PROTOCOL_VERSION)).expect("send hello");
        let ServerMsg::Welcome(welcome) = read_reply(&mut stream) else {
            panic!("second client rejected");
        };
        assert_eq!(welcome.version, PROTOCOL_VERSION);
        write_frame(
            &mut stream,
            &ClientMsg::EvalBatch {
                id: 9,
                params: vec![nominal()],
                trace: None,
            },
        )
        .expect("send batch");
        match read_reply(&mut stream) {
            ServerMsg::BatchResult { id, reports } => {
                assert_eq!(id, 9);
                assert_eq!(reports.len(), 1);
            }
            other => panic!("expected BatchResult, got {other:?}"),
        }
        write_frame(&mut stream, &ClientMsg::Goodbye).expect("send goodbye");
        assert!(matches!(read_reply(&mut stream), ServerMsg::Goodbye));
        server.shutdown();
        // Both connections landed on one shared registry service.
        let stats = server.stats();
        assert_eq!(stats.connections_total, 2);
        assert_eq!(stats.connections_active, 0);
        assert_eq!(stats.services.len(), 1);
    }

    #[test]
    fn stale_and_garbage_frames_do_not_break_an_established_connection() {
        let server = test_server();
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        write_frame(&mut stream, &raw_hello(PROTOCOL_VERSION)).expect("send hello");
        assert!(matches!(read_reply(&mut stream), ServerMsg::Welcome(_)));
        // A v5 client's channel `Open` (a message this version no longer
        // has), then a payload that is not JSON at all.
        let stale = format!(
            "{{\"Open\":{{\"id\":1,\"channel\":1,\"benchmark\":{},\"node\":{},\
             \"session\":null,\"weight\":null}}}}",
            serde_json::to_string(&Benchmark::Ldo).expect("encode benchmark"),
            serde_json::to_string(&TechnologyNode::tsmc180()).expect("encode node"),
        );
        let garbage: &[u8] = b"\xff\x00 not a frame";
        for payload in [stale.as_bytes(), garbage] {
            stream
                .write_all(&(payload.len() as u32).to_be_bytes())
                .expect("send prefix");
            stream.write_all(payload).expect("send payload");
        }
        // One connection-level Error per bad frame, in order...
        let mut reader = FrameReader::new();
        for _ in 0..2 {
            match reader
                .read_msg::<ServerMsg>(&mut stream, DEFAULT_MAX_FRAME_BYTES)
                .expect("error reply")
            {
                ServerMsg::Error { id, message } => {
                    assert_eq!(id, None, "{message}");
                    assert!(message.contains("malformed"), "{message}");
                }
                other => panic!("expected Error, got {other:?}"),
            }
        }
        // ...and the connection still serves its session.
        write_frame(
            &mut stream,
            &ClientMsg::EvalBatch {
                id: 3,
                params: vec![nominal()],
                trace: None,
            },
        )
        .expect("send batch");
        match reader
            .read_msg::<ServerMsg>(&mut stream, DEFAULT_MAX_FRAME_BYTES)
            .expect("batch reply")
        {
            ServerMsg::BatchResult { id, reports } => {
                assert_eq!(id, 3);
                assert_eq!(reports.len(), 1);
            }
            other => panic!("expected BatchResult, got {other:?}"),
        }
        server.shutdown();
        // Bad frames on an established connection are not rejections.
        assert_eq!(server.stats().connections_rejected, 0);
    }

    #[test]
    fn shutdown_answers_requests_already_in_flight_before_goodbye() {
        let server = test_server();
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        write_frame(&mut stream, &raw_hello(PROTOCOL_VERSION)).expect("send hello");
        assert!(matches!(read_reply(&mut stream), ServerMsg::Welcome(_)));
        // Submit a batch and shut the server down while it is in flight: the
        // graceful drain must still answer it with BatchResult (and only
        // then Goodbye), never swallow it.
        write_frame(
            &mut stream,
            &ClientMsg::EvalBatch {
                id: 11,
                params: vec![nominal()],
                trace: None,
            },
        )
        .expect("send batch");
        server.shutdown();
        let mut reader = FrameReader::new();
        match reader
            .read_msg::<ServerMsg>(&mut stream, DEFAULT_MAX_FRAME_BYTES)
            .expect("in-flight reply")
        {
            ServerMsg::BatchResult { id, reports, .. } => {
                assert_eq!(id, 11);
                assert_eq!(reports.len(), 1);
            }
            other => panic!("in-flight request dropped at shutdown: {other:?}"),
        }
        assert!(matches!(
            reader
                .read_msg::<ServerMsg>(&mut stream, DEFAULT_MAX_FRAME_BYTES)
                .expect("goodbye"),
            ServerMsg::Goodbye
        ));
    }

    #[test]
    fn admission_control_rejects_hellos_past_the_backlog_threshold() {
        let server = test_server_with(ServerConfig {
            backlog_limit: Some(0),
            ..ServerConfig::default()
        });
        // A deterministic slow evaluator keeps one request provably pending
        // while the second handshake arrives.
        let node = TechnologyNode::tsmc180();
        let slow = EvalService::new(
            BatchEvaluator::new(
                Box::new(LatencyEvaluator::new(Duration::from_millis(400))),
                EngineConfig::serial(),
            ),
            ServiceConfig::default(),
        );
        server
            .registry()
            .insert_service(Benchmark::TwoStageTia, &node, slow);

        let mut busy = TcpStream::connect(server.local_addr()).expect("connect");
        write_frame(&mut busy, &raw_hello(PROTOCOL_VERSION)).expect("send hello");
        assert!(matches!(read_reply(&mut busy), ServerMsg::Welcome(_)));
        write_frame(
            &mut busy,
            &ClientMsg::EvalBatch {
                id: 1,
                params: vec![nominal()],
                trace: None,
            },
        )
        .expect("send batch");
        // Wait until the request is provably pending in the service queue.
        let deadline = Instant::now() + Duration::from_secs(2);
        while server.registry().pending_requests() == 0 {
            assert!(Instant::now() < deadline, "request never became pending");
            std::thread::sleep(Duration::from_millis(5));
        }

        let mut turned_away = TcpStream::connect(server.local_addr()).expect("connect");
        write_frame(&mut turned_away, &raw_hello(PROTOCOL_VERSION)).expect("send hello");
        match read_reply(&mut turned_away) {
            ServerMsg::Error { message, .. } => {
                assert!(message.contains("busy"), "{message}");
            }
            other => panic!("expected busy Error, got {other:?}"),
        }
        // The admitted client's batch still resolves.
        match read_reply(&mut busy) {
            ServerMsg::BatchResult { id, .. } => assert_eq!(id, 1),
            other => panic!("expected BatchResult, got {other:?}"),
        }
        assert_eq!(server.stats().admission_rejected, 1);
        server.shutdown();
    }

    #[test]
    fn non_finite_metric_values_are_flagged_for_rejection() {
        // JSON renders inf/NaN as null (read back as NaN), so the server
        // fails such batches loudly instead of letting a value silently
        // mutate across the wire.
        let mut bad = gcnrl_sim::PerformanceReport::new();
        bad.set("gain_db", 42.0);
        bad.set("psrr_db", f64::INFINITY);
        assert_eq!(
            first_non_finite(&[gcnrl_sim::PerformanceReport::new(), bad]),
            Some("psrr_db".to_owned())
        );
        let mut fine = gcnrl_sim::PerformanceReport::new();
        fine.set("gain_db", 42.0);
        assert_eq!(first_non_finite(&[fine]), None);
    }

    #[test]
    fn shutdown_is_idempotent_and_stops_accepting() {
        let server = test_server();
        let addr = server.local_addr();
        server.shutdown();
        server.shutdown();
        // The listener dropped at drain start: a post-shutdown connection is
        // refused outright, or was accepted by the OS backlog and never
        // served — a read sees EOF/reset, not Welcome.
        if let Ok(mut stream) = TcpStream::connect(addr) {
            let _ = write_frame(&mut stream, &raw_hello(PROTOCOL_VERSION));
            let mut reader = FrameReader::new();
            assert!(reader
                .read_msg::<ServerMsg>(&mut stream, DEFAULT_MAX_FRAME_BYTES)
                .is_err());
        }
    }
}
