//! The network evaluation server: an accept thread, plus a reader and a
//! responder thread per connection, over the [`ServiceRegistry`].
//!
//! ```text
//!   accept thread: blocks in accept, spawns one reader per connection
//!
//!   client A ──TCP──▶ reader A ──── submit ───┐
//!            ◀─────── responder A ◀── wait ─┐ ▼
//!   client B ──TCP──▶ reader B ──── submit ─┼─▶ EvalService(s): one per
//!            ◀─────── responder B ◀── wait ─┘   (benchmark, node), shared
//!                                               engine + cache, held by
//!                                               the ServiceRegistry
//! ```
//!
//! The **reader** does the handshake itself, then reads frames with a
//! [`POLL_INTERVAL`] read timeout (so it notices a drain while the client
//! idles) and submits every decoded `EvalBatch` to the connection's session
//! at once, so the service dispatcher sees the whole pipelined window and
//! packs full rounds. It hands every reply, in arrival order, to the
//! connection's **responder**, which waits for each batch
//! ([`PendingBatch::try_wait`]) and writes the frames in that order. A
//! session's requests resolve in submission order, so replying in order
//! delays nothing. Each connection carries exactly one session.
//!
//! Shutdown is a graceful drain: the accept thread stops (freeing the
//! port), every connection keeps being served until it has been quiet for a
//! few poll ticks with nothing unanswered, then gets `Goodbye` and closes;
//! [`DRAIN_GRACE`] bounds a client that keeps submitting. Every connection
//! thread is joined, then the registry joins every dispatcher.

use crate::accept::AcceptLoop;
use crate::protocol::{
    encode_frame, ClientMsg, FrameError, FrameReader, Hello, ServerMsg, Welcome, WireStats,
    DEFAULT_MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use crate::registry::{RegistryConfig, ServiceEntryStats, ServiceRegistry};
use gcnrl_circuit::TechnologyNode;
use gcnrl_exec::{panic_message, PendingBatch, SessionHandle};
use gcnrl_sim::PerformanceReport;
use gcnrl_telemetry::{SpanHandle, TraceContext};
use serde::Serialize;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a reader blocks waiting for a frame before it checks for a
/// drain (shutdown latency is bounded by it).
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// On shutdown, how long a connection keeps being served before it is
/// force-closed. Each connection says Goodbye once it has been quiet — no
/// frames, nothing unanswered — for 3 × [`POLL_INTERVAL`] (one quiet tick
/// cannot distinguish "idle" from "request in transit"), so shutdown costs
/// at least that; the grace window only bounds a client that keeps
/// submitting into the closing server.
const DRAIN_GRACE: Duration = Duration::from_secs(2);

/// Per-connection cap on requests in flight (replies not yet written); a
/// client exceeding it gets per-request `Error` frames instead of unbounded
/// server-side state.
const MAX_PIPELINE: usize = 1024;

/// Configuration of an [`EvalServer`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServerConfig {
    /// Registry (engine template, cache budget split, service dispatcher)
    /// behind the connections.
    pub registry: RegistryConfig,
    /// Ignored: every connection has its own reader and responder thread.
    /// Kept only because the `perfbench/` benchmark sets it.
    pub workers: usize,
    /// Admission control: when set, a `Hello` arriving while more than this
    /// many evaluation requests are pending across the registry is rejected
    /// with an `Error{busy}` frame (`GCNRL_SERVE_BACKLOG` in the serve
    /// binary). `None` admits unconditionally.
    pub backlog_limit: Option<u64>,
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
    /// When the drain began; set once, by [`EvalServer::shutdown`].
    drain: OnceLock<Instant>,
    connections_total: AtomicU64,
    connections_active: AtomicU64,
    connections_rejected: AtomicU64,
    admission_rejected: AtomicU64,
    /// The connections' reader threads (each joins its own responder).
    connections: Mutex<Vec<JoinHandle<()>>>,
}

/// The evaluation server. Dropping it (or calling [`EvalServer::shutdown`])
/// drains gracefully.
pub struct EvalServer {
    shared: Arc<ServerShared>,
    accept: AcceptLoop,
}

impl std::fmt::Debug for EvalServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalServer")
            .field("addr", &self.local_addr())
            .field("registry", &self.shared.registry)
            .finish()
    }
}

impl EvalServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
    /// the accept thread.
    ///
    /// # Errors
    ///
    /// Returns the bind error (address in use, permission, ...) or a failed
    /// thread spawn.
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let shared = Arc::new(ServerShared {
            registry: ServiceRegistry::new(config.registry.clone()),
            config,
            drain: OnceLock::new(),
            connections_total: AtomicU64::new(0),
            connections_active: AtomicU64::new(0),
            connections_rejected: AtomicU64::new(0),
            admission_rejected: AtomicU64::new(0),
            connections: Mutex::new(Vec::new()),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            AcceptLoop::spawn(listener, "gcnrl-serve-accept", move |stream, peer| {
                open_connection(&shared, stream, peer);
            })?
        };
        Ok(EvalServer { shared, accept })
    }

    /// The address the server is listening on (with the concrete port when
    /// bound ephemerally).
    pub fn local_addr(&self) -> SocketAddr {
        self.accept.local_addr()
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

    /// Graceful drain: the listener closes (freeing the port), every
    /// connection finishes what is in flight, gets `Goodbye` and closes,
    /// then every connection thread is joined and every service dispatcher
    /// joins. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        let _ = self.shared.drain.set(Instant::now());
        self.accept.stop();
        for connection in self
            .shared
            .connections
            .lock()
            .expect("connection threads lock")
            .drain(..)
        {
            let _ = connection.join();
        }
        self.shared.registry.shutdown();
    }
}

impl Drop for EvalServer {
    fn drop(&mut self) {
        self.shutdown();
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

/// Counts an accepted connection and spawns its reader thread.
fn open_connection(shared: &Arc<ServerShared>, stream: TcpStream, peer: SocketAddr) {
    let opened_at = Instant::now();
    shared.connections_total.fetch_add(1, Ordering::Relaxed);
    shared.connections_active.fetch_add(1, Ordering::Relaxed);
    connections_gauge().inc();
    let spawned = {
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name("gcnrl-serve-read".to_owned())
            .spawn(move || {
                serve_connection(&shared, &stream, peer, opened_at);
                connection_closed(&shared);
            })
    };
    let mut connections = shared.connections.lock().expect("connection threads lock");
    connections.retain(|connection| !connection.is_finished());
    match spawned {
        Ok(connection) => connections.push(connection),
        // The failed spawn dropped the stream: only this connection closes.
        Err(_) => connection_closed(shared),
    }
}

fn connection_closed(shared: &ServerShared) {
    shared.connections_active.fetch_sub(1, Ordering::Relaxed);
    connections_gauge().dec();
}

/// The reader thread of one connection: handshake, then read requests
/// while a scoped responder thread writes the replies; finally retire the
/// session, so its statistics fold into the service-level closed-session
/// aggregate and the stats map does not grow with every connection a
/// long-lived server has ever hosted.
fn serve_connection(
    shared: &ServerShared,
    stream: &TcpStream,
    peer: SocketAddr,
    opened_at: Instant,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let mut conn = Conn {
        stream,
        reader: FrameReader::new(),
        last_frame: opened_at,
    };
    let Some(session) = handshake(shared, &mut conn, peer, opened_at) else {
        return;
    };
    let unanswered = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let (replies, queue) = channel();
        let responder = std::thread::Builder::new()
            .name("gcnrl-serve-reply".to_owned())
            .spawn_scoped(scope, || respond(stream, queue, &unanswered));
        // A failed spawn closes only this connection.
        if responder.is_ok() {
            read_requests(shared, &mut conn, &session, &replies, &unanswered);
        }
        // Dropping `replies` lets the responder finish the queue; the scope
        // joins it.
    });
    session.retire();
}

/// The read side of one connection.
struct Conn<'a> {
    stream: &'a TcpStream,
    reader: FrameReader,
    /// When the last complete frame arrived (drain quiescence check).
    last_frame: Instant,
}

/// Why the reader has no frame to act on.
enum NoFrame {
    /// The frame could not be read.
    Failed(FrameError),
    /// Draining, and the connection has been quiet with nothing unanswered:
    /// say Goodbye.
    Drained,
    /// Draining, and [`DRAIN_GRACE`] ran out: force-close.
    Expired,
}

impl Conn<'_> {
    /// Blocks for the next frame; `unanswered` counts the replies not yet
    /// written.
    fn next_frame(
        &mut self,
        shared: &ServerShared,
        unanswered: &AtomicUsize,
    ) -> Result<ClientMsg, NoFrame> {
        loop {
            if let Some(&drain) = shared.drain.get() {
                let now = Instant::now();
                if now >= drain + DRAIN_GRACE {
                    return Err(NoFrame::Expired);
                }
                // Quiet time counts from the drain at the earliest: frames
                // already in the kernel buffer still get read and answered.
                let quiet_since = self.last_frame.max(drain);
                if unanswered.load(Ordering::SeqCst) == 0
                    && !self.reader.mid_frame()
                    && now.duration_since(quiet_since) >= POLL_INTERVAL * 3
                {
                    return Err(NoFrame::Drained);
                }
            }
            match self
                .reader
                .poll::<ClientMsg>(&mut self.stream, DEFAULT_MAX_FRAME_BYTES)
            {
                Ok(Some(msg)) => {
                    self.last_frame = Instant::now();
                    return Ok(msg);
                }
                Ok(None) => {}
                Err(error) => return Err(NoFrame::Failed(error)),
            }
        }
    }
}

/// Writes one frame.
fn send_frame(mut stream: &TcpStream, frame: &[u8]) -> std::io::Result<()> {
    let started = Instant::now();
    let written = stream.write_all(frame);
    frame_write_hist().record_duration(started.elapsed());
    written
}

/// Serialises `msg` as one frame (nothing, should it fail to serialise).
fn msg_frame<T: Serialize>(msg: &T) -> Vec<u8> {
    encode_frame(msg).unwrap_or_default()
}

/// Serialises an `Error` response.
fn error_frame(id: Option<u64>, message: String) -> Vec<u8> {
    msg_frame(&ServerMsg::Error { id, message })
}

/// Reads the first frame, which must be a `Hello` speaking
/// [`PROTOCOL_VERSION`] (admission control also gates here), and answers
/// it; returns the connection's session on success.
fn handshake(
    shared: &ServerShared,
    conn: &mut Conn,
    peer: SocketAddr,
    opened_at: Instant,
) -> Option<SessionHandle> {
    let reject = |message: String| {
        shared.connections_rejected.fetch_add(1, Ordering::Relaxed);
        (error_frame(None, message), None)
    };
    let (reply, session) = match conn.next_frame(shared, &AtomicUsize::new(0)) {
        Ok(ClientMsg::Hello(hello)) => {
            let answer = open_session(shared, hello, peer);
            handshake_hist().record_duration(opened_at.elapsed());
            match answer {
                Ok((welcome, session)) => (msg_frame(&ServerMsg::Welcome(welcome)), Some(session)),
                Err(reply) => (reply, None),
            }
        }
        Ok(msg) => reject(format!("expected Hello, got {msg:?}")),
        // A garbage or oversized handshake is a rejection.
        Err(NoFrame::Failed(error @ (FrameError::Malformed(_) | FrameError::Oversized { .. }))) => {
            reject(error.to_string())
        }
        Err(NoFrame::Drained) => (msg_frame(&ServerMsg::Goodbye), None),
        Err(NoFrame::Failed(_) | NoFrame::Expired) => return None,
    };
    // A failed write surfaces on the next read.
    let _ = send_frame(conn.stream, &reply);
    session
}

/// Checks a `Hello` and opens its session; `Err` carries the `Error` frame
/// answering a refused one.
fn open_session(
    shared: &ServerShared,
    hello: Hello,
    peer: SocketAddr,
) -> Result<(Welcome, SessionHandle), Vec<u8>> {
    if hello.version != PROTOCOL_VERSION {
        shared.connections_rejected.fetch_add(1, Ordering::Relaxed);
        return Err(error_frame(
            None,
            format!(
                "protocol version mismatch: client speaks v{}, server speaks v{}",
                hello.version, PROTOCOL_VERSION
            ),
        ));
    }
    // Each distinct node opens a service with its own engine and dispatcher
    // thread for the life of the server, so only the paper's nodes are
    // served: a client varying one field must not mint a service per Hello.
    if !TechnologyNode::all().contains(&hello.node) {
        shared.connections_rejected.fetch_add(1, Ordering::Relaxed);
        return Err(error_frame(
            None,
            format!(
                "unknown technology node `{}`: the server evaluates the paper's nodes only",
                hello.node.name
            ),
        ));
    }
    if let Err(reason) = shared
        .registry
        .admission_report(shared.config.backlog_limit)
    {
        shared.admission_rejected.fetch_add(1, Ordering::Relaxed);
        return Err(error_frame(None, format!("{reason}; retry later")));
    }
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let service = shared.registry.service_for(hello.benchmark, &hello.node);
        let name = hello.session.clone().unwrap_or_else(|| peer.to_string());
        let session = service.session_named(name.clone());
        let welcome = Welcome {
            version: PROTOCOL_VERSION,
            session: name,
            metric_specs: service.engine().metric_specs().to_vec(),
        };
        (welcome, session)
    }))
    .map_err(|payload| {
        shared.connections_rejected.fetch_add(1, Ordering::Relaxed);
        error_frame(
            None,
            format!("handshake failed: {}", panic_message(payload.as_ref())),
        )
    })
}

/// One reply, queued for the responder in arrival order.
enum Reply {
    /// A frame ready to write.
    Frame(Vec<u8>),
    /// A submitted batch: wait for it, then answer.
    Batch {
        id: u64,
        pending: PendingBatch,
        /// The request's `serve.request.ns` server segment; finished once
        /// the batch resolves.
        segment: Option<SpanHandle>,
    },
}

/// Reads requests until the connection ends, handing every reply to the
/// responder in arrival order.
fn read_requests(
    shared: &ServerShared,
    conn: &mut Conn,
    session: &SessionHandle,
    replies: &Sender<Reply>,
    unanswered: &AtomicUsize,
) {
    loop {
        let next = conn.next_frame(shared, unanswered);
        let started = Instant::now();
        // `last`: the connection closes once this reply is written.
        let (reply, last) = match next {
            Ok(ClientMsg::EvalBatch { id, params, trace }) => (
                submit(
                    session,
                    id,
                    params,
                    trace,
                    unanswered.load(Ordering::SeqCst),
                ),
                false,
            ),
            Ok(ClientMsg::Stats { id }) => {
                let service = session.service();
                let stats = WireStats {
                    engine: service.engine_stats(),
                    session: session.session_stats(),
                    last_batch: service.engine().last_batch(),
                };
                (
                    Reply::Frame(msg_frame(&ServerMsg::Stats { id, stats })),
                    false,
                )
            }
            Ok(ClientMsg::Hello(_)) => (
                Reply::Frame(error_frame(
                    None,
                    "duplicate Hello on an established connection".to_owned(),
                )),
                false,
            ),
            // The responder writes in order, so Goodbye follows every
            // earlier reply.
            Ok(ClientMsg::Goodbye) | Err(NoFrame::Drained) => {
                (Reply::Frame(msg_frame(&ServerMsg::Goodbye)), true)
            }
            // The bad frame is consumed; the connection continues.
            Err(NoFrame::Failed(error @ FrameError::Malformed(_))) => {
                (Reply::Frame(error_frame(None, error.to_string())), false)
            }
            // An oversized frame cannot be skipped (the buffer holds only its
            // prefix); close rather than desynchronise.
            Err(NoFrame::Failed(error @ FrameError::Oversized { .. })) => {
                (Reply::Frame(error_frame(None, error.to_string())), true)
            }
            // A disconnect (clean, mid-frame or failed), or the drain grace
            // ran out: close now, unanswered replies and all.
            Err(NoFrame::Failed(_) | NoFrame::Expired) => {
                let _ = conn.stream.shutdown(Shutdown::Both);
                return;
            }
        };
        unanswered.fetch_add(1, Ordering::SeqCst);
        // A send fails only once the responder has stopped on a dead socket.
        let sent = replies.send(reply).is_ok();
        frame_read_hist().record_duration(started.elapsed());
        if last || !sent {
            return;
        }
    }
}

/// Submits one batch to the session at once, so the dispatcher sees the
/// whole pipelined window; the responder waits for it.
fn submit(
    session: &SessionHandle,
    id: u64,
    params: Vec<gcnrl_circuit::ParamVector>,
    trace: Option<TraceContext>,
    unanswered: usize,
) -> Reply {
    if unanswered >= MAX_PIPELINE {
        return Reply::Frame(error_frame(
            Some(id),
            format!("pipeline window of {MAX_PIPELINE} exceeded"),
        ));
    }
    // The server-side segment of the request tree: a child of the client's
    // `serve.rpc.ns` span (frames without a trace context record no
    // segment).
    let segment = trace.map(|ctx| SpanHandle::child_of("serve.request.ns", ctx));
    match session.try_submit(params) {
        Ok(pending) => {
            pipeline_depth_hist().record(unanswered as u64 + 1);
            Reply::Batch {
                id,
                pending,
                segment,
            }
        }
        Err(_) => Reply::Frame(error_frame(
            Some(id),
            "the evaluation service has been shut down".to_owned(),
        )),
    }
}

/// The responder: writes every reply in arrival order, waiting for each
/// batch first. The first failed write shuts the socket down, which stops
/// the reader too.
fn respond(stream: &TcpStream, queue: Receiver<Reply>, unanswered: &AtomicUsize) {
    for reply in queue {
        let frame = match reply {
            Reply::Frame(frame) => frame,
            Reply::Batch {
                id,
                pending,
                segment,
            } => batch_frame(id, pending, segment),
        };
        let written = send_frame(stream, &frame);
        unanswered.fetch_sub(1, Ordering::SeqCst);
        if written.is_err() {
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
    }
}

/// Waits for a submitted batch and encodes its answer.
fn batch_frame(id: u64, pending: PendingBatch, mut segment: Option<SpanHandle>) -> Vec<u8> {
    let outcome = pending.try_wait();
    // The server segment closes when the batch resolves: its duration covers
    // submit→resolve.
    if let Some(segment) = segment.as_mut() {
        segment.finish();
    }
    match outcome {
        Ok(reports) => match first_non_finite(&reports) {
            // JSON cannot carry inf/NaN losslessly (they render as null);
            // failing the request loudly beats silently corrupting a value
            // and breaking the bit-exactness the remote path promises. No
            // current evaluator emits non-finite metrics, so this is a
            // guard, not a path.
            None => msg_frame(&ServerMsg::BatchResult { id, reports }),
            Some(metric) => error_frame(
                Some(id),
                format!(
                    "metric `{metric}` is non-finite and cannot travel \
                     losslessly over the JSON wire"
                ),
            ),
        },
        Err(message) => error_frame(Some(id), message),
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::write_frame;
    use gcnrl_circuit::benchmarks::Benchmark;
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
        let versions = [2, 3, 4, 5, 6, PROTOCOL_VERSION + 7];
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
    fn unknown_technology_nodes_are_refused_at_the_handshake() {
        let server = test_server();
        let hello = |node: TechnologyNode| {
            ClientMsg::Hello(Hello {
                version: PROTOCOL_VERSION,
                benchmark: Benchmark::TwoStageTia,
                node,
                session: None,
            })
        };
        let mut tweaked = TechnologyNode::tsmc180();
        for step in 1..=3 {
            tweaked.vdd += 0.01;
            let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
            write_frame(&mut stream, &hello(tweaked.clone())).expect("send hello");
            match read_reply(&mut stream) {
                ServerMsg::Error { id, message } => {
                    assert_eq!(id, None, "connection-level error expected");
                    assert!(message.contains("unknown technology node"), "{message}");
                }
                other => panic!("tweak {step}: expected Error, got {other:?}"),
            }
        }
        assert_eq!(
            server.registry().len(),
            0,
            "a refused node opened a service"
        );
        // Every paper node still connects, each on its own service.
        for node in TechnologyNode::all() {
            let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
            write_frame(&mut stream, &hello(node)).expect("send hello");
            assert!(matches!(read_reply(&mut stream), ServerMsg::Welcome(_)));
        }
        assert_eq!(server.registry().len(), TechnologyNode::all().len());
        server.shutdown();
        assert_eq!(server.stats().connections_rejected, 3);
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
    fn drain_grace_force_closes_a_client_that_keeps_submitting() {
        let server = test_server();
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        write_frame(&mut stream, &raw_hello(PROTOCOL_VERSION)).expect("send hello");
        assert!(matches!(read_reply(&mut stream), ServerMsg::Welcome(_)));
        // A client that never goes quiet: one batch every 20 ms until the
        // server closes the connection on it.
        let submitter = {
            let mut stream = stream.try_clone().expect("clone stream");
            std::thread::spawn(move || {
                for id in 0.. {
                    let batch = ClientMsg::EvalBatch {
                        id,
                        params: vec![nominal()],
                        trace: None,
                    };
                    if write_frame(&mut stream, &batch).is_err() {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            })
        };
        assert!(matches!(
            read_reply(&mut stream),
            ServerMsg::BatchResult { .. }
        ));
        let started = Instant::now();
        server.shutdown();
        let took = started.elapsed();
        assert!(
            took >= DRAIN_GRACE && took < DRAIN_GRACE + Duration::from_secs(1),
            "shutdown took {took:?}"
        );
        // The connection is closed: reading runs into EOF or a reset.
        let mut reader = FrameReader::new();
        while reader
            .read_msg::<ServerMsg>(&mut stream, DEFAULT_MAX_FRAME_BYTES)
            .is_ok()
        {}
        submitter.join().expect("submitter thread");
        assert_eq!(server.stats().connections_active, 0);
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
