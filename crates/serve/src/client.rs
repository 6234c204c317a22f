//! The remote evaluation backend: an [`EvalBackend`] implementation that
//! forwards batches to an [`EvalServer`](crate::EvalServer) over TCP.
//!
//! Because evaluators are pure and the wire format round-trips every float
//! bit-exactly, a `SizingEnv` (or `FomConfig` calibration sweep) over a
//! `RemoteBackend` produces results bit-identical to the same run over a
//! local engine — the server is purely a sharing/locality decision.
//!
//! Pipelined client: every request carries an `id`, a background reader
//! thread matches responses back to their waiters, so up to
//! [`RemoteConfig::pipeline`] batches ride the wire concurrently
//! ([`RemoteBackend::submit_batch`] / [`PendingReply::wait`]). The
//! synchronous [`EvalBackend::evaluate_batch`] path cuts its batch into
//! sub-batches of `SUB_BATCH` candidates, submits them all through that
//! window and collects them in order, so the server starts on the first
//! sub-batch while later ones are still on the wire. On a transport
//! failure the reader transparently reconnects with bounded exponential
//! backoff ([`ReconnectConfig`]), re-handshakes and replays the in-flight
//! window — waiters never observe a blip unless every retry is exhausted.

use crate::protocol::{
    encode_frame, ClientMsg, FrameError, FrameReader, Hello, ServerMsg, Welcome, WireStats,
    DEFAULT_MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use gcnrl_circuit::{benchmarks::Benchmark, ParamVector, TechnologyNode};
use gcnrl_exec::{BatchReport, EvalBackend, ExecStats};
use gcnrl_sim::{MetricSpec, PerformanceReport};
use gcnrl_telemetry::{trace_id_for, SpanHandle, TraceContext};
use std::collections::BTreeMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Candidates per pipelined sub-batch of [`RemoteBackend::try_evaluate_batch`].
/// Small enough that a population-sized batch (14 candidates for ES) overlaps
/// its own transfer and evaluation, large enough that framing stays
/// negligible against simulator latency.
pub(crate) const SUB_BATCH: usize = 8;

/// Why a remote operation failed.
#[derive(Debug)]
pub enum ServeError {
    /// Transport failure (connect, read, write).
    Io(std::io::Error),
    /// A frame could not be decoded.
    Frame(FrameError),
    /// The server answered the handshake (or a request) with an error.
    Rejected(String),
    /// The server sent a reply the protocol does not allow here.
    Protocol(String),
    /// The connection died and every reconnect attempt failed.
    Disconnected(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "transport error: {e}"),
            ServeError::Frame(e) => write!(f, "protocol framing error: {e}"),
            ServeError::Rejected(msg) => write!(f, "server rejected the request: {msg}"),
            ServeError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            ServeError::Disconnected(msg) => write!(f, "connection lost: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<FrameError> for ServeError {
    fn from(e: FrameError) -> Self {
        ServeError::Frame(e)
    }
}

/// Reconnect-with-backoff policy applied when the server connection drops
/// mid-session (server restart, network blip).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconnectConfig {
    /// Reconnect attempts before the backend gives up and fails every
    /// outstanding request (`0` disables reconnecting entirely).
    pub max_retries: u32,
    /// Delay before the first retry; doubles per attempt.
    pub base_delay: Duration,
    /// Upper bound on the per-attempt delay.
    pub max_delay: Duration,
}

impl Default for ReconnectConfig {
    fn default() -> Self {
        ReconnectConfig {
            max_retries: 4,
            base_delay: Duration::from_millis(25),
            max_delay: Duration::from_millis(500),
        }
    }
}

impl ReconnectConfig {
    /// The backoff before retry `attempt` (0-based): exponential with a
    /// deterministic ±25% jitter (no RNG — the jitter pattern is a fixed
    /// multiplicative-hash sequence, so tests stay reproducible while
    /// concurrent clients still de-synchronise).
    fn delay(&self, attempt: u32) -> Duration {
        let doubled = self
            .base_delay
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max_delay);
        let jitter = 0.75 + 0.5 * ((attempt as u64 * 2_654_435_761) % 1000) as f64 / 1000.0;
        doubled.mul_f64(jitter)
    }
}

/// Client-side connection options.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteConfig {
    /// Session name announced to the server (defaults to the peer-assigned
    /// name — the client's address — when `None`).
    pub session: Option<String>,
    /// Batches allowed in flight concurrently ([`RemoteBackend::submit_batch`]
    /// blocks past this window).
    pub pipeline: usize,
    /// Reconnect-with-backoff policy on transport failures.
    pub reconnect: ReconnectConfig,
}

impl Default for RemoteConfig {
    fn default() -> Self {
        RemoteConfig {
            session: None,
            pipeline: 8,
            reconnect: ReconnectConfig::default(),
        }
    }
}

/// What a completed request resolved to.
enum Reply {
    Batch(Vec<PerformanceReport>),
    Stats(WireStats),
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum SlotKind {
    /// An `EvalBatch` — counted against the pipeline window.
    Batch,
    /// A `Stats` request.
    Control,
}

/// One in-flight request: the encoded frame (kept for replay after a
/// reconnect) and, once the reader matched a response, its outcome.
struct Slot {
    frame: Vec<u8>,
    kind: SlotKind,
    result: Option<Result<Reply, String>>,
    /// Its [`PendingReply`] was dropped unresolved: the slot goes as soon as
    /// the reply arrives.
    abandoned: bool,
}

struct ClientState {
    /// The write half; `None` while the reader is between connections.
    stream: Option<TcpStream>,
    pending: BTreeMap<u64, Slot>,
    next_id: u64,
    /// `EvalBatch` requests in flight (window accounting).
    batches_in_flight: usize,
    /// Completed reconnects — bumps once per successful re-handshake.
    generation: u64,
    /// A clean shutdown was requested (`goodbye` or drop).
    closed: bool,
    /// Terminal failure after retries exhausted; fails all future requests.
    broken: Option<String>,
}

struct ClientInner {
    addr: SocketAddr,
    hello: Hello,
    pipeline: usize,
    reconnect: ReconnectConfig,
    state: Mutex<ClientState>,
    cond: Condvar,
    reader: Mutex<Option<JoinHandle<()>>>,
}

impl ClientInner {
    /// Registers a request slot and writes its frame if connected (if not,
    /// the reconnect replay sends it). Returns the request id.
    fn send(
        &self,
        kind: SlotKind,
        build: impl FnOnce(u64) -> ClientMsg,
    ) -> Result<u64, ServeError> {
        let mut state = self.state.lock().expect("remote client lock");
        if kind == SlotKind::Batch {
            while state.batches_in_flight >= self.pipeline.max(1)
                && state.broken.is_none()
                && !state.closed
            {
                state = self.cond.wait(state).expect("remote client lock");
            }
        }
        if let Some(broken) = &state.broken {
            return Err(ServeError::Disconnected(broken.clone()));
        }
        if state.closed {
            return Err(ServeError::Protocol(
                "the remote session is already closed".to_owned(),
            ));
        }
        let id = state.next_id;
        state.next_id += 1;
        let frame = encode_frame(&build(id))?;
        state.pending.insert(
            id,
            Slot {
                frame: frame.clone(),
                kind,
                result: None,
                abandoned: false,
            },
        );
        if kind == SlotKind::Batch {
            state.batches_in_flight += 1;
        }
        if let Some(stream) = &mut state.stream {
            if let Err(error) = stream.write_all(&frame) {
                // Kick the (possibly blocked) reader into its reconnect
                // path; the slot just registered is replayed from there.
                let _ = stream.shutdown(Shutdown::Both);
                state.stream = None;
                let _ = error;
            }
        }
        Ok(id)
    }

    /// Blocks until request `id` resolves.
    fn wait(&self, id: u64) -> Result<Reply, ServeError> {
        let mut state = self.state.lock().expect("remote client lock");
        loop {
            if state
                .pending
                .get(&id)
                .is_some_and(|slot| slot.result.is_some())
            {
                let slot = state.pending.remove(&id).expect("checked present");
                return match slot.result.expect("checked resolved") {
                    Ok(reply) => Ok(reply),
                    // A slot failed with the connection's own broken reason
                    // died with the transport (reconnects exhausted) — that
                    // is a disconnect, not the server rejecting the request.
                    Err(message) if state.broken.as_deref() == Some(message.as_str()) => {
                        Err(ServeError::Disconnected(message))
                    }
                    Err(message) => Err(ServeError::Rejected(message)),
                };
            }
            if !state.pending.contains_key(&id) {
                return Err(ServeError::Protocol(format!(
                    "request {id} vanished without a reply"
                )));
            }
            state = self.cond.wait(state).expect("remote client lock");
        }
    }

    /// Fails every outstanding request and wakes all waiters.
    fn fail_all(state: &mut ClientState, cond: &Condvar, message: &str) {
        let ids: Vec<u64> = state.pending.keys().copied().collect();
        for id in ids {
            deliver(state, id, Err(message.to_owned()));
        }
        cond.notify_all();
    }
}

/// The background reader: matches response frames to pending slots and owns
/// the reconnect path.
fn reader_loop(inner: &Arc<ClientInner>, mut stream: TcpStream) {
    let mut reader = FrameReader::new();
    loop {
        match reader.read_msg::<ServerMsg>(&mut stream, DEFAULT_MAX_FRAME_BYTES) {
            Ok(msg) => {
                let mut state = inner.state.lock().expect("remote client lock");
                match msg {
                    ServerMsg::BatchResult { id, reports, .. } => {
                        deliver(&mut state, id, Ok(Reply::Batch(reports)));
                    }
                    ServerMsg::Stats { id, stats, .. } => {
                        deliver(&mut state, id, Ok(Reply::Stats(stats)));
                    }
                    ServerMsg::Error {
                        id: Some(id),
                        message,
                    } => {
                        deliver(&mut state, id, Err(message));
                    }
                    ServerMsg::Error { id: None, message } => {
                        // Connection-level error: the server is about to
                        // close on us. Treat like a disconnect (reconnect
                        // replays the window) but remember the reason.
                        drop(state);
                        match reconnect(inner, &message) {
                            Some((s, r)) => {
                                stream = s;
                                reader = r;
                            }
                            None => return,
                        }
                        continue;
                    }
                    ServerMsg::Goodbye => {
                        if state.closed {
                            state.stream = None;
                            ClientInner::fail_all(
                                &mut state,
                                &inner.cond,
                                "the remote session closed",
                            );
                            return;
                        }
                        // Server-initiated drain: reconnect (the restart
                        // case) or give up after retries.
                        drop(state);
                        match reconnect(inner, "server said goodbye") {
                            Some((s, r)) => {
                                stream = s;
                                reader = r;
                            }
                            None => return,
                        }
                        continue;
                    }
                    ServerMsg::Welcome(_) => {
                        // Handshakes are read inline by connect/reconnect;
                        // a stray Welcome here is a server bug — ignore.
                    }
                }
                inner.cond.notify_all();
            }
            Err(error) => {
                {
                    let mut state = inner.state.lock().expect("remote client lock");
                    state.stream = None;
                    if state.closed {
                        ClientInner::fail_all(&mut state, &inner.cond, "the remote session closed");
                        return;
                    }
                }
                match reconnect(inner, &error.to_string()) {
                    Some((s, r)) => {
                        stream = s;
                        reader = r;
                    }
                    None => return,
                }
            }
        }
    }
}

/// Resolves slot `id`, unless it already resolved. Unknown ids (e.g. a
/// duplicate reply straddling a reconnect) are dropped: every waiter matches
/// on its own id, so spurious frames cannot corrupt another request's
/// result.
fn deliver(state: &mut ClientState, id: u64, result: Result<Reply, String>) {
    let Some(slot) = state.pending.get_mut(&id) else {
        return;
    };
    if slot.result.is_some() {
        return;
    }
    // The pipeline window frees on *delivery*, not on `wait` — a submitter
    // blocked on a full window must not deadlock against a caller that
    // collects its replies only after submitting them all.
    if slot.kind == SlotKind::Batch {
        state.batches_in_flight = state.batches_in_flight.saturating_sub(1);
    }
    if slot.abandoned {
        state.pending.remove(&id);
    } else {
        slot.result = Some(result);
    }
}

/// Dials, handshakes and replays the window. Returns the new read half or
/// `None` when retries are exhausted (state is then marked broken) or the
/// backend closed meanwhile.
fn reconnect(inner: &Arc<ClientInner>, reason: &str) -> Option<(TcpStream, FrameReader)> {
    let retries = inner.reconnect.max_retries;
    for attempt in 0..retries {
        // Sleep in small slices so a concurrent drop aborts promptly.
        let mut remaining = inner.reconnect.delay(attempt);
        while !remaining.is_zero() {
            let slice = remaining.min(Duration::from_millis(25));
            std::thread::sleep(slice);
            remaining -= slice;
            if inner.state.lock().expect("remote client lock").closed {
                return None;
            }
        }
        let Ok(mut fresh) = TcpStream::connect(inner.addr) else {
            continue;
        };
        let _ = fresh.set_nodelay(true);
        if handshake(&mut fresh, &inner.hello).is_err() {
            continue;
        }
        let mut state = inner.state.lock().expect("remote client lock");
        if state.closed {
            return None;
        }
        // Replay the whole pending window in id order — under the state
        // lock, so submitters cannot interleave half a frame into the replay
        // stream.
        let mut wrote_ok = true;
        let frames: Vec<Vec<u8>> = state
            .pending
            .values()
            .filter(|slot| slot.result.is_none())
            .map(|slot| slot.frame.clone())
            .collect();
        for frame in frames {
            if fresh.write_all(&frame).is_err() {
                wrote_ok = false;
                break;
            }
        }
        if !wrote_ok {
            continue;
        }
        let Ok(write_half) = fresh.try_clone() else {
            continue;
        };
        state.stream = Some(write_half);
        state.generation += 1;
        inner.cond.notify_all();
        return Some((fresh, FrameReader::new()));
    }
    let message = format!("{reason} (after {retries} reconnect attempts)");
    let mut state = inner.state.lock().expect("remote client lock");
    state.stream = None;
    state.broken = Some(message.clone());
    ClientInner::fail_all(&mut state, &inner.cond, &message);
    None
}

/// Writes `Hello` and reads `Welcome` on a fresh stream (bounded by a read
/// timeout so a wedged server cannot hang the reconnect loop forever).
fn handshake(stream: &mut TcpStream, hello: &Hello) -> Result<Welcome, ServeError> {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    stream.write_all(&encode_frame(&ClientMsg::Hello(hello.clone()))?)?;
    let mut reader = FrameReader::new();
    let welcome = match reader.read_msg(stream, DEFAULT_MAX_FRAME_BYTES)? {
        ServerMsg::Welcome(welcome) => Ok(welcome),
        ServerMsg::Error { message, .. } => Err(ServeError::Rejected(message)),
        other => Err(ServeError::Protocol(format!(
            "expected Welcome, got {other:?}"
        ))),
    };
    let _ = stream.set_read_timeout(None);
    welcome
}

/// One in-flight batch: hand the window to the server, collect later.
///
/// Dropping a `PendingReply` without waiting abandons the result: a reply
/// that already arrived is discarded at once, and one still on its way is
/// discarded by the reader on arrival (until then it still counts against
/// the pipeline window).
#[must_use = "a submitted batch resolves through PendingReply::wait"]
pub struct PendingReply {
    inner: Arc<ClientInner>,
    /// `None` for an empty batch, which never touches the wire.
    id: Option<u64>,
    expected: usize,
    /// The `serve.rpc.ns` span covering this request's submit→resolve
    /// lifetime; finished when the reply resolves (or the handle is
    /// abandoned).
    span: Option<SpanHandle>,
}

impl PendingReply {
    /// Blocks until the batch resolves, returning reports in input order.
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] when the server failed the batch,
    /// [`ServeError::Disconnected`] when the connection died and every
    /// reconnect attempt failed.
    pub fn wait(mut self) -> Result<Vec<PerformanceReport>, ServeError> {
        let Some(id) = self.id.take() else {
            return Ok(Vec::new());
        };
        let outcome = self.inner.wait(id);
        if let Some(span) = self.span.as_mut() {
            span.finish();
        }
        match outcome? {
            Reply::Batch(reports) => {
                if reports.len() == self.expected {
                    Ok(reports)
                } else {
                    Err(ServeError::Protocol(format!(
                        "asked for {} reports, got {}",
                        self.expected,
                        reports.len()
                    )))
                }
            }
            _ => Err(ServeError::Protocol(
                "expected BatchResult for a batch request".to_owned(),
            )),
        }
    }
}

impl Drop for PendingReply {
    fn drop(&mut self) {
        let Some(id) = self.id else { return };
        // Never panic in drop: a poisoned lock means another thread already
        // panicked with the client state.
        let Ok(mut state) = self.inner.state.lock() else {
            return;
        };
        let Some(slot) = state.pending.get_mut(&id) else {
            return;
        };
        if slot.result.is_none() {
            slot.abandoned = true;
        } else {
            state.pending.remove(&id);
            // `goodbye` may be waiting for the map to empty.
            self.inner.cond.notify_all();
        }
    }
}

/// One remote evaluation session: an [`EvalBackend`] whose engine lives in
/// an [`EvalServer`](crate::EvalServer) process, reached over a
/// length-prefixed JSON protocol.
///
/// [`EvalBackend::evaluate_batch`] pipelines its own sub-batches
/// ([`RemoteBackend::try_evaluate_batch`]); [`RemoteBackend::submit_batch`]
/// lets a caller pipeline whole batches, up to [`RemoteConfig::pipeline`] in
/// flight. One backend is one connection and one server-side session; a
/// second session is a second `connect`.
pub struct RemoteBackend {
    inner: Arc<ClientInner>,
    benchmark: Benchmark,
    node: TechnologyNode,
    metric_specs: Vec<MetricSpec>,
    session: String,
    /// Per-handle counter seeding the deterministic trace id of each root
    /// span this handle opens when no ambient trace context exists: one per
    /// [`RemoteBackend::try_evaluate_batch`] and one per bare
    /// [`RemoteBackend::submit_batch`].
    trace_seq: AtomicU64,
}

impl std::fmt::Debug for RemoteBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteBackend")
            .field("benchmark", &self.benchmark)
            .field("node", &self.node.name)
            .field("session", &self.session)
            .finish()
    }
}

impl RemoteBackend {
    /// Connects and performs the versioned handshake with default options.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the server is unreachable,
    /// [`ServeError::Rejected`] when the handshake is refused (e.g. a
    /// protocol version mismatch or admission control).
    pub fn connect(
        addr: impl ToSocketAddrs,
        benchmark: Benchmark,
        node: &TechnologyNode,
    ) -> Result<Self, ServeError> {
        Self::connect_with(addr, benchmark, node, RemoteConfig::default())
    }

    /// Connects with explicit session / pipeline / reconnect options.
    ///
    /// # Errors
    ///
    /// As for [`RemoteBackend::connect`].
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        benchmark: Benchmark,
        node: &TechnologyNode,
        config: RemoteConfig,
    ) -> Result<Self, ServeError> {
        let mut stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let hello = Hello {
            version: PROTOCOL_VERSION,
            benchmark,
            node: node.clone(),
            session: config.session.clone(),
        };
        let welcome = handshake(&mut stream, &hello)?;
        let write_half = stream.try_clone()?;
        let inner = Arc::new(ClientInner {
            addr: stream.peer_addr()?,
            hello,
            pipeline: config.pipeline.max(1),
            reconnect: config.reconnect,
            state: Mutex::new(ClientState {
                stream: Some(write_half),
                pending: BTreeMap::new(),
                next_id: 1,
                batches_in_flight: 0,
                generation: 0,
                closed: false,
                broken: None,
            }),
            cond: Condvar::new(),
            reader: Mutex::new(None),
        });
        let for_reader = Arc::clone(&inner);
        let handle = std::thread::Builder::new()
            .name("gcnrl-remote-reader".to_owned())
            .spawn(move || reader_loop(&for_reader, stream))
            .map_err(ServeError::Io)?;
        *inner.reader.lock().expect("reader handle lock") = Some(handle);
        Ok(RemoteBackend {
            inner,
            benchmark,
            node: node.clone(),
            metric_specs: welcome.metric_specs,
            session: welcome.session,
            trace_seq: AtomicU64::new(0),
        })
    }

    /// Completed reconnects so far (0 on an unbroken connection).
    pub fn reconnects(&self) -> u64 {
        self.inner
            .state
            .lock()
            .expect("remote client lock")
            .generation
    }

    /// Submits a batch without waiting: up to [`RemoteConfig::pipeline`]
    /// submissions ride the wire concurrently (the call blocks once the
    /// window is full). Results come back through [`PendingReply::wait`],
    /// in input order within the batch regardless of response reordering.
    ///
    /// Each submission opens a `serve.rpc.ns` span — a child of the ambient
    /// trace context when one is active (the `serve.evaluate.ns` root of
    /// [`RemoteBackend::try_evaluate_batch`], or a caller's own span), else
    /// the root of a fresh deterministic trace keyed on this handle's
    /// session name and request counter — and the span's context rides the
    /// frame so server-side spans parent under it.
    ///
    /// # Errors
    ///
    /// Transport errors; a full window blocks rather than erroring.
    pub fn submit_batch(&self, params: &[ParamVector]) -> Result<PendingReply, ServeError> {
        if params.is_empty() {
            return Ok(PendingReply {
                inner: Arc::clone(&self.inner),
                id: None,
                expected: 0,
                span: None,
            });
        }
        let span = self.open_span("serve.rpc.ns");
        let trace = Some(span.context());
        let owned = params.to_vec();
        let id = self
            .inner
            .send(SlotKind::Batch, move |id| ClientMsg::EvalBatch {
                id,
                params: owned,
                trace,
            })?;
        Ok(PendingReply {
            inner: Arc::clone(&self.inner),
            id: Some(id),
            expected: params.len(),
            span: Some(span),
        })
    }

    /// Evaluates a batch remotely, returning reports in input order.
    ///
    /// The batch rides the wire as pipelined sub-batches of 8 candidates:
    /// all are submitted through the [`RemoteConfig::pipeline`] window
    /// before any is collected, so the server evaluates the first while
    /// later ones are still in transit. One `serve.evaluate.ns` span covers
    /// the call, and every sub-batch's `serve.rpc.ns` span parents under it.
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] when the server failed a sub-batch (e.g. an
    /// evaluator panic — the message carries the original panic text, like
    /// the local session contract), transport/protocol errors otherwise.
    /// The sub-batches still in flight are abandoned.
    pub fn try_evaluate_batch(
        &self,
        params: &[ParamVector],
    ) -> Result<Vec<PerformanceReport>, ServeError> {
        if params.is_empty() {
            return Ok(Vec::new());
        }
        let root = self.open_span("serve.evaluate.ns");
        let _scope = root.enter();
        let pending = params
            .chunks(SUB_BATCH)
            .map(|chunk| self.submit_batch(chunk))
            .collect::<Result<Vec<_>, _>>()?;
        let mut reports = Vec::with_capacity(params.len());
        for reply in pending {
            reports.extend(reply.wait()?);
        }
        Ok(reports)
    }

    /// Opens a span under the ambient trace context, or as the root of a
    /// fresh trace keyed on this handle's session name and counter.
    fn open_span(&self, name: &'static str) -> SpanHandle {
        match TraceContext::current() {
            Some(parent) => SpanHandle::child_of(name, parent),
            None => {
                let seq = self.trace_seq.fetch_add(1, Ordering::Relaxed);
                SpanHandle::root(name, trace_id_for(&self.session, seq))
            }
        }
    }

    /// Fetches the server-side statistics bundle (shared engine, this
    /// session, last batch).
    ///
    /// # Errors
    ///
    /// Transport/protocol errors.
    pub fn remote_stats(&self) -> Result<WireStats, ServeError> {
        let id = self
            .inner
            .send(SlotKind::Control, |id| ClientMsg::Stats { id })?;
        match self.inner.wait(id)? {
            Reply::Stats(stats) => Ok(stats),
            _ => Err(ServeError::Protocol(
                "expected Stats for a Stats request".to_owned(),
            )),
        }
    }

    /// Closes the connection cleanly: waits until every in-flight request
    /// resolves, says `Goodbye` and joins the reader.
    ///
    /// # Errors
    ///
    /// Transport errors; the handle is consumed either way.
    pub fn goodbye(self) -> Result<(), ServeError> {
        let mut state = self.inner.state.lock().expect("remote client lock");
        while !state.pending.is_empty() && state.broken.is_none() {
            state = self.inner.cond.wait(state).expect("remote client lock");
        }
        state.closed = true;
        let outcome = match &mut state.stream {
            Some(stream) => match encode_frame(&ClientMsg::Goodbye) {
                Ok(frame) => stream.write_all(&frame).map_err(ServeError::Io),
                Err(error) => Err(ServeError::Io(error)),
            },
            None => Ok(()),
        };
        drop(state);
        self.inner.cond.notify_all();
        if let Some(handle) = self.inner.reader.lock().expect("reader handle lock").take() {
            let _ = handle.join();
        }
        outcome
    }
}

impl Drop for RemoteBackend {
    fn drop(&mut self) {
        // Best-effort Goodbye, then stop and join the reader so no thread
        // outlives the backend.
        {
            let mut state = self.inner.state.lock().expect("remote client lock");
            if !state.closed {
                state.closed = true;
                if let Some(stream) = &mut state.stream {
                    if let Ok(frame) = encode_frame(&ClientMsg::Goodbye) {
                        let _ = stream.write_all(&frame);
                    }
                    let _ = stream.shutdown(Shutdown::Both);
                }
            }
            self.inner.cond.notify_all();
        }
        if let Some(handle) = self.inner.reader.lock().expect("reader handle lock").take() {
            let _ = handle.join();
        }
    }
}

impl EvalBackend for RemoteBackend {
    fn benchmark(&self) -> Benchmark {
        self.benchmark
    }

    fn technology(&self) -> &TechnologyNode {
        &self.node
    }

    fn metric_specs(&self) -> &[MetricSpec] {
        &self.metric_specs
    }

    /// # Panics
    ///
    /// Panics when the server failed the batch or became unreachable,
    /// mirroring
    /// [`SessionHandle::evaluate_batch`](gcnrl_exec::SessionHandle::evaluate_batch)'s
    /// contract
    /// (`SessionHandle` panics on a failed batch too). Use
    /// [`RemoteBackend::try_evaluate_batch`] to handle failures.
    fn evaluate_batch(&self, params: &[ParamVector]) -> Vec<PerformanceReport> {
        match self.try_evaluate_batch(params) {
            Ok(reports) => reports,
            Err(ServeError::Rejected(message)) => {
                panic!("remote evaluation failed: {message}")
            }
            Err(error) => panic!("remote evaluation transport failed: {error}"),
        }
    }

    fn stats(&self) -> ExecStats {
        self.remote_stats()
            .map(|s| s.engine)
            .unwrap_or_else(|error| panic!("remote stats unavailable: {error}"))
    }

    fn last_batch(&self) -> BatchReport {
        self.remote_stats()
            .map(|s| s.last_batch)
            .unwrap_or_else(|error| panic!("remote stats unavailable: {error}"))
    }
}
