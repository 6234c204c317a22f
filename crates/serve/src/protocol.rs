//! The wire protocol: length-prefixed JSON frames carrying serde messages.
//!
//! Every message travels as one *frame*:
//!
//! ```text
//!   ┌──────────────┬──────────────────────────────┐
//!   │ length: u32  │ payload: `length` JSON bytes │
//!   │ (big-endian) │ (one serialised message)     │
//!   └──────────────┴──────────────────────────────┘
//! ```
//!
//! JSON (through the workspace's serde stack) keeps the protocol inspectable
//! with `nc`/`tcpdump` and — crucially — **bit-exact**: the local
//! `serde_json` prints floats with shortest round-trip formatting, so a
//! [`PerformanceReport`] deserialised on the client is bit-identical to the
//! one the server's engine produced. That is what lets a
//! [`RemoteBackend`](crate::RemoteBackend) reproduce local runs exactly.
//!
//! # Pipelining and multiplexing
//!
//! Every request carries a client-chosen `id` echoed on its response, so a
//! client may keep a whole *window* of requests in flight and match
//! responses out of order; and a `channel` number names one of several
//! logical sessions sharing the socket ([`ClientMsg::Open`] opens extra
//! channels — e.g. a trainer running source + target transfer sessions over
//! one connection).
//!
//! A connection opens with a versioned handshake ([`Hello`], which binds
//! channel 0 →
//! [`ServerMsg::Welcome`] or [`ServerMsg::Error`]), then any number of
//! pipelined [`ClientMsg::EvalBatch`] / [`ClientMsg::Stats`] /
//! [`ClientMsg::Metrics`] exchanges (and channel `Open`/`Close`), and closes
//! with `Goodbye` (or by dropping the socket — the server tolerates
//! mid-batch disconnects).

use gcnrl_circuit::{benchmarks::Benchmark, ParamVector, TechnologyNode};
use gcnrl_exec::{BatchReport, ExecStats, SessionStats};
use gcnrl_sim::{MetricSpec, PerformanceReport};
use gcnrl_telemetry::{RegistrySnapshot, TraceContext};
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};

/// Version of the wire protocol; bumped on incompatible message changes.
/// The handshake answers a [`Hello`] carrying any other version with a
/// connection-level [`ServerMsg::Error`].
///
/// Requests carry an `id` (responses may return out of order — pipelining)
/// and a `channel` (several logical sessions per socket — multiplexing);
/// [`ClientMsg::EvalBatch`] carries an optional distributed-tracing context
/// so server-side spans parent under the caller's span and a sharded
/// fan-out reassembles into one request tree.
pub const PROTOCOL_VERSION: u32 = 5;

/// Default cap on one frame's payload size (32 MiB). A `u32` length prefix
/// could announce 4 GiB; the cap keeps a corrupt or hostile peer from making
/// the receiver allocate it.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 32 << 20;

/// The handshake a client opens its connection with.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Hello {
    /// Client protocol version; must equal [`PROTOCOL_VERSION`].
    pub version: u32,
    /// Benchmark channel 0 evaluates (selects the registry service).
    pub benchmark: Benchmark,
    /// Technology node of the evaluator.
    pub node: TechnologyNode,
    /// Optional session name (shown in server-side [`SessionStats`]);
    /// defaults to the peer address.
    pub session: Option<String>,
    /// Optional fair-share weight mapped onto
    /// [`SessionHandle::with_weight`](gcnrl_exec::SessionHandle::with_weight).
    pub weight: Option<u64>,
}

/// The server's answer to a valid [`Hello`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Welcome {
    /// The protocol version the connection will speak
    /// ([`PROTOCOL_VERSION`]).
    pub version: u32,
    /// The session name the server registered for channel 0.
    pub session: String,
    /// Metric descriptions of the evaluator behind channel 0, in evaluator
    /// order — what [`EvalBackend::metric_specs`](gcnrl_exec::EvalBackend)
    /// reports on the client side.
    pub metric_specs: Vec<MetricSpec>,
}

/// The statistics bundle answering [`ClientMsg::Stats`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireStats {
    /// Cumulative statistics of the shared engine serving the session — the
    /// merged view where cross-client cache hits show up.
    pub engine: ExecStats,
    /// The channel's session accounting.
    pub session: SessionStats,
    /// The engine's most recent batch.
    pub last_batch: BatchReport,
}

/// Messages a client sends. Every request variant carries a
/// client-chosen `id` that the server echoes on the response, so responses
/// may return out of order; `channel` selects which of the connection's
/// logical sessions serves the request (channel 0 is bound by the
/// handshake, further channels by [`ClientMsg::Open`]).
///
/// (Variant sizes are deliberately uneven — `Hello`/`Open` inline the
/// technology node. Wire messages are transient, one-per-exchange values,
/// so the `large_enum_variant` size concern does not apply.)
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ClientMsg {
    /// Handshake; must be the first message on the connection. Binds
    /// channel 0 to a session for `(benchmark, node)`.
    Hello(Hello),
    /// Opens another logical session on the same socket under a fresh,
    /// client-chosen channel number. Answered by [`ServerMsg::Opened`].
    Open {
        /// Request id, echoed on the response.
        id: u64,
        /// Client-chosen channel number; must not collide with a channel
        /// that is already open on this connection.
        channel: u32,
        /// Benchmark the new channel evaluates.
        benchmark: Benchmark,
        /// Technology node of the evaluator.
        node: TechnologyNode,
        /// Optional session name (defaults to `peer#channel`).
        session: Option<String>,
        /// Optional fair-share weight for the new session.
        weight: Option<u64>,
    },
    /// Closes one channel (retiring its server-side session) while the
    /// connection and its other channels stay open. Answered by
    /// [`ServerMsg::Closed`].
    Close {
        /// Request id, echoed on the response.
        id: u64,
        /// The channel to close.
        channel: u32,
    },
    /// Evaluate a batch of candidates through one channel's session.
    EvalBatch {
        /// Request id, echoed on the response.
        id: u64,
        /// Channel whose session evaluates the batch.
        channel: u32,
        /// Candidate sizings, evaluated in order.
        params: Vec<ParamVector>,
        /// Distributed-tracing context: when present, server-side spans for
        /// this request parent under the caller's span (a missing key
        /// decodes as `None`); never affects results.
        trace: Option<TraceContext>,
    },
    /// Request the channel's session/engine statistics.
    Stats {
        /// Request id, echoed on the response.
        id: u64,
        /// Channel whose session is described.
        channel: u32,
    },
    /// Request the server's full telemetry snapshot (every counter, gauge
    /// and latency histogram of the process).
    Metrics {
        /// Request id, echoed on the response.
        id: u64,
    },
    /// Close the connection cleanly (all channels retire).
    Goodbye,
}

/// Messages a server sends.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServerMsg {
    /// Successful handshake (channel 0 is open).
    Welcome(Welcome),
    /// A channel opened by [`ClientMsg::Open`].
    Opened {
        /// Echo of the request id.
        id: u64,
        /// The channel number that is now open.
        channel: u32,
        /// The session name the server registered for the channel.
        session: String,
        /// Metric descriptions of the evaluator behind the channel.
        metric_specs: Vec<MetricSpec>,
    },
    /// A channel closed by [`ClientMsg::Close`].
    Closed {
        /// Echo of the request id.
        id: u64,
        /// The channel that closed.
        channel: u32,
    },
    /// Reports for one [`ClientMsg::EvalBatch`], in request order.
    BatchResult {
        /// Echo of the request id.
        id: u64,
        /// Echo of the request channel.
        channel: u32,
        /// One report per requested candidate.
        reports: Vec<PerformanceReport>,
    },
    /// Statistics answering [`ClientMsg::Stats`].
    Stats {
        /// Echo of the request id.
        id: u64,
        /// Echo of the request channel.
        channel: u32,
        /// The statistics bundle.
        stats: WireStats,
    },
    /// Telemetry snapshot answering [`ClientMsg::Metrics`].
    Metrics {
        /// Echo of the request id.
        id: u64,
        /// The process-wide registry snapshot.
        snapshot: RegistrySnapshot,
    },
    /// The request failed (handshake rejection, admission control,
    /// evaluator panic, malformed message). `id`/`channel` are `None` for
    /// connection-level failures that answer no specific request.
    Error {
        /// Echo of the failing request's id (`None`: connection-level).
        id: Option<u64>,
        /// Echo of the failing request's channel, when known.
        channel: Option<u32>,
        /// Human-readable failure description.
        message: String,
    },
    /// Acknowledges a client `Goodbye` (or announces a server drain); sent
    /// before the server closes the connection.
    Goodbye,
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection at a frame boundary (clean EOF).
    Closed,
    /// The peer closed the connection mid-frame (torn frame).
    Torn {
        /// Bytes of the incomplete frame that did arrive.
        buffered: usize,
    },
    /// The length prefix exceeds the configured cap.
    Oversized {
        /// Announced payload length.
        len: usize,
        /// Configured maximum.
        max: usize,
    },
    /// The payload is not valid JSON for the expected message type.
    Malformed(String),
    /// Transport error.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Torn { buffered } => {
                write!(f, "connection closed mid-frame ({buffered} bytes buffered)")
            }
            FrameError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            FrameError::Malformed(msg) => write!(f, "malformed frame: {msg}"),
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Serialises `msg` into one length-prefixed frame, returning the raw bytes
/// (prefix included). The reactor's worker pool uses this to serialise
/// responses off the I/O thread; [`write_frame`] and
/// [`FrameWriter::queue`] build on it.
///
/// # Errors
///
/// `InvalidData` when the message cannot serialise or exceeds `u32::MAX`
/// payload bytes.
pub fn encode_frame<T: Serialize>(msg: &T) -> std::io::Result<Vec<u8>> {
    let payload = serde_json::to_string(msg)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let bytes = payload.as_bytes();
    let len = u32::try_from(bytes.len())
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "frame too large"))?;
    let mut frame = Vec::with_capacity(4 + bytes.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(bytes);
    Ok(frame)
}

/// Serialises `msg` as one frame onto `writer` and flushes.
///
/// # Errors
///
/// Returns the underlying I/O error (e.g. when the peer disconnected).
pub fn write_frame<T: Serialize>(writer: &mut impl Write, msg: &T) -> std::io::Result<()> {
    let frame = encode_frame(msg)?;
    writer.write_all(&frame)?;
    writer.flush()
}

/// An incremental frame decoder that survives read timeouts: bytes
/// accumulate in an internal buffer across [`FrameReader::poll`] calls, so a
/// timeout landing in the middle of a frame loses nothing. The server uses
/// this to stay responsive to shutdown while a connection idles.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// Creates an empty reader.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Whether a partial frame is currently buffered.
    pub fn mid_frame(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Tries to complete one frame: parses the buffer if a full frame is
    /// already present, otherwise performs **one** `read` on `reader` (which
    /// blocks up to the stream's read timeout, or not at all on a
    /// nonblocking stream) and retries. Returns `Ok(None)` when the read
    /// timed out (or would block) before a frame completed — the caller
    /// decides whether to keep polling.
    ///
    /// # Errors
    ///
    /// [`FrameError::Closed`] on EOF at a frame boundary, [`FrameError::Torn`]
    /// on EOF mid-frame, and the other variants as described on
    /// [`FrameError`].
    pub fn poll<T: for<'de> Deserialize<'de>>(
        &mut self,
        reader: &mut impl Read,
        max_frame_bytes: usize,
    ) -> Result<Option<T>, FrameError> {
        loop {
            if let Some(msg) = self.try_decode(max_frame_bytes)? {
                return Ok(Some(msg));
            }
            let mut chunk = [0u8; 8192];
            match reader.read(&mut chunk) {
                Ok(0) => {
                    return Err(if self.buf.is_empty() {
                        FrameError::Closed
                    } else {
                        FrameError::Torn {
                            buffered: self.buf.len(),
                        }
                    });
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(None);
                }
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
    }

    /// Blocks until a whole frame arrives (for streams without a read
    /// timeout, where [`FrameReader::poll`] never returns `Ok(None)`).
    ///
    /// # Errors
    ///
    /// As for [`FrameReader::poll`]; additionally treats a timeout on a
    /// timeout-configured stream as an I/O error, since "blocking" read was
    /// requested.
    pub fn read_msg<T: for<'de> Deserialize<'de>>(
        &mut self,
        reader: &mut impl Read,
        max_frame_bytes: usize,
    ) -> Result<T, FrameError> {
        match self.poll(reader, max_frame_bytes)? {
            Some(msg) => Ok(msg),
            None => Err(FrameError::Io(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "read timed out waiting for a frame",
            ))),
        }
    }

    /// Parses one frame out of the buffer if it is complete.
    fn try_decode<T: for<'de> Deserialize<'de>>(
        &mut self,
        max_frame_bytes: usize,
    ) -> Result<Option<T>, FrameError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        if len > max_frame_bytes {
            return Err(FrameError::Oversized {
                len,
                max: max_frame_bytes,
            });
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let payload = std::str::from_utf8(&self.buf[4..4 + len])
            .map_err(|e| FrameError::Malformed(e.to_string()))?;
        let msg =
            serde_json::from_str::<T>(payload).map_err(|e| FrameError::Malformed(e.to_string()));
        self.buf.drain(..4 + len);
        msg.map(Some)
    }
}

/// A buffered writer for nonblocking sockets: frames queue into an internal
/// buffer and [`FrameWriter::flush_into`] writes as much as the socket
/// accepts, keeping the rest (with its progress offset) for the next
/// readiness event. The reactor holds one per connection and only asks for
/// write-readiness while bytes are pending, so a slow or stalled client
/// costs buffer memory, never an I/O thread.
#[derive(Debug, Default)]
pub struct FrameWriter {
    buf: Vec<u8>,
    /// Bytes of `buf` already written to the socket (compacted lazily so a
    /// long sequence of partial writes does not re-copy the whole buffer
    /// each time).
    head: usize,
}

impl FrameWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        FrameWriter::default()
    }

    /// Bytes queued but not yet accepted by the socket.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Whether everything queued has been written.
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Serialises `msg` and queues it as one frame.
    ///
    /// # Errors
    ///
    /// `InvalidData` when the message cannot serialise (nothing is queued).
    pub fn queue<T: Serialize>(&mut self, msg: &T) -> std::io::Result<()> {
        let frame = encode_frame(msg)?;
        self.queue_frame(&frame);
        Ok(())
    }

    /// Queues one pre-encoded frame (length prefix included) — the worker
    /// pool serialises responses off the reactor thread and hands the raw
    /// bytes over.
    pub fn queue_frame(&mut self, frame: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(frame);
    }

    /// Writes as much pending data as `writer` accepts. Returns `Ok(true)`
    /// when the buffer drained completely, `Ok(false)` when the socket
    /// would block with bytes still pending (ask for write-readiness and
    /// retry later).
    ///
    /// # Errors
    ///
    /// Transport errors other than `WouldBlock` (the connection is dead;
    /// drop it).
    pub fn flush_into(&mut self, writer: &mut impl Write) -> std::io::Result<bool> {
        while self.head < self.buf.len() {
            match writer.write(&self.buf[self.head..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => self.head += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    self.compact();
                    return Ok(false);
                }
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.head = 0;
        Ok(true)
    }

    /// Drops already-written bytes once they dominate the buffer (or the
    /// buffer is fully drained), keeping amortised cost linear.
    fn compact(&mut self) {
        if self.head == self.buf.len() {
            self.buf.clear();
            self.head = 0;
        } else if self.head > 64 * 1024 && self.head * 2 > self.buf.len() {
            self.buf.drain(..self.head);
            self.head = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnrl_circuit::ComponentParams;

    fn hello() -> ClientMsg {
        ClientMsg::Hello(Hello {
            version: PROTOCOL_VERSION,
            benchmark: Benchmark::TwoStageTia,
            node: TechnologyNode::tsmc180(),
            session: Some("test".to_owned()),
            weight: Some(2),
        })
    }

    fn frame_bytes<T: Serialize>(msg: &T) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, msg).expect("write to vec");
        out
    }

    #[test]
    fn messages_round_trip_through_frames() {
        let msgs = vec![
            hello(),
            ClientMsg::EvalBatch {
                id: 7,
                channel: 0,
                params: vec![ParamVector::new(vec![ComponentParams::Resistance(1.25)])],
                trace: Some(TraceContext {
                    trace_id: 0xdead_beef,
                    span_id: 42,
                }),
            },
            ClientMsg::Open {
                id: 8,
                channel: 1,
                benchmark: Benchmark::Ldo,
                node: TechnologyNode::tsmc180(),
                session: None,
                weight: None,
            },
            ClientMsg::Close { id: 9, channel: 1 },
            ClientMsg::Stats { id: 10, channel: 0 },
            ClientMsg::Metrics { id: 11 },
            ClientMsg::Goodbye,
        ];
        let mut wire = Vec::new();
        for msg in &msgs {
            write_frame(&mut wire, msg).expect("write");
        }
        let mut reader = FrameReader::new();
        let mut cursor = std::io::Cursor::new(wire);
        for msg in &msgs {
            let back: ClientMsg = reader
                .read_msg(&mut cursor, DEFAULT_MAX_FRAME_BYTES)
                .expect("read");
            assert_eq!(&back, msg);
        }
        assert!(matches!(
            reader.read_msg::<ClientMsg>(&mut cursor, DEFAULT_MAX_FRAME_BYTES),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn reports_round_trip_bit_exactly() {
        let mut report = PerformanceReport::new();
        report.set("gain_db", 1.0 / 3.0);
        report.set("bw_hz", 2.5e9 * (1.0 + f64::EPSILON));
        report.set("noise", -1e-300);
        let msg = ServerMsg::BatchResult {
            id: 3,
            channel: 0,
            reports: vec![report.clone()],
        };
        let mut reader = FrameReader::new();
        let mut cursor = std::io::Cursor::new(frame_bytes(&msg));
        let back: ServerMsg = reader
            .read_msg(&mut cursor, DEFAULT_MAX_FRAME_BYTES)
            .expect("read");
        let ServerMsg::BatchResult { id, reports, .. } = back else {
            panic!("wrong variant");
        };
        assert_eq!(id, 3);
        assert_eq!(reports[0], report);
        for (name, value) in report.iter() {
            assert_eq!(
                reports[0].get(name).unwrap().to_bits(),
                value.to_bits(),
                "{name} drifted through the wire"
            );
        }
    }

    #[test]
    fn v4_frames_without_a_trace_key_decode_with_trace_none() {
        // The trace context is optional: an EvalBatch without a `trace`
        // member (the v4 frame shape) decodes with `trace: None`, and a
        // present context survives the round trip bit-exactly.
        let untraced = "{\"EvalBatch\":{\"id\":3,\"channel\":0,\"params\":[]}}";
        let back: ClientMsg = serde_json::from_str(untraced).expect("decode untraced batch");
        assert_eq!(
            back,
            ClientMsg::EvalBatch {
                id: 3,
                channel: 0,
                params: vec![],
                trace: None,
            }
        );
        let with_trace = ClientMsg::EvalBatch {
            id: 5,
            channel: 2,
            params: vec![],
            trace: Some(TraceContext {
                trace_id: u64::MAX,
                span_id: 1,
            }),
        };
        let json = serde_json::to_string(&with_trace).expect("serialize");
        let back: ClientMsg = serde_json::from_str(&json).expect("decode");
        assert_eq!(back, with_trace);
    }

    #[test]
    fn torn_frames_are_reported_distinctly_from_clean_eof() {
        let full = frame_bytes(&hello());
        for cut in [1usize, 3, 4, full.len() - 1] {
            let mut reader = FrameReader::new();
            let mut cursor = std::io::Cursor::new(full[..cut].to_vec());
            match reader.read_msg::<ClientMsg>(&mut cursor, DEFAULT_MAX_FRAME_BYTES) {
                Err(FrameError::Torn { buffered }) => assert_eq!(buffered, cut),
                other => panic!("cut at {cut}: expected Torn, got {other:?}"),
            }
        }
    }

    #[test]
    fn frames_split_across_reads_reassemble() {
        // A reader fed one byte at a time (worst-case fragmentation) still
        // decodes the frame — the buffer accumulates across short reads.
        struct OneByte(std::io::Cursor<Vec<u8>>);
        impl Read for OneByte {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let take = 1.min(buf.len());
                self.0.read(&mut buf[..take])
            }
        }
        let mut reader = FrameReader::new();
        let mut stream = OneByte(std::io::Cursor::new(frame_bytes(&hello())));
        let back: ClientMsg = reader
            .read_msg(&mut stream, DEFAULT_MAX_FRAME_BYTES)
            .expect("read");
        assert_eq!(back, hello());
    }

    #[test]
    fn oversized_frames_are_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_be_bytes());
        wire.extend_from_slice(b"garbage");
        let mut reader = FrameReader::new();
        let mut cursor = std::io::Cursor::new(wire);
        match reader.read_msg::<ClientMsg>(&mut cursor, 1024) {
            Err(FrameError::Oversized { len, max }) => {
                assert_eq!(len, u32::MAX as usize);
                assert_eq!(max, 1024);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn malformed_payloads_error_but_do_not_poison_the_stream() {
        let mut wire = Vec::new();
        let junk = b"{not json";
        wire.extend_from_slice(&(junk.len() as u32).to_be_bytes());
        wire.extend_from_slice(junk);
        write_frame(&mut wire, &ClientMsg::Goodbye).expect("write");
        let mut reader = FrameReader::new();
        let mut cursor = std::io::Cursor::new(wire);
        assert!(matches!(
            reader.read_msg::<ClientMsg>(&mut cursor, DEFAULT_MAX_FRAME_BYTES),
            Err(FrameError::Malformed(_))
        ));
        // The bad frame is consumed; the next one decodes fine.
        let next: ClientMsg = reader
            .read_msg(&mut cursor, DEFAULT_MAX_FRAME_BYTES)
            .expect("read");
        assert_eq!(next, ClientMsg::Goodbye);
    }

    #[test]
    fn batch_reports_ride_the_wire_directly() {
        let report = BatchReport {
            size: 7,
            cache_hits: 3,
            simulated: 4,
            threads: 2,
            wall_seconds: 0.125,
        };
        let mut reader = FrameReader::new();
        let mut cursor = std::io::Cursor::new(frame_bytes(&report));
        let back: BatchReport = reader
            .read_msg(&mut cursor, DEFAULT_MAX_FRAME_BYTES)
            .expect("read");
        assert_eq!(back, report);
        // The JSON shape is the flat v1 `WireBatchReport` layout.
        let json = serde_json::to_string(&report).expect("serialize");
        assert!(json.contains("\"wall_seconds\""), "{json}");
    }

    #[test]
    fn metrics_snapshots_round_trip_through_frames() {
        let registry = gcnrl_telemetry::MetricsRegistry::new();
        registry.counter("serve.test.counter").add(3);
        registry
            .histogram("serve.test.latency.ns")
            .record(1_000_000);
        let msg = ServerMsg::Metrics {
            id: 12,
            snapshot: registry.snapshot(),
        };
        let mut reader = FrameReader::new();
        let mut cursor = std::io::Cursor::new(frame_bytes(&msg));
        let back: ServerMsg = reader
            .read_msg(&mut cursor, DEFAULT_MAX_FRAME_BYTES)
            .expect("read");
        let ServerMsg::Metrics { id, snapshot } = back else {
            panic!("wrong variant");
        };
        assert_eq!(id, 12);
        assert_eq!(snapshot.counter("serve.test.counter"), Some(3));
        assert_eq!(
            snapshot.histogram("serve.test.latency.ns").unwrap().count,
            1
        );
    }

    #[test]
    fn frame_writer_survives_partial_writes_and_would_block() {
        // A socket that accepts one byte, then signals WouldBlock, on
        // repeat: the writer must resume exactly where it stopped and
        // deliver a byte-identical stream.
        struct Trickle {
            out: Vec<u8>,
            starve: bool,
        }
        impl Write for Trickle {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.starve = !self.starve;
                if self.starve {
                    Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "full"))
                } else {
                    self.out.push(buf[0]);
                    Ok(1)
                }
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let msgs = vec![
            ServerMsg::Goodbye,
            ServerMsg::Error {
                id: Some(1),
                channel: Some(0),
                message: "busy".to_owned(),
            },
        ];
        let mut expected = Vec::new();
        let mut writer = FrameWriter::new();
        for msg in &msgs {
            write_frame(&mut expected, msg).expect("write to vec");
            writer.queue(msg).expect("queue");
        }
        assert_eq!(writer.pending(), expected.len());

        let mut sink = Trickle {
            out: Vec::new(),
            starve: false,
        };
        let mut rounds = 0usize;
        while !writer.flush_into(&mut sink).expect("flush") {
            rounds += 1;
            assert!(rounds < 10 * expected.len(), "flush never drained");
        }
        assert!(writer.is_empty());
        assert_eq!(writer.pending(), 0);
        assert_eq!(sink.out, expected, "stream drifted across partial writes");

        // Queuing after a drain reuses the buffer cleanly.
        writer.queue(&ServerMsg::Goodbye).expect("queue");
        let mut plain = Vec::new();
        assert!(writer.flush_into(&mut plain).expect("flush"));
        let mut reader = FrameReader::new();
        let mut cursor = std::io::Cursor::new(plain);
        let back: ServerMsg = reader
            .read_msg(&mut cursor, DEFAULT_MAX_FRAME_BYTES)
            .expect("read");
        assert_eq!(back, ServerMsg::Goodbye);
    }
}
