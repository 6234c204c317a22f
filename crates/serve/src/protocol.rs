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
//! # Pipelining
//!
//! Every request carries a client-chosen `id` echoed on its response, so a
//! client may keep a whole *window* of requests in flight and match
//! responses out of order. A connection carries exactly one session: a
//! client wanting a second session opens a second connection.
//!
//! A connection opens with a versioned handshake ([`Hello`] →
//! [`ServerMsg::Welcome`] or [`ServerMsg::Error`]), then any number of
//! pipelined [`ClientMsg::EvalBatch`] / [`ClientMsg::Stats`] exchanges, and
//! closes with `Goodbye` (or by dropping the socket — the server tolerates
//! mid-batch disconnects).

use gcnrl_circuit::{benchmarks::Benchmark, ParamVector, TechnologyNode};
use gcnrl_exec::{BatchReport, ExecStats, SessionStats};
use gcnrl_sim::{MetricSpec, PerformanceReport};
use gcnrl_telemetry::TraceContext;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};

/// Version of the wire protocol; bumped on incompatible message changes.
/// The handshake answers a [`Hello`] carrying any other version with a
/// connection-level [`ServerMsg::Error`].
///
/// Requests carry an `id` (responses may return out of order — pipelining)
/// and each connection carries one session; [`ClientMsg::EvalBatch`]
/// carries an optional distributed-tracing context so server-side spans
/// parent under the caller's span and the pipelined sub-batches of one
/// remote batch reassemble into one request tree.
pub const PROTOCOL_VERSION: u32 = 7;

/// Cap on one frame's payload size (32 MiB), enforced by the server and the
/// client on every frame they receive. A `u32` length prefix could announce
/// 4 GiB; the cap keeps a corrupt or hostile peer from making the receiver
/// allocate it.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 32 << 20;

/// The handshake a client opens its connection with.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Hello {
    /// Client protocol version; must equal [`PROTOCOL_VERSION`].
    pub version: u32,
    /// Benchmark the session evaluates (selects the registry service).
    pub benchmark: Benchmark,
    /// Technology node of the evaluator.
    pub node: TechnologyNode,
    /// Optional session name (shown in server-side [`SessionStats`]);
    /// defaults to the peer address.
    pub session: Option<String>,
}

/// The server's answer to a valid [`Hello`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Welcome {
    /// The protocol version the connection will speak
    /// ([`PROTOCOL_VERSION`]).
    pub version: u32,
    /// The session name the server registered for the connection.
    pub session: String,
    /// Metric descriptions of the session's evaluator, in evaluator order — what [`EvalBackend::metric_specs`](gcnrl_exec::EvalBackend)
    /// reports on the client side.
    pub metric_specs: Vec<MetricSpec>,
}

/// The statistics bundle answering [`ClientMsg::Stats`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireStats {
    /// Cumulative statistics of the shared engine serving the session — the
    /// merged view where cross-client cache hits show up.
    pub engine: ExecStats,
    /// The connection's session accounting.
    pub session: SessionStats,
    /// The engine's most recent batch.
    pub last_batch: BatchReport,
}

/// Messages a client sends. Every request variant carries a
/// client-chosen `id` that the server echoes on the response, so responses
/// may return out of order.
///
/// (Variant sizes are deliberately uneven — `Hello` inlines the technology
/// node. Wire messages are transient, one-per-exchange values,
/// so the `large_enum_variant` size concern does not apply.)
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ClientMsg {
    /// Handshake; must be the first message on the connection. Binds the
    /// connection to a session for `(benchmark, node)`.
    Hello(Hello),
    /// Evaluate a batch of candidates through the connection's session.
    EvalBatch {
        /// Request id, echoed on the response.
        id: u64,
        /// Candidate sizings, evaluated in order.
        params: Vec<ParamVector>,
        /// Distributed-tracing context: when present, server-side spans for
        /// this request parent under the caller's span (a missing key
        /// decodes as `None`); never affects results.
        trace: Option<TraceContext>,
    },
    /// Request the connection's session/engine statistics.
    Stats {
        /// Request id, echoed on the response.
        id: u64,
    },
    /// Close the connection cleanly (its session retires).
    Goodbye,
}

/// Messages a server sends.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServerMsg {
    /// Successful handshake (the session is open).
    Welcome(Welcome),
    /// Reports for one [`ClientMsg::EvalBatch`], in request order.
    BatchResult {
        /// Echo of the request id.
        id: u64,
        /// One report per requested candidate.
        reports: Vec<PerformanceReport>,
    },
    /// Statistics answering [`ClientMsg::Stats`].
    Stats {
        /// Echo of the request id.
        id: u64,
        /// The statistics bundle.
        stats: WireStats,
    },
    /// The request failed (handshake rejection, admission control,
    /// evaluator panic, malformed message). `id` is `None` for
    /// connection-level failures that answer no specific request.
    Error {
        /// Echo of the failing request's id (`None`: connection-level).
        id: Option<u64>,
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
/// (prefix included); [`write_frame`] builds on it.
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
        // The frame is consumed whether or not it decodes, so a bad payload
        // (invalid UTF-8 included) costs one error, never a re-read of the
        // same bytes.
        let msg = std::str::from_utf8(&self.buf[4..4 + len])
            .map_err(|e| FrameError::Malformed(e.to_string()))
            .and_then(|payload| {
                serde_json::from_str::<T>(payload).map_err(|e| FrameError::Malformed(e.to_string()))
            });
        self.buf.drain(..4 + len);
        msg.map(Some)
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
                params: vec![ParamVector::new(vec![ComponentParams::Resistance(1.25)])],
                trace: Some(TraceContext {
                    trace_id: 0xdead_beef,
                    span_id: 42,
                }),
            },
            ClientMsg::Stats { id: 10 },
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
    fn eval_batch_without_a_trace_key_decodes_with_trace_none() {
        // The trace context is optional: an EvalBatch without a `trace`
        // member decodes with `trace: None`, and a present context survives
        // the round trip bit-exactly.
        let untraced = "{\"EvalBatch\":{\"id\":3,\"params\":[]}}";
        let back: ClientMsg = serde_json::from_str(untraced).expect("decode untraced batch");
        assert_eq!(
            back,
            ClientMsg::EvalBatch {
                id: 3,
                params: vec![],
                trace: None,
            }
        );
        let with_trace = ClientMsg::EvalBatch {
            id: 5,
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
    fn invalid_utf8_payloads_are_consumed_like_malformed_json() {
        // A payload that is not UTF-8 fails before JSON parsing; it must be
        // dropped all the same, or a reader that keeps going after a
        // malformed frame would decode the same bytes forever.
        let mut wire = Vec::new();
        let junk = b"\xff\xfe\x00";
        wire.extend_from_slice(&(junk.len() as u32).to_be_bytes());
        wire.extend_from_slice(junk);
        write_frame(&mut wire, &ClientMsg::Goodbye).expect("write");
        let mut reader = FrameReader::new();
        let mut cursor = std::io::Cursor::new(wire);
        assert!(matches!(
            reader.read_msg::<ClientMsg>(&mut cursor, DEFAULT_MAX_FRAME_BYTES),
            Err(FrameError::Malformed(_))
        ));
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
}
