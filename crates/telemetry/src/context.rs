//! Distributed trace context, explicit span handles and the flight recorder.
//!
//! The [`span!`](crate::span) guards instrument *one process*. This module
//! adds the causal glue between processes: a [`TraceContext`] (trace id +
//! span id) that rides the serve wire so a server-side span can parent under
//! the client span that caused it, an explicit [`SpanHandle`] for the
//! request path (the client's per-batch RPC span, the sharded fan-out root,
//! the server's per-request segment), and an in-process ring-buffer **flight
//! recorder** keeping the last N completed request trees for `/traces` and
//! the `GCNRL_SLOW_MS` slow-request log.
//!
//! # Determinism
//!
//! Ids are derived from counters, never from wall clocks or RNGs:
//!
//! * a **trace id** hashes the owning session name and a per-backend request
//!   counter (FNV-1a), so re-running a deterministic workload re-produces
//!   the same trace ids;
//! * a **span id** hashes `(trace id, parent id, span name, process-wide
//!   sequence)` — unique within a trace across cooperating processes (the
//!   parent chain differs per process) without any global coordination.
//!
//! Recording only touches a mutex-guarded ring buffer and atomics — results
//! stay bit-identical with tracing (and the recorder) on or off.

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Environment knob: capacity (completed request trees) of the in-process
/// flight recorder ring buffer. Unset/empty keeps the default of 64.
pub const FLIGHT_RECORDER_ENV_VAR: &str = "GCNRL_FLIGHT_RECORDER";

/// Environment knob: slow-request threshold in milliseconds. When set, any
/// finalized request segment lasting at least this long dumps its full span
/// tree to stderr (and bumps the `trace.slow_requests` counter).
pub const SLOW_MS_ENV_VAR: &str = "GCNRL_SLOW_MS";

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

fn fnv1a_bytes(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

fn fnv1a_u64(hash: u64, value: u64) -> u64 {
    fnv1a_bytes(hash, &value.to_le_bytes())
}

/// The causal identity one request carries across the wire: which trace it
/// belongs to and which span is its parent on the sending side. Small and
/// `Copy`, serialised as a plain JSON object on `EvalBatch` frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceContext {
    /// Identity of the whole request tree (shared by every span of it, in
    /// every process it touches).
    pub trace_id: u64,
    /// Span id of the sender-side span that caused this work — the parent
    /// the receiver's spans link under.
    pub span_id: u64,
}

thread_local! {
    /// The ambient context stack of this thread: `SpanHandle::enter` and
    /// traced `span!` guards push, their drops pop. `TraceContext::current`
    /// reads the top.
    static CONTEXT: RefCell<Vec<TraceContext>> = const { RefCell::new(Vec::new()) };
}

impl TraceContext {
    /// The innermost active context on this thread, if any — what a child
    /// span parents under and what outgoing requests attach to their frames.
    pub fn current() -> Option<TraceContext> {
        CONTEXT.with(|stack| stack.borrow().last().copied())
    }
}

pub(crate) fn push_context(ctx: TraceContext) {
    CONTEXT.with(|stack| stack.borrow_mut().push(ctx));
}

pub(crate) fn pop_context() {
    CONTEXT.with(|stack| {
        stack.borrow_mut().pop();
    });
}

/// Derives a deterministic trace id from a session name and that session's
/// request counter (FNV-1a; never zero, so zero can mean "absent" in
/// renderers that want a sentinel).
pub fn trace_id_for(session: &str, request: u64) -> u64 {
    let hash = fnv1a_u64(fnv1a_bytes(FNV_OFFSET, session.as_bytes()), request);
    if hash == 0 {
        FNV_OFFSET
    } else {
        hash
    }
}

/// Process-wide span sequence — the only per-process state behind span ids.
fn next_span_seq() -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    SEQ.fetch_add(1, Ordering::Relaxed) + 1
}

/// Derives the id of a child span opened under `parent` (used by the
/// context-aware [`SpanGuard`](crate::SpanGuard) drop path).
pub(crate) fn child_span_id(parent: TraceContext, name: &str) -> u64 {
    derive_span_id(parent.trace_id, parent.span_id, name)
}

fn derive_span_id(trace_id: u64, parent: u64, name: &str) -> u64 {
    let mut hash = fnv1a_u64(FNV_OFFSET, trace_id);
    hash = fnv1a_u64(hash, parent);
    hash = fnv1a_bytes(hash, name.as_bytes());
    hash = fnv1a_u64(hash, next_span_seq());
    if hash == 0 {
        FNV_OFFSET
    } else {
        hash
    }
}

/// One completed span as the flight recorder stores it (and as `/traces`
/// serialises it).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Span name (the histogram name of the layer).
    pub name: String,
    /// Trace the span belongs to.
    pub trace_id: u64,
    /// This span's id.
    pub span_id: u64,
    /// Parent span id; `None` for the request root.
    pub parent_id: Option<u64>,
    /// Start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Wall duration in nanoseconds.
    pub dur_ns: u64,
}

/// One completed request tree held by the flight recorder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceTree {
    /// Identity of the tree.
    pub trace_id: u64,
    /// Every recorded span of the trace (this process's view), in completion
    /// order. Children complete before their parents, so a parent follows
    /// its children.
    pub spans: Vec<SpanRecord>,
}

impl TraceTree {
    /// Renders the tree as an indented text timeline (parents first), used
    /// by the slow-request log. Spans whose parent was not recorded in this
    /// process (a remote parent) render as roots.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace {:016x}: {} spans",
            self.trace_id,
            self.spans.len()
        );
        let known: Vec<u64> = self.spans.iter().map(|s| s.span_id).collect();
        let mut children: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
        let mut roots: Vec<&SpanRecord> = Vec::new();
        for span in &self.spans {
            match span.parent_id {
                Some(parent) if known.contains(&parent) => {
                    children.entry(parent).or_default().push(span);
                }
                _ => roots.push(span),
            }
        }
        fn emit(
            out: &mut String,
            span: &SpanRecord,
            children: &BTreeMap<u64, Vec<&SpanRecord>>,
            depth: usize,
        ) {
            use std::fmt::Write as _;
            let _ = writeln!(
                out,
                "{:indent$}{} {:.3}ms (span {:016x})",
                "",
                span.name,
                span.dur_ns as f64 / 1e6,
                span.span_id,
                indent = depth * 2,
            );
            if let Some(kids) = children.get(&span.span_id) {
                let mut kids = kids.clone();
                kids.sort_by_key(|s| s.start_ns);
                for kid in kids {
                    emit(out, kid, children, depth + 1);
                }
            }
        }
        roots.sort_by_key(|s| s.start_ns);
        for root in roots {
            emit(&mut out, root, &children, 1);
        }
        out
    }
}

/// The flight recorder: spans of in-flight traces accumulate in `active`;
/// when a trace's local segment finalizes, they move into the bounded ring.
struct Recorder {
    active: BTreeMap<u64, Vec<SpanRecord>>,
    ring: VecDeque<TraceTree>,
    capacity: usize,
    slow_ns: Option<u64>,
}

/// Cap on distinct in-flight traces — a backstop against contexts whose
/// finalizing segment never completes (e.g. a peer that died mid-request).
const MAX_ACTIVE_TRACES: usize = 256;

fn recorder() -> &'static Mutex<Recorder> {
    static RECORDER: OnceLock<Mutex<Recorder>> = OnceLock::new();
    RECORDER.get_or_init(|| {
        Mutex::new(Recorder {
            active: BTreeMap::new(),
            ring: VecDeque::new(),
            capacity: crate::env_usize(FLIGHT_RECORDER_ENV_VAR)
                .unwrap_or(64)
                .max(1),
            slow_ns: crate::env_usize(SLOW_MS_ENV_VAR).map(|ms| ms as u64 * 1_000_000),
        })
    })
}

fn record_into_recorder(record: SpanRecord, finalize: bool) {
    let mut rec = recorder().lock().expect("flight recorder lock");
    let trace_id = record.trace_id;
    let slow = finalize && rec.slow_ns.is_some_and(|ns| record.dur_ns >= ns);
    if !finalize {
        if !rec.active.contains_key(&trace_id) && rec.active.len() >= MAX_ACTIVE_TRACES {
            rec.active.pop_first();
        }
        rec.active.entry(trace_id).or_default().push(record);
        return;
    }
    // Finalize: this process's segment of the trace is complete — move the
    // accumulated spans into the ring, merging with an existing entry for
    // the same trace (several segments of one trace can complete in one
    // process: the in-process sharded tests run client and servers
    // together, and a fan-out touches several shards).
    let mut spans = rec.active.remove(&trace_id).unwrap_or_default();
    spans.push(record);
    if let Some(existing) = rec.ring.iter_mut().find(|t| t.trace_id == trace_id) {
        existing.spans.extend(spans);
    } else {
        while rec.ring.len() >= rec.capacity {
            rec.ring.pop_front();
        }
        rec.ring.push_back(TraceTree { trace_id, spans });
    }
    if slow {
        let tree = rec
            .ring
            .iter()
            .find(|t| t.trace_id == trace_id)
            .cloned()
            .expect("slow trace just recorded");
        drop(rec);
        crate::global().counter("trace.slow_requests").inc();
        eprintln!(
            "[gcnrl-telemetry] slow request ({SLOW_MS_ENV_VAR}):\n{}",
            tree.render()
        );
    }
}

/// The most recent completed request trees, oldest first (bounded by
/// `GCNRL_FLIGHT_RECORDER`, default 64). Always recording — independent of
/// `GCNRL_TRACE` — so `/traces` works on any live process.
pub fn recent_traces() -> Vec<TraceTree> {
    let rec = recorder().lock().expect("flight recorder lock");
    rec.ring.iter().cloned().collect()
}

/// [`recent_traces`] rendered as a JSON array — the `/traces` endpoint body.
pub fn recent_traces_json() -> String {
    serde_json::to_string(&recent_traces()).unwrap_or_else(|_| "[]".to_owned())
}

/// Records one completed span into the flight recorder (and, when tracing
/// is enabled, the JSONL sink). Shared by [`SpanHandle::finish`] and the
/// context-aware [`SpanGuard`](crate::SpanGuard) drop path.
#[allow(clippy::too_many_arguments)]
pub(crate) fn record_span(
    name: &str,
    trace_id: u64,
    span_id: u64,
    parent_id: Option<u64>,
    start_ns: u64,
    dur_ns: u64,
    fields: &str,
    finalize: bool,
) {
    if crate::trace_enabled() {
        crate::trace::write_event_with_ids(
            name,
            start_ns,
            dur_ns,
            fields,
            Some((trace_id, span_id, parent_id)),
        );
    }
    record_into_recorder(
        SpanRecord {
            name: name.to_owned(),
            trace_id,
            span_id,
            parent_id,
            start_ns,
            dur_ns,
        },
        finalize,
    );
}

/// An explicit span on the distributed request path. Unlike the scoped
/// [`span!`](crate::span) guard, a handle can outlive its creating scope
/// (it is `Send` — the server carries one through its task queue while a
/// request is in flight) and is finished exactly once, by [`finish`] or
/// drop.
///
/// Three constructors encode where the parent lives:
///
/// * [`SpanHandle::root`] — a new trace (the client edge); finalizes its
///   trace on finish.
/// * [`SpanHandle::child_of`] — the parent is a live span *in this
///   process*; the parent's own finish finalizes the trace.
/// * [`SpanHandle::remote`] — the parent is in *another process* (its
///   context arrived over the wire); finish finalizes this process's
///   segment of the trace.
///
/// [`finish`]: SpanHandle::finish
#[derive(Debug)]
pub struct SpanHandle {
    name: &'static str,
    trace_id: u64,
    span_id: u64,
    parent_id: Option<u64>,
    start: Instant,
    start_ns: u64,
    finalize: bool,
    finished: bool,
}

impl SpanHandle {
    fn open(name: &'static str, trace_id: u64, parent_id: Option<u64>, finalize: bool) -> Self {
        SpanHandle {
            name,
            trace_id,
            span_id: derive_span_id(trace_id, parent_id.unwrap_or(0), name),
            parent_id,
            start: Instant::now(),
            start_ns: crate::trace::now_ns(),
            finalize,
            finished: false,
        }
    }

    /// Opens the root span of a new trace (see [`trace_id_for`] for the id
    /// derivation).
    pub fn root(name: &'static str, trace_id: u64) -> Self {
        SpanHandle::open(name, trace_id, None, true)
    }

    /// Opens a span under a parent living in this process.
    pub fn child_of(name: &'static str, parent: TraceContext) -> Self {
        SpanHandle::open(name, parent.trace_id, Some(parent.span_id), false)
    }

    /// Opens a span whose parent lives in another process — the receiving
    /// edge of a wire [`TraceContext`]. Finishing it finalizes this
    /// process's segment of the trace into the flight recorder.
    pub fn remote(name: &'static str, parent: TraceContext) -> Self {
        SpanHandle::open(name, parent.trace_id, Some(parent.span_id), true)
    }

    /// The context child spans (local or remote) parent under.
    pub fn context(&self) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id: self.span_id,
        }
    }

    /// Pushes this span onto the thread's ambient context stack, so
    /// [`span!`](crate::span) guards and outgoing requests in the enclosed
    /// scope parent under it. The returned guard pops on drop.
    pub fn enter(&self) -> ContextGuard {
        push_context(self.context());
        ContextGuard { _priv: () }
    }

    /// Completes the span: records its duration into the global histogram
    /// of the same name, appends a JSONL event when tracing is active, and
    /// files it with the flight recorder (finalizing the trace segment for
    /// root/remote spans). Idempotent; also runs on drop.
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        let duration = self.start.elapsed();
        crate::global()
            .histogram(self.name)
            .record_duration(duration);
        record_span(
            self.name,
            self.trace_id,
            self.span_id,
            self.parent_id,
            self.start_ns,
            duration.as_nanos().min(u64::MAX as u128) as u64,
            "",
            self.finalize,
        );
    }
}

impl Drop for SpanHandle {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Pops one ambient-context entry on drop (returned by
/// [`SpanHandle::enter`]). Not `Send`: the pop must happen on the thread
/// that pushed.
pub struct ContextGuard {
    _priv: (),
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        pop_context();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_deterministic_and_nonzero() {
        assert_eq!(trace_id_for("s", 1), trace_id_for("s", 1));
        assert_ne!(trace_id_for("s", 1), trace_id_for("s", 2));
        assert_ne!(trace_id_for("a", 1), trace_id_for("b", 1));
        assert_ne!(trace_id_for("s", 1), 0);
    }

    #[test]
    fn span_handles_link_parent_to_child_across_enter() {
        let trace_id = trace_id_for("link-test", 1);
        let reports_before = recent_traces()
            .iter()
            .filter(|t| t.trace_id == trace_id)
            .count();
        assert_eq!(reports_before, 0);
        let mut root = SpanHandle::root("test.ctx.root.ns", trace_id);
        let root_ctx = root.context();
        {
            let _entered = root.enter();
            assert_eq!(TraceContext::current(), Some(root_ctx));
            let child = SpanHandle::child_of("test.ctx.child.ns", root_ctx);
            assert_eq!(child.context().trace_id, trace_id);
            assert_ne!(child.context().span_id, root_ctx.span_id);
        }
        assert!(TraceContext::current().is_none() || TraceContext::current() != Some(root_ctx));
        root.finish();
        let trees = recent_traces();
        let tree = trees
            .iter()
            .find(|t| t.trace_id == trace_id)
            .expect("finalized trace lands in the ring");
        assert_eq!(tree.spans.len(), 2);
        let root_span = tree
            .spans
            .iter()
            .find(|s| s.name == "test.ctx.root.ns")
            .expect("root span recorded");
        let child_span = tree
            .spans
            .iter()
            .find(|s| s.name == "test.ctx.child.ns")
            .expect("child span recorded");
        assert_eq!(root_span.parent_id, None);
        assert_eq!(child_span.parent_id, Some(root_span.span_id));
        assert!(!tree.render().is_empty());
    }

    #[test]
    fn remote_segments_merge_into_one_ring_entry() {
        let trace_id = trace_id_for("merge-test", 9);
        // A "server-side" segment finalizes first...
        let ctx = TraceContext {
            trace_id,
            span_id: 0xdead,
        };
        SpanHandle::remote("test.ctx.segment.ns", ctx).finish();
        // ...then the "client" root of the same trace.
        SpanHandle::root("test.ctx.root2.ns", trace_id).finish();
        let trees = recent_traces();
        let matching: Vec<_> = trees.iter().filter(|t| t.trace_id == trace_id).collect();
        assert_eq!(matching.len(), 1, "segments of one trace share one entry");
        assert_eq!(matching[0].spans.len(), 2);
    }

    #[test]
    fn traces_render_as_json() {
        SpanHandle::root("test.ctx.json.ns", trace_id_for("json-test", 1)).finish();
        let json = recent_traces_json();
        assert!(json.starts_with('['), "{json}");
        assert!(json.contains("\"trace_id\""), "{json}");
    }
}
