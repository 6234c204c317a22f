//! Distributed trace context and explicit span handles.
//!
//! The [`span!`](crate::span) guards instrument *one process*. This module
//! adds the causal glue between processes: a [`TraceContext`] (trace id +
//! span id) that rides the serve wire so a server-side span can parent under
//! the client span that caused it, and an explicit [`SpanHandle`] for the
//! request path (the client's per-batch root, its per-sub-batch RPC spans,
//! the server's per-request segment). With `GCNRL_TRACE` set, every finished
//! span of a trace appends one JSONL event carrying its ids, and `traceview`
//! reassembles the request trees from those files offline.
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
//! Recording only touches a thread-local stack, atomics and the trace file —
//! results stay bit-identical with tracing on or off.

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

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

/// An explicit span on the distributed request path. Unlike the scoped
/// [`span!`](crate::span) guard, a handle can outlive its creating scope
/// (it is `Send` — the server carries one through its task queue while a
/// request is in flight) and is finished exactly once, by [`finish`] or
/// drop.
///
/// Two constructors encode whether the span has a parent:
///
/// * [`SpanHandle::root`] — a new trace (the client edge).
/// * [`SpanHandle::child_of`] — a span under a parent context, whether the
///   parent lives in this process or arrived over the wire from another.
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
    finished: bool,
}

impl SpanHandle {
    fn open(name: &'static str, trace_id: u64, parent_id: Option<u64>) -> Self {
        SpanHandle {
            name,
            trace_id,
            span_id: derive_span_id(trace_id, parent_id.unwrap_or(0), name),
            parent_id,
            start: Instant::now(),
            start_ns: crate::trace::now_ns(),
            finished: false,
        }
    }

    /// Opens the root span of a new trace (see [`trace_id_for`] for the id
    /// derivation).
    pub fn root(name: &'static str, trace_id: u64) -> Self {
        SpanHandle::open(name, trace_id, None)
    }

    /// Opens a span under `parent` — a live span in this process, or the
    /// sender's span when `parent` arrived over the wire.
    pub fn child_of(name: &'static str, parent: TraceContext) -> Self {
        SpanHandle::open(name, parent.trace_id, Some(parent.span_id))
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
    /// of the same name and appends a JSONL event when tracing is active.
    /// Idempotent; also runs on drop.
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        let duration = self.start.elapsed();
        crate::global()
            .histogram(self.name)
            .record_duration(duration);
        crate::trace::write_event(
            self.name,
            self.start_ns,
            duration.as_nanos().min(u64::MAX as u128) as u64,
            "",
            Some((self.trace_id, self.span_id, self.parent_id)),
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
        let mut root = SpanHandle::root("test.ctx.root.ns", trace_id);
        let root_ctx = root.context();
        assert_eq!(root.parent_id, None);
        {
            let _entered = root.enter();
            assert_eq!(TraceContext::current(), Some(root_ctx));
            let child = SpanHandle::child_of("test.ctx.child.ns", root_ctx);
            assert_eq!(child.context().trace_id, trace_id);
            assert_ne!(child.context().span_id, root_ctx.span_id);
            assert_eq!(child.parent_id, Some(root_ctx.span_id));
        }
        assert!(TraceContext::current().is_none() || TraceContext::current() != Some(root_ctx));
        root.finish();
        // Each handle finished exactly once (the child on drop), into the
        // histogram of its name.
        let snapshot = crate::global().snapshot();
        for name in ["test.ctx.root.ns", "test.ctx.child.ns"] {
            assert_eq!(snapshot.histogram(name).map(|h| h.count), Some(1), "{name}");
        }
    }
}
