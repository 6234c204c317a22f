//! Span tracing: scoped guards and the `GCNRL_TRACE` JSONL sink.
//!
//! When `GCNRL_TRACE=<path>` is set (or a test installs a sink via
//! [`set_trace_file`]), every completed span appends one JSON line:
//!
//! ```json
//! {"name":"exec.batch.ns","start_ns":12345,"dur_ns":678,"fields":{"size":"32"}}
//! ```
//!
//! `start_ns` counts from a per-process epoch (the first span or trace-state
//! read), `dur_ns` is the span's wall duration, and `fields` holds the
//! `key = value` pairs given to [`span!`](crate::span) (values rendered as
//! strings). The file is line-buffered and flushed per event, so a crash
//! loses at most the line being written.
//!
//! The enabled/disabled decision is one relaxed atomic load; when disabled,
//! spans take no lock and allocate nothing.

use crate::Histogram;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock};
use std::time::Instant;

/// The environment variable naming the JSONL trace file.
pub const TRACE_ENV_VAR: &str = "GCNRL_TRACE";

static TRACE_ACTIVE: AtomicBool = AtomicBool::new(false);
static TRACE_INIT: Once = Once::new();

fn sink() -> &'static Mutex<Option<BufWriter<File>>> {
    static SINK: OnceLock<Mutex<Option<BufWriter<File>>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process's trace epoch.
pub(crate) fn now_ns() -> u64 {
    epoch().elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Lazily applies `GCNRL_TRACE` the first time any span asks. Strict knob
/// contract: unset/empty disables tracing, an uncreatable path panics.
fn ensure_env_init() {
    TRACE_INIT.call_once(|| {
        if let Some(path) = crate::env::env_string(TRACE_ENV_VAR) {
            if let Err(error) = install_sink(Path::new(&path)) {
                panic!(
                    "invalid {TRACE_ENV_VAR}={path:?}: cannot open the trace file \
                     (unset the variable to disable tracing): {error}"
                );
            }
        }
    });
}

fn install_sink(path: &Path) -> std::io::Result<()> {
    let file = File::create(path)?;
    *sink().lock().expect("trace sink lock") = Some(BufWriter::new(file));
    TRACE_ACTIVE.store(true, Ordering::Release);
    Ok(())
}

/// Whether span tracing is currently enabled (one relaxed atomic load after
/// the first call has applied `GCNRL_TRACE`).
pub fn trace_enabled() -> bool {
    ensure_env_init();
    TRACE_ACTIVE.load(Ordering::Relaxed)
}

/// Redirects the trace sink to `path`, truncating it — the programmatic
/// override of `GCNRL_TRACE` that lets tests toggle tracing within one
/// process.
///
/// # Errors
///
/// Returns the file-creation error; the previous sink stays active.
pub fn set_trace_file(path: impl AsRef<Path>) -> std::io::Result<()> {
    ensure_env_init();
    install_sink(path.as_ref())
}

/// Disables tracing and flushes and closes the current sink, if any.
pub fn disable_trace() {
    ensure_env_init();
    TRACE_ACTIVE.store(false, Ordering::Release);
    if let Some(mut writer) = sink().lock().expect("trace sink lock").take() {
        let _ = writer.flush();
    }
}

/// Appends one event line to the active sink, with the distributed-tracing
/// ids (when given) as extra top-level keys: `trace_id`, `span_id` and
/// (when the parent is known) `parent_id`. Events without ids keep the
/// original schema byte-for-byte; `tracecheck` accepts both (extra keys
/// pass through). A no-op taking no lock while tracing is off — racing a
/// [`disable_trace`] is benign, the event is simply dropped.
pub(crate) fn write_event(
    name: &str,
    start_ns: u64,
    dur_ns: u64,
    fields: &str,
    ids: Option<(u64, u64, Option<u64>)>,
) {
    if !trace_enabled() {
        return;
    }
    let mut guard = sink().lock().expect("trace sink lock");
    if let Some(writer) = guard.as_mut() {
        let ids = match ids {
            Some((trace_id, span_id, Some(parent_id))) => {
                format!(",\"trace_id\":{trace_id},\"span_id\":{span_id},\"parent_id\":{parent_id}")
            }
            Some((trace_id, span_id, None)) => {
                format!(",\"trace_id\":{trace_id},\"span_id\":{span_id}")
            }
            None => String::new(),
        };
        let _ = writeln!(
            writer,
            "{{\"name\":{},\"start_ns\":{start_ns},\"dur_ns\":{dur_ns},\"fields\":{{{fields}}}{ids}}}",
            crate::json_string(name),
        );
        let _ = writer.flush();
    }
}

/// The guard returned by [`span!`](crate::span): on drop it records its
/// lifetime into the named histogram and, when tracing is active, appends
/// one JSONL event. Construction when tracing is disabled is two `Instant`
/// reads — no lock, no allocation.
pub struct SpanGuard {
    name: &'static str,
    hist: Arc<Histogram>,
    start: Instant,
    /// Pre-rendered `"key":"value"` members; `None` means tracing was off at
    /// span entry (fields were never rendered).
    fields: Option<String>,
    start_ns: u64,
    /// `(trace_id, span_id, parent_id)` when an ambient [`TraceContext`]
    /// was active at entry: the span joins the distributed trace as a child
    /// (its own context is pushed for the scope and popped on drop, and its
    /// event carries the ids).
    ///
    /// [`TraceContext`]: crate::TraceContext
    ctx: Option<(u64, u64, u64)>,
}

impl SpanGuard {
    /// Opens a span (used by the [`span!`](crate::span) macro; prefer the
    /// macro, which caches the histogram handle per call site).
    pub fn enter(name: &'static str, hist: Arc<Histogram>, fields: Option<String>) -> Self {
        let traced = trace_enabled();
        let ctx = crate::context::TraceContext::current().map(|parent| {
            let span_id = crate::context::child_span_id(parent, name);
            crate::context::push_context(crate::context::TraceContext {
                trace_id: parent.trace_id,
                span_id,
            });
            (parent.trace_id, span_id, parent.span_id)
        });
        SpanGuard {
            name,
            hist,
            start: Instant::now(),
            fields: match fields {
                Some(fields) => Some(fields),
                None if traced => Some(String::new()),
                None => None,
            },
            start_ns: if traced { now_ns() } else { 0 },
            ctx,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let duration = self.start.elapsed();
        self.hist.record_duration(duration);
        if self.ctx.is_some() {
            crate::context::pop_context();
        }
        if let Some(fields) = self.fields.take() {
            write_event(
                self.name,
                self.start_ns,
                duration.as_nanos().min(u64::MAX as u128) as u64,
                &fields,
                self.ctx
                    .map(|(trace_id, span_id, parent_id)| (trace_id, span_id, Some(parent_id))),
            );
        }
    }
}

/// Emits one trace event with explicit timing and lazily rendered fields —
/// for call sites whose field values are only known at the end of the
/// measured region (a span guard captures fields at entry). The closure
/// runs only when tracing is active.
pub fn trace_event(
    name: &str,
    start: Instant,
    duration: std::time::Duration,
    fields: impl FnOnce() -> Vec<(&'static str, String)>,
) {
    if !trace_enabled() {
        return;
    }
    let rendered = fields()
        .iter()
        .map(|(key, value)| crate::json_field(key, value))
        .collect::<Vec<_>>()
        .join(",");
    let start_ns = start
        .checked_duration_since(epoch())
        .map_or(0, |d| d.as_nanos().min(u64::MAX as u128) as u64);
    write_event(
        name,
        start_ns,
        duration.as_nanos().min(u64::MAX as u128) as u64,
        &rendered,
        None,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test owns the whole global-sink lifecycle: tests in this binary
    // run concurrently, and the sink is process-wide state.
    #[test]
    fn spans_write_schema_valid_jsonl_and_disable_stops_them() {
        let path = std::env::temp_dir().join("gcnrl_telemetry_trace_test.jsonl");
        let _ = std::fs::remove_file(&path);
        assert!(!trace_enabled(), "tracing must start disabled in tests");
        set_trace_file(&path).expect("install trace sink");
        assert!(trace_enabled());
        {
            let _span = crate::span!("test.traced.ns");
        }
        {
            let _span = crate::span!("test.traced.ns", batch = 3, kind = "unit \"quoted\"");
        }
        trace_event(
            "test.explicit.ns",
            Instant::now(),
            std::time::Duration::from_micros(5),
            || vec![("size", "7".to_owned())],
        );
        disable_trace();
        assert!(!trace_enabled());
        {
            let _span = crate::span!("test.untraced.ns");
        }
        let text = std::fs::read_to_string(&path).expect("read trace file");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "exactly the traced spans: {text}");
        for line in &lines {
            let event = serde_json::parse_value(line).expect("schema-valid JSON");
            let obj = match event {
                serde::Value::Map(entries) => entries,
                other => panic!("expected an object, got {other:?}"),
            };
            for key in ["name", "start_ns", "dur_ns", "fields"] {
                assert!(obj.iter().any(|(k, _)| k == key), "missing {key}: {line}");
            }
        }
        assert!(lines[0].contains("\"test.traced.ns\""));
        assert!(lines[1].contains("\"batch\":\"3\""));
        assert!(lines[1].contains("unit \\\"quoted\\\""));
        assert!(lines[2].contains("\"test.explicit.ns\""));
        assert!(!text.contains("test.untraced"));
        // The histograms recorded either way.
        let snap = crate::global().snapshot();
        assert_eq!(snap.histogram("test.traced.ns").unwrap().count, 2);
        assert_eq!(snap.histogram("test.untraced.ns").unwrap().count, 1);
        let _ = std::fs::remove_file(&path);
    }
}
