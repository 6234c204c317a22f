//! # gcnrl-telemetry — process-wide metrics, latency histograms and spans
//!
//! Every layer of the stack (solver, engine, session service, network serve
//! tier, trainers) keeps its own summary stats, but none of them answer
//! "where did the time go, per layer, under load". This crate is the shared
//! instrumentation substrate they all record into:
//!
//! * [`MetricsRegistry`] — a process-wide registry of named [`Gauge`]s and
//!   fixed-bucket log-spaced latency [`Histogram`]s. Handles
//!   are `Arc`s over atomics: recording is lock-free and allocation-free, so
//!   instrumentation stays off the hot path. Snapshots
//!   ([`RegistrySnapshot`]) are deterministic (name-ordered) and
//!   serializable, and render to Prometheus text exposition format.
//! * [`span!`] — a scoped guard that records its lifetime into the named
//!   histogram and, when `GCNRL_TRACE=<path>` is set, appends one structured
//!   JSONL event (name, start, duration, optional `key = value` fields) to a
//!   per-process trace file for offline flame/timeline analysis. When
//!   tracing is disabled the guard takes no lock and performs no allocation.
//! * [`TraceContext`] / [`SpanHandle`] — distributed request tracing: a
//!   deterministic `(trace_id, span_id)` pair rides the serve wire so spans
//!   in different processes link into one request tree, which `traceview`
//!   reassembles from the processes' `GCNRL_TRACE` files.
//! * [`env_usize`] / [`env_socket_addr`] — strict `GCNRL_*` knob parsing
//!   (unset/empty keeps the default, malformed panics), shared by every
//!   crate that reads configuration from the environment.
//!
//! Telemetry never perturbs results: recording only touches atomics and the
//! trace file, so every bit-identical determinism guarantee in the workspace
//! holds with tracing on or off.
//!
//! # Example
//!
//! ```
//! use gcnrl_telemetry::span;
//!
//! fn factor_matrix() {
//!     let _span = span!("sim.factor.ns");
//!     // ... work timed into the `sim.factor.ns` histogram ...
//! }
//! factor_matrix();
//! let snapshot = gcnrl_telemetry::global().snapshot();
//! assert_eq!(snapshot.histogram("sim.factor.ns").unwrap().count, 1);
//! ```

mod context;
mod env;
mod metrics;
mod trace;

pub use context::{trace_id_for, ContextGuard, SpanHandle, TraceContext};
pub use env::{env_socket_addr, env_usize};
pub use metrics::{
    global, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, RegistrySnapshot,
    HISTOGRAM_BUCKETS,
};
pub use trace::{
    disable_trace, set_trace_file, trace_enabled, trace_event, SpanGuard, TRACE_ENV_VAR,
};

/// Times the enclosing scope into the named histogram of the global
/// registry, and emits a trace event when `GCNRL_TRACE` is active.
///
/// ```
/// use gcnrl_telemetry::span;
/// {
///     let _span = span!("exec.simulate.ns");
///     // ... timed work ...
/// }
/// let _span = span!("exec.batch.ns", size = 32, hits = 7);
/// ```
///
/// The histogram handle is resolved once per call site (a `OnceLock`
/// behind the macro), so a hot loop pays two `Instant` reads and three
/// relaxed atomic adds per span — no lock, no allocation. Field values are
/// only rendered (via `Display`) when tracing is enabled.
#[macro_export]
macro_rules! span {
    ($name:literal) => {{
        static __GCNRL_SPAN_HIST: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        let hist =
            __GCNRL_SPAN_HIST.get_or_init(|| $crate::global().histogram($name));
        $crate::SpanGuard::enter($name, ::std::sync::Arc::clone(hist), ::std::option::Option::None)
    }};
    ($name:literal, $($key:ident = $value:expr),+ $(,)?) => {{
        static __GCNRL_SPAN_HIST: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        let hist =
            __GCNRL_SPAN_HIST.get_or_init(|| $crate::global().histogram($name));
        let fields = if $crate::trace_enabled() {
            let mut rendered = ::std::string::String::new();
            $(
                if !rendered.is_empty() {
                    rendered.push(',');
                }
                rendered.push_str(&$crate::json_field(stringify!($key), &$value));
            )+
            ::std::option::Option::Some(rendered)
        } else {
            ::std::option::Option::None
        };
        $crate::SpanGuard::enter($name, ::std::sync::Arc::clone(hist), fields)
    }};
}

/// Renders one `"key":"value"` JSON member for a trace event (values go
/// through `Display`, then JSON string escaping). Used by [`span!`]; not
/// part of the stable API surface.
#[doc(hidden)]
pub fn json_field(key: &str, value: &dyn std::fmt::Display) -> String {
    format!("{}:{}", json_string(key), json_string(&value.to_string()))
}

/// JSON-escapes `text` into a quoted string literal.
#[doc(hidden)]
pub fn json_string(text: &str) -> String {
    serde_json::to_string(&text.to_owned()).unwrap_or_else(|_| "\"\"".to_owned())
}
