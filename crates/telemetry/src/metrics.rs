//! The metrics registry: named gauges and fixed-bucket histograms.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Number of buckets in every [`Histogram`]: powers of two from `1` up to
/// `2^(HISTOGRAM_BUCKETS - 2)`, plus a final overflow bucket. The fixed,
/// log-spaced layout keeps snapshots deterministic — every histogram shares
/// the same bucket boundaries.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// Upper bound (exclusive) of bucket `index`; the last bucket is unbounded.
fn bucket_bound(index: usize) -> Option<u64> {
    if index + 1 < HISTOGRAM_BUCKETS {
        Some(1u64 << index)
    } else {
        None
    }
}

/// The bucket a raw value lands in: `value < 2^index`, capped at the
/// overflow bucket.
fn bucket_index(value: u64) -> usize {
    let bits = (u64::BITS - value.leading_zeros()) as usize;
    bits.min(HISTOGRAM_BUCKETS - 1)
}

/// A last-write-wins signed gauge (relaxed atomic; lock-free).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: i64) {
        self.value.store(value, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Increments the gauge by one (e.g. a connection opened).
    pub fn inc(&self) {
        self.add(1);
    }

    /// Decrements the gauge by one (e.g. a connection closed).
    pub fn dec(&self) {
        self.add(-1);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket, log-spaced histogram over `u64` values. Duration
/// histograms (the `*.ns` metric names) record nanoseconds; occupancy
/// histograms record plain counts. Recording is three relaxed atomic adds —
/// no lock, no allocation.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one raw value.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds (the convention for `*.ns`
    /// histograms).
    pub fn record_duration(&self, duration: Duration) {
        self.record(duration.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// A point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// A serializable point-in-time copy of one [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts ([`HISTOGRAM_BUCKETS`] entries; bucket
    /// `i` holds values `< 2^i`, the last bucket is unbounded).
    pub buckets: Vec<u64>,
    /// Sum of every recorded value.
    pub sum: u64,
    /// Number of recorded values.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bucket bound covering quantile `q` in `[0, 1]` — e.g.
    /// `quantile(0.99)` is the smallest bucket boundary below which at least
    /// 99% of observations fall. Returns `u64::MAX` for the overflow bucket
    /// and 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank.max(1) {
                return bucket_bound(i).unwrap_or(u64::MAX);
            }
        }
        u64::MAX
    }
}

enum Metric {
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A registry of named metrics. Registration takes a lock (once per call
/// site — handles are cached); recording through the returned handles is
/// lock-free. Most code uses the process-wide [`global`] registry via the
/// [`span!`](crate::span) macro.
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let metrics = self.metrics.lock().expect("metrics registry lock");
        f.debug_struct("MetricsRegistry")
            .field("metrics", &metrics.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The gauge named `name`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.register(name, || Metric::Gauge(Arc::new(Gauge::default()))) {
            Metric::Gauge(gauge) => gauge,
            other => panic!("metric `{name}` is a {}, not a gauge", other.kind()),
        }
    }

    /// The histogram named `name`, created on first use. Duration histograms
    /// are named `*.ns` by convention and record nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        match self.register(name, || Metric::Histogram(Arc::new(Histogram::default()))) {
            Metric::Histogram(histogram) => histogram,
            other => panic!("metric `{name}` is a {}, not a histogram", other.kind()),
        }
    }

    fn register(&self, name: &str, create: impl FnOnce() -> Metric) -> Metric {
        let mut metrics = self.metrics.lock().expect("metrics registry lock");
        let metric = metrics.entry(name.to_owned()).or_insert_with(create);
        match metric {
            Metric::Gauge(g) => Metric::Gauge(Arc::clone(g)),
            Metric::Histogram(h) => Metric::Histogram(Arc::clone(h)),
        }
    }

    /// A deterministic (name-ordered) point-in-time copy of every metric.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let metrics = self.metrics.lock().expect("metrics registry lock");
        let mut snapshot = RegistrySnapshot::default();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Gauge(g) => snapshot.gauges.push((name.clone(), g.get())),
                Metric::Histogram(h) => snapshot.histograms.push((name.clone(), h.snapshot())),
            }
        }
        snapshot
    }

    /// Renders every metric in Prometheus text exposition format (0.0.4).
    pub fn render_prometheus(&self) -> String {
        self.snapshot().render_prometheus()
    }
}

/// A serializable, deterministically ordered copy of a [`MetricsRegistry`] —
/// what the `/metrics` scrape renders and the `BENCH_*.json` reports embed.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RegistrySnapshot {
    /// `(name, value)` pairs, name-ordered.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` pairs, name-ordered.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl RegistrySnapshot {
    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Renders the snapshot in Prometheus text exposition format (0.0.4).
    /// Metric names have `.`/`-` mapped to `_`, and every family gets one
    /// `# HELP` + `# TYPE` header pair. Histogram `le` labels are raw bucket
    /// bounds (nanoseconds for `*.ns` histograms) and the only labels.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut last_family: Option<String> = None;
        let mut type_header = |out: &mut String, family: &str, kind: &str| {
            if last_family.as_deref() != Some(family) {
                let _ = writeln!(out, "# HELP {family} {}", help_for(family));
                let _ = writeln!(out, "# TYPE {family} {kind}");
                last_family = Some(family.to_owned());
            }
        };
        for (name, value) in &self.gauges {
            let family = prometheus_family(name);
            type_header(&mut out, &family, "gauge");
            let _ = writeln!(out, "{family} {value}");
        }
        for (name, hist) in &self.histograms {
            let family = prometheus_family(name);
            type_header(&mut out, &family, "histogram");
            let mut cumulative = 0u64;
            for (i, &n) in hist.buckets.iter().enumerate() {
                cumulative += n;
                let le = match bucket_bound(i) {
                    Some(bound) => bound.to_string(),
                    None => "+Inf".to_owned(),
                };
                let _ = writeln!(out, "{family}_bucket{{le=\"{le}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{family}_sum {}", hist.sum);
            let _ = writeln!(out, "{family}_count {}", hist.count);
        }
        out
    }
}

/// One-line `# HELP` text for a sanitised Prometheus family. Families the
/// workspace records today get a real description; anything else gets a
/// generic line derived from its naming convention so the exposition is
/// always well-formed.
fn help_for(family: &str) -> &'static str {
    match family {
        "serve_connections" => "Client connections the serve tier is serving.",
        "serve_pipeline_depth" => "In-flight pipelined requests per connection.",
        "serve_handshake_ns" => "Serve handshake latency in nanoseconds.",
        "serve_request_ns" => "Server-side request latency in nanoseconds.",
        "serve_rpc_ns" => "Client-observed serve RPC latency in nanoseconds.",
        "serve_evaluate_ns" => "End-to-end remote evaluate_batch latency in nanoseconds.",
        "exec_batch_ns" => "Engine batch execution latency in nanoseconds.",
        _ => {
            if family.ends_with("_ns") {
                "Latency histogram in nanoseconds."
            } else {
                "Workspace metric (see crate docs for the naming scheme)."
            }
        }
    }
}

/// The sanitised Prometheus family of a registry name.
fn prometheus_family(name: &str) -> String {
    name.replace(['.', '-'], "_")
}

/// The process-wide registry every layer of the stack records into.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_land_in_log_spaced_buckets() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        // Bound(i) is exclusive: every value in bucket i is < bound(i).
        for value in [0u64, 1, 7, 1000, 123_456_789] {
            let i = bucket_index(value);
            if let Some(bound) = bucket_bound(i) {
                assert!(value < bound, "{value} escapes bucket {i}");
            }
            if i > 0 {
                assert!(value >= bucket_bound(i - 1).unwrap());
            }
        }
    }

    #[test]
    fn histogram_snapshot_counts_sum_and_quantiles() {
        let hist = Histogram::default();
        for value in [10u64, 100, 100, 1000, 100_000] {
            hist.record(value);
        }
        let snap = hist.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 101_210);
        assert!((snap.mean() - 20_242.0).abs() < 1e-9);
        // All five values fall below 2^17 = 131072.
        assert_eq!(snap.quantile(1.0), 1 << 17);
        // The median observation (100) lands in the bucket bounded by 128.
        assert_eq!(snap.quantile(0.5), 128);
        assert_eq!(HistogramSnapshot::default().quantile(0.99), 0);
    }

    #[test]
    fn registry_snapshot_is_name_ordered_and_mergeable() {
        let registry = MetricsRegistry::new();
        registry.gauge("zeta.depth").set(3);
        registry.gauge("alpha.depth").set(1);
        registry.gauge("beta.depth").set(-2);
        registry.histogram("lat.ns").record(1000);
        let snap = registry.snapshot();
        // Name order, whatever the registration order.
        assert_eq!(
            snap.gauges,
            vec![
                ("alpha.depth".to_owned(), 1),
                ("beta.depth".to_owned(), -2),
                ("zeta.depth".to_owned(), 3)
            ]
        );
        assert_eq!(snap.gauge("beta.depth"), Some(-2));
        assert_eq!(snap.histogram("lat.ns").unwrap().count, 1);
        assert_eq!(snap.histogram("missing"), None);
    }

    #[test]
    fn snapshots_serialize_and_round_trip() {
        let registry = MetricsRegistry::new();
        registry.gauge("g").set(-3);
        registry.histogram("h.ns").record(42);
        let snap = registry.snapshot();
        let json = serde_json::to_string(&snap).expect("serialize snapshot");
        let back: RegistrySnapshot = serde_json::from_str(&json).expect("deserialize snapshot");
        assert_eq!(back, snap);
    }

    #[test]
    fn prometheus_rendering_has_cumulative_buckets_and_sane_names() {
        let registry = MetricsRegistry::new();
        registry.gauge("serve.connections").set(2);
        registry.gauge("service.queue-depth").set(4);
        let hist = registry.histogram("exec.batch.ns");
        hist.record(3); // bucket le=4
        hist.record(100); // bucket le=128
        let text = registry.render_prometheus();
        assert!(text.contains("# TYPE serve_connections gauge"));
        assert!(text.contains("serve_connections 2"));
        assert!(text.contains("service_queue_depth 4"));
        assert!(text.contains("# TYPE exec_batch_ns histogram"));
        // Buckets are cumulative: the le=4 line holds 1, every bound at or
        // beyond 128 holds both observations, and +Inf closes at the count.
        assert!(text.contains("exec_batch_ns_bucket{le=\"4\"} 1"));
        assert!(text.contains("exec_batch_ns_bucket{le=\"128\"} 2"));
        assert!(text.contains("exec_batch_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("exec_batch_ns_sum 103"));
        assert!(text.contains("exec_batch_ns_count 2"));
    }

    #[test]
    fn prometheus_rendering_emits_help_lines_per_family() {
        let registry = MetricsRegistry::new();
        registry.gauge("serve.connections").inc();
        registry.histogram("custom.solve.ns").record(5);
        registry.gauge("some.depth").set(1);
        let text = registry.render_prometheus();
        // Known families get their curated text, directly above the TYPE
        // line.
        assert!(
            text.contains(
                "# HELP serve_connections Client connections the serve tier is serving.\n\
                 # TYPE serve_connections gauge"
            ),
            "{text}"
        );
        assert_eq!(text.matches("# HELP serve_connections").count(), 1);
        // Unknown families fall back by naming convention.
        assert!(
            text.contains("# HELP custom_solve_ns Latency histogram in nanoseconds."),
            "{text}"
        );
        assert!(
            text.contains("# HELP some_depth Workspace metric"),
            "{text}"
        );
    }

    #[test]
    fn kind_mismatch_panics_instead_of_aliasing() {
        let registry = MetricsRegistry::new();
        registry.gauge("shared.name").inc();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            registry.histogram("shared.name")
        }));
        assert!(err.is_err(), "a gauge must not alias as a histogram");
    }
}
