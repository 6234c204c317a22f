//! Outside-in tracing: spans recorded by the benchmark around calls into the
//! workspace's public API, never inside it.
//!
//! A [`Tracer`] keeps every finished span in memory with its parent (the span
//! that was open on the same thread when it started); nothing is written
//! until the workload ends and [`Tracer::summary`] folds the spans into
//! per-name totals. A span's self time is its duration minus the durations
//! of its children.
//!
//! Two decorators put the layer boundaries of the evaluation path under the
//! tracer without changing results:
//! * [`TimedEvaluator`] wraps a simulator `Evaluator` (`sim.evaluate`);
//! * [`TimedBackend`] wraps any `EvalBackend` (`exec.backend`).

use gcnrl_circuit::{benchmarks::Benchmark, ParamVector, TechnologyNode};
use gcnrl_exec::{BatchReport, EvalBackend, ExecStats};
use gcnrl_sim::evaluators::Evaluator;
use gcnrl_sim::{MetricSpec, PerformanceReport};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    /// Ids of the spans currently open on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD_TAG: Cell<u32> = const { Cell::new(u32::MAX) };
}

/// A small per-thread number, stable for the thread's lifetime.
pub fn thread_tag() -> u32 {
    THREAD_TAG.with(|tag| {
        if tag.get() == u32::MAX {
            tag.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        tag.get()
    })
}

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub thread: u32,
    /// Items the span processed (batch size for backend spans, else 1).
    pub items: u64,
    /// Seconds since the tracer's epoch.
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// In-memory span recorder shared by every decorator of one workload phase.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.time_n(name, 1, f)
    }

    /// Runs `f` inside a span named `name` that processed `items` items.
    pub fn time_n<R>(&self, name: &'static str, items: u64, f: impl FnOnce() -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        let start = self.epoch.elapsed().as_secs_f64();
        let out = f();
        let end = self.epoch.elapsed().as_secs_f64();
        OPEN.with(|open| open.borrow_mut().pop());
        let span = Span {
            id,
            parent,
            name,
            thread: thread_tag(),
            items,
            start,
            end,
        };
        self.spans.lock().expect("tracer lock").push(span);
        out
    }

    /// Forgets every span finished so far.
    pub fn clear(&self) {
        self.spans.lock().expect("tracer lock").clear();
    }

    /// Every span finished so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer lock").clone()
    }

    /// Folds the spans into per-name totals.
    pub fn summary(&self) -> Summary {
        Summary::new(&self.spans())
    }
}

/// Per-name totals of one trace.
#[derive(Debug, Default, Clone)]
pub struct NameTotals {
    pub calls: u64,
    pub items: u64,
    pub total_s: f64,
    pub self_s: f64,
    pub durations: Vec<f64>,
}

/// A folded trace: per-name totals plus the top-level time of every thread.
#[derive(Debug, Default)]
pub struct Summary {
    pub names: BTreeMap<&'static str, NameTotals>,
    /// Summed duration of the spans without a parent, per thread.
    pub top_level: HashMap<u32, f64>,
}

impl Summary {
    fn new(spans: &[Span]) -> Self {
        let mut children: HashMap<u64, f64> = HashMap::new();
        for span in spans {
            if let Some(parent) = span.parent {
                *children.entry(parent).or_default() += span.duration();
            }
        }
        let mut summary = Summary::default();
        for span in spans {
            let totals = summary.names.entry(span.name).or_default();
            let duration = span.duration();
            totals.calls += 1;
            totals.items += span.items;
            totals.total_s += duration;
            totals.self_s += duration - children.get(&span.id).copied().unwrap_or(0.0);
            totals.durations.push(duration);
            if span.parent.is_none() {
                *summary.top_level.entry(span.thread).or_default() += duration;
            }
        }
        summary
    }

    /// Totals of `name` (all zero when no such span was recorded).
    pub fn get(&self, name: &str) -> NameTotals {
        self.names.get(name).cloned().unwrap_or_default()
    }

    /// Top-level span time recorded on `thread`.
    pub fn top_level_on(&self, thread: u32) -> f64 {
        self.top_level.get(&thread).copied().unwrap_or(0.0)
    }
}

/// A simulator evaluator whose every call is a `sim.evaluate` span.
pub struct TimedEvaluator {
    inner: Box<dyn Evaluator>,
    tracer: Arc<Tracer>,
}

impl TimedEvaluator {
    pub fn new(inner: Box<dyn Evaluator>, tracer: Arc<Tracer>) -> Self {
        TimedEvaluator { inner, tracer }
    }
}

impl Evaluator for TimedEvaluator {
    fn benchmark(&self) -> Benchmark {
        self.inner.benchmark()
    }

    fn technology(&self) -> &TechnologyNode {
        self.inner.technology()
    }

    fn metric_specs(&self) -> &[MetricSpec] {
        self.inner.metric_specs()
    }

    fn evaluate(&self, params: &ParamVector) -> PerformanceReport {
        self.tracer
            .time("sim.evaluate", || self.inner.evaluate(params))
    }

    fn evaluate_group(
        &self,
        base: &ParamVector,
        candidates: &[ParamVector],
    ) -> Vec<PerformanceReport> {
        self.tracer
            .time_n("sim.evaluate", candidates.len() as u64, || {
                self.inner.evaluate_group(base, candidates)
            })
    }
}

/// An evaluation backend whose every batch is an `exec.backend` span.
pub struct TimedBackend {
    inner: Box<dyn EvalBackend>,
    tracer: Arc<Tracer>,
}

impl TimedBackend {
    pub fn new(inner: Box<dyn EvalBackend>, tracer: Arc<Tracer>) -> Self {
        TimedBackend { inner, tracer }
    }
}

impl EvalBackend for TimedBackend {
    fn benchmark(&self) -> Benchmark {
        self.inner.benchmark()
    }

    fn technology(&self) -> &TechnologyNode {
        self.inner.technology()
    }

    fn metric_specs(&self) -> &[MetricSpec] {
        self.inner.metric_specs()
    }

    fn evaluate_batch(&self, params: &[ParamVector]) -> Vec<PerformanceReport> {
        self.tracer.time_n("exec.backend", params.len() as u64, || {
            self.inner.evaluate_batch(params)
        })
    }

    fn evaluate_batch_with_base(
        &self,
        base: &ParamVector,
        params: &[ParamVector],
    ) -> Vec<PerformanceReport> {
        self.tracer.time_n("exec.backend", params.len() as u64, || {
            self.inner.evaluate_batch_with_base(base, params)
        })
    }

    fn stats(&self) -> ExecStats {
        self.inner.stats()
    }

    fn last_batch(&self) -> BatchReport {
        self.inner.last_batch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_parents_stay_on_their_thread() {
        let tracer = Tracer::new();
        tracer.time("outer", || {
            tracer.time("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            std::thread::scope(|s| {
                s.spawn(|| tracer.time("other_thread", || ()));
            });
        });
        let summary = tracer.summary();
        let outer = summary.get("outer");
        let inner = summary.get("inner");
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert!((outer.self_s - (outer.total_s - inner.total_s)).abs() < 1e-12);
        assert!(inner.total_s >= 0.005);
        let spans = tracer.spans();
        let other = spans.iter().find(|s| s.name == "other_thread").unwrap();
        assert_eq!(other.parent, None, "a span on another thread is a root");
        assert_eq!(summary.get("missing").calls, 0);
    }
}
