//! The batch evaluation engine: cache in front, worker pool behind.

use crate::cache::ResultCache;
use crate::key::{CacheKey, DEFAULT_QUANTIZE_DIGITS};
use crate::persist;
use crate::pool::WorkerPool;
use crate::stats::{BatchReport, ExecStats};
use gcnrl_circuit::{benchmarks::Benchmark, ParamVector, TechnologyNode};
use gcnrl_sim::evaluators::{evaluator_for, Evaluator};
use gcnrl_sim::{MetricSpec, PerformanceReport};
use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Configuration of a [`BatchEvaluator`].
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Worker threads for batched evaluation. `1` disables the pool and runs
    /// every batch serially on the calling thread.
    pub threads: usize,
    /// Maximum number of cached reports (LRU beyond this).
    pub cache_capacity: usize,
    /// Significant decimal digits kept when quantizing parameters into cache
    /// keys (see [`crate::key::quantize`]).
    pub quantize_digits: i32,
    /// When set, the cache is backed by an append-only record log at this
    /// path: existing log records are replayed at construction, and every
    /// fresh simulation result is appended as it is inserted — so concurrent
    /// engines sharing the path contribute hits to each other's next open.
    pub persist_path: Option<PathBuf>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cache_capacity: 65_536,
            quantize_digits: DEFAULT_QUANTIZE_DIGITS,
            persist_path: None,
        }
    }
}

impl EngineConfig {
    /// A serial engine: no worker pool, cache still active.
    pub fn serial() -> Self {
        EngineConfig {
            threads: 1,
            ..Self::default()
        }
    }

    /// Reads the configuration from environment variables, falling back to
    /// the defaults: `GCNRL_THREADS` (worker threads), `GCNRL_CACHE_CAP`
    /// (cache capacity), `GCNRL_CACHE_PATH` (persistence file).
    ///
    /// # Panics
    ///
    /// Panics when a numeric variable is set but unparseable (see
    /// [`crate::env_usize`]) — a typo must not silently run with defaults.
    pub fn from_env() -> Self {
        let mut config = Self::default();
        if let Some(threads) = crate::env_usize("GCNRL_THREADS") {
            config.threads = threads.max(1);
        }
        if let Some(capacity) = crate::env_usize("GCNRL_CACHE_CAP") {
            config.cache_capacity = capacity.max(1);
        }
        if let Ok(path) = std::env::var("GCNRL_CACHE_PATH") {
            if !path.is_empty() {
                config.persist_path = Some(PathBuf::from(path));
            }
        }
        config
    }

    /// Returns a copy with a different worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Returns a copy with a different cache capacity.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity.max(1);
        self
    }

    /// Returns a copy persisting the cache to `path`.
    pub fn with_persist_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.persist_path = Some(path.into());
        self
    }
}

/// Mutable engine state behind one lock: the cache plus cumulative counters.
#[derive(Debug)]
struct EngineState {
    cache: ResultCache,
    /// Append-only persistence log; fresh simulation results are appended
    /// under this lock, right after their cache insert.
    log: Option<persist::CacheLog>,
    /// Cache hits served to duplicate candidates inside a single batch
    /// (the cache itself never sees those lookups).
    dup_hits: u64,
    batches: u64,
    wall: Duration,
    last_batch: BatchReport,
}

impl EngineState {
    /// Inserts a fresh simulation result and mirrors it to the log (a failed
    /// append downgrades to in-memory-only caching with a warning rather
    /// than failing the evaluation).
    ///
    /// Kept out of line: it runs only for fresh simulations, and inlining it
    /// into `evaluate_batch` measurably slowed the cache-hit path of
    /// the `serve_cached` benchmark.
    #[inline(never)]
    fn insert_fresh(&mut self, key: CacheKey, report: PerformanceReport) {
        if let Some(log) = &mut self.log {
            if let Err(error) = log.append(&key, &report) {
                eprintln!("gcnrl-exec: cache log append failed, disabling persistence: {error}");
                self.log = None;
            }
        }
        self.cache.insert(key, report);
    }
}

/// The evaluation engine the optimizers talk to instead of a raw
/// [`Evaluator`]: it fans batches of candidate sizings across a worker pool
/// and serves repeated candidates from a content-addressed result cache.
///
/// All methods take `&self`; the engine is internally synchronized and
/// `Send + Sync`, so one engine can serve several optimizer threads.
pub struct BatchEvaluator {
    evaluator: Arc<dyn Evaluator>,
    config: EngineConfig,
    node_name: String,
    state: Mutex<EngineState>,
    pool: OnceLock<WorkerPool>,
}

impl std::fmt::Debug for BatchEvaluator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchEvaluator")
            .field("benchmark", &self.evaluator.benchmark())
            .field("node", &self.node_name)
            .field("config", &self.config)
            .finish()
    }
}

impl BatchEvaluator {
    /// Wraps an existing evaluator. When the config carries a persistence
    /// path, the append-only log at that path pre-populates the cache
    /// (unreadable files start empty) and stays open for live appends.
    pub fn new(evaluator: Box<dyn Evaluator>, config: EngineConfig) -> Self {
        let node_name = evaluator.technology().name.to_string();
        let mut cache = ResultCache::new(config.cache_capacity);
        let mut log = None;
        if let Some(path) = &config.persist_path {
            match persist::CacheLog::open(path, &mut cache) {
                Ok((opened, _restored)) => log = Some(opened),
                Err(error) => eprintln!(
                    "gcnrl-exec: cannot open cache log {}, running without persistence: {error}",
                    path.display()
                ),
            }
        }
        BatchEvaluator {
            evaluator: Arc::from(evaluator),
            config,
            node_name,
            state: Mutex::new(EngineState {
                cache,
                log,
                dup_hits: 0,
                batches: 0,
                wall: Duration::ZERO,
                last_batch: BatchReport::default(),
            }),
            pool: OnceLock::new(),
        }
    }

    /// Builds the engine for `benchmark` at `node` via
    /// [`evaluator_for`].
    pub fn for_benchmark(
        benchmark: Benchmark,
        node: &TechnologyNode,
        config: EngineConfig,
    ) -> Self {
        Self::new(evaluator_for(benchmark, node), config)
    }

    /// The benchmark this engine evaluates.
    pub fn benchmark(&self) -> Benchmark {
        self.evaluator.benchmark()
    }

    /// The technology node the devices are evaluated in.
    pub fn technology(&self) -> &TechnologyNode {
        self.evaluator.technology()
    }

    /// Metric descriptions of the underlying evaluator.
    pub fn metric_specs(&self) -> &[MetricSpec] {
        self.evaluator.metric_specs()
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The underlying simulator-facing evaluator.
    pub fn evaluator(&self) -> &dyn Evaluator {
        &*self.evaluator
    }

    fn key_for(&self, params: &ParamVector) -> CacheKey {
        CacheKey::new(
            self.benchmark(),
            &self.node_name,
            params,
            self.config.quantize_digits,
        )
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, EngineState> {
        // The engine never panics while holding the lock, but a poisoned
        // mutex (caller panic during a test assertion) should not cascade.
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Evaluates one candidate through the cache — a thin wrapper over
    /// [`BatchEvaluator::evaluate_batch`] with a batch of one, so the
    /// singular and batched entry points cannot drift apart (a single
    /// simulation never touches the worker pool).
    pub fn evaluate(&self, params: &ParamVector) -> PerformanceReport {
        self.evaluate_batch(std::slice::from_ref(params))
            .pop()
            .expect("batch of one yields one report")
    }

    /// Evaluates a batch of candidates, returning reports in input order.
    ///
    /// Cached candidates (including duplicates within the batch) are served
    /// without simulating; the remaining unique candidates are fanned across
    /// the worker pool when `config.threads > 1`, otherwise evaluated
    /// serially. Results are bit-identical to the serial path for any thread
    /// count because evaluators are pure functions of the parameter vector.
    ///
    /// # Panics
    ///
    /// Panics if the underlying evaluator panics on one of the candidates
    /// (the panic is observed on the calling thread, as in the serial path).
    pub fn evaluate_batch(&self, params: &[ParamVector]) -> Vec<PerformanceReport> {
        let start = Instant::now();
        let mut results: Vec<Option<PerformanceReport>> = vec![None; params.len()];
        // Unique cache-missing candidates, each with every batch index that
        // requested it.
        let mut pending: Vec<(CacheKey, ParamVector, Vec<usize>)> = Vec::new();
        let mut pending_index: HashMap<CacheKey, usize> = HashMap::new();
        let mut batch_hits = 0usize;

        {
            let _lookup = gcnrl_telemetry::span!("exec.cache_lookup.ns");
            let mut state = self.lock_state();
            for (i, candidate) in params.iter().enumerate() {
                let key = self.key_for(candidate);
                if let Some(&slot) = pending_index.get(&key) {
                    pending[slot].2.push(i);
                    state.dup_hits += 1;
                    batch_hits += 1;
                } else if let Some(report) = state.cache.get(&key) {
                    results[i] = Some(report);
                    batch_hits += 1;
                } else {
                    pending_index.insert(key.clone(), pending.len());
                    pending.push((key, candidate.clone(), vec![i]));
                }
            }
        }

        let simulated = pending.len();
        let threads_used = self.config.threads.min(simulated.max(1));
        let fresh: Vec<(CacheKey, Vec<usize>, PerformanceReport)> = {
            let _simulate = gcnrl_telemetry::span!("exec.simulate.ns");
            if simulated > 1 && self.config.threads > 1 {
                self.evaluate_pending_parallel(pending)
            } else {
                pending
                    .into_iter()
                    .map(|(key, candidate, indices)| {
                        let report = self.evaluator.evaluate(&candidate);
                        (key, indices, report)
                    })
                    .collect()
            }
        };

        let wall = start.elapsed();
        {
            // The batch histogram is recorded by hand (rather than a span
            // guard) because the trace fields are only known here, at the end
            // of the measured region.
            static BATCH_HIST: OnceLock<Arc<gcnrl_telemetry::Histogram>> = OnceLock::new();
            BATCH_HIST
                .get_or_init(|| gcnrl_telemetry::global().histogram("exec.batch.ns"))
                .record_duration(wall);
            gcnrl_telemetry::trace_event("exec.batch.ns", start, wall, || {
                vec![
                    ("size", params.len().to_string()),
                    ("cache_hits", batch_hits.to_string()),
                    ("simulated", simulated.to_string()),
                    ("threads", threads_used.to_string()),
                ]
            });
        }
        {
            let mut state = self.lock_state();
            for (key, indices, report) in fresh {
                state.insert_fresh(key, report.clone());
                for i in indices {
                    results[i] = Some(report.clone());
                }
            }
            state.batches += 1;
            state.wall += wall;
            state.last_batch = BatchReport {
                size: params.len(),
                cache_hits: batch_hits,
                simulated,
                threads: threads_used,
                wall_seconds: wall.as_secs_f64(),
            };
        }

        results
            .into_iter()
            .map(|r| r.expect("every batch slot is filled by cache or simulation"))
            .collect()
    }

    fn evaluate_pending_parallel(
        &self,
        pending: Vec<(CacheKey, ParamVector, Vec<usize>)>,
    ) -> Vec<(CacheKey, Vec<usize>, PerformanceReport)> {
        let pool = self
            .pool
            .get_or_init(|| WorkerPool::new(self.config.threads));
        let total = pending.len();

        // Dispatch contiguous chunks rather than single candidates: one
        // channel message and one boxed job per chunk keeps the dispatch
        // overhead negligible relative to the simulations. Two chunks per
        // worker gives the queue some slack for uneven chunk durations.
        let chunk_count = total.min(self.config.threads * 2).max(1);
        let chunk_size = total.div_ceil(chunk_count);

        let mut meta: Vec<Option<(CacheKey, Vec<usize>)>> = Vec::with_capacity(total);
        let mut work: Vec<(usize, ParamVector)> = Vec::with_capacity(total);
        for (slot, (key, candidate, indices)) in pending.into_iter().enumerate() {
            meta.push(Some((key, indices)));
            work.push((slot, candidate));
        }

        // Chunks send back either their results or the caught panic payload,
        // which is rethrown on this (the submitting) thread so a failing
        // candidate surfaces exactly like it would on the serial path.
        type ChunkOutcome =
            Result<Vec<(usize, PerformanceReport)>, Box<dyn std::any::Any + Send + 'static>>;
        let (tx, rx) = channel::<ChunkOutcome>();
        let mut dispatched = 0usize;
        while !work.is_empty() {
            let chunk: Vec<(usize, ParamVector)> =
                work.drain(..chunk_size.min(work.len())).collect();
            let evaluator = Arc::clone(&self.evaluator);
            let tx = tx.clone();
            dispatched += 1;
            pool.execute(move || {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    chunk
                        .into_iter()
                        .map(|(slot, candidate)| (slot, evaluator.evaluate(&candidate)))
                        .collect::<Vec<(usize, PerformanceReport)>>()
                }));
                // A closed receiver means the caller already panicked.
                let _ = tx.send(outcome);
            });
        }
        drop(tx);

        let mut out: Vec<Option<(CacheKey, Vec<usize>, PerformanceReport)>> =
            (0..total).map(|_| None).collect();
        for _ in 0..dispatched {
            let results = match rx.recv() {
                Ok(Ok(results)) => results,
                Ok(Err(payload)) => std::panic::resume_unwind(payload),
                Err(_) => unreachable!("chunk jobs always send an outcome"),
            };
            for (slot, report) in results {
                let (key, indices) = meta[slot].take().expect("each slot reports once");
                out[slot] = Some((key, indices, report));
            }
        }
        out.into_iter()
            .map(|entry| entry.expect("all jobs completed"))
            .collect()
    }

    /// Cumulative engine statistics.
    pub fn stats(&self) -> ExecStats {
        let state = self.lock_state();
        let cache = &state.cache;
        ExecStats {
            requests: cache.hits() + cache.misses() + state.dup_hits,
            simulated: cache.misses(),
            cache_hits: cache.hits() + state.dup_hits,
            evictions: cache.evictions(),
            batches: state.batches,
            cache_len: cache.len() as u64,
            wall_seconds: state.wall.as_secs_f64(),
        }
    }

    /// Statistics of the most recent [`evaluate_batch`](Self::evaluate_batch)
    /// call.
    pub fn last_batch(&self) -> BatchReport {
        self.lock_state().last_batch
    }

    /// Forces every appended log record to disk (no-op without persistence).
    /// Entries are appended live as simulations complete, so there is
    /// nothing to serialise here — this is a durability barrier, not a save.
    ///
    /// # Errors
    ///
    /// Returns any underlying filesystem error.
    pub fn save_cache(&self) -> io::Result<()> {
        if let Some(log) = &mut self.lock_state().log {
            log.sync()?;
        }
        Ok(())
    }
}

impl Drop for BatchEvaluator {
    fn drop(&mut self) {
        if self.config.persist_path.is_some() {
            if let Err(error) = self.save_cache() {
                eprintln!("gcnrl-exec: failed to sync cache log on drop: {error}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(threads: usize, capacity: usize) -> BatchEvaluator {
        let node = TechnologyNode::tsmc180();
        BatchEvaluator::for_benchmark(
            Benchmark::TwoStageTia,
            &node,
            EngineConfig::serial()
                .with_threads(threads)
                .with_cache_capacity(capacity),
        )
    }

    fn candidates(n: usize) -> Vec<ParamVector> {
        let node = TechnologyNode::tsmc180();
        let circuit = Benchmark::TwoStageTia.circuit();
        let space = circuit.design_space(&node);
        (0..n)
            .map(|i| {
                let unit: Vec<f64> = (0..space.num_parameters())
                    .map(|j| ((i * 31 + j * 7) % 100) as f64 / 99.0)
                    .collect();
                space.from_unit(&unit)
            })
            .collect()
    }

    #[test]
    fn repeat_evaluation_hits_the_cache_bit_identically() {
        let engine = engine(1, 64);
        let pv = candidates(1).remove(0);
        let first = engine.evaluate(&pv);
        let second = engine.evaluate(&pv);
        assert_eq!(first, second);
        let stats = engine.stats();
        assert_eq!(stats.simulated, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.requests, 2);
    }

    #[test]
    fn batch_matches_serial_for_every_thread_count() {
        let pool_sizes = [1usize, 2, 4, 8];
        let inputs = candidates(12);
        let reference: Vec<PerformanceReport> = {
            let serial = engine(1, 256);
            inputs
                .iter()
                .map(|pv| serial.evaluator().evaluate(pv))
                .collect()
        };
        for threads in pool_sizes {
            let parallel = engine(threads, 256);
            let out = parallel.evaluate_batch(&inputs);
            assert_eq!(out, reference, "threads={threads}");
        }
    }

    #[test]
    fn duplicates_within_a_batch_simulate_once() {
        let engine = engine(4, 64);
        let mut inputs = candidates(3);
        inputs.push(inputs[0].clone());
        inputs.push(inputs[1].clone());
        let out = engine.evaluate_batch(&inputs);
        assert_eq!(out[0], out[3]);
        assert_eq!(out[1], out[4]);
        let stats = engine.stats();
        assert_eq!(stats.simulated, 3);
        assert_eq!(stats.cache_hits, 2);
        let batch = engine.last_batch();
        assert_eq!(batch.size, 5);
        assert_eq!(batch.simulated, 3);
        assert_eq!(batch.cache_hits, 2);
    }

    #[test]
    fn second_batch_is_fully_cached() {
        let engine = engine(2, 256);
        let inputs = candidates(8);
        let first = engine.evaluate_batch(&inputs);
        let second = engine.evaluate_batch(&inputs);
        assert_eq!(first, second);
        let batch = engine.last_batch();
        assert_eq!(batch.cache_hits, 8);
        assert_eq!(batch.simulated, 0);
        assert_eq!(engine.stats().hit_rate(), 0.5);
    }

    use crate::testing::LatencyEvaluator;

    #[test]
    fn pool_overlaps_latency_bound_evaluations() {
        use gcnrl_circuit::ComponentParams;
        let delay = Duration::from_millis(10);
        let engine = BatchEvaluator::new(
            Box::new(LatencyEvaluator::new(delay)),
            EngineConfig::serial().with_threads(4),
        );
        let candidates: Vec<ParamVector> = (0..8)
            .map(|i| ParamVector::new(vec![ComponentParams::Resistance(100.0 + i as f64)]))
            .collect();
        let start = Instant::now();
        let reports = engine.evaluate_batch(&candidates);
        let wall = start.elapsed();
        assert_eq!(reports.len(), 8);
        // Serial would take ≥ 80ms; 4 workers over 8 jobs need ~20ms. The
        // generous bound keeps the test robust on loaded CI machines while
        // still proving the evaluations overlapped.
        assert!(
            wall < delay * 6,
            "batch of 8 x {delay:?} jobs on 4 threads took {wall:?}; no overlap happened"
        );
    }

    #[test]
    fn live_appends_are_visible_to_engines_opened_later() {
        let node = TechnologyNode::tsmc180();
        let path = std::env::temp_dir().join("gcnrl_exec_engine_live_log.log");
        let _ = std::fs::remove_file(&path);
        let config = EngineConfig::serial().with_persist_path(&path);
        let candidate = candidates(1).remove(0);

        // Engine A stays alive the whole time: its entries reach the log at
        // insert time, not at drop time.
        let a = BatchEvaluator::for_benchmark(Benchmark::TwoStageTia, &node, config.clone());
        let first = a.evaluate(&candidate);
        assert_eq!(a.stats().simulated, 1);

        let b = BatchEvaluator::for_benchmark(Benchmark::TwoStageTia, &node, config);
        let second = b.evaluate(&candidate);
        assert_eq!(second, first, "replayed report must be bit-identical");
        assert_eq!(
            b.stats().simulated,
            0,
            "engine B must be served from engine A's live appends"
        );
        drop(a);
        drop(b);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stats_track_evictions_under_tiny_capacity() {
        let engine = engine(1, 2);
        let inputs = candidates(6);
        let _ = engine.evaluate_batch(&inputs);
        let stats = engine.stats();
        assert_eq!(stats.simulated, 6);
        assert_eq!(stats.cache_len, 2);
        assert_eq!(stats.evictions, 4);
    }

    #[test]
    fn worker_panics_propagate_with_their_original_message() {
        use crate::testing::PanickyEvaluator;
        use gcnrl_circuit::ComponentParams;
        let engine = BatchEvaluator::new(
            Box::new(PanickyEvaluator(LatencyEvaluator::new(Duration::ZERO))),
            EngineConfig::serial().with_threads(4),
        );
        let candidates: Vec<ParamVector> = [100.0, 666.0, 300.0, 400.0]
            .iter()
            .map(|r| ParamVector::new(vec![ComponentParams::Resistance(*r)]))
            .collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.evaluate_batch(&candidates)
        }))
        .expect_err("the poisoned candidate must fail the batch");
        let message = caught
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| caught.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            message.contains("R666"),
            "original panic message must survive the pool; got `{message}`"
        );
    }
}
