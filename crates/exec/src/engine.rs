//! The batch evaluation engine: cache in front, worker pool behind.

use crate::cache::ResultCache;
use crate::key::{key_bits, CacheKey, DEFAULT_QUANTIZE_DIGITS};
use crate::pool::WorkerPool;
use crate::stats::{BatchReport, ExecStats};
use gcnrl_circuit::{benchmarks::Benchmark, ParamVector, TechnologyNode};
use gcnrl_sim::evaluators::{evaluator_for, Evaluator};
use gcnrl_sim::{MetricSpec, PerformanceReport};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::mpsc::channel;
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
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
    /// keys.
    pub quantize_digits: i32,
    /// Ignored. Kept only because perfbench's `engine_config()` names it.
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
    /// the defaults: `GCNRL_THREADS` (worker threads) and `GCNRL_CACHE_CAP`
    /// (cache capacity).
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
}

/// Mutable engine state behind one lock: the cache, the designs being
/// simulated, and cumulative counters.
#[derive(Debug)]
struct EngineState {
    cache: ResultCache,
    /// Designs a call is simulating right now; a call that misses one of
    /// them waits for its report instead of simulating it again.
    inflight: HashMap<CacheKey, Arc<InFlight>>,
    /// Cache hits the cache itself never saw: duplicates within one batch,
    /// and designs another call was simulating.
    dup_hits: u64,
    batches: u64,
    /// Closed intervals during which at least one call was running.
    busy: Duration,
    /// Calls running now, and since when at least one has been.
    active: usize,
    busy_since: Instant,
    last_batch: BatchReport,
}

impl EngineState {
    /// Inserts a fresh simulation result.
    ///
    /// Kept out of line: it runs only for fresh simulations, and inlining it
    /// into `evaluate_batch` measurably slowed the cache-hit path of
    /// the `serve_cached` benchmark.
    #[inline(never)]
    fn insert_fresh(&mut self, key: CacheKey, report: PerformanceReport) {
        self.cache.insert(key, report);
    }
}

/// Marks one running call. The first call in opens a busy interval and the
/// last one out closes it, on return or unwind, so concurrent calls count
/// their overlap once.
struct Busy<'a>(&'a BatchEvaluator);

impl<'a> Busy<'a> {
    fn enter(engine: &'a BatchEvaluator) -> Self {
        let mut state = engine.lock_state();
        if state.active == 0 {
            state.busy_since = Instant::now();
        }
        state.active += 1;
        Busy(engine)
    }
}

impl Drop for Busy<'_> {
    fn drop(&mut self) {
        let mut state = self.0.lock_state();
        state.active -= 1;
        if state.active == 0 {
            let interval = state.busy_since.elapsed();
            state.busy += interval;
        }
    }
}

/// The report of a design one call is simulating, once it settles:
/// `Some(report)`, or `None` when the owner panicked and handed the design
/// back to its waiters.
#[derive(Debug, Default)]
struct InFlight {
    outcome: Mutex<Option<Option<PerformanceReport>>>,
    settled: Condvar,
}

impl InFlight {
    fn settle(&self, report: Option<PerformanceReport>) {
        // Called from `Claimed::drop` during unwinding, so it must not
        // panic; the one store leaves the slot valid even if poisoned.
        *self.outcome.lock().unwrap_or_else(PoisonError::into_inner) = Some(report);
        self.settled.notify_all();
    }

    fn wait(&self) -> Option<PerformanceReport> {
        let outcome = self.outcome.lock().expect("in-flight lock");
        let outcome = self
            .settled
            .wait_while(outcome, |outcome| outcome.is_none())
            .expect("in-flight lock");
        outcome.clone().flatten()
    }
}

/// One distinct design of a batch that the cache could not serve, with
/// every batch index that asked for it.
struct Miss {
    key: CacheKey,
    slot: Arc<InFlight>,
    indices: Vec<usize>,
}

/// The misses one call simulates itself, registered in
/// [`EngineState::inflight`]. Dropped before they are published (the
/// evaluator panicked), it hands each back to the calls waiting on it.
struct Claimed<'a> {
    engine: &'a BatchEvaluator,
    misses: Vec<Miss>,
}

impl Drop for Claimed<'_> {
    fn drop(&mut self) {
        if self.misses.is_empty() {
            return;
        }
        let mut state = self.engine.lock_state();
        for miss in self.misses.drain(..) {
            state.inflight.remove(&miss.key);
            miss.slot.settle(None);
        }
    }
}

/// One lookup pass over a batch.
struct Lookup<'a> {
    /// Candidates served without simulating in this pass.
    hits: usize,
    /// Designs this call simulates.
    claimed: Claimed<'a>,
    /// Designs another call is simulating.
    waiting: Vec<Miss>,
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
    state: Mutex<EngineState>,
    pool: OnceLock<WorkerPool>,
}

impl std::fmt::Debug for BatchEvaluator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchEvaluator")
            .field("benchmark", &self.evaluator.benchmark())
            .field("node", &self.evaluator.technology().name)
            .field("config", &self.config)
            .finish()
    }
}

impl BatchEvaluator {
    /// Wraps an existing evaluator.
    pub fn new(evaluator: Box<dyn Evaluator>, config: EngineConfig) -> Self {
        BatchEvaluator {
            evaluator: Arc::from(evaluator),
            state: Mutex::new(EngineState {
                cache: ResultCache::new(config.cache_capacity),
                inflight: HashMap::new(),
                dup_hits: 0,
                batches: 0,
                busy: Duration::ZERO,
                active: 0,
                busy_since: Instant::now(),
                last_batch: BatchReport::default(),
            }),
            config,
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
    /// Concurrent calls never simulate one design at the same time: a call
    /// that misses a design another call is simulating waits for that
    /// report and counts it as a cache hit. A call publishes the designs it
    /// simulates before it waits on any other call's, and the pool threads
    /// only simulate, so no two calls can wait on each other. When the call
    /// simulating a design panics, its waiters take the design back and
    /// simulate it themselves.
    ///
    /// # Panics
    ///
    /// Panics if the underlying evaluator panics on one of the candidates
    /// (the panic is observed on the calling thread, as in the serial path).
    pub fn evaluate_batch(&self, params: &[ParamVector]) -> Vec<PerformanceReport> {
        let _busy = Busy::enter(self);
        let start = Instant::now();
        let mut results: Vec<Option<PerformanceReport>> = vec![None; params.len()];
        let (mut batch_hits, mut simulated) = (0usize, 0usize);
        // The batch indices still to resolve: every index, then those whose
        // design was handed back by a panicking owner.
        let mut todo: Vec<usize> = (0..params.len()).collect();
        while !todo.is_empty() {
            let Lookup {
                hits,
                claimed,
                waiting,
            } = self.lookup(params, &todo, &mut results);
            batch_hits += hits;
            simulated += claimed.misses.len();
            self.simulate(params, claimed, &mut results);
            todo = self.await_others(waiting, &mut results);
            batch_hits -= todo.len();
        }

        let threads_used = self.config.threads.min(simulated.max(1));
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
            state.batches += 1;
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

    /// Serves the candidates at `todo` from the cache and sorts the rest into
    /// designs this call claims and designs another call is simulating.
    fn lookup(
        &self,
        params: &[ParamVector],
        todo: &[usize],
        results: &mut [Option<PerformanceReport>],
    ) -> Lookup<'_> {
        let _lookup = gcnrl_telemetry::span!("exec.cache_lookup.ns");
        let mut pass = Lookup {
            hits: 0,
            claimed: Claimed {
                engine: self,
                misses: Vec::new(),
            },
            waiting: Vec::new(),
        };
        // Each unresolved design of this pass: claimed (or waited on), and
        // its position in that list.
        let mut seen: HashMap<CacheKey, (bool, usize)> = HashMap::new();
        let mut state = self.lock_state();
        // Lookups borrow one scratch buffer; only a miss copies its bits
        // into an owned key.
        let mut bits = Vec::new();
        // A design in flight is never in the cache, so asking the in-flight
        // map before the cache counts no cache miss for it.
        for &i in todo {
            key_bits(&params[i], self.config.quantize_digits, &mut bits);
            if let Some(&(claimed, slot)) = seen.get(&bits[..]) {
                let misses = if claimed {
                    &mut pass.claimed.misses
                } else {
                    &mut pass.waiting
                };
                misses[slot].indices.push(i);
                state.dup_hits += 1;
                pass.hits += 1;
            } else if let Some(slot) = state.inflight.get(&bits[..]) {
                let slot = Arc::clone(slot);
                let key = CacheKey::from(&bits[..]);
                seen.insert(Arc::clone(&key), (false, pass.waiting.len()));
                pass.waiting.push(Miss {
                    key,
                    slot,
                    indices: vec![i],
                });
                state.dup_hits += 1;
                pass.hits += 1;
            } else if let Some(report) = state.cache.get(&bits) {
                results[i] = Some(report);
                pass.hits += 1;
            } else {
                let key = CacheKey::from(&bits[..]);
                let slot = Arc::new(InFlight::default());
                state.inflight.insert(Arc::clone(&key), Arc::clone(&slot));
                seen.insert(Arc::clone(&key), (true, pass.claimed.misses.len()));
                pass.claimed.misses.push(Miss {
                    key,
                    slot,
                    indices: vec![i],
                });
            }
        }
        pass
    }

    /// Simulates the claimed designs, then publishes them: into the cache,
    /// out of the in-flight map, and to every call waiting on them.
    fn simulate(
        &self,
        params: &[ParamVector],
        mut claimed: Claimed<'_>,
        results: &mut [Option<PerformanceReport>],
    ) {
        let fresh: Vec<PerformanceReport> = {
            let _simulate = gcnrl_telemetry::span!("exec.simulate.ns");
            let candidates = claimed.misses.iter().map(|miss| &params[miss.indices[0]]);
            if claimed.misses.len() > 1 && self.config.threads > 1 {
                self.simulate_parallel(candidates.cloned().collect())
            } else {
                candidates
                    .map(|candidate| self.evaluator.evaluate(candidate))
                    .collect()
            }
        };
        if fresh.is_empty() {
            return;
        }
        let mut state = self.lock_state();
        for (miss, report) in claimed.misses.drain(..).zip(fresh) {
            state.inflight.remove(&miss.key);
            miss.slot.settle(Some(report.clone()));
            for &i in &miss.indices {
                results[i] = Some(report.clone());
            }
            state.insert_fresh(miss.key, report);
        }
    }

    /// Waits for the designs other calls are simulating. Returns the batch
    /// indices whose owner panicked: they were counted as hits, so the
    /// count is taken back, and the next lookup pass counts them again.
    fn await_others(
        &self,
        waiting: Vec<Miss>,
        results: &mut [Option<PerformanceReport>],
    ) -> Vec<usize> {
        let mut handed_back = Vec::new();
        for miss in waiting {
            match miss.slot.wait() {
                Some(report) => {
                    for i in miss.indices {
                        results[i] = Some(report.clone());
                    }
                }
                None => handed_back.extend(miss.indices),
            }
        }
        if !handed_back.is_empty() {
            self.lock_state().dup_hits -= handed_back.len() as u64;
        }
        handed_back
    }

    /// Simulates `candidates` on the worker pool, returning reports in
    /// input order.
    fn simulate_parallel(&self, candidates: Vec<ParamVector>) -> Vec<PerformanceReport> {
        let pool = self
            .pool
            .get_or_init(|| WorkerPool::new(self.config.threads));
        let total = candidates.len();

        // Dispatch contiguous chunks rather than single candidates: one
        // channel message and one boxed job per chunk keeps the dispatch
        // overhead negligible relative to the simulations. Two chunks per
        // worker gives the queue some slack for uneven chunk durations.
        let chunk_count = total.min(self.config.threads * 2).max(1);
        let chunk_size = total.div_ceil(chunk_count);

        // Chunks send back either their results or the caught panic payload,
        // which is rethrown on this (the submitting) thread so a failing
        // candidate surfaces exactly like it would on the serial path.
        type ChunkOutcome = (usize, std::thread::Result<Vec<PerformanceReport>>);
        let (tx, rx) = channel::<ChunkOutcome>();
        let mut candidates = candidates.into_iter();
        let mut dispatched = 0usize;
        loop {
            let chunk: Vec<ParamVector> = candidates.by_ref().take(chunk_size).collect();
            if chunk.is_empty() {
                break;
            }
            let evaluator = Arc::clone(&self.evaluator);
            let tx = tx.clone();
            let index = dispatched;
            dispatched += 1;
            pool.execute(move || {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    chunk
                        .iter()
                        .map(|candidate| evaluator.evaluate(candidate))
                        .collect()
                }));
                // A closed receiver means the caller already panicked.
                let _ = tx.send((index, outcome));
            });
        }
        drop(tx);

        let mut chunks: Vec<Vec<PerformanceReport>> = vec![Vec::new(); dispatched];
        for _ in 0..dispatched {
            match rx.recv() {
                Ok((index, Ok(reports))) => chunks[index] = reports,
                Ok((_, Err(payload))) => std::panic::resume_unwind(payload),
                Err(_) => unreachable!("chunk jobs always send an outcome"),
            }
        }
        chunks.into_iter().flatten().collect()
    }

    /// Cumulative engine statistics.
    pub fn stats(&self) -> ExecStats {
        let state = self.lock_state();
        let cache = &state.cache;
        let running = if state.active > 0 {
            state.busy_since.elapsed()
        } else {
            Duration::ZERO
        };
        ExecStats {
            requests: cache.hits() + cache.misses() + state.dup_hits,
            simulated: cache.misses(),
            cache_hits: cache.hits() + state.dup_hits,
            evictions: cache.evictions(),
            batches: state.batches,
            cache_len: cache.len() as u64,
            wall_seconds: (state.busy + running).as_secs_f64(),
        }
    }

    /// Statistics of the most recent [`evaluate_batch`](Self::evaluate_batch)
    /// call.
    pub fn last_batch(&self) -> BatchReport {
        self.lock_state().last_batch
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
    fn wall_time_counts_overlapping_calls_once() {
        use gcnrl_circuit::ComponentParams;
        use std::sync::Barrier;
        let delay = Duration::from_millis(200);
        let engine = BatchEvaluator::new(
            Box::new(LatencyEvaluator::new(delay)),
            EngineConfig::serial(),
        );
        let design = |r: f64| ParamVector::new(vec![ComponentParams::Resistance(r)]);
        // Two callers, one distinct design each, at the same time: the
        // engine is busy for one delay, not two.
        let barrier = Barrier::new(2);
        std::thread::scope(|scope| {
            for r in [100.0, 200.0] {
                let (engine, barrier) = (&engine, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    engine.evaluate(&design(r));
                });
            }
        });
        let overlapped = engine.stats();
        assert_eq!(overlapped.simulated, 2);
        assert!(
            overlapped.wall_seconds >= delay.as_secs_f64() && overlapped.wall_seconds < 0.3,
            "two overlapping {delay:?} calls read {:.3}s",
            overlapped.wall_seconds
        );
        // Calls one after the other still add up.
        engine.evaluate(&design(300.0));
        engine.evaluate(&design(400.0));
        let serial = engine.stats().wall_seconds - overlapped.wall_seconds;
        assert!(
            serial >= 2.0 * delay.as_secs_f64(),
            "two sequential {delay:?} calls read {serial:.3}s"
        );
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

    /// A splitmix64 step: fixed-seed draws without a `rand` dependency.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn concurrent_callers_simulate_each_design_once() {
        use gcnrl_circuit::ComponentParams;
        const DESIGNS: usize = 40;
        let designs: Vec<ParamVector> = (0..DESIGNS)
            .map(|i| ParamVector::new(vec![ComponentParams::Resistance(100.0 + i as f64)]))
            .collect();
        // Eight callers, 50 batches each of 1-6 designs drawn from the 40.
        let draws: Vec<Vec<Vec<usize>>> = (0..8u64)
            .map(|seed| {
                let mut state = seed;
                (0..50)
                    .map(|_| {
                        let len = 1 + splitmix(&mut state) % 6;
                        (0..len)
                            .map(|_| (splitmix(&mut state) % DESIGNS as u64) as usize)
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let requested: Vec<usize> = draws.iter().flatten().flatten().copied().collect();
        let distinct: std::collections::HashSet<usize> = requested.iter().copied().collect();
        assert_eq!(distinct.len(), DESIGNS, "every design is drawn");

        let engine = BatchEvaluator::new(
            Box::new(LatencyEvaluator::new(Duration::from_millis(1))),
            EngineConfig::serial().with_threads(2),
        );
        let reference = LatencyEvaluator::new(Duration::ZERO);
        std::thread::scope(|scope| {
            for batches in &draws {
                let (engine, designs, reference) = (&engine, &designs, &reference);
                scope.spawn(move || {
                    for picks in batches {
                        let batch: Vec<ParamVector> =
                            picks.iter().map(|&i| designs[i].clone()).collect();
                        let expected: Vec<PerformanceReport> =
                            batch.iter().map(|pv| reference.evaluate(pv)).collect();
                        assert_eq!(engine.evaluate_batch(&batch), expected);
                    }
                });
            }
        });
        let stats = engine.stats();
        assert_eq!(
            stats.simulated, DESIGNS as u64,
            "a design was simulated twice: {stats:?}"
        );
        assert_eq!(stats.requests, requested.len() as u64);
        assert_eq!(stats.requests, stats.simulated + stats.cache_hits);
    }

    #[test]
    fn callers_waiting_on_a_panicking_owner_fail_with_its_message() {
        use crate::testing::PanickyEvaluator;
        use gcnrl_circuit::ComponentParams;
        use std::sync::Barrier;
        let engine = Arc::new(BatchEvaluator::new(
            Box::new(PanickyEvaluator(LatencyEvaluator::new(
                Duration::from_millis(50),
            ))),
            EngineConfig::serial(),
        ));
        let poisoned = ParamVector::new(vec![ComponentParams::Resistance(666.0)]);
        // Both callers ask at once: one simulates the design, the other waits
        // on it, gets it back when the owner panics, and simulates it too.
        let barrier = Arc::new(Barrier::new(2));
        let (tx, rx) = channel();
        for _ in 0..2 {
            let (engine, poisoned) = (Arc::clone(&engine), poisoned.clone());
            let (barrier, tx) = (Arc::clone(&barrier), tx.clone());
            std::thread::spawn(move || {
                barrier.wait();
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    engine.evaluate(&poisoned)
                }));
                let _ = tx.send(outcome.map_err(|payload| crate::panic_message(payload.as_ref())));
            });
        }
        for _ in 0..2 {
            let outcome = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("a caller hung on a design whose owner panicked");
            let message = outcome.expect_err("the poisoned design must fail every caller");
            assert!(message.contains("R666"), "{message}");
        }
        let healthy = ParamVector::new(vec![ComponentParams::Resistance(100.0)]);
        assert_eq!(
            engine.evaluate(&healthy),
            LatencyEvaluator::new(Duration::ZERO).evaluate(&healthy)
        );
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
