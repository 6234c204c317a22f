//! The experiment coordinator: one work queue of [`Cell`]s drained by
//! worker threads over one shared evaluation registry.
//!
//! Every experiment of the suite is a flat queue of independent cells (the
//! two cell types live in [`crate::cells`]), each described by the generic
//! [`Cell`] trait: an **id** (panic context and progress labelling) and a
//! **run closure** that opens its evaluation sessions on the drain's
//! [`ServiceRegistry`] and returns the cell's output.
//!
//! Cells are drained concurrently by scoped worker threads, the calling
//! thread among them. Each drain builds one registry, a
//! per-`(benchmark, node)` service map, so all cells of one circuit and
//! node share one engine and one cache. Every cell of a circuit calibrates
//! its FoM on the same random sweep, so each cell after the first reads
//! that sweep from the cache. Evaluators are pure, so a hit returns what a
//! fresh simulation of an equal design (to the cache key's 12 significant
//! digits) would: every cell is a deterministic function of its spec, and
//! the assembled results are **identical for any worker count** (pinned
//! per binary by the `coordinator` integration test at 1/2/4 workers).
//!
//! Inside one cell, all evaluation traffic (calibration sweep included) is a
//! session of the registry's service for its pair
//! ([`backend_for`](crate::harness::backend_for)).

use gcnrl_exec::{RegistryConfig, ServiceEntryStats, ServiceRegistry};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One schedulable unit of an experiment run.
///
/// Implementations are cheap descriptions (a spec plus the experiment
/// config); all heavy work happens in [`Cell::run`].
pub trait Cell: Sync {
    /// What the cell produces.
    type Output: Send;

    /// Human-readable identity, used in panic messages and logs.
    fn id(&self) -> String;

    /// Executes the cell, opening its evaluation sessions on `registry`.
    fn run(&self, registry: &ServiceRegistry) -> Self::Output;
}

/// The result of draining a cell queue.
#[derive(Debug, Clone)]
pub struct DrainReport<T> {
    /// Cell outputs in the order the cells were submitted.
    pub values: Vec<T>,
    /// Statistics of every `(benchmark, node)` service the drain opened, in
    /// registry key order.
    pub services: Vec<ServiceEntryStats>,
}

/// How the coordinator drains its queue.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Concurrent cells (worker threads draining the queue).
    pub workers: usize,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

impl CoordinatorConfig {
    /// Reads the configuration from environment variables, falling back to
    /// the defaults: `GCNRL_WORKERS` (concurrent cells, default: available
    /// parallelism).
    ///
    /// # Panics
    ///
    /// Panics when the variable is set but unparseable (see
    /// [`gcnrl_exec::env_usize`]) — a typo must not silently fall back.
    pub fn from_env() -> Self {
        let mut config = Self::default();
        if let Some(workers) = gcnrl_exec::env_usize("GCNRL_WORKERS") {
            config.workers = workers.max(1);
        }
        config
    }

    /// Returns a copy with a different worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }
}

/// Drains `cells` on `coord.workers` threads over one fresh
/// [`ServiceRegistry`] and returns the outputs in queue order together with
/// the registry's per-service statistics.
///
/// The calling thread is one of the workers (so one worker spawns no
/// thread); each worker claims the next unclaimed cell and writes its output
/// into that cell's slot. A cell evaluates on its worker's thread; the
/// registry's engines run one pool thread per worker, so a batch can use
/// every core while fewer cells than workers remain. The services split
/// `GCNRL_CACHE_CAP` over the registry's default slots. Every cell is a
/// deterministic computation, so the outputs and the services' request,
/// simulation and cache counts do not depend on the worker count or on
/// which worker claims which cell.
///
/// # Panics
///
/// After a cell panics, its id is printed and no further cell starts; once
/// the running cells finish, the panic of the earliest failed cell in queue
/// order is re-raised on the calling thread with its original payload.
pub fn drain_cells<C: Cell>(cells: Vec<C>, coord: &CoordinatorConfig) -> DrainReport<C::Output> {
    let mut config = RegistryConfig::from_env();
    config.engine = config.engine.with_threads(coord.workers);
    let registry = ServiceRegistry::new(config);

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<std::thread::Result<C::Output>>>> =
        cells.iter().map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        let Some(cell) = cells.get(index) else {
            return;
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| cell.run(&registry)));
        if outcome.is_err() {
            eprintln!("gcnrl-bench: cell `{}` panicked", cell.id());
            next.store(cells.len(), Ordering::Relaxed);
        }
        *slots[index].lock().expect("cell slot lock") = Some(outcome);
    };
    std::thread::scope(|scope| {
        for _ in 1..coord.workers.min(cells.len()) {
            scope.spawn(work);
        }
        work();
    });

    // Cells are claimed in queue order, so every cell before the first
    // failed one has finished; cells after it may never have started.
    let values = slots
        .into_iter()
        .map(|slot| match slot.into_inner().expect("cell slot lock") {
            Some(Ok(value)) => value,
            Some(Err(payload)) => resume_unwind(payload),
            None => unreachable!("a cell was skipped without an earlier panic"),
        })
        .collect();
    let services = registry.stats();
    registry.shutdown();
    DrainReport { values, services }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnrl_circuit::{benchmarks::Benchmark, TechnologyNode};

    #[test]
    fn empty_queue_is_a_no_op() {
        let coord = CoordinatorConfig::default();
        let report = drain_cells(Vec::<crate::cells::MethodCell>::new(), &coord);
        assert!(report.values.is_empty());
        assert!(report.services.is_empty());
    }

    /// A trivial cell for exercising the generic drain machinery: it squares
    /// its input, evaluates the Two-TIA's nominal design once and reports
    /// its engine's thread count.
    #[derive(Clone)]
    struct SquareCell {
        input: u64,
    }

    impl Cell for SquareCell {
        type Output = (u64, usize);

        fn id(&self) -> String {
            format!("square {}", self.input)
        }

        fn run(&self, registry: &ServiceRegistry) -> (u64, usize) {
            let node = TechnologyNode::tsmc180();
            let service = registry.service_for(Benchmark::TwoStageTia, &node);
            let nominal = Benchmark::TwoStageTia
                .circuit()
                .design_space(&node)
                .nominal();
            service.session().evaluate_batch(&[nominal]);
            (self.input * self.input, service.engine().config().threads)
        }
    }

    #[test]
    fn generic_cells_drain_in_order_with_merged_stats_for_any_worker_count() {
        let cells: Vec<SquareCell> = (0..9u64).map(|input| SquareCell { input }).collect();
        for workers in [1usize, 2, 4] {
            let coord = CoordinatorConfig::default().with_workers(workers);
            let report = drain_cells(cells.clone(), &coord);
            // The engine runs one thread per worker.
            let expected: Vec<(u64, usize)> = (0..9u64).map(|i| (i * i, workers)).collect();
            assert_eq!(report.values, expected, "workers={workers}");
            // All nine cells share one service: one simulation, eight hits.
            assert_eq!(report.services.len(), 1);
            let engine = report.services[0].engine;
            assert_eq!(engine.requests, 9);
            assert_eq!(engine.simulated, 1);
            assert_eq!(engine.cache_hits, 8);
        }
    }

    #[test]
    fn cell_panics_surface_on_the_calling_thread() {
        struct BoomCell;
        impl Cell for BoomCell {
            type Output = ();
            fn id(&self) -> String {
                "boom".to_owned()
            }
            fn run(&self, _: &ServiceRegistry) {
                panic!("cell exploded");
            }
        }
        for workers in [1usize, 3] {
            let coord = CoordinatorConfig::default().with_workers(workers);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                drain_cells(vec![BoomCell], &coord)
            }))
            .expect_err("the panic must propagate");
            let message = caught
                .downcast_ref::<&str>()
                .copied()
                .map(str::to_owned)
                .or_else(|| caught.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            assert!(message.contains("cell exploded"), "workers={workers}");
        }
    }
}
