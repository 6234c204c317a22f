//! The sharded experiment coordinator: one work queue of [`Cell`]s drained
//! by a worker pool under a shared cache budget.
//!
//! Every experiment of the suite is a flat queue of independent cells (the
//! two cell types live in [`crate::cells`]), each described by the generic
//! [`Cell`] trait:
//!
//! * an **id** (panic context and progress labelling),
//! * a **cache-budget weight** (its share of the coordinator's
//!   `GCNRL_CACHE_CAP` budget — transfer cells that run two optimisations
//!   get a proportionally larger slice),
//! * a **run closure** taking a [`CellContext`] with the carved-out engine
//!   configuration,
//! * a **mergeable output**: every cell reports its [`ExecStats`] alongside
//!   its value, and [`drain_cells`] folds them into one merged total.
//!
//! Cells are drained concurrently by `gcnrl-exec`'s [`WorkerPool`]. Each
//! cell's engine is single-threaded — the parallelism lives at the cell
//! level, which avoids nested pools — and every cell is a deterministic
//! function of its spec, so the assembled results are **identical for any
//! worker count** (pinned per binary by the `coordinator` integration test
//! at 1/2/4 workers).
//!
//! Inside one cell, all evaluation traffic (calibration sweep included) goes
//! through the backend [`backend_for`](crate::harness::backend_for) picks: a
//! session of a local `EvalService` over the cell's engine, or the serve
//! tier named by `GCNRL_SERVE_ADDR`/`GCNRL_SERVE_ADDRS`.
//!
//! When `GCNRL_CACHE_PATH` is set, all cells append to the same cache log
//! (see `gcnrl_exec::persist::CacheLog`), so concurrent shards share
//! simulation results across runs without a save-at-drop race.

use crate::harness::merge_exec_stats;
use gcnrl::{EngineConfig, ExecStats};
use gcnrl_exec::WorkerPool;
use std::sync::mpsc::channel;

/// One schedulable unit of an experiment run.
///
/// Implementations are cheap descriptions (a spec plus the experiment
/// config); all heavy work happens in [`Cell::run`], which receives the
/// engine configuration carved out of the coordinator's shared cache budget.
pub trait Cell: Send + 'static {
    /// What the cell produces besides its engine statistics.
    type Output: Send + 'static;

    /// Human-readable identity, used in panic messages and logs.
    fn id(&self) -> String;

    /// Relative share of the coordinator's cache budget (≥ 1). Cells that
    /// run several optimisations (e.g. pretrain + fine-tune) should claim a
    /// proportionally larger share.
    fn weight(&self) -> usize {
        1
    }

    /// Executes the cell under the given context and returns its output
    /// plus the engine statistics of all evaluation traffic it caused.
    fn run(&self, ctx: &CellContext) -> (Self::Output, ExecStats);
}

/// What the coordinator hands each cell at execution time.
#[derive(Debug, Clone)]
pub struct CellContext {
    /// The engine configuration for this cell: single-threaded (parallelism
    /// lives at the cell level), with this cell's share of the coordinator's
    /// cache budget; persistence is inherited from the environment so all
    /// cells share one append-only log.
    pub engine: EngineConfig,
}

/// One drained cell: its output and the engine statistics it accumulated.
#[derive(Debug, Clone)]
pub struct DrainedCell<T> {
    /// The cell's result value.
    pub value: T,
    /// Evaluation statistics of all engine traffic the cell caused.
    pub exec: ExecStats,
}

/// The result of draining a cell queue: per-cell outputs in queue order plus
/// the merged engine statistics across every cell.
#[derive(Debug, Clone)]
pub struct DrainReport<T> {
    /// Outputs in the order the cells were submitted.
    pub cells: Vec<DrainedCell<T>>,
    /// [`ExecStats`] folded across all cells (the mergeable output).
    pub merged_exec: ExecStats,
}

impl<T> DrainReport<T> {
    /// Strips the per-cell statistics, keeping the values in queue order.
    pub fn into_values(self) -> Vec<T> {
        self.cells.into_iter().map(|c| c.value).collect()
    }

    /// The values in queue order, by reference.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.cells.iter().map(|c| &c.value)
    }
}

/// How the coordinator drains its queue.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Concurrent cells (worker threads draining the queue).
    pub workers: usize,
    /// Total cached reports across *all* cell engines; each cell gets a
    /// weight-proportional share (at least one entry).
    pub cache_budget: usize,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cache_budget: 65_536,
        }
    }
}

impl CoordinatorConfig {
    /// Reads the configuration from environment variables, falling back to
    /// the defaults: `GCNRL_WORKERS` (concurrent cells, default: available
    /// parallelism), `GCNRL_CACHE_CAP` (shared cache budget).
    ///
    /// # Panics
    ///
    /// Panics when a variable is set but unparseable (see
    /// [`gcnrl_exec::env_usize`]) — a typo must not silently fall back.
    pub fn from_env() -> Self {
        let mut config = Self::default();
        if let Some(workers) = gcnrl_exec::env_usize("GCNRL_WORKERS") {
            config.workers = workers.max(1);
        }
        if let Some(budget) = gcnrl_exec::env_usize("GCNRL_CACHE_CAP") {
            config.cache_budget = budget.max(1);
        }
        config
    }

    /// Returns a copy with a different worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Returns a copy with a different shared cache budget.
    pub fn with_cache_budget(mut self, budget: usize) -> Self {
        self.cache_budget = budget.max(1);
        self
    }
}

/// The engine configuration one cell runs under: single-threaded (the
/// parallelism is at the cell level), with a weight-proportional share of
/// the coordinator's cache budget; persistence (`GCNRL_CACHE_PATH`) is
/// inherited from the environment so all cells share one append-only log.
fn cell_engine_config(
    coord: &CoordinatorConfig,
    total_weight: usize,
    weight: usize,
) -> EngineConfig {
    let share = coord.cache_budget * weight.max(1) / total_weight.max(1);
    EngineConfig::from_env()
        .with_threads(1)
        .with_cache_capacity(share.max(1))
}

/// Drains `cells` through a pool of `coord.workers` threads and returns the
/// outputs in queue order together with the merged engine statistics.
///
/// Every cell is an independent deterministic computation, so the returned
/// outputs and statistics do not depend on the worker count or on the order
/// in which the pool happens to schedule the cells.
///
/// # Panics
///
/// Re-raises the first cell panic on the calling thread (like the serial
/// loops it replaces would), after printing the panicking cell's id.
pub fn drain_cells<C: Cell>(cells: Vec<C>, coord: &CoordinatorConfig) -> DrainReport<C::Output> {
    if cells.is_empty() {
        return DrainReport {
            cells: Vec::new(),
            merged_exec: ExecStats::default(),
        };
    }
    let total_weight: usize = cells.iter().map(|c| c.weight().max(1)).sum();
    let contexts: Vec<CellContext> = cells
        .iter()
        .map(|c| CellContext {
            engine: cell_engine_config(coord, total_weight, c.weight()),
        })
        .collect();

    // A single worker needs no pool (and keeps panic backtraces direct).
    let drained: Vec<DrainedCell<C::Output>> = if coord.workers <= 1 || cells.len() == 1 {
        cells
            .into_iter()
            .zip(&contexts)
            .map(|(cell, ctx)| {
                let (value, exec) = cell.run(ctx);
                DrainedCell { value, exec }
            })
            .collect()
    } else {
        type Outcome<T> = Result<DrainedCell<T>, Box<dyn std::any::Any + Send + 'static>>;
        let count = cells.len();
        let pool = WorkerPool::new(coord.workers.min(count));
        let (tx, rx) = channel::<(usize, Outcome<C::Output>)>();
        for (index, (cell, ctx)) in cells.into_iter().zip(contexts).enumerate() {
            let tx = tx.clone();
            pool.execute(move || {
                let id = cell.id();
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let (value, exec) = cell.run(&ctx);
                    DrainedCell { value, exec }
                }));
                if outcome.is_err() {
                    eprintln!("gcnrl-bench: cell `{id}` panicked");
                }
                // A closed receiver means the coordinator already panicked.
                let _ = tx.send((index, outcome));
            });
        }
        drop(tx);

        let mut slots: Vec<Option<DrainedCell<C::Output>>> = (0..count).map(|_| None).collect();
        for _ in 0..count {
            let (index, outcome) = rx.recv().expect("cell jobs always send an outcome");
            match outcome {
                Ok(result) => slots[index] = Some(result),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        slots
            .into_iter()
            .map(|r| r.expect("every cell reports once"))
            .collect()
    };

    let merged_exec = merge_exec_stats(drained.iter().map(|c| c.exec));
    DrainReport {
        cells: drained,
        merged_exec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_engines_split_the_shared_cache_budget_by_weight() {
        let coord = CoordinatorConfig::default()
            .with_workers(2)
            .with_cache_budget(100);
        // Seven unit-weight cells: an even split.
        let engine = cell_engine_config(&coord, 7, 1);
        assert_eq!(engine.threads, 1);
        assert_eq!(engine.cache_capacity, 14);
        // A weight-3 cell in a total weight of 10 claims 3/10 of the budget.
        assert_eq!(cell_engine_config(&coord, 10, 3).cache_capacity, 30);
        // The budget floor is one entry per cell.
        assert_eq!(cell_engine_config(&coord, 1000, 1).cache_capacity, 1);
    }

    #[test]
    fn empty_queue_is_a_no_op() {
        let coord = CoordinatorConfig::default();
        let report = drain_cells(Vec::<crate::cells::MethodCell>::new(), &coord);
        assert!(report.cells.is_empty());
        assert_eq!(report.merged_exec, ExecStats::default());
    }

    /// A trivial cell for exercising the generic drain machinery without
    /// simulator traffic.
    #[derive(Clone)]
    struct SquareCell {
        input: u64,
        weight: usize,
    }

    impl Cell for SquareCell {
        type Output = u64;

        fn id(&self) -> String {
            format!("square {}", self.input)
        }

        fn weight(&self) -> usize {
            self.weight
        }

        fn run(&self, ctx: &CellContext) -> (u64, ExecStats) {
            assert_eq!(ctx.engine.threads, 1, "cell engines are single-threaded");
            let exec = ExecStats {
                requests: 1,
                simulated: 1,
                cache_len: ctx.engine.cache_capacity as u64,
                ..ExecStats::default()
            };
            (self.input * self.input, exec)
        }
    }

    #[test]
    fn generic_cells_drain_in_order_with_merged_stats_for_any_worker_count() {
        let cells: Vec<SquareCell> = (0..9u64)
            .map(|input| SquareCell { input, weight: 1 })
            .collect();
        let expected: Vec<u64> = (0..9u64).map(|i| i * i).collect();
        for workers in [1usize, 2, 4] {
            let coord = CoordinatorConfig::default()
                .with_workers(workers)
                .with_cache_budget(900);
            let report = drain_cells(cells.clone(), &coord);
            let values: Vec<u64> = report.values().copied().collect();
            assert_eq!(values, expected, "workers={workers}");
            assert_eq!(report.merged_exec.requests, 9);
            assert_eq!(report.merged_exec.simulated, 9);
        }
    }

    #[test]
    fn heavier_cells_claim_a_larger_cache_share() {
        let mut cells: Vec<SquareCell> = (0..4u64)
            .map(|input| SquareCell { input, weight: 1 })
            .collect();
        cells.push(SquareCell {
            input: 4,
            weight: 4,
        });
        // Total weight 8 over a budget of 800: unit cells get 100, the
        // weight-4 cell 400 (reported back through the stats cache_len).
        let coord = CoordinatorConfig::default()
            .with_workers(2)
            .with_cache_budget(800);
        let report = drain_cells(cells, &coord);
        assert_eq!(report.cells[0].exec.cache_len, 100);
        assert_eq!(report.cells[4].exec.cache_len, 400);
    }

    #[test]
    fn cell_panics_surface_on_the_calling_thread() {
        struct BoomCell;
        impl Cell for BoomCell {
            type Output = ();
            fn id(&self) -> String {
                "boom".to_owned()
            }
            fn run(&self, _: &CellContext) -> ((), ExecStats) {
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
