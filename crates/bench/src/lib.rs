//! Experiment harness for the GCN-RL paper's tables and figures.
//!
//! Each binary in `src/bin/` regenerates one table or figure. The paper's
//! evaluation has two experiment shapes, and every binary enqueues cells of
//! one of them (see [`cells`]): a [`MethodCell`] runs one method on one
//! circuit (Table I, Tables II/III, Figure 5) and a [`TransferCell`]
//! fine-tunes a policy pretrained on another node or topology, or trains
//! from scratch (Tables IV/V, Figures 7/8). Both output the run's
//! `RunHistory`, from which each binary derives its own numbers and labels.
//! The queues drain through the sharded [`coordinator`]: `GCNRL_WORKERS`
//! concurrent cells over one registry of evaluation services, one per
//! `(benchmark, node)`, so cells of one circuit share one cache within
//! `GCNRL_CACHE_CAP`. Every cell builds its environments through
//! [`backend_for`], so all its evaluation traffic is a session of the
//! drain's service for its pair; no experiment needs a network. Budgets are
//! scaled down from the paper's 10 000-simulation runs so the full suite
//! executes on a laptop in minutes; set the `GCNRL_BUDGET`, `GCNRL_SEEDS`
//! and `GCNRL_CALIBRATION` environment variables to run at larger scale.

pub mod cells;
pub mod coordinator;
pub mod harness;

pub use cells::{MethodCell, TransferCell};
pub use coordinator::{drain_cells, Cell, CoordinatorConfig, DrainReport};
pub use harness::{
    backend_for, best_metrics, budget_from_env, env_for_backend, print_engine_stats,
    print_latency_table, print_series, write_json, ExperimentConfig, MethodResult, SeriesSummary,
    METHODS,
};
