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
//! concurrent cells under a shared `GCNRL_CACHE_CAP` budget. Every cell
//! builds its environments through [`backend_for`], so its evaluation
//! traffic rides the evaluation server named by `GCNRL_SERVE_ADDR` when
//! one is set, and a local `gcnrl-exec` service session otherwise. Budgets
//! are scaled down from the paper's 10 000-simulation runs so the full
//! suite executes on a laptop in minutes; set the `GCNRL_BUDGET`,
//! `GCNRL_SEEDS` and `GCNRL_CALIBRATION` environment variables to run at
//! larger scale.

pub mod cells;
pub mod coordinator;
pub mod harness;

pub use cells::{MethodCell, TransferCell};
pub use coordinator::{
    drain_cells, Cell, CellContext, CoordinatorConfig, DrainReport, DrainedCell,
};
pub use harness::{
    backend_for, best_metrics, budget_from_env, env_for_backend, env_for_session, merge_exec_stats,
    print_exec_stats, print_latency_table, print_merged_exec, print_series, serve_addr,
    serve_pipeline, service_session, write_json, ExperimentConfig, MethodResult, SeriesSummary,
    METHODS,
};
