//! # gcnrl-exec — parallel batched evaluation with content-addressed caching
//!
//! Candidate evaluation dominates every optimisation run in this workspace:
//! each RL step, ES population member and BO acquisition round pays one full
//! simulator call. This crate is the execution subsystem that owns that cost
//! so the optimizers never have to think about it. It sits between the
//! optimizers (`gcnrl`, `gcnrl-baselines`) and the simulator (`gcnrl-sim`):
//!
//! ```text
//!   GcnRlDesigner / ES / BO / MACE / Random
//!                  │  ParamVector batches (EvalService sessions: on the
//!                  ▼  caller's thread)
//!          ┌───────────────────┐    stats    ┌───────────┐
//!          │   BatchEvaluator  │────────────▶│ ExecStats │
//!          └───────┬───────────┘             └───────────┘
//!          hit ┌───┴──────────┬──────────────┐ miss
//!              ▼              ▼              ▼
//!       ┌───────────┐ ┌──────────────┐ ┌───────────────┐
//!       │ResultCache│ │  in flight   │ │  WorkerPool   │  (std::thread + mpsc)
//!       │   (LRU)   │ │ (wait for    │ │ evaluate(...) │
//!       └───────────┘ │ another call)│ └───────┬───────┘
//!                     └──────────────┘         ▼
//!                              gcnrl-sim Evaluator (pure function)
//! ```
//!
//! The pillars:
//!
//! * [`BatchEvaluator`] — fans a batch of [`ParamVector`]s across a
//!   configurable worker pool and returns reports **in input order**. Because
//!   every `Evaluator` is a pure function of its parameter vector, the result
//!   is bit-identical for any thread count. Concurrent calls do not simulate
//!   one design at once: a call that misses a design another call is
//!   simulating waits for that report and counts it as a cache hit.
//! * `ResultCache` — a content-addressed in-memory LRU cache with
//!   hit/miss/eviction counters. An engine evaluates one benchmark at one
//!   technology node, so its key is only the candidate's parameter vector,
//!   quantized to [`DEFAULT_QUANTIZE_DIGITS`] significant digits. Sessions of
//!   one [`EvalService`] share it, so a design one session simulated is a
//!   hit for every other.
//! * [`EvalService`] / [`SessionHandle`] — many concurrent sessions over one
//!   engine ([`service`]): each session evaluates on its caller's thread,
//!   with per-session accounting; [`PendingBatch`] defers a submitted batch
//!   until someone waits on it. [`EvalBackend`] abstracts over "owned
//!   engine" vs "service session" so clients cannot tell the difference.
//! * [`ServiceRegistry`] — one lazily created [`EvalService`] per
//!   `(benchmark, node)`, each caching one share of a cache budget: the
//!   experiment coordinator drains its cells over one, and the evaluation
//!   server serves its connections from one.
//! * [`ExecStats`] — throughput, cache hit rate and wall time, surfaced by
//!   the bench harness next to each method's result.
//!
//! # Example
//!
//! ```
//! use gcnrl_circuit::{benchmarks::Benchmark, TechnologyNode};
//! use gcnrl_exec::{BatchEvaluator, EngineConfig};
//!
//! let node = TechnologyNode::tsmc180();
//! let engine = BatchEvaluator::for_benchmark(
//!     Benchmark::TwoStageTia,
//!     &node,
//!     EngineConfig::default().with_threads(4),
//! );
//! let space = Benchmark::TwoStageTia.circuit().design_space(&node);
//! let batch = vec![space.nominal(); 3];
//! let reports = engine.evaluate_batch(&batch);
//! assert_eq!(reports.len(), 3);
//! // The three candidates are identical, so only one was simulated:
//! assert_eq!(engine.stats().simulated, 1);
//! ```
//!
//! [`ParamVector`]: gcnrl_circuit::ParamVector

mod backend;
mod cache;
mod engine;
mod key;
mod pool;
mod registry;
pub mod service;
mod stats;
pub mod testing;

pub use backend::EvalBackend;
pub use engine::{BatchEvaluator, EngineConfig};
// Strict `GCNRL_*` knob parsing moved to the bottom of the crate graph
// (gcnrl-telemetry) so every layer shares it; re-exported for the existing
// `gcnrl_exec::env_usize` call sites.
pub use gcnrl_telemetry::env_usize;
pub use key::DEFAULT_QUANTIZE_DIGITS;
pub use registry::{RegistryConfig, ServiceEntryStats, ServiceRegistry};
pub use service::{
    panic_message, ClosedSessionStats, EvalService, PendingBatch, ServiceClosed, ServiceConfig,
    SessionHandle, SessionStats,
};
pub use stats::{BatchReport, ExecStats};
