//! # GCN-RL Circuit Designer
//!
//! A Rust reproduction of *"GCN-RL Circuit Designer: Transferable Transistor
//! Sizing with Graph Neural Networks and Reinforcement Learning"* (Wang et
//! al., DAC 2020).
//!
//! The library sizes the devices of a fixed analog topology by running a
//! DDPG actor–critic agent whose networks are graph convolutional networks
//! over the circuit topology graph.  Because the agent's knowledge lives in
//! the GCN weights rather than in a fixed-dimensional black-box model, it can
//! be transferred across technology nodes and even across topologies.
//!
//! * [`FomConfig`] — the figure of merit (paper Eq. 2): a weighted sum of
//!   normalised performance metrics with optional bounds.
//! * [`SizingEnv`] — the environment: state encoding (Sec. III-C), action
//!   denormalisation and refinement, simulation, and reward computation.
//! * [`GcnAgent`] — the GCN actor–critic (Fig. 3) with the non-GCN ablation.
//! * [`GcnRlDesigner`] — the optimisation loop (Algorithm 1).
//! * [`transfer`] — saving/loading agent checkpoints and fine-tuning them on
//!   other technology nodes or topologies.
//!
//! # Examples
//!
//! ```no_run
//! use gcnrl::{FomConfig, GcnRlDesigner, SizingEnv};
//! use gcnrl_circuit::{benchmarks::Benchmark, TechnologyNode};
//! use gcnrl_rl::DdpgConfig;
//!
//! let node = TechnologyNode::tsmc180();
//! let fom = FomConfig::calibrated(Benchmark::TwoStageTia, &node, 200, 0);
//! let env = SizingEnv::new(Benchmark::TwoStageTia, &node, fom);
//! let mut designer = GcnRlDesigner::new(env, DdpgConfig::fast());
//! let history = designer.run();
//! println!("best FoM = {:.3}", history.best_fom());
//! ```

mod agent;
mod designer;
mod env;
mod fom;
mod history;
mod state;

pub mod transfer;

/// The evaluation engine every simulation request is routed through
/// (re-exported so callers can configure threads/cache — or open sessions on
/// a shared [`EvalService`] — without a direct `gcnrl-exec` dependency).
pub use gcnrl_exec::{
    BatchEvaluator, EngineConfig, EvalBackend, EvalService, ExecStats, ServiceConfig,
    SessionHandle, SessionStats,
};

pub use agent::{AgentKind, GcnAgent};
pub use designer::GcnRlDesigner;
pub use env::{SizingEnv, StepOutcome};
pub use fom::{FomConfig, MetricFom, INFEASIBLE_FOM};
pub use history::{RunHistory, StepRecord};
pub use state::{state_matrix, StateEncoding};
