//! Analog performance simulator for the GCN-RL circuit designer.
//!
//! The paper evaluates candidate sizings with commercial SPICE simulators
//! (Cadence Spectre, Synopsys Hspice) and proprietary foundry device models.
//! Neither is available here, so this crate implements the closest synthetic
//! equivalent that exercises the same optimisation structure (see DESIGN.md):
//!
//! * [`mosfet`] — square-law (level-1) MOS device model with mobility
//!   degradation and channel-length modulation, producing operating points
//!   and small-signal parameters (`gm`, `gds`, capacitances, thermal noise).
//! * [`dc`] — a Newton–Raphson solver for nonlinear resistive networks with a
//!   dense Jacobian, used for bias references (e.g. the one-node
//!   resistor-biased mirror of the Three-TIA).
//! * [`smallsignal`] / [`ac`] — a complex-valued modified-nodal-analysis (MNA)
//!   solver and logarithmic AC sweeps with gain/bandwidth/phase-margin
//!   extraction.
//! * [`compiled`] — the sweep hot path: every AC system, from one node up,
//!   pre-compiled into `Y(ω) = G + jωC` stamp slots over a per-topology
//!   sparsity pattern and refactored numerically against a symbolic-once
//!   sparse LU, with [`solver_stats`] counting the reuse.
//! * [`noise`] — output-referred thermal-noise integration through the same
//!   MNA transfer functions.
//! * [`metrics`] — named performance metrics with "higher/lower is better"
//!   direction, consumed by the FoM in the `gcnrl` core crate.
//! * [`evaluators`] — one evaluator per benchmark circuit mapping a
//!   [`ParamVector`](gcnrl_circuit::ParamVector) to a [`PerformanceReport`].
//!
//! # Examples
//!
//! ```
//! use gcnrl_circuit::{benchmarks::Benchmark, TechnologyNode};
//! use gcnrl_sim::evaluators::evaluator_for;
//!
//! let node = TechnologyNode::tsmc180();
//! let eval = evaluator_for(Benchmark::TwoStageTia, &node);
//! let circuit = Benchmark::TwoStageTia.circuit();
//! let space = circuit.design_space(&node);
//! let report = eval.evaluate(&space.nominal());
//! assert!(report.get("power_mw").is_some());
//! ```

pub mod ac;
pub mod compiled;
pub mod dc;
pub mod evaluators;
pub mod metrics;
pub mod mosfet;
pub mod noise;
pub mod smallsignal;
pub mod solver_stats;

mod error;

pub use compiled::CompiledAc;
pub use error::SimError;
pub use metrics::{MetricDirection, MetricSpec, PerformanceReport};
pub use smallsignal::{AcCircuit, AcElement, NodeIndex};
pub use solver_stats::SolverStats;
