//! Linear-algebra kernel used throughout the GCN-RL circuit designer.
//!
//! The crate provides exactly the pieces the rest of the workspace needs and
//! nothing more:
//!
//! * [`Matrix`] — a dense, row-major `f64` matrix with the usual algebra,
//!   used by the neural-network crate and the Gaussian-process baseline.
//! * [`Complex`] and [`CMatrix`] — complex scalars and matrices used by the
//!   AC small-signal solver (modified nodal analysis) in `gcnrl-sim`.
//! * [`LuDecomposition`] / [`CluDecomposition`] — dense LU factorisation
//!   with partial pivoting for real systems (the DC Newton solver) and
//!   complex ones (the reference the sparse path is checked against).
//! * [`Cholesky`] — factorisation of symmetric positive-definite matrices,
//!   used by the Bayesian-optimisation baseline.
//! * [`sparse`] — a complex sparse LU whose symbolic analysis is computed
//!   once per sparsity pattern and reused across numeric refactorisations,
//!   with struct-of-arrays kernels that factor several frequency points per
//!   pass; this is the hot path of the AC solver in `gcnrl-sim`.
//! * [`for_each_chunk`] — one process-wide helper thread that shares a
//!   kernel's chunks with its caller, bit for bit. Matrix products of at
//!   least 2^20 multiply-adds (the critic's minibatch products) and the
//!   Gaussian-process acquisition in `gcnrl-baselines` split their output
//!   with it; every other kernel runs on its caller. A process that never
//!   runs such a kernel has no extra thread, one CPU never gets a helper,
//!   and two callers at once on two CPUs retire it for good.
//!
//! # Examples
//!
//! ```
//! use gcnrl_linalg::{Matrix, LuDecomposition};
//!
//! # fn main() -> Result<(), gcnrl_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let lu = LuDecomposition::new(&a)?;
//! let x = lu.solve(&[1.0, 2.0])?;
//! assert!((4.0 * x[0] + 1.0 * x[1] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

mod cholesky;
mod cmatrix;
mod complex;
mod error;
mod lu;
mod matrix;
mod shared;
pub mod sparse;

pub use cholesky::Cholesky;
pub use cmatrix::{CMatrix, CluDecomposition};
pub use complex::Complex;
pub use error::LinalgError;
pub use lu::LuDecomposition;
pub use matrix::Matrix;
pub use shared::for_each_chunk;
