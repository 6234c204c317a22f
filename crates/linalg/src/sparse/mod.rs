//! Sparse complex LU for the MNA hot path.
//!
//! Circuit admittance matrices `Y(ω) = G + jωC` are extremely sparse (a
//! handful of nonzeros per row) and their structure is fixed per topology.
//! This module exploits both facts:
//!
//! * [`SparsityPattern`] — the immutable CSR structure, built once per
//!   topology and shared via `Arc`; it assigns a *slot* index to every
//!   structural nonzero so a caller's value array can be restamped in place.
//! * [`SymbolicLu`] — fill-reducing Markowitz ordering (diagonal-preferring,
//!   SPICE-style) and the complete fill pattern of `L + U`, computed **once
//!   per pattern**.
//! * [`SparseLu`] — numeric factorisation state that replays the elimination
//!   over the precomputed structure on every [`SparseLu::refactor`] of new
//!   [`Complex`](crate::Complex) slot values with no allocation, then serves
//!   any number of right-hand sides.
//! * [`SoaLu`] — struct-of-arrays kernels that factor and solve
//!   [`SOA_LANES`] frequency points per pass over split re/im arrays, each
//!   lane bit-identical to [`SparseLu`].
//!
//! # Examples
//!
//! ```
//! use gcnrl_linalg::sparse::{SparseLu, SparsityPattern, SymbolicLu};
//! use gcnrl_linalg::Complex;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), gcnrl_linalg::LinalgError> {
//! let pattern = SparsityPattern::from_positions(2, &[(0, 0), (0, 1), (1, 1)])?;
//! let symbolic = Arc::new(SymbolicLu::analyze(&pattern)?);
//! let mut lu = SparseLu::new(symbolic, &pattern)?;
//! // Slot values in CSR order: a(0,0), a(0,1), a(1,1).
//! lu.refactor(&[Complex::new(4.0, 0.0), Complex::ONE, Complex::new(0.0, 2.0)])?;
//! let x = lu.solve(&[Complex::real(9.0), Complex::new(0.0, 4.0)])?;
//! assert!((x[0] - Complex::real(1.75)).abs() < 1e-12);
//! assert!((x[1] - Complex::real(2.0)).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

mod cmplx_soa;
mod lu;
mod pattern;

pub use cmplx_soa::{SoaLu, SOA_LANES};
pub use lu::{SparseLu, SymbolicLu};
pub use pattern::SparsityPattern;
