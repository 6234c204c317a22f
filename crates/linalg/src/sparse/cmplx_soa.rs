//! Struct-of-arrays complex LU kernels: factor and solve several frequency
//! points per pass over split re/im `f64` arrays.
//!
//! An AC sweep refactors the same `G + jωC` structure at every frequency;
//! only the scalar `ω` changes.  [`SoaLu`] assembles up to [`SOA_LANES`]
//! frequency points into lane-major split arrays (`value[slot][lane]` stored
//! as `re[slot * SOA_LANES + lane]`) and replays the symbolic elimination
//! once with the lane loop innermost, so the compiler autovectorizes the
//! complex multiply-accumulates across frequency points instead of chasing
//! one scalar dependency chain per point.
//!
//! Every lane applies *exactly* the scalar [`SparseLu`](super::SparseLu)
//! operation sequence (same elimination order, same `a·b` and `1/p`
//! formulas), so a lane's factorisation and solves are bit-identical to the
//! scalar path — callers can mix chunked and per-point solves freely.  Lanes
//! carry per-lane growth and singularity state; a singular pivot in any
//! active lane fails the whole chunk (callers fall back to scalar solves,
//! which then report the offending frequency precisely).

use super::lu::{SymbolicLu, PIVOT_TINY_SQ};
use super::pattern::SparsityPattern;
use crate::{Complex, LinalgError};
use std::sync::Arc;

/// Lane width of the struct-of-arrays kernels: 8 complex values = 16 `f64`
/// per slot, two AVX-512 registers or four AVX2 registers per component.
pub const SOA_LANES: usize = 8;

/// Numeric LU state for up to [`SOA_LANES`] simultaneous frequency points
/// over one shared symbolic analysis.
///
/// The lane width is fixed at [`SOA_LANES`]: every inner loop runs all
/// lanes, and a chunk of fewer frequencies pads the tail lanes.
#[derive(Debug, Clone)]
pub struct SoaLu {
    symbolic: Arc<SymbolicLu>,
    scatter: Vec<usize>,
    /// Lanes carrying real data in the current factorisation; the remainder
    /// are padded with the last active frequency so every inner loop runs
    /// the full lane width.
    active: usize,
    lu_re: Vec<f64>,
    lu_im: Vec<f64>,
    recip_re: Vec<f64>,
    recip_im: Vec<f64>,
    work_re: Vec<f64>,
    work_im: Vec<f64>,
    y_re: Vec<f64>,
    y_im: Vec<f64>,
    growth_sq: [f64; SOA_LANES],
    factored: bool,
}

impl SoaLu {
    /// Creates the lane state for `input_pattern` against `symbolic`.
    ///
    /// # Errors
    ///
    /// The pattern-mismatch errors of [`SparseLu::new`](super::SparseLu::new).
    pub fn new(
        symbolic: Arc<SymbolicLu>,
        input_pattern: &SparsityPattern,
    ) -> Result<Self, LinalgError> {
        let scatter = symbolic.scatter_map(input_pattern)?;
        let nnz_lu = symbolic.nnz_lu();
        let n = symbolic.n();
        Ok(SoaLu {
            symbolic,
            scatter,
            active: 0,
            lu_re: vec![0.0; nnz_lu * SOA_LANES],
            lu_im: vec![0.0; nnz_lu * SOA_LANES],
            recip_re: vec![0.0; n * SOA_LANES],
            recip_im: vec![0.0; n * SOA_LANES],
            work_re: vec![0.0; n * SOA_LANES],
            work_im: vec![0.0; n * SOA_LANES],
            y_re: vec![0.0; n * SOA_LANES],
            y_im: vec![0.0; n * SOA_LANES],
            growth_sq: [f64::INFINITY; SOA_LANES],
            factored: false,
        })
    }

    /// Lanes of the current factorisation that carry distinct frequencies.
    pub fn active(&self) -> usize {
        self.active
    }

    /// Squared element growth of lane `lane`'s current factorisation.
    pub fn lane_growth_sq(&self, lane: usize) -> f64 {
        self.growth_sq[lane]
    }

    /// Worst squared element growth across the active lanes.
    pub fn max_growth_sq(&self) -> f64 {
        self.growth_sq[..self.active]
            .iter()
            .fold(0.0f64, |a, &g| a.max(g))
    }

    /// Assembles `G + jω·C` per lane over the bound input slots (`g`/`c`
    /// aligned with the input pattern, one `ω` per lane) and factorises all
    /// lanes in one pass.
    ///
    /// # Errors
    ///
    /// [`LinalgError::InvalidDimensions`] on a slot count mismatch or an
    /// `omegas` length outside `1..=SOA_LANES`;
    /// [`LinalgError::Singular`] if any active lane hits a tiny pivot (the
    /// factorisation is then invalid for every lane).
    pub fn refactor_gc(&mut self, g: &[f64], c: &[f64], omegas: &[f64]) -> Result<(), LinalgError> {
        if g.len() != self.scatter.len() || c.len() != self.scatter.len() {
            return Err(LinalgError::InvalidDimensions {
                reason: "slot value count does not match the bound input pattern",
            });
        }
        if omegas.is_empty() || omegas.len() > SOA_LANES {
            return Err(LinalgError::InvalidDimensions {
                reason: "omega count must be in 1..=SOA_LANES",
            });
        }
        self.factored = false;
        self.active = omegas.len();
        // Pad the tail lanes with the last frequency: they compute real
        // (discarded) values, keeping every inner loop at full width.
        let mut om = [0.0f64; SOA_LANES];
        for l in 0..SOA_LANES {
            om[l] = omegas[l.min(omegas.len() - 1)];
        }

        self.lu_re.fill(0.0);
        self.lu_im.fill(0.0);
        let mut input_max_sq = [0.0f64; SOA_LANES];
        for ((&gv, &cv), &slot) in g.iter().zip(c).zip(&self.scatter) {
            let base = slot * SOA_LANES;
            for l in 0..SOA_LANES {
                let re = gv;
                let im = om[l] * cv;
                self.lu_re[base + l] += re;
                self.lu_im[base + l] += im;
                let sq = re * re + im * im;
                if sq > input_max_sq[l] {
                    input_max_sq[l] = sq;
                }
            }
        }

        let sym = &*self.symbolic;
        let mut lu_max_sq = [0.0f64; SOA_LANES];
        let mut fr = [0.0f64; SOA_LANES];
        let mut fi = [0.0f64; SOA_LANES];
        for i in 0..sym.n() {
            let row_start = sym.lu_row_ptr()[i];
            let row_end = sym.lu_row_ptr()[i + 1];
            let diag = sym.diag_slot()[i];
            // Scatter row i into the dense lane workspace.
            for s in row_start..row_end {
                let col = sym.lu_col_idx()[s];
                for l in 0..SOA_LANES {
                    self.work_re[col * SOA_LANES + l] = self.lu_re[s * SOA_LANES + l];
                    self.work_im[col * SOA_LANES + l] = self.lu_im[s * SOA_LANES + l];
                }
            }
            // Eliminate with every earlier pivot row this row touches,
            // lane-wise: factor = work[m] * recip[m] (scalar formula
            // (ar·br − ai·bi, ar·bi + ai·br)).
            for s in row_start..diag {
                let m = sym.lu_col_idx()[s];
                for l in 0..SOA_LANES {
                    let ar = self.work_re[m * SOA_LANES + l];
                    let ai = self.work_im[m * SOA_LANES + l];
                    let br = self.recip_re[m * SOA_LANES + l];
                    let bi = self.recip_im[m * SOA_LANES + l];
                    fr[l] = ar * br - ai * bi;
                    fi[l] = ar * bi + ai * br;
                    self.work_re[m * SOA_LANES + l] = fr[l];
                    self.work_im[m * SOA_LANES + l] = fi[l];
                }
                let u_start = sym.diag_slot()[m] + 1;
                let u_end = sym.lu_row_ptr()[m + 1];
                for s2 in u_start..u_end {
                    let col = sym.lu_col_idx()[s2];
                    for l in 0..SOA_LANES {
                        let ur = self.lu_re[s2 * SOA_LANES + l];
                        let ui = self.lu_im[s2 * SOA_LANES + l];
                        self.work_re[col * SOA_LANES + l] -= fr[l] * ur - fi[l] * ui;
                        self.work_im[col * SOA_LANES + l] -= fr[l] * ui + fi[l] * ur;
                    }
                }
            }
            // Gather back and reset the workspace.
            for s in row_start..row_end {
                let col = sym.lu_col_idx()[s];
                for (l, max_sq) in lu_max_sq.iter_mut().enumerate() {
                    let re = self.work_re[col * SOA_LANES + l];
                    let im = self.work_im[col * SOA_LANES + l];
                    self.lu_re[s * SOA_LANES + l] = re;
                    self.lu_im[s * SOA_LANES + l] = im;
                    let sq = re * re + im * im;
                    if sq > *max_sq {
                        *max_sq = sq;
                    }
                    self.work_re[col * SOA_LANES + l] = 0.0;
                    self.work_im[col * SOA_LANES + l] = 0.0;
                }
            }
            // Per-lane pivot check and reciprocal (scalar `ONE / p` formula:
            // (pr/d, −pi/d) with d = pr² + pi²).
            for l in 0..self.active {
                let pr = self.lu_re[diag * SOA_LANES + l];
                let pi = self.lu_im[diag * SOA_LANES + l];
                let d = pr * pr + pi * pi;
                if d < PIVOT_TINY_SQ || !d.is_finite() {
                    return Err(LinalgError::Singular { pivot: i });
                }
            }
            for l in 0..SOA_LANES {
                let pr = self.lu_re[diag * SOA_LANES + l];
                let pi = self.lu_im[diag * SOA_LANES + l];
                let d = pr * pr + pi * pi;
                self.recip_re[i * SOA_LANES + l] = pr / d;
                self.recip_im[i * SOA_LANES + l] = -(pi / d);
            }
        }
        for l in 0..self.active {
            self.growth_sq[l] = if input_max_sq[l] > 0.0 {
                lu_max_sq[l] / input_max_sq[l]
            } else {
                f64::INFINITY
            };
        }
        self.factored = true;
        Ok(())
    }

    /// Solves the same right-hand side against every active lane, returning
    /// one solution vector per lane (in the lane's original coordinates).
    ///
    /// # Errors
    ///
    /// [`LinalgError::InvalidDimensions`] without a current factorisation,
    /// [`LinalgError::ShapeMismatch`] on a length mismatch.
    pub fn solve_broadcast(&mut self, b: &[Complex]) -> Result<Vec<Vec<Complex>>, LinalgError> {
        let sym = &*self.symbolic;
        let n = sym.n();
        if !self.factored {
            return Err(LinalgError::InvalidDimensions {
                reason: "solve requires a successful refactor first",
            });
        }
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "soa_lu_solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        let mut acc_r = [0.0f64; SOA_LANES];
        let mut acc_i = [0.0f64; SOA_LANES];
        // Forward substitution (unit-diagonal L) on the row-permuted RHS.
        for k in 0..n {
            let src = b[sym.row_perm()[k]];
            for l in 0..SOA_LANES {
                acc_r[l] = src.re;
                acc_i[l] = src.im;
            }
            let (start, diag) = (sym.lu_row_ptr()[k], sym.diag_slot()[k]);
            for s in start..diag {
                let c = sym.lu_col_idx()[s];
                for l in 0..SOA_LANES {
                    let lr = self.lu_re[s * SOA_LANES + l];
                    let li = self.lu_im[s * SOA_LANES + l];
                    let yr = self.y_re[c * SOA_LANES + l];
                    let yi = self.y_im[c * SOA_LANES + l];
                    acc_r[l] -= lr * yr - li * yi;
                    acc_i[l] -= lr * yi + li * yr;
                }
            }
            for l in 0..SOA_LANES {
                self.y_re[k * SOA_LANES + l] = acc_r[l];
                self.y_im[k * SOA_LANES + l] = acc_i[l];
            }
        }
        // Back substitution through U, finishing with the cached reciprocal
        // multiply exactly as the scalar path does.
        for k in (0..n).rev() {
            let (diag, end) = (sym.diag_slot()[k], sym.lu_row_ptr()[k + 1]);
            for l in 0..SOA_LANES {
                acc_r[l] = self.y_re[k * SOA_LANES + l];
                acc_i[l] = self.y_im[k * SOA_LANES + l];
            }
            for s in diag + 1..end {
                let c = sym.lu_col_idx()[s];
                for l in 0..SOA_LANES {
                    let ur = self.lu_re[s * SOA_LANES + l];
                    let ui = self.lu_im[s * SOA_LANES + l];
                    let yr = self.y_re[c * SOA_LANES + l];
                    let yi = self.y_im[c * SOA_LANES + l];
                    acc_r[l] -= ur * yr - ui * yi;
                    acc_i[l] -= ur * yi + ui * yr;
                }
            }
            for l in 0..SOA_LANES {
                let rr = self.recip_re[k * SOA_LANES + l];
                let ri = self.recip_im[k * SOA_LANES + l];
                self.y_re[k * SOA_LANES + l] = acc_r[l] * rr - acc_i[l] * ri;
                self.y_im[k * SOA_LANES + l] = acc_r[l] * ri + acc_i[l] * rr;
            }
        }
        // Undo the column permutation, one output vector per active lane.
        let mut out = vec![vec![Complex::ZERO; n]; self.active];
        for k in 0..n {
            let dst = sym.col_perm()[k];
            for (l, lane_out) in out.iter_mut().enumerate() {
                lane_out[dst] =
                    Complex::new(self.y_re[k * SOA_LANES + l], self.y_im[k * SOA_LANES + l]);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::SparseLu;

    /// RC-ladder-shaped complex system: slots hold `g + jωc`.
    fn ladder_slots(n: usize) -> (SparsityPattern, Vec<f64>, Vec<f64>) {
        let mut positions = Vec::new();
        let mut g = Vec::new();
        let mut c = Vec::new();
        for i in 0..n {
            positions.push((i, i));
            g.push(2e-3 + 1e-4 * i as f64);
            c.push(1e-12);
            if i + 1 < n {
                positions.push((i, i + 1));
                g.push(-1e-3);
                c.push(0.0);
                positions.push((i + 1, i));
                g.push(-1e-3);
                c.push(0.0);
            }
        }
        let pattern = SparsityPattern::from_positions(n, &positions).unwrap();
        // `from_positions` sorts; rebuild the slot arrays in pattern order.
        let mut gs = vec![0.0; pattern.nnz()];
        let mut cs = vec![0.0; pattern.nnz()];
        for (idx, &(r, col)) in positions.iter().enumerate() {
            let slot = pattern.slot(r, col).unwrap();
            gs[slot] += g[idx];
            cs[slot] += c[idx];
        }
        (pattern, gs, cs)
    }

    #[test]
    fn lanes_are_bit_identical_to_scalar_factor_and_solve() {
        let (pattern, g, c) = ladder_slots(11);
        let symbolic = Arc::new(SymbolicLu::analyze(&pattern).unwrap());
        let omegas: Vec<f64> = (0..5).map(|i| 1e6 * 10f64.powi(i)).collect();
        let mut soa = SoaLu::new(symbolic.clone(), &pattern).unwrap();
        soa.refactor_gc(&g, &c, &omegas).unwrap();
        assert_eq!(soa.active(), omegas.len());

        let b: Vec<Complex> = (0..11)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let lanes = soa.solve_broadcast(&b).unwrap();

        let mut scalar = SparseLu::new(symbolic, &pattern).unwrap();
        for (l, &omega) in omegas.iter().enumerate() {
            let vals: Vec<Complex> = g
                .iter()
                .zip(&c)
                .map(|(&gv, &cv)| Complex::new(gv, omega * cv))
                .collect();
            scalar.refactor(&vals).unwrap();
            let x = scalar.solve(&b).unwrap();
            assert_eq!(lanes[l], x, "lane {l} diverged from the scalar path");
            let gsq = soa.lane_growth_sq(l);
            assert_eq!(
                gsq.to_bits(),
                scalar.growth_sq().to_bits(),
                "lane {l} growth diverged"
            );
        }
    }

    #[test]
    fn partial_chunks_pad_without_changing_active_lanes() {
        let (pattern, g, c) = ladder_slots(6);
        let symbolic = Arc::new(SymbolicLu::analyze(&pattern).unwrap());
        let mut soa = SoaLu::new(symbolic.clone(), &pattern).unwrap();
        soa.refactor_gc(&g, &c, &[1e7]).unwrap();
        assert_eq!(soa.active(), 1);
        let b = vec![Complex::ONE; 6];
        let lanes = soa.solve_broadcast(&b).unwrap();
        assert_eq!(lanes.len(), 1);

        let mut scalar = SparseLu::new(symbolic, &pattern).unwrap();
        let vals: Vec<Complex> = g
            .iter()
            .zip(&c)
            .map(|(&gv, &cv)| Complex::new(gv, 1e7 * cv))
            .collect();
        scalar.refactor(&vals).unwrap();
        assert_eq!(lanes[0], scalar.solve(&b).unwrap());
    }

    #[test]
    fn singular_lane_fails_the_chunk() {
        let (pattern, g, c) = ladder_slots(4);
        let symbolic = Arc::new(SymbolicLu::analyze(&pattern).unwrap());
        let mut soa = SoaLu::new(symbolic, &pattern).unwrap();
        // All-zero slot values underflow the first pivot in every lane.
        let zeros = vec![0.0; g.len()];
        assert!(matches!(
            soa.refactor_gc(&zeros, &zeros, &[1e6, 1e7]),
            Err(LinalgError::Singular { .. })
        ));
        assert!(soa.solve_broadcast(&[Complex::ONE; 4]).is_err());
        // A subsequent good refactor recovers.
        soa.refactor_gc(&g, &c, &[1e6]).unwrap();
        assert!(soa.solve_broadcast(&[Complex::ONE; 4]).is_ok());
    }
}
