//! Sparse LU factorisation with a symbolic phase that is computed once per
//! sparsity pattern and reused across numeric refactorisations.
//!
//! The split mirrors how SPICE-class simulators treat MNA systems: the complex
//! admittance matrix `Y(ω)` of a circuit has a fixed structure per topology,
//! so the fill-reducing pivot order and the fill pattern of `L`/`U` are
//! derived once ([`SymbolicLu::analyze`], Markowitz ordering with diagonal
//! preference) and every subsequent frequency point only replays the numeric
//! elimination over that precomputed structure ([`SparseLu::refactor`]).

use super::pattern::SparsityPattern;
use crate::{Complex, LinalgError};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Squared pivot magnitudes below this are treated as numerically singular,
/// matching the dense complex factorisation in this crate (which compares
/// `abs_sq` against the same constant).
pub(crate) const PIVOT_TINY_SQ: f64 = 1e-300;

/// The reusable symbolic analysis of one sparsity pattern: pivot order chosen
/// by Markowitz cost (with a strong preference for diagonal pivots, which MNA
/// assembly guarantees to be structurally present) and the complete fill
/// pattern of the combined `L + U` factors in permuted CSR layout.
#[derive(Debug, Clone)]
pub struct SymbolicLu {
    n: usize,
    /// Permuted row `k` is original row `row_perm[k]`.
    row_perm: Vec<usize>,
    /// Permuted column `m` is original column `col_perm[m]`.
    col_perm: Vec<usize>,
    row_perm_inv: Vec<usize>,
    col_perm_inv: Vec<usize>,
    /// CSR structure of `L + U` in permuted coordinates (sorted rows).
    lu_row_ptr: Vec<usize>,
    lu_col_idx: Vec<usize>,
    /// Slot of the diagonal entry of each permuted row.
    diag_slot: Vec<usize>,
    /// The pattern this analysis was computed for.
    analyzed: SparsityPattern,
    /// Precomputed scatter map for the analysed pattern itself (the common
    /// case: numeric states are almost always bound to the same pattern).
    self_scatter: Vec<usize>,
}

impl SymbolicLu {
    /// Analyses `pattern`: chooses the pivot order and predicts all fill.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] if the pattern is structurally
    /// singular (some row or column can never supply a pivot).
    pub fn analyze(pattern: &SparsityPattern) -> Result<Self, LinalgError> {
        let n = pattern.n();
        let mut rows: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        let mut cols: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        for (r, c, _) in pattern.iter() {
            rows[r].insert(c);
            cols[c].insert(r);
        }
        let mut row_active = vec![true; n];
        let mut col_active = vec![true; n];
        let mut row_perm = Vec::with_capacity(n);
        let mut col_perm = Vec::with_capacity(n);
        // Snapshots of the pivot row / pivot column structure at elimination
        // time, in original coordinates; converted to permuted CSR below.
        let mut u_cols: Vec<Vec<usize>> = Vec::with_capacity(n);
        let mut l_rows: Vec<Vec<usize>> = Vec::with_capacity(n);

        for k in 0..n {
            // Markowitz pivot selection: diagonal candidates first (numeric
            // safety: MNA diagonals carry GMIN and dominate their row), with
            // an off-diagonal fallback for general patterns.
            let mut best: Option<(usize, usize, usize)> = None; // (cost, r, c)
            for r in (0..n).filter(|&r| row_active[r]) {
                if rows[r].contains(&r) && col_active[r] {
                    let cost = (rows[r].len() - 1) * (cols[r].len() - 1);
                    if best.is_none_or(|(bc, br, _)| cost < bc || (cost == bc && r < br)) {
                        best = Some((cost, r, r));
                    }
                }
            }
            if best.is_none() {
                for r in (0..n).filter(|&r| row_active[r]) {
                    for &c in &rows[r] {
                        let cost = (rows[r].len() - 1) * (cols[c].len() - 1);
                        if best.is_none_or(|(bc, ..)| cost < bc) {
                            best = Some((cost, r, c));
                        }
                    }
                }
            }
            let Some((_, pr, pc)) = best else {
                return Err(LinalgError::Singular { pivot: k });
            };

            let u_snapshot: Vec<usize> = rows[pr].iter().copied().collect();
            let l_snapshot: Vec<usize> = cols[pc].iter().copied().filter(|&i| i != pr).collect();

            // Fill: eliminating (pr, pc) connects every remaining row with an
            // entry in column pc to every remaining column of row pr.
            for &i in &l_snapshot {
                for &j in &u_snapshot {
                    if j != pc && rows[i].insert(j) {
                        cols[j].insert(i);
                    }
                }
            }
            // Detach the pivot row and column from the remaining structure.
            for &j in &u_snapshot {
                cols[j].remove(&pr);
            }
            for &i in &l_snapshot {
                rows[i].remove(&pc);
            }
            rows[pr].clear();
            cols[pc].clear();
            row_active[pr] = false;
            col_active[pc] = false;

            row_perm.push(pr);
            col_perm.push(pc);
            u_cols.push(u_snapshot);
            l_rows.push(l_snapshot);
        }

        let mut row_perm_inv = vec![0usize; n];
        let mut col_perm_inv = vec![0usize; n];
        for k in 0..n {
            row_perm_inv[row_perm[k]] = k;
            col_perm_inv[col_perm[k]] = k;
        }

        // Assemble the permuted L+U structure: U entries come from the pivot
        // row snapshots, L entries from the pivot column snapshots.
        let mut per_row: Vec<Vec<usize>> = vec![Vec::new(); n];
        for k in 0..n {
            for &j in &u_cols[k] {
                per_row[k].push(col_perm_inv[j]);
            }
            for &i in &l_rows[k] {
                per_row[row_perm_inv[i]].push(k);
            }
        }
        let mut lu_row_ptr = Vec::with_capacity(n + 1);
        let mut lu_col_idx = Vec::new();
        let mut diag_slot = Vec::with_capacity(n);
        lu_row_ptr.push(0);
        for (k, row) in per_row.iter_mut().enumerate() {
            row.sort_unstable();
            let diag_offset = row
                .binary_search(&k)
                .expect("pivot entry is always in its own row");
            diag_slot.push(lu_col_idx.len() + diag_offset);
            lu_col_idx.extend_from_slice(row);
            lu_row_ptr.push(lu_col_idx.len());
        }

        let mut sym = SymbolicLu {
            n,
            row_perm,
            col_perm,
            row_perm_inv,
            col_perm_inv,
            lu_row_ptr,
            lu_col_idx,
            diag_slot,
            analyzed: pattern.clone(),
            self_scatter: Vec::new(),
        };
        sym.self_scatter = sym.compute_scatter(pattern)?;
        Ok(sym)
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Total structural nonzeros of `L + U`.
    pub fn nnz_lu(&self) -> usize {
        self.lu_col_idx.len()
    }

    /// Row pointers of the permuted `L + U` structure (crate-internal: the
    /// struct-of-arrays kernels replay the same elimination order).
    pub(crate) fn lu_row_ptr(&self) -> &[usize] {
        &self.lu_row_ptr
    }

    /// Column indices of the permuted `L + U` structure.
    pub(crate) fn lu_col_idx(&self) -> &[usize] {
        &self.lu_col_idx
    }

    /// Diagonal slot of each permuted row.
    pub(crate) fn diag_slot(&self) -> &[usize] {
        &self.diag_slot
    }

    /// Original row of permuted row `k`.
    pub(crate) fn row_perm(&self) -> &[usize] {
        &self.row_perm
    }

    /// Original column of permuted column `k`.
    pub(crate) fn col_perm(&self) -> &[usize] {
        &self.col_perm
    }

    /// The slot map from an input pattern into the LU value array, reusing
    /// the precomputed map when the pattern equals the analysed one.
    pub(crate) fn scatter_map(&self, pattern: &SparsityPattern) -> Result<Vec<usize>, LinalgError> {
        if *pattern == self.analyzed {
            return Ok(self.self_scatter.clone());
        }
        self.compute_scatter(pattern)
    }

    fn compute_scatter(&self, pattern: &SparsityPattern) -> Result<Vec<usize>, LinalgError> {
        if pattern.n() != self.n {
            return Err(LinalgError::ShapeMismatch {
                op: "sparse_lu_scatter",
                lhs: (self.n, self.n),
                rhs: (pattern.n(), pattern.n()),
            });
        }
        let mut map = Vec::with_capacity(pattern.nnz());
        for (r, c, _) in pattern.iter() {
            let pk = self.row_perm_inv[r];
            let pm = self.col_perm_inv[c];
            let row = &self.lu_col_idx[self.lu_row_ptr[pk]..self.lu_row_ptr[pk + 1]];
            let offset = row.binary_search(&pm).map_err(|_| {
                // The analysed pattern covers every input position, so a miss
                // means this pattern is not the one that was analysed.
                LinalgError::InvalidDimensions {
                    reason: "input pattern does not match the symbolic analysis",
                }
            })?;
            map.push(self.lu_row_ptr[pk] + offset);
        }
        Ok(map)
    }
}

/// Numeric sparse LU state bound to one [`SymbolicLu`] and one input pattern.
///
/// [`SparseLu::refactor`] replays the elimination for new slot values without
/// any allocation or structural work; [`SparseLu::solve`] then serves any
/// number of right-hand sides against the current factorisation.
#[derive(Debug, Clone)]
pub struct SparseLu {
    symbolic: Arc<SymbolicLu>,
    scatter: Vec<usize>,
    luval: Vec<Complex>,
    /// Reciprocal of each U diagonal, cached at refactor time so the
    /// elimination and the triangular solves multiply instead of divide.
    diag_recip: Vec<Complex>,
    work: Vec<Complex>,
    scratch: Vec<Complex>,
    factored: bool,
    /// Element growth of the last factorisation: max |L+U| over max |A|,
    /// squared.  Static (pattern-chosen) pivoting is backward stable exactly
    /// when this stays modest, so callers can skip residual verification for
    /// benign factors and reserve iterative refinement for the rest.
    growth_sq: f64,
}

impl SparseLu {
    /// Creates the numeric state for `input_pattern` against `symbolic`.
    ///
    /// # Errors
    ///
    /// Returns an error if the pattern dimension or structure does not match
    /// the analysed pattern.
    pub fn new(
        symbolic: Arc<SymbolicLu>,
        input_pattern: &SparsityPattern,
    ) -> Result<Self, LinalgError> {
        let scatter = symbolic.scatter_map(input_pattern)?;
        let nnz_lu = symbolic.nnz_lu();
        let n = symbolic.n;
        Ok(SparseLu {
            symbolic,
            scatter,
            luval: vec![Complex::ZERO; nnz_lu],
            diag_recip: vec![Complex::ZERO; n],
            work: vec![Complex::ZERO; n],
            scratch: vec![Complex::ZERO; n],
            factored: false,
            growth_sq: f64::INFINITY,
        })
    }

    /// The shared symbolic analysis.
    pub fn symbolic(&self) -> &Arc<SymbolicLu> {
        &self.symbolic
    }

    /// Numerically factorises the matrix whose slot values (aligned with the
    /// input pattern passed to [`SparseLu::new`]) are `values`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] if a pivot underflows, and
    /// [`LinalgError::InvalidDimensions`] on a slot-count mismatch.
    pub fn refactor(&mut self, values: &[Complex]) -> Result<(), LinalgError> {
        if values.len() != self.scatter.len() {
            return Err(LinalgError::InvalidDimensions {
                reason: "slot value count does not match the bound input pattern",
            });
        }
        let sym = &*self.symbolic;
        self.factored = false;
        self.luval.fill(Complex::ZERO);
        let mut input_max_sq = 0.0f64;
        for (v, &slot) in values.iter().zip(&self.scatter) {
            input_max_sq = input_max_sq.max(v.abs_sq());
            self.luval[slot] += *v;
        }
        let mut lu_max_sq = 0.0f64;

        for i in 0..sym.n {
            let row_start = sym.lu_row_ptr[i];
            let row_end = sym.lu_row_ptr[i + 1];
            let diag = sym.diag_slot[i];
            // Scatter row i into the dense workspace.
            for (&c, &v) in sym.lu_col_idx[row_start..row_end]
                .iter()
                .zip(&self.luval[row_start..row_end])
            {
                self.work[c] = v;
            }
            // Eliminate with every earlier pivot row this row touches.
            for s in row_start..diag {
                let m = sym.lu_col_idx[s];
                let factor = self.work[m] * self.diag_recip[m];
                self.work[m] = factor;
                let u_start = sym.diag_slot[m] + 1;
                let u_end = sym.lu_row_ptr[m + 1];
                for (&c, &u) in sym.lu_col_idx[u_start..u_end]
                    .iter()
                    .zip(&self.luval[u_start..u_end])
                {
                    self.work[c] -= factor * u;
                }
            }
            // Gather back and reset the workspace.
            for (&c, v) in sym.lu_col_idx[row_start..row_end]
                .iter()
                .zip(&mut self.luval[row_start..row_end])
            {
                *v = self.work[c];
                lu_max_sq = lu_max_sq.max(v.abs_sq());
                self.work[c] = Complex::ZERO;
            }
            let p = self.luval[diag];
            if p.abs_sq() < PIVOT_TINY_SQ || !p.is_finite() {
                return Err(LinalgError::Singular { pivot: i });
            }
            self.diag_recip[i] = Complex::ONE / p;
        }
        self.factored = true;
        self.growth_sq = if input_max_sq > 0.0 {
            lu_max_sq / input_max_sq
        } else {
            f64::INFINITY
        };
        Ok(())
    }

    /// Squared element growth of the current factorisation (see the field
    /// docs); `INFINITY` before the first successful refactor.
    pub fn growth_sq(&self) -> f64 {
        self.growth_sq
    }

    /// Solves `A x = b` against the current factorisation.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidDimensions`] if no factorisation is
    /// current, and [`LinalgError::ShapeMismatch`] on a length mismatch.
    pub fn solve(&self, b: &[Complex]) -> Result<Vec<Complex>, LinalgError> {
        let mut scratch = vec![Complex::ZERO; self.symbolic.n];
        let mut x = b.to_vec();
        self.solve_with_scratch(&mut x, &mut scratch)?;
        Ok(x)
    }

    /// Allocation-free solve: `b` holds the right-hand side on entry and the
    /// solution on exit, using the internal scratch buffer.
    ///
    /// # Errors
    ///
    /// Same as [`SparseLu::solve`].
    pub fn solve_in_place(&mut self, b: &mut [Complex]) -> Result<(), LinalgError> {
        // Move the scratch out to satisfy the borrow checker (`self` is
        // otherwise only read), then put it back.
        let mut scratch = std::mem::take(&mut self.scratch);
        let result = self.solve_with_scratch(b, &mut scratch);
        self.scratch = scratch;
        result
    }

    fn solve_with_scratch(&self, b: &mut [Complex], y: &mut [Complex]) -> Result<(), LinalgError> {
        let sym = &*self.symbolic;
        if !self.factored {
            return Err(LinalgError::InvalidDimensions {
                reason: "solve requires a successful refactor first",
            });
        }
        if b.len() != sym.n || y.len() != sym.n {
            return Err(LinalgError::ShapeMismatch {
                op: "sparse_lu_solve",
                lhs: (sym.n, sym.n),
                rhs: (b.len(), 1),
            });
        }
        // Forward substitution (unit-diagonal L) on the row-permuted RHS.
        for k in 0..sym.n {
            let mut acc = b[sym.row_perm[k]];
            let (start, diag) = (sym.lu_row_ptr[k], sym.diag_slot[k]);
            for (&c, &l) in sym.lu_col_idx[start..diag]
                .iter()
                .zip(&self.luval[start..diag])
            {
                acc -= l * y[c];
            }
            y[k] = acc;
        }
        // Back substitution through U.
        for k in (0..sym.n).rev() {
            let mut acc = y[k];
            let (diag, end) = (sym.diag_slot[k], sym.lu_row_ptr[k + 1]);
            for (&c, &u) in sym.lu_col_idx[diag + 1..end]
                .iter()
                .zip(&self.luval[diag + 1..end])
            {
                acc -= u * y[c];
            }
            y[k] = acc * self.diag_recip[k];
        }
        // Undo the column permutation.
        for k in 0..sym.n {
            b[sym.col_perm[k]] = y[k];
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pattern of `entries` and their values in its slot order
    /// (duplicate positions sum).
    fn system(n: usize, entries: &[(usize, usize, Complex)]) -> (SparsityPattern, Vec<Complex>) {
        let positions: Vec<(usize, usize)> = entries.iter().map(|&(r, c, _)| (r, c)).collect();
        let pattern = SparsityPattern::from_positions(n, &positions).unwrap();
        let mut values = vec![Complex::ZERO; pattern.nnz()];
        for &(r, c, v) in entries {
            values[pattern.slot(r, c).unwrap()] += v;
        }
        (pattern, values)
    }

    fn tridiagonal(n: usize) -> (SparsityPattern, Vec<Complex>) {
        let mut entries = Vec::new();
        for i in 0..n {
            entries.push((i, i, Complex::new(2.5, 0.5)));
            if i + 1 < n {
                entries.push((i, i + 1, Complex::new(-1.0, 0.25)));
                entries.push((i + 1, i, Complex::new(-1.0, -0.25)));
            }
        }
        system(n, &entries)
    }

    /// `A x` for the matrix with slot `values` over `pattern`.
    fn matvec(pattern: &SparsityPattern, values: &[Complex], x: &[Complex]) -> Vec<Complex> {
        let mut y = vec![Complex::ZERO; pattern.n()];
        for (r, c, s) in pattern.iter() {
            y[r] += values[s] * x[c];
        }
        y
    }

    /// Analyses `pattern` and factors `values` over it.
    fn factor(pattern: &SparsityPattern, values: &[Complex]) -> SparseLu {
        let symbolic = Arc::new(SymbolicLu::analyze(pattern).unwrap());
        let mut lu = SparseLu::new(symbolic, pattern).unwrap();
        lu.refactor(values).unwrap();
        lu
    }

    fn assert_solves(pattern: &SparsityPattern, values: &[Complex], x: &[Complex], b: &[Complex]) {
        for (bi, ri) in b.iter().zip(&matvec(pattern, values, x)) {
            assert!((*bi - *ri).abs() < 1e-12, "{bi} vs {ri}");
        }
    }

    #[test]
    fn solves_tridiagonal_system_exactly() {
        let (pattern, values) = tridiagonal(12);
        let b: Vec<Complex> = (0..12)
            .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 0.3).cos()))
            .collect();
        let x = factor(&pattern, &values).solve(&b).unwrap();
        assert_solves(&pattern, &values, &x, &b);
    }

    #[test]
    fn tridiagonal_has_no_fill_under_markowitz() {
        // A tridiagonal matrix factorises with zero fill when eliminated in
        // a fill-minimising order.
        let (pattern, _) = tridiagonal(50);
        let sym = SymbolicLu::analyze(&pattern).unwrap();
        assert_eq!(sym.nnz_lu(), pattern.nnz());
    }

    #[test]
    fn symbolic_reuse_across_refactors() {
        let (pattern, values) = tridiagonal(8);
        let sym = Arc::new(SymbolicLu::analyze(&pattern).unwrap());
        let mut lu = SparseLu::new(sym.clone(), &pattern).unwrap();
        for scale in [1.0, 2.0, 0.5] {
            let scaled: Vec<Complex> = values.iter().map(|&v| v * scale).collect();
            lu.refactor(&scaled).unwrap();
            let b = vec![Complex::ONE; 8];
            let x = lu.solve(&b).unwrap();
            assert_solves(&pattern, &scaled, &x, &b);
        }
        assert!(Arc::ptr_eq(lu.symbolic(), &sym));
    }

    #[test]
    fn solve_in_place_matches_allocating_solve() {
        let (pattern, values) = tridiagonal(9);
        let mut lu = factor(&pattern, &values);
        let b: Vec<Complex> = (0..9)
            .map(|i| Complex::new((i as f64).cos(), 0.5))
            .collect();
        let x = lu.solve(&b).unwrap();
        let mut inplace = b.clone();
        lu.solve_in_place(&mut inplace).unwrap();
        assert_eq!(x, inplace);
    }

    #[test]
    fn complex_system_round_trips() {
        let mut entries: Vec<(usize, usize, Complex)> =
            (0..4).map(|i| (i, i, Complex::new(3.0, 1.0))).collect();
        entries.push((0, 2, Complex::new(0.5, -0.5)));
        entries.push((3, 1, Complex::new(-0.25, 0.75)));
        let (pattern, values) = system(4, &entries);
        let b: Vec<Complex> = (0..4).map(|i| Complex::new(i as f64, -1.0)).collect();
        let x = factor(&pattern, &values).solve(&b).unwrap();
        assert_solves(&pattern, &values, &x, &b);
    }

    #[test]
    fn structurally_singular_pattern_is_rejected() {
        // Row 1 is entirely empty: no pivot can ever be found for it.
        let pattern = SparsityPattern::from_positions(3, &[(0, 0), (2, 2), (0, 2)]).unwrap();
        assert!(matches!(
            SymbolicLu::analyze(&pattern),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn numerically_singular_values_are_rejected() {
        let (pattern, _) = tridiagonal(3);
        let sym = Arc::new(SymbolicLu::analyze(&pattern).unwrap());
        let mut lu = SparseLu::new(sym, &pattern).unwrap();
        // All-zero values: first pivot underflows.
        assert!(matches!(
            lu.refactor(&vec![Complex::ZERO; pattern.nnz()]),
            Err(LinalgError::Singular { .. })
        ));
        // And solving without a current factorisation is an error.
        assert!(lu.solve(&[Complex::ONE; 3]).is_err());
    }

    #[test]
    fn off_diagonal_pivot_fallback_works() {
        // Anti-diagonal pattern: no structural diagonal at all.
        let (pattern, values) = system(
            3,
            &[
                (0, 2, Complex::real(2.0)),
                (1, 1, Complex::real(3.0)),
                (2, 0, Complex::real(4.0)),
            ],
        );
        let b = [2.0, 3.0, 4.0].map(Complex::real);
        let x = factor(&pattern, &values).solve(&b).unwrap();
        for xi in x {
            assert!((xi - Complex::ONE).abs() < 1e-12, "{xi}");
        }
    }

    #[test]
    fn mismatched_pattern_is_rejected() {
        let (pattern, _) = tridiagonal(4);
        let sym = Arc::new(SymbolicLu::analyze(&pattern).unwrap());
        let dense_pattern = SparsityPattern::from_positions(
            4,
            &(0..4)
                .flat_map(|r| (0..4).map(move |c| (r, c)))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        // The denser pattern has positions the symbolic analysis never saw.
        assert!(SparseLu::new(sym, &dense_pattern).is_err());
    }
}
