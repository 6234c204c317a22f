use crate::{LinalgError, Matrix};

/// Right-hand sides [`Cholesky::solve_many`] solves together.
const TILE: usize = 8;

/// Cholesky factorisation `A = L L^T` of a symmetric positive-definite matrix.
///
/// The Gaussian-process surrogate in the Bayesian-optimisation baseline uses
/// this to solve against its kernel matrix. It grows the factor one row per
/// new training point ([`push_row`](Self::push_row)) and drops rows when its
/// training window moves ([`truncate`](Self::truncate)).
///
/// # Examples
///
/// ```
/// use gcnrl_linalg::{Matrix, Cholesky};
///
/// # fn main() -> Result<(), gcnrl_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])?;
/// let chol = Cholesky::new(&a)?;
/// let x = chol.solve(&[2.0, 1.0])?;
/// // verify A x = b
/// let b = a.matvec(&x)?;
/// assert!((b[0] - 2.0).abs() < 1e-12);
///
/// // Growing the factor row by row gives the same factor.
/// let mut grown = Cholesky::default();
/// grown.push_row(&[4.0])?;
/// grown.push_row(&[2.0, 3.0])?;
/// assert_eq!(grown, chol);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cholesky {
    /// Rows of the lower-triangular factor, packed: row `i` holds
    /// `L[i][0..=i]` and starts at `i * (i + 1) / 2`.
    packed: Vec<f64>,
    dim: usize,
}

/// Where row `i` of a packed lower triangle starts.
fn row_start(i: usize) -> usize {
    i * (i + 1) / 2
}

impl Cholesky {
    /// Factorises the symmetric positive-definite matrix `a`.
    ///
    /// Only the lower triangle of `a` is read.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidDimensions`] if `a` is not square, or
    /// [`LinalgError::NotPositiveDefinite`] if a non-positive pivot appears.
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        if a.rows() != a.cols() {
            return Err(LinalgError::InvalidDimensions {
                reason: "Cholesky factorisation requires a square matrix",
            });
        }
        let mut chol = Cholesky {
            packed: Vec::with_capacity(row_start(a.rows())),
            dim: 0,
        };
        for i in 0..a.rows() {
            chol.push_row(&a.row(i)[..=i])?;
        }
        Ok(chol)
    }

    /// Dimension of the factorised matrix.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The lower-triangular factor `L` as a dense matrix.
    ///
    /// # Panics
    ///
    /// Panics if the factor is empty.
    pub fn lower(&self) -> Matrix {
        Matrix::from_fn(self.dim, self.dim, |i, j| {
            if j <= i {
                self.packed[row_start(i) + j]
            } else {
                0.0
            }
        })
    }

    /// Extends the factor of an `n × n` matrix `A` to the `(n + 1) × (n + 1)`
    /// matrix that adds one row and column, given that row's first `n + 1`
    /// entries (`A[n][0..=n]`).
    ///
    /// Row `n` of `L` depends only on rows `0..n` of `L` and row `n` of `A`,
    /// and [`new`](Self::new) factors every row through this method, so a
    /// factor grown row by row equals the one `new` computes, bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `a_row.len() != self.dim() + 1`,
    /// or [`LinalgError::NotPositiveDefinite`] if the new pivot is not
    /// positive; the factor is unchanged either way.
    pub fn push_row(&mut self, a_row: &[f64]) -> Result<(), LinalgError> {
        let i = self.dim;
        if a_row.len() != i + 1 {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky_push_row",
                lhs: (i, i),
                rhs: (1, a_row.len()),
            });
        }
        let start = self.packed.len();
        self.packed.extend_from_slice(a_row);
        let (earlier, row) = self.packed.split_at_mut(start);
        for j in 0..i {
            let lj = &earlier[row_start(j)..][..=j];
            let mut sum = row[j];
            for (lik, ljk) in row[..j].iter().zip(&lj[..j]) {
                sum -= lik * ljk;
            }
            row[j] = sum / lj[j];
        }
        let mut sum = row[i];
        for lik in &row[..i] {
            sum -= lik * lik;
        }
        if sum <= 0.0 {
            self.packed.truncate(start);
            return Err(LinalgError::NotPositiveDefinite { index: i });
        }
        row[i] = sum.sqrt();
        self.dim += 1;
        Ok(())
    }

    /// Keeps the factor of the leading `n × n` block of `A` (the first `n`
    /// rows of `L`); a no-op if `n >= self.dim()`.
    pub fn truncate(&mut self, n: usize) {
        if n < self.dim {
            self.dim = n;
            self.packed.truncate(row_start(n));
        }
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim;
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky_solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        let mut x = b.to_vec();
        self.solve_block::<1>(&mut x);
        Ok(x)
    }

    /// Solves `A X = B` for every column of the `n × m` matrix `b`.
    ///
    /// Column `c` of the result equals [`solve`](Self::solve) of column `c`
    /// of `b`, bit for bit. Columns are solved eight at a time from a
    /// contiguous copy, so the CPU overlaps eight independent sums; the last
    /// `m % 8` columns are solved one at a time. A CPU with AVX2 runs a copy
    /// of the solve compiled for it, with the same bits.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.rows() != self.dim()`.
    pub fn solve_many(&self, b: &Matrix) -> Result<Matrix, LinalgError> {
        let n = self.dim;
        if b.rows() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky_solve_many",
                lhs: (n, n),
                rhs: b.shape(),
            });
        }
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2, the only feature
            // `solve_many_avx2` enables.
            return Ok(unsafe { self.solve_many_avx2(b) });
        }
        Ok(self.solve_many_body(b))
    }

    /// [`solve_many_body`](Self::solve_many_body) with four-lane vector
    /// instructions. AVX2 without FMA keeps every multiply and subtraction
    /// rounded separately, so the bits do not change.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn solve_many_avx2(&self, b: &Matrix) -> Matrix {
        self.solve_many_body(b)
    }

    /// The portable [`solve_many`](Self::solve_many), for a `b` with one row
    /// per factor row.
    #[inline(always)]
    fn solve_many_body(&self, b: &Matrix) -> Matrix {
        let n = self.dim;
        let m = b.cols();
        let mut x = b.clone();
        let mut tile = vec![0.0; n * TILE];
        let full = m - m % TILE;
        for c0 in (0..full).step_by(TILE) {
            self.solve_columns::<TILE>(&mut x, c0, &mut tile);
        }
        for c in full..m {
            self.solve_columns::<1>(&mut x, c, &mut tile[..n]);
        }
        x
    }

    /// Solves columns `c0..c0 + W` of `x` in place, through the `n × W`
    /// scratch block `tile`.
    #[inline(always)]
    fn solve_columns<const W: usize>(&self, x: &mut Matrix, c0: usize, tile: &mut [f64]) {
        let cols = x.cols();
        let data = x.as_mut_slice();
        for (row, t) in data.chunks_exact(cols).zip(tile.chunks_exact_mut(W)) {
            t.copy_from_slice(&row[c0..c0 + W]);
        }
        self.solve_block::<W>(tile);
        for (row, t) in data.chunks_exact_mut(cols).zip(tile.chunks_exact(W)) {
            row[c0..c0 + W].copy_from_slice(t);
        }
    }

    /// Solves `L L^T X = B` in place for the row-major `n × W` block `x`.
    ///
    /// Every column's sums start from its own right-hand side entry and
    /// subtract their terms in ascending order, whatever `W` is.
    #[inline(always)]
    fn solve_block<const W: usize>(&self, x: &mut [f64]) {
        let n = self.dim;
        assert_eq!(x.len(), n * W, "one block row per factor row");
        // L y = b: row i of y from row i of b and rows 0..i of y.
        for i in 0..n {
            let l = &self.packed[row_start(i)..][..=i];
            let (y, rest) = x.split_at_mut(i * W);
            let xi = &mut rest[..W];
            let mut acc = [0.0; W];
            acc.copy_from_slice(xi);
            for (lij, yj) in l[..i].iter().zip(y.chunks_exact(W)) {
                for (a, v) in acc.iter_mut().zip(yj) {
                    *a -= lij * v;
                }
            }
            for (out, a) in xi.iter_mut().zip(acc) {
                *out = a / l[i];
            }
        }
        // L^T x = y: row i of x from row i of y and rows i+1.. of x, walking
        // down column i of L.
        for i in (0..n).rev() {
            let (head, solved) = x.split_at_mut((i + 1) * W);
            let xi = &mut head[i * W..];
            let mut acc = [0.0; W];
            acc.copy_from_slice(xi);
            let mut lji = row_start(i + 1) + i;
            for (j, xj) in (i + 1..n).zip(solved.chunks_exact(W)) {
                let l = self.packed[lji];
                for (a, v) in acc.iter_mut().zip(xj) {
                    *a -= l * v;
                }
                lji += j + 1;
            }
            let lii = self.packed[row_start(i) + i];
            for (out, a) in xi.iter_mut().zip(acc) {
                *out = a / lii;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_reconstructs_matrix() {
        let a = Matrix::from_rows(&[&[25.0, 15.0, -5.0], &[15.0, 18.0, 0.0], &[-5.0, 0.0, 11.0]])
            .unwrap();
        let chol = Cholesky::new(&a).unwrap();
        let l = chol.lower();
        let back = l.matmul(&l.transpose()).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((back[(i, j)] - a[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn solve_matches_direct() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
        let x = Cholesky::new(&a).unwrap().solve(&[1.0, 2.0]).unwrap();
        let b = a.matvec(&x).unwrap();
        assert!((b[0] - 1.0).abs() < 1e-12);
        assert!((b[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_non_positive_definite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_non_square() {
        assert!(Cholesky::new(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn solve_wrong_length_errors() {
        let a = Matrix::identity(3);
        let chol = Cholesky::new(&a).unwrap();
        assert!(chol.solve(&[1.0]).is_err());
        assert!(chol.solve_many(&Matrix::zeros(2, 4)).is_err());
    }

    /// `solve_many` runs the AVX2 build of `solve_many_body` on a CPU that
    /// has it; the portable build must give the same bits, for column counts
    /// on and off the eight-column tile.
    #[test]
    fn portable_solve_many_equals_the_dispatched_one_bit_for_bit() {
        let n = 19;
        let a = Matrix::from_fn(n, n, |i, j| {
            let off = ((i * 3 + j * 3) as f64 * 0.41).sin() * 0.3;
            off + if i == j { n as f64 } else { 0.0 }
        });
        let chol = Cholesky::new(&a).unwrap();
        let bits = |x: &Matrix| -> Vec<u64> { x.as_slice().iter().map(|v| v.to_bits()).collect() };
        for m in [1, 7, 8, 9, 16, 21] {
            let b = Matrix::from_fn(n, m, |r, c| ((r * 13 + c * 5) as f64 * 0.29).cos());
            let dispatched = chol.solve_many(&b).unwrap();
            assert_eq!(
                bits(&chol.solve_many_body(&b)),
                bits(&dispatched),
                "m = {m}"
            );
        }
    }

    #[test]
    fn failed_or_misshapen_push_leaves_the_factor_unchanged() {
        let mut chol = Cholesky::new(&Matrix::from_rows(&[&[1.0]]).unwrap()).unwrap();
        let before = chol.clone();
        assert!(matches!(
            chol.push_row(&[2.0, 1.0]),
            Err(LinalgError::NotPositiveDefinite { index: 1 })
        ));
        assert!(chol.push_row(&[1.0]).is_err());
        assert_eq!(chol, before);
    }
}
