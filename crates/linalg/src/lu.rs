use crate::{LinalgError, Matrix};

/// LU factorisation with partial pivoting of a real square matrix.
///
/// Used by the DC Newton–Raphson solver in `gcnrl-sim`, where the Jacobian is
/// factorised once per Newton iteration and solved against the residual.
///
/// # Examples
///
/// ```
/// use gcnrl_linalg::{Matrix, LuDecomposition};
///
/// # fn main() -> Result<(), gcnrl_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]])?;
/// let x = LuDecomposition::new(&a)?.solve(&[3.0, 5.0])?;
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuDecomposition {
    lu: Matrix,
    perm: Vec<usize>,
}

impl LuDecomposition {
    /// Factorises `a`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidDimensions`] if `a` is not square, or
    /// [`LinalgError::Singular`] if the matrix is numerically singular.
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        if a.rows() != a.cols() {
            return Err(LinalgError::InvalidDimensions {
                reason: "LU factorisation requires a square matrix",
            });
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();

        for k in 0..n {
            let mut pivot_row = k;
            let mut pivot_mag = lu[(k, k)].abs();
            for r in (k + 1)..n {
                if lu[(r, k)].abs() > pivot_mag {
                    pivot_mag = lu[(r, k)].abs();
                    pivot_row = r;
                }
            }
            if pivot_mag < 1e-300 {
                return Err(LinalgError::Singular { pivot: k });
            }
            if pivot_row != k {
                for c in 0..n {
                    let tmp = lu[(k, c)];
                    lu[(k, c)] = lu[(pivot_row, c)];
                    lu[(pivot_row, c)] = tmp;
                }
                perm.swap(k, pivot_row);
            }
            let pivot = lu[(k, k)];
            for r in (k + 1)..n {
                let factor = lu[(r, k)] / pivot;
                lu[(r, k)] = factor;
                for c in (k + 1)..n {
                    let sub = factor * lu[(k, c)];
                    lu[(r, c)] -= sub;
                }
            }
        }
        Ok(LuDecomposition { lu, perm })
    }

    /// Dimension of the factorised matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A x = b` for `x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "lu_solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut acc = b[self.perm[i]];
            for (j, yj) in y.iter().enumerate().take(i) {
                acc -= self.lu[(i, j)] * yj;
            }
            y[i] = acc;
        }
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut acc = y[i];
            for (j, xj) in x.iter().enumerate().skip(i + 1) {
                acc -= self.lu[(i, j)] * xj;
            }
            x[i] = acc / self.lu[(i, i)];
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_2x2() {
        let a = Matrix::from_rows(&[&[3.0, 2.0], &[1.0, 4.0]]).unwrap();
        let x = LuDecomposition::new(&a)
            .unwrap()
            .solve(&[7.0, 9.0])
            .unwrap();
        // 3x + 2y = 7, x + 4y = 9 -> x = 1, y = 2
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_matching_rhs() {
        let a = Matrix::identity(3);
        let lu = LuDecomposition::new(&a).unwrap();
        assert!(lu.solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn singular_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(
            LuDecomposition::new(&a),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(LuDecomposition::new(&a).is_err());
    }

    #[test]
    fn pivoting_zero_diagonal() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = LuDecomposition::new(&a)
            .unwrap()
            .solve(&[2.0, 5.0])
            .unwrap();
        assert!((x[0] - 5.0).abs() < 1e-14);
        assert!((x[1] - 2.0).abs() < 1e-14);
    }
}
