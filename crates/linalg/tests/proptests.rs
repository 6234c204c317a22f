//! Property-based tests for the linear-algebra kernel.

use gcnrl_linalg::sparse::{SparseLu, SparsityPattern, SymbolicLu};
use gcnrl_linalg::{CMatrix, Cholesky, Complex, LuDecomposition, Matrix};
use proptest::prelude::*;
use std::sync::Arc;

fn small_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-10.0f64..10.0, n * n)
        .prop_map(move |data| Matrix::from_vec(n, n, data).expect("sized"))
}

/// A `rows x cols` matrix of values in `[-10, 10)` drawn from `seed`
/// (splitmix64).
fn seeded_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed;
    Matrix::from_fn(rows, cols, |_, _| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64 * 20.0 - 10.0
    })
}

/// The naive triple loop: entry `(i, j)` is `sum_p a(i, p) b(p, j)`, summed
/// in ascending `p` from `0.0`.
fn naive_product(
    (m, n, k): (usize, usize, usize),
    a: impl Fn(usize, usize) -> f64,
    b: impl Fn(usize, usize) -> f64,
) -> Matrix {
    Matrix::from_fn(m, n, |i, j| {
        let mut sum = 0.0;
        for p in 0..k {
            sum += a(i, p) * b(p, j);
        }
        sum
    })
}

/// A well-conditioned `n x n` symmetric positive-definite matrix `M^T M + n I`
/// drawn from `seed`.
fn seeded_spd(n: usize, seed: u64) -> Matrix {
    let m = seeded_matrix(n, n, seed);
    let mut a = m.matmul_transa(&m).unwrap();
    for i in 0..n {
        a[(i, i)] += n as f64;
    }
    a
}

/// The textbook dense Cholesky factor: `L[i][j]` from `A[i][j]` minus
/// `L[i][k] L[j][k]` in ascending `k`, row by row.
fn dense_factor(a: &Matrix) -> Matrix {
    let n = a.rows();
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)];
            for k in 0..j {
                sum -= l[(i, k)] * l[(j, k)];
            }
            l[(i, j)] = if i == j { sum.sqrt() } else { sum / l[(j, j)] };
        }
    }
    l
}

/// The textbook dense solve `L y = b`, then `L^T x = y`, each entry's sum
/// taken in ascending index from its right-hand side entry.
fn dense_solve(l: &Matrix, b: &[f64]) -> Vec<f64> {
    let n = b.len();
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut acc = b[i];
        for j in 0..i {
            acc -= l[(i, j)] * y[j];
        }
        y[i] = acc / l[(i, i)];
    }
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut acc = y[i];
        for j in i + 1..n {
            acc -= l[(j, i)] * x[j];
        }
        x[i] = acc / l[(i, i)];
    }
    x
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (A^T)^T == A for arbitrary matrices.
    #[test]
    fn transpose_is_involution(data in prop::collection::vec(-100.0f64..100.0, 12)) {
        let m = Matrix::from_vec(3, 4, data).unwrap();
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    /// LU solve reproduces the right-hand side: A * solve(A, b) ~= b
    /// for diagonally dominant (hence non-singular) matrices.
    #[test]
    fn lu_solve_round_trip(m in small_matrix(4), b in prop::collection::vec(-5.0f64..5.0, 4)) {
        let mut a = m;
        for i in 0..4 {
            let row_sum: f64 = (0..4).map(|j| a[(i, j)].abs()).sum();
            a[(i, i)] += row_sum + 1.0;
        }
        let lu = LuDecomposition::new(&a).unwrap();
        let x = lu.solve(&b).unwrap();
        let back = a.matvec(&x).unwrap();
        for (bi, ri) in b.iter().zip(&back) {
            prop_assert!((bi - ri).abs() < 1e-6);
        }
    }

    /// Cholesky of A^T A + eps I always succeeds and reconstructs the matrix.
    #[test]
    fn cholesky_reconstruction(m in small_matrix(3)) {
        let spd = m.transpose().matmul(&m).unwrap();
        let spd = spd.add_elem(&Matrix::identity(3).scaled(1e-3)).unwrap();
        let chol = Cholesky::new(&spd).unwrap();
        let l = chol.lower();
        let back = l.matmul(&l.transpose()).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                prop_assert!((back[(i, j)] - spd[(i, j)]).abs() < 1e-8);
            }
        }
    }

    /// Matrix multiplication is associative (within numerical tolerance).
    #[test]
    fn matmul_associative(a in small_matrix(3), b in small_matrix(3), c in small_matrix(3)) {
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                prop_assert!((left[(i, j)] - right[(i, j)]).abs() < 1e-6);
            }
        }
    }

    /// The sparse symbolic-once LU agrees with the dense complex LU on
    /// random sparse diagonally dominant systems.
    #[test]
    fn sparse_lu_matches_dense_lu(
        offdiag in prop::collection::vec((-5.0f64..5.0, -5.0f64..5.0), 12),
        rows in prop::collection::vec(0usize..6, 12),
        cols in prop::collection::vec(0usize..6, 12),
        b in prop::collection::vec((-5.0f64..5.0, -5.0f64..5.0), 6),
    ) {
        let n = 6;
        let mut dense = CMatrix::zeros(n, n);
        let mut positions = Vec::new();
        for ((&(re, im), &r), &c) in offdiag.iter().zip(&rows).zip(&cols) {
            dense.stamp(r, c, Complex::new(re, im));
            positions.push((r, c));
        }
        // Diagonal dominance keeps both factorisations comfortably stable.
        for i in 0..n {
            let row_sum: f64 = (0..n).map(|j| dense[(i, j)].abs()).sum();
            dense.stamp(i, i, Complex::real(row_sum + 1.0));
            positions.push((i, i));
        }
        let pattern = SparsityPattern::from_positions(n, &positions).unwrap();
        let values: Vec<Complex> = pattern.iter().map(|(r, c, _)| dense[(r, c)]).collect();
        let mut sparse =
            SparseLu::new(Arc::new(SymbolicLu::analyze(&pattern).unwrap()), &pattern).unwrap();
        sparse.refactor(&values).unwrap();
        let b: Vec<Complex> = b.iter().map(|&(re, im)| Complex::new(re, im)).collect();
        let x_dense = dense.lu().unwrap().solve(&b).unwrap();
        let x_sparse = sparse.solve(&b).unwrap();
        for (d, s) in x_dense.iter().zip(&x_sparse) {
            prop_assert!((*d - *s).abs() < 1e-9 * (1.0 + d.abs()), "{} vs {}", d, s);
        }
    }

    /// Transpose-free matrix products equal their explicit-transpose forms.
    #[test]
    fn transposed_products_agree(a in small_matrix(4), b in small_matrix(4)) {
        let ta = a.matmul_transa(&b).unwrap();
        let ta_ref = a.transpose().matmul(&b).unwrap();
        let tb = a.matmul_transb(&b).unwrap();
        let tb_ref = a.matmul(&b.transpose()).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                prop_assert!((ta[(i, j)] - ta_ref[(i, j)]).abs() < 1e-12);
                prop_assert!((tb[(i, j)] - tb_ref[(i, j)]).abs() < 1e-12);
            }
        }
    }

    /// The register-blocked products equal the naive triple loop exactly
    /// (`==`, no tolerance) on shapes that run every tile-remainder path,
    /// and their `_into` forms overwrite a garbage-filled buffer of another
    /// shape.
    #[test]
    fn blocked_products_equal_the_naive_loop_exactly(
        m in 1usize..14,
        k in 1usize..71,
        n in 1usize..71,
        seed in 0u64..u64::MAX,
    ) {
        let garbage = || Matrix::filled(5, 3, f64::NAN);
        let a = seeded_matrix(m, k, seed);
        let b = seeded_matrix(k, n, seed ^ 1);
        let expected = naive_product((m, n, k), |i, p| a[(i, p)], |p, j| b[(p, j)]);
        prop_assert_eq!(&a.matmul(&b).unwrap(), &expected);
        let mut out = garbage();
        a.matmul_into(&b, &mut out).unwrap();
        prop_assert_eq!(&out, &expected);

        let at = seeded_matrix(k, m, seed ^ 2);
        let expected = naive_product((m, n, k), |i, p| at[(p, i)], |p, j| b[(p, j)]);
        prop_assert_eq!(&at.matmul_transa(&b).unwrap(), &expected);
        let mut out = garbage();
        at.matmul_transa_into(&b, &mut out).unwrap();
        prop_assert_eq!(&out, &expected);

        let bt = seeded_matrix(n, k, seed ^ 3);
        let expected = naive_product((m, n, k), |i, p| a[(i, p)], |p, j| bt[(j, p)]);
        prop_assert_eq!(&a.matmul_transb(&bt).unwrap(), &expected);
        let mut out = garbage();
        a.matmul_transb_into(&bt, &mut out).unwrap();
        prop_assert_eq!(&out, &expected);
    }

    /// A factor grown one row at a time equals `Cholesky::new`, which equals
    /// the textbook dense factor; truncating it gives the factor of the
    /// leading block. All compared exactly.
    #[test]
    fn grown_factor_equals_the_whole_matrix_factor_exactly(
        n in 1usize..41,
        keep in 1usize..41,
        seed in 0u64..u64::MAX,
    ) {
        let a = seeded_spd(n, seed);
        let chol = Cholesky::new(&a).unwrap();
        let mut grown = Cholesky::default();
        for i in 0..n {
            grown.push_row(&a.row(i)[..=i]).unwrap();
        }
        prop_assert_eq!(&grown, &chol);
        prop_assert_eq!(bits(chol.lower().as_slice()), bits(dense_factor(&a).as_slice()));

        let keep = keep.min(n);
        let lead = Matrix::from_fn(keep, keep, |i, j| a[(i, j)]);
        grown.truncate(keep);
        prop_assert_eq!(&grown, &Cholesky::new(&lead).unwrap());
    }

    /// Every column `solve_many` returns equals `solve` of that column, which
    /// equals the textbook dense solve, bit for bit, for column counts on
    /// and off the eight-column tile.
    #[test]
    fn multi_column_solve_equals_single_solves_exactly(
        n in 1usize..41,
        m in 1usize..21,
        seed in 0u64..u64::MAX,
    ) {
        let a = seeded_spd(n, seed);
        let chol = Cholesky::new(&a).unwrap();
        let l = dense_factor(&a);
        let b = seeded_matrix(n, m, seed ^ 1);
        let x = chol.solve_many(&b).unwrap();
        prop_assert_eq!(x.shape(), (n, m));
        for c in 0..m {
            let single = chol.solve(&b.col(c)).unwrap();
            prop_assert_eq!(bits(&x.col(c)), bits(&single));
            prop_assert_eq!(bits(&single), bits(&dense_solve(&l, &b.col(c))));
        }
    }

    /// Complex multiplication magnitude is multiplicative: |ab| == |a||b|.
    #[test]
    fn complex_abs_multiplicative(ar in -10.0f64..10.0, ai in -10.0f64..10.0,
                                  br in -10.0f64..10.0, bi in -10.0f64..10.0) {
        let a = Complex::new(ar, ai);
        let b = Complex::new(br, bi);
        prop_assert!(((a * b).abs() - a.abs() * b.abs()).abs() < 1e-9);
    }
}
