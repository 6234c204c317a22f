//! The graph-convolution propagation step of Kipf & Welling (paper Eq. 4).
//!
//! A GCN layer in the paper is `H' = σ(Â H W)` with
//! `Â = D̃^-1/2 (A + I) D̃^-1/2`.  The linear part (`H W`) and the activation
//! are handled by [`Linear`](crate::Linear) and
//! [`Activation`](crate::Activation); this module provides the neighbourhood
//! aggregation `Â H` and its backward pass.  Both take a stack of graphs: a
//! minibatch of `B` samples is one `(B·n)`-row block whose `n`-row slices
//! are aggregated one by one, which is multiplication by the block-diagonal
//! `diag(Â, …, Â)`.  Skipping the aggregation turns the network into the
//! paper's non-GCN ablation (NG-RL).
//!
//! Each call lists the non-zero weights of every adjacency row once, in
//! ascending column order, and sums each output row in register-sized
//! column chunks over that list. The kernel is compiled twice, portable and
//! with AVX2 (without FMA), and picked at run time like the matrix products
//! of `gcnrl-linalg`. Every output element is the sum of its non-zero terms
//! in ascending neighbour order from `0.0`, so both builds give the bits of
//! the plain row-by-row loop.

use gcnrl_linalg::Matrix;

/// Aggregates node features over the graph, `H' = Â H`, for every `n`-row
/// slice of `features` (`n` is the order of `adjacency`). `out` is reshaped
/// and overwritten.
///
/// # Panics
///
/// Panics if `adjacency` is not square or `features` does not stack whole
/// `n`-row graphs.
pub fn gcn_propagate(adjacency: &Matrix, features: &Matrix, out: &mut Matrix) {
    aggregate(adjacency, features, out, |i, k| adjacency[(i, k)]);
}

/// Backward pass of [`gcn_propagate`]: `dL/dH = Âᵀ dL/dH'` for every slice.
///
/// # Panics
///
/// Panics under the same conditions as [`gcn_propagate`].
pub fn gcn_backprop(adjacency: &Matrix, d_output: &Matrix, out: &mut Matrix) {
    aggregate(adjacency, d_output, out, |i, k| adjacency[(k, i)]);
}

/// Columns of an output row summed in registers at a time.
const CHUNK: usize = 16;

/// Row `i` of every output slice is `sum_k weight(i, k) x_k` over the rows of
/// the same input slice. The non-zero weights of each row are listed once,
/// in ascending `k` (the normalised adjacency of a circuit is sparse), and
/// every output element is summed over them in that order from `0.0`.
///
/// Runs [`aggregate_body`] compiled for AVX2 when the CPU has it, and the
/// portable build otherwise; both give the same bits.
fn aggregate(
    adjacency: &Matrix,
    x: &Matrix,
    out: &mut Matrix,
    weight: impl Fn(usize, usize) -> f64,
) {
    let n = adjacency.rows();
    assert_eq!(n, adjacency.cols(), "adjacency must be square");
    assert_eq!(
        x.rows() % n,
        0,
        "features must stack whole graphs of the adjacency's order"
    );
    let d = x.cols();
    out.resize(x.rows(), d);
    let (terms, ends) = nonzero_terms(n, weight);
    let (x, out) = (x.as_slice(), out.as_mut_slice());
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2, the only feature `aggregate_avx2`
        // enables.
        unsafe { aggregate_avx2(&terms, &ends, d, x, out) };
        return;
    }
    aggregate_body(&terms, &ends, d, x, out);
}

/// The non-zero `weight(i, k)` of every row `i < n` as `(k, weight)` pairs
/// in ascending `k`, listed row after row; row `i` ends at `ends[i]`.
fn nonzero_terms(
    n: usize,
    weight: impl Fn(usize, usize) -> f64,
) -> (Vec<(usize, f64)>, Vec<usize>) {
    let mut terms = Vec::new();
    let mut ends = Vec::with_capacity(n);
    for i in 0..n {
        terms.extend((0..n).map(|k| (k, weight(i, k))).filter(|&(_, w)| w != 0.0));
        ends.push(terms.len());
    }
    (terms, ends)
}

/// [`aggregate_body`] with four-lane vector instructions. AVX2 without FMA
/// keeps every multiply and add rounded separately, so the bits do not
/// change.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn aggregate_avx2(terms: &[(usize, f64)], ends: &[usize], d: usize, x: &[f64], out: &mut [f64]) {
    aggregate_body(terms, ends, d, x, out);
}

/// The portable [`aggregate`]: output row `i` of each `n x d` slice of `out`
/// is the sum over `terms[ends[i - 1]..ends[i]]`, pairs `(k, w)`, of `w`
/// times row `k` of the same slice of `x`, with the terms added in their
/// listed order. Each row is summed in chunks of [`CHUNK`] columns whose
/// sums stay in registers; the last `d % CHUNK` columns sum in place.
#[inline(always)]
fn aggregate_body(terms: &[(usize, f64)], ends: &[usize], d: usize, x: &[f64], out: &mut [f64]) {
    let n = ends.len();
    for (src, dst) in x.chunks_exact(n * d).zip(out.chunks_exact_mut(n * d)) {
        let mut start = 0;
        for (&end, dst_row) in ends.iter().zip(dst.chunks_exact_mut(d)) {
            let row_terms = &terms[start..end];
            start = end;
            let mut chunks = dst_row.chunks_exact_mut(CHUNK);
            for (c, sums) in (&mut chunks).enumerate() {
                let mut acc = [0.0; CHUNK];
                add_terms(row_terms, src, d, c * CHUNK, &mut acc);
                sums.copy_from_slice(&acc);
            }
            let tail = chunks.into_remainder();
            tail.fill(0.0);
            add_terms(row_terms, src, d, d - tail.len(), tail);
        }
    }
}

/// Adds `w` times columns `j0..j0 + acc.len()` of row `k` of the `d`-wide
/// rows of `src` to `acc`, for every `(k, w)` of `terms` in order.
#[inline(always)]
fn add_terms(terms: &[(usize, f64)], src: &[f64], d: usize, j0: usize, acc: &mut [f64]) {
    for &(k, w) in terms {
        let v = &src[k * d + j0..][..acc.len()];
        for (a, v) in acc.iter_mut().zip(v) {
            *a += w * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Normalised adjacency of a 3-node path graph 0 - 1 - 2 with self loops.
    fn path3() -> Matrix {
        // degrees with self loops: 2, 3, 2
        let d = [2.0f64, 3.0, 2.0];
        Matrix::from_fn(3, 3, |i, j| {
            let a = if i == j || (i as i64 - j as i64).abs() == 1 {
                1.0
            } else {
                0.0
            };
            a / (d[i] * d[j]).sqrt()
        })
    }

    fn propagate(adjacency: &Matrix, h: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(1, 1);
        gcn_propagate(adjacency, h, &mut out);
        out
    }

    fn backprop(adjacency: &Matrix, g: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(1, 1);
        gcn_backprop(adjacency, g, &mut out);
        out
    }

    #[test]
    fn propagation_mixes_neighbours_only() {
        let a_hat = path3();
        // One-hot feature on node 0.
        let h = Matrix::from_rows(&[&[1.0], &[0.0], &[0.0]]).unwrap();
        let out = propagate(&a_hat, &h);
        assert!(out[(0, 0)] > 0.0);
        assert!(out[(1, 0)] > 0.0);
        // Node 2 is two hops away: untouched after one layer.
        assert_eq!(out[(2, 0)], 0.0);
        // After a second layer the information reaches node 2.
        let out2 = propagate(&a_hat, &out);
        assert!(out2[(2, 0)] > 0.0);
    }

    #[test]
    fn identity_adjacency_is_a_no_op() {
        let h = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f64);
        assert_eq!(propagate(&Matrix::identity(4), &h), h);
    }

    #[test]
    fn backprop_is_adjoint_of_forward() {
        // <A h, g> == <h, A^T g> for arbitrary h, g.
        let a_hat = path3();
        let h = Matrix::from_fn(3, 2, |r, c| (r + c) as f64 * 0.5);
        let g = Matrix::from_fn(3, 2, |r, c| (r as f64 - c as f64) * 0.3);
        let lhs = propagate(&a_hat, &h).hadamard(&g).unwrap().sum();
        let rhs = h.hadamard(&backprop(&a_hat, &g)).unwrap().sum();
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn stacked_graphs_aggregate_as_a_block_diagonal_adjacency() {
        let a_hat = path3();
        let h = Matrix::from_fn(6, 2, |r, c| (r * 2 + c) as f64 - 4.5);
        let block = Matrix::from_fn(6, 6, |i, j| {
            if i / 3 == j / 3 {
                a_hat[(i % 3, j % 3)]
            } else {
                0.0
            }
        });
        assert_eq!(propagate(&a_hat, &h), block.matmul(&h).unwrap());
        assert_eq!(backprop(&a_hat, &h), block.matmul_transa(&h).unwrap());
    }

    /// The aggregation as one plain loop: row `i` of each output slice adds
    /// `weight(i, k) x_k` for every non-zero weight in ascending `k`, from
    /// `0.0`, reading and writing the whole row once per neighbour.
    fn reference(n: usize, x: &Matrix, weight: impl Fn(usize, usize) -> f64) -> Matrix {
        let d = x.cols();
        let mut out = Matrix::zeros(x.rows(), d);
        let slices = x.as_slice().chunks_exact(n * d);
        for (src, dst) in slices.zip(out.as_mut_slice().chunks_exact_mut(n * d)) {
            for (i, dst_row) in dst.chunks_exact_mut(d).enumerate() {
                for (k, src_row) in src.chunks_exact(d).enumerate() {
                    let w = weight(i, k);
                    if w != 0.0 {
                        for (o, v) in dst_row.iter_mut().zip(src_row) {
                            *o += w * v;
                        }
                    }
                }
            }
        }
        out
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    type Pass = fn(&Matrix, &Matrix, &mut Matrix);

    /// The public passes run the AVX2 build of [`aggregate_body`] on a CPU
    /// that has it; both builds must give the reference loop's bits, on
    /// graphs with and without an all-zero row, on widths below, at and past
    /// one chunk with and without a partial one, for one sample and a
    /// stacked minibatch. The features hold exact zeros of both signs.
    #[test]
    fn portable_and_dispatched_aggregation_equal_the_reference_bit_for_bit() {
        let graphs = [1, 9, 20].into_iter().flat_map(|n| [(n, false), (n, true)]);
        for (n, zero_row) in graphs {
            let adjacency = Matrix::from_fn(n, n, |i, j| {
                if (zero_row && i == n / 2) || (i * 3 + j * 5) % 4 == 1 {
                    0.0
                } else {
                    ((i * 7 + j * 3 + 1) as f64 * 0.91).sin()
                }
            });
            let shapes = [1, 15, 16, 20, 64]
                .into_iter()
                .flat_map(|d| [(d, 1), (d, 32)]);
            for (d, samples) in shapes {
                let x = Matrix::from_fn(samples * n, d, |r, c| match (r + 2 * c) % 7 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => ((r * 5 + c * 11) as f64 * 0.53).cos(),
                });
                let passes: [(bool, Pass); 2] = [(false, gcn_propagate), (true, gcn_backprop)];
                for (transposed, pass) in passes {
                    let weight = |i, k| {
                        if transposed {
                            adjacency[(k, i)]
                        } else {
                            adjacency[(i, k)]
                        }
                    };
                    let case = format!(
                        "n {n}, zero row {zero_row}, d {d}, B {samples}, transposed {transposed}"
                    );
                    let want = bits(reference(n, &x, weight).as_slice());
                    let mut out = Matrix::zeros(1, 1);
                    pass(&adjacency, &x, &mut out);
                    assert_eq!(bits(out.as_slice()), want, "dispatched, {case}");
                    let (terms, ends) = nonzero_terms(n, weight);
                    out.as_mut_slice().fill(f64::NAN);
                    aggregate_body(&terms, &ends, d, x.as_slice(), out.as_mut_slice());
                    assert_eq!(bits(out.as_slice()), want, "portable, {case}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "whole graphs")]
    fn dimension_mismatch_panics() {
        let _ = propagate(&Matrix::identity(3), &Matrix::zeros(4, 2));
    }
}
