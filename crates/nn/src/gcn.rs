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

/// Row `i` of every output slice is `sum_k weight(i, k) x_k` over the rows of
/// the same input slice, summed in ascending `k`; zero weights are skipped,
/// since the normalised adjacency of a circuit is sparse.
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
    let slices = x.as_slice().chunks_exact(n * d);
    for (src, dst) in slices.zip(out.as_mut_slice().chunks_exact_mut(n * d)) {
        for (i, dst_row) in dst.chunks_exact_mut(d).enumerate() {
            dst_row.fill(0.0);
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

    #[test]
    #[should_panic(expected = "whole graphs")]
    fn dimension_mismatch_panics() {
        let _ = propagate(&Matrix::identity(3), &Matrix::zeros(4, 2));
    }
}
