use gcnrl_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A dense (fully-connected) layer `Y = X W + b`.
///
/// Rows of `X` are samples (one row per circuit component in the GCN agent;
/// a minibatch stacks the rows of all its samples), columns are features.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Linear {
    weight: Matrix,
    bias: Vec<f64>,
}

/// Parameter gradients of a [`Linear`] layer, summed over the rows of the
/// input they were computed from.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearGradients {
    /// Gradient of the loss with respect to the weight matrix.
    pub d_weight: Matrix,
    /// Gradient of the loss with respect to the bias vector.
    pub d_bias: Vec<f64>,
}

impl LinearGradients {
    /// Zero gradients shaped like `layer`'s parameters.
    pub fn zeros(layer: &Linear) -> Self {
        LinearGradients {
            d_weight: Matrix::zeros(layer.in_dim(), layer.out_dim()),
            d_bias: vec![0.0; layer.out_dim()],
        }
    }
}

impl Linear {
    /// Creates a layer with Xavier/Glorot-uniform weights and zero bias,
    /// deterministically seeded so experiments are reproducible.
    pub fn xavier(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let limit = (6.0 / (in_dim + out_dim) as f64).sqrt();
        let weight = Matrix::from_fn(in_dim, out_dim, |_, _| rng.gen_range(-limit..limit));
        Linear {
            weight,
            bias: vec![0.0; out_dim],
        }
    }

    /// Creates a layer from explicit parameters (used when loading checkpoints).
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != weight.cols()`.
    pub fn from_parameters(weight: Matrix, bias: Vec<f64>) -> Self {
        assert_eq!(
            bias.len(),
            weight.cols(),
            "bias length must match output dim"
        );
        Linear { weight, bias }
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.weight.rows()
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.weight.cols()
    }

    /// The weight matrix.
    pub fn weight(&self) -> &Matrix {
        &self.weight
    }

    /// The bias vector.
    pub fn bias(&self) -> &[f64] {
        &self.bias
    }

    /// Total number of scalar parameters.
    pub fn num_parameters(&self) -> usize {
        self.weight.rows() * self.weight.cols() + self.bias.len()
    }

    /// Mutable access to the weight matrix and bias vector, for optimisers
    /// that update the parameters in place.
    pub fn parameters_mut(&mut self) -> (&mut Matrix, &mut [f64]) {
        (&mut self.weight, &mut self.bias)
    }

    /// Forward pass `Y = X W + b`.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.in_dim()`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut y = Matrix::zeros(x.rows(), self.out_dim());
        self.forward_into(x, &mut y);
        y
    }

    /// [`Linear::forward`] into `y`, which is reshaped and overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.in_dim()`.
    pub fn forward_into(&self, x: &Matrix, y: &mut Matrix) {
        assert_eq!(x.cols(), self.in_dim(), "input feature dimension mismatch");
        x.matmul_into(&self.weight, y).expect("dimensions checked");
        for r in 0..y.rows() {
            for (v, b) in y.row_mut(r).iter_mut().zip(&self.bias) {
                *v += b;
            }
        }
    }

    /// Parameter gradients from the layer input `x` and the loss gradient
    /// `d_output` with respect to the output: `dW = Xᵀ dY` and `db` the
    /// column sums of `dY`. Both sum over the rows, so a stacked minibatch
    /// yields its summed gradient in one product. `grads` is overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `d_output` does not fit the layer or each other.
    pub fn backward_params(&self, x: &Matrix, d_output: &Matrix, grads: &mut LinearGradients) {
        assert_eq!(x.cols(), self.in_dim(), "input feature dimension mismatch");
        assert_eq!(d_output.rows(), x.rows(), "row count mismatch");
        assert_eq!(d_output.cols(), self.out_dim(), "output dimension mismatch");
        x.matmul_transa_into(d_output, &mut grads.d_weight)
            .expect("dimensions checked");
        grads.d_bias.clear();
        grads.d_bias.resize(self.out_dim(), 0.0);
        for r in 0..d_output.rows() {
            for (b, d) in grads.d_bias.iter_mut().zip(d_output.row(r)) {
                *b += d;
            }
        }
    }

    /// The loss gradient with respect to the layer input, `dX = dY Wᵀ`, into
    /// `d_input` (reshaped and overwritten).
    ///
    /// # Panics
    ///
    /// Panics if `d_output.cols() != self.out_dim()`.
    pub fn backward_input(&self, d_output: &Matrix, d_input: &mut Matrix) {
        assert_eq!(d_output.cols(), self.out_dim(), "output dimension mismatch");
        d_output
            .matmul_transb_into(&self.weight, d_input)
            .expect("dimensions checked");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_matches_manual_computation() {
        let layer = Linear::from_parameters(
            Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]).unwrap(),
            vec![0.5, -0.5],
        );
        let y = layer.forward(&Matrix::from_rows(&[&[3.0, 4.0]]).unwrap());
        assert_eq!(y[(0, 0)], 3.5);
        assert_eq!(y[(0, 1)], 7.5);
    }

    #[test]
    fn backward_gradients_match_finite_differences() {
        let layer = Linear::xavier(3, 2, 7);
        let x = Matrix::from_fn(4, 3, |r, c| (r as f64 - c as f64) * 0.3);
        let y = layer.forward(&x);
        // Loss = sum of outputs, so dL/dY = 1.
        let ones = Matrix::filled(y.rows(), y.cols(), 1.0);
        let mut grads = LinearGradients::zeros(&layer);
        layer.backward_params(&x, &ones, &mut grads);

        let eps = 1e-6;
        // Check a couple of weight entries by finite differences.
        for &(i, j) in &[(0usize, 0usize), (2usize, 1usize)] {
            let mut pert = layer.clone();
            pert.parameters_mut().0[(i, j)] += eps;
            let numeric = (pert.forward(&x).sum() - y.sum()) / eps;
            assert!((grads.d_weight[(i, j)] - numeric).abs() < 1e-4);
        }
        // Bias gradient is the number of rows for a sum loss.
        assert!((grads.d_bias[0] - 4.0).abs() < 1e-9);
        // Input gradient equals row sums of W^T.
        let mut d_input = Matrix::zeros(1, 1);
        layer.backward_input(&ones, &mut d_input);
        let expected = ones.matmul(&layer.weight().transpose()).unwrap();
        assert_eq!(d_input, expected);
    }

    #[test]
    fn xavier_is_deterministic_per_seed() {
        assert_eq!(Linear::xavier(5, 5, 1), Linear::xavier(5, 5, 1));
        assert_ne!(Linear::xavier(5, 5, 1), Linear::xavier(5, 5, 2));
    }

    #[test]
    #[should_panic(expected = "feature dimension mismatch")]
    fn wrong_input_dim_panics() {
        let layer = Linear::xavier(3, 2, 0);
        let _ = layer.forward(&Matrix::zeros(1, 4));
    }

    #[test]
    fn num_parameters_counts_weights_and_bias() {
        assert_eq!(Linear::xavier(3, 4, 0).num_parameters(), 16);
    }
}
