use gcnrl_linalg::Matrix;
use serde::{Deserialize, Serialize};

/// Element-wise activation functions used by the actor–critic networks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Rectified linear unit, used in the hidden layers (as in the paper's GCN).
    Relu,
    /// Hyperbolic tangent, used by the actor's output head to produce actions
    /// in `[-1, 1]`.
    Tanh,
    /// Identity (no activation), used by the critic's value head.
    Identity,
}

impl Activation {
    /// Applies the activation element-wise in place. The result doubles as
    /// the cache of the backward pass.
    pub fn apply(self, x: &mut Matrix) {
        let values = x.as_mut_slice().iter_mut();
        match self {
            Activation::Relu => values.for_each(|v| *v = v.max(0.0)),
            Activation::Tanh => values.for_each(|v| *v = v.tanh()),
            Activation::Identity => {}
        }
    }

    /// Backward pass in place: multiplies `grad`, the loss gradient with
    /// respect to the activation's output, by the derivative evaluated from
    /// the forward `output`, leaving the gradient with respect to its input.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn backprop(self, output: &Matrix, grad: &mut Matrix) {
        assert_eq!(output.shape(), grad.shape(), "activation shape mismatch");
        let pairs = grad.as_mut_slice().iter_mut().zip(output.as_slice());
        match self {
            Activation::Relu => pairs.for_each(|(g, &y)| {
                if y <= 0.0 {
                    *g = 0.0;
                }
            }),
            Activation::Tanh => pairs.for_each(|(g, &y)| *g *= 1.0 - y * y),
            Activation::Identity => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let mut y = Matrix::from_rows(&[&[-1.0, 2.0]]).unwrap();
        Activation::Relu.apply(&mut y);
        assert_eq!(y.as_slice(), &[0.0, 2.0]);
        let mut grad = Matrix::filled(1, 2, 1.0);
        Activation::Relu.backprop(&y, &mut grad);
        assert_eq!(grad.as_slice(), &[0.0, 1.0]);
    }

    #[test]
    fn tanh_range_and_derivative() {
        let mut y = Matrix::from_rows(&[&[0.0, 100.0, -100.0]]).unwrap();
        Activation::Tanh.apply(&mut y);
        assert_eq!(y[(0, 0)], 0.0);
        assert!((y[(0, 1)] - 1.0).abs() < 1e-9);
        assert!((y[(0, 2)] + 1.0).abs() < 1e-9);
        let mut grad = Matrix::filled(1, 3, 1.0);
        Activation::Tanh.backprop(&y, &mut grad);
        assert!((grad[(0, 0)] - 1.0).abs() < 1e-12);
        assert!(grad[(0, 1)].abs() < 1e-9);
    }

    #[test]
    fn tanh_derivative_matches_finite_difference() {
        let mut y = Matrix::from_rows(&[&[0.3]]).unwrap();
        Activation::Tanh.apply(&mut y);
        let mut grad = Matrix::filled(1, 1, 1.0);
        Activation::Tanh.backprop(&y, &mut grad);
        let eps = 1e-6;
        let numeric = ((0.3f64 + eps).tanh() - 0.3f64.tanh()) / eps;
        assert!((grad[(0, 0)] - numeric).abs() < 1e-5);
    }

    #[test]
    fn identity_passes_through() {
        let x = Matrix::from_rows(&[&[1.5, -2.5]]).unwrap();
        let mut y = x.clone();
        Activation::Identity.apply(&mut y);
        assert_eq!(y, x);
        let d = Matrix::filled(1, 2, 3.0);
        let mut grad = d.clone();
        Activation::Identity.backprop(&y, &mut grad);
        assert_eq!(grad, d);
    }
}
