use serde::{Deserialize, Serialize};

/// The Adam optimiser for one parameter tensor.
///
/// Every [`Linear`](crate::Linear) layer owns two `Adam` states (weight and
/// bias); [`Adam::step`] moves the parameters in place from their raw
/// gradients.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: Vec<f64>,
    v: Vec<f64>,
}

impl Adam {
    /// Creates an optimiser state for `num_params` scalars with learning rate `lr`.
    pub fn new(num_params: usize, lr: f64) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: vec![0.0; num_params],
            v: vec![0.0; num_params],
        }
    }

    /// Number of update steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// One Adam step: moves `params` against `grads` in place.
    ///
    /// # Panics
    ///
    /// Panics if `params` or `grads` has a different number of elements than
    /// the optimiser was created for.
    pub fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(grads.len(), self.m.len(), "gradient length mismatch");
        assert_eq!(params.len(), self.m.len(), "parameter length mismatch");
        self.t += 1;
        let t = self.t as f64;
        let bias1 = 1.0 - self.beta1.powf(t);
        let bias2 = 1.0 - self.beta2.powf(t);
        let moments = self.m.iter_mut().zip(self.v.iter_mut());
        for ((p, g), (m, v)) in params.iter_mut().zip(grads).zip(moments) {
            *m = self.beta1 * *m + (1.0 - self.beta1) * g;
            *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
            let m_hat = *m / bias1;
            let v_hat = *v / bias2;
            *p -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_step_is_learning_rate_sized() {
        let mut opt = Adam::new(2, 0.01);
        let mut params = [0.0, 0.0];
        opt.step(&mut params, &[1.0, -1.0]);
        // After bias correction the first step has magnitude ~lr.
        assert!((params[0] + 0.01).abs() < 1e-6);
        assert!((params[1] - 0.01).abs() < 1e-6);
        assert_eq!(opt.steps(), 1);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimise f(x) = (x - 3)^2 starting from 0.
        let mut x = [0.0];
        let mut opt = Adam::new(1, 0.1);
        for _ in 0..500 {
            let grad = 2.0 * (x[0] - 3.0);
            opt.step(&mut x, &[grad]);
        }
        assert!((x[0] - 3.0).abs() < 0.05, "x = {}", x[0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_size_gradient_panics() {
        let mut opt = Adam::new(2, 0.01);
        opt.step(&mut [0.0, 0.0], &[1.0]);
    }
}
