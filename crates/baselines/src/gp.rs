use gcnrl_linalg::{for_each_chunk, Cholesky, Matrix};

/// Points [`GaussianProcess::predict_batch`] scores together: one tile of
/// kernel values per training point, one multi-column solve per tile.
const TILE: usize = 8;

/// The value `Iterator::sum` starts a float sum from. The batched sums start
/// there too, so they round exactly like the single-point formula.
const SUM_START: f64 = -0.0;

/// A Gaussian-process regressor with a squared-exponential kernel, used as the
/// surrogate model in [`bayesian_optimization`](crate::bayesian_optimization)
/// and [`mace`](crate::mace).
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    lengthscale: f64,
    signal_var: f64,
    noise_var: f64,
    x: Vec<Vec<f64>>,
    alpha: Vec<f64>,
    /// Factor of `K(x, x) + noise_var I`, one row per training point.
    chol: Cholesky,
    y_mean: f64,
}

impl GaussianProcess {
    /// Creates a GP with the given squared-exponential hyper-parameters.
    pub fn new(lengthscale: f64, signal_var: f64, noise_var: f64) -> Self {
        GaussianProcess {
            lengthscale,
            signal_var,
            noise_var,
            x: Vec::new(),
            alpha: Vec::new(),
            chol: Cholesky::default(),
            y_mean: 0.0,
        }
    }

    fn kernel(&self, a: &[f64], b: &[f64]) -> f64 {
        self.covariance(a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum())
    }

    /// The kernel at squared distance `sq`.
    fn covariance(&self, sq: f64) -> f64 {
        self.signal_var * (-0.5 * sq / (self.lengthscale * self.lengthscale)).exp()
    }

    /// Number of training points.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Returns `true` if the GP has no training data.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Fits the GP to `(x, y)` pairs, replacing the previous training data.
    ///
    /// The fit equals one on a fresh GP bit for bit, but it keeps the factor
    /// rows of the longest prefix of `xs` the previous fit also started with,
    /// so a fit that appends one point computes one kernel row and one factor
    /// row.
    ///
    /// # Panics
    ///
    /// Panics if `xs` and `ys` have different lengths.
    pub fn fit(&mut self, xs: &[Vec<f64>], ys: &[f64]) {
        assert_eq!(xs.len(), ys.len(), "x/y length mismatch");
        let shared = self
            .x
            .iter()
            .zip(xs)
            .take_while(|(old, new)| old == new)
            .count();
        self.x.truncate(shared);
        self.chol.truncate(shared);
        let mut row = Vec::with_capacity(xs.len());
        for x in &xs[shared..] {
            row.clear();
            row.extend(self.x.iter().map(|xj| self.kernel(x, xj)));
            row.push(self.kernel(x, x) + self.noise_var);
            self.chol
                .push_row(&row)
                .expect("kernel matrix is positive definite");
            self.x.push(x.clone());
        }
        self.y_mean = if ys.is_empty() {
            0.0
        } else {
            ys.iter().sum::<f64>() / ys.len() as f64
        };
        let centered: Vec<f64> = ys.iter().map(|y| y - self.y_mean).collect();
        self.alpha = self
            .chol
            .solve(&centered)
            .expect("one factor row per training point");
    }

    /// Predictive mean and variance at `x`.
    pub fn predict(&self, x: &[f64]) -> (f64, f64) {
        self.predict_batch(&[x.to_vec()])[0]
    }

    /// Predictive mean and variance at each of `xs`, bit for bit what one
    /// kernel vector and one [`Cholesky::solve`] per point give.
    ///
    /// The points are scored eight at a time: their kernel values against
    /// every training point, then one multi-column solve. The tiles are
    /// split between the caller and the linalg helper thread
    /// ([`for_each_chunk`]), and each is scored in full on one thread, with
    /// every sum in the single-point order, from the same start.
    ///
    /// # Panics
    ///
    /// Panics if a point's dimension differs from the training points'.
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<(f64, f64)> {
        if self.x.is_empty() {
            return vec![(self.y_mean, self.signal_var); xs.len()];
        }
        let mut out = vec![(0.0, 0.0); xs.len()];
        for_each_chunk(&mut out, TILE, |start, out| {
            for (tile, out) in xs[start..].chunks(TILE).zip(out.chunks_mut(TILE)) {
                self.predict_tile(tile, out);
            }
        });
        out
    }

    /// Scores one tile of at most [`TILE`] points into `out`.
    fn predict_tile(&self, tile: &[Vec<f64>], out: &mut [(f64, f64)]) {
        let k_star = self.kernel_block(tile);
        let v = self
            .chol
            .solve_many(&k_star)
            .expect("one factor row per training point");
        let mut mean = [SUM_START; TILE];
        let mut explained = [SUM_START; TILE];
        for (i, a) in self.alpha.iter().enumerate() {
            let lanes = mean.iter_mut().zip(&mut explained);
            for ((m, e), (k, vi)) in lanes.zip(k_star.row(i).iter().zip(v.row(i))) {
                *m += k * a;
                *e += k * vi;
            }
        }
        for (((out, x), m), e) in out.iter_mut().zip(tile).zip(mean).zip(explained) {
            *out = (self.y_mean + m, (self.kernel(x, x) - e).max(1e-12));
        }
    }

    /// The `n × tile.len()` kernel block between the training points and at
    /// most [`TILE`] points, from [`kernel_block_body`](Self::kernel_block_body)
    /// compiled for AVX2 when the CPU has it; both builds give the same bits.
    fn kernel_block(&self, tile: &[Vec<f64>]) -> Matrix {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2, the only feature
            // `kernel_block_avx2` enables.
            return unsafe { self.kernel_block_avx2(tile) };
        }
        self.kernel_block_body(tile)
    }

    /// [`kernel_block_body`](Self::kernel_block_body) with four-lane vector
    /// instructions. AVX2 without FMA keeps every subtraction, square and
    /// add rounded separately, so the bits do not change.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn kernel_block_avx2(&self, tile: &[Vec<f64>]) -> Matrix {
        self.kernel_block_body(tile)
    }

    /// The portable [`kernel_block`](Self::kernel_block). Each squared
    /// distance sums its coordinates in order, like
    /// [`kernel`](Self::kernel), in its own lane of eight.
    #[inline(always)]
    fn kernel_block_body(&self, tile: &[Vec<f64>]) -> Matrix {
        let d = self.x[0].len();
        // Coordinate j of point c at `coords[j * TILE + c]`; unused lanes
        // hold zeros and are dropped.
        let mut coords = vec![0.0; d * TILE];
        for (c, x) in tile.iter().enumerate() {
            assert_eq!(x.len(), d, "point dimension");
            for (slot, v) in coords.iter_mut().skip(c).step_by(TILE).zip(x) {
                *slot = *v;
            }
        }
        let mut k = Matrix::zeros(self.x.len(), tile.len());
        let rows = k.as_mut_slice().chunks_exact_mut(tile.len());
        for (xi, row) in self.x.iter().zip(rows) {
            let mut sq = [SUM_START; TILE];
            for (a, lanes) in xi.iter().zip(coords.chunks_exact(TILE)) {
                for (s, b) in sq.iter_mut().zip(lanes) {
                    *s += (a - b).powi(2);
                }
            }
            for (out, s) in row.iter_mut().zip(sq) {
                *out = self.covariance(s);
            }
        }
        k
    }
}

/// Standard-normal probability density.
pub(crate) fn normal_pdf(z: f64) -> f64 {
    (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard-normal cumulative distribution (Abramowitz–Stegun erf approximation).
pub(crate) fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    // Abramowitz & Stegun 7.1.26, |error| < 1.5e-7.
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Expected improvement of a maximisation problem at predictive `(mean, var)`
/// over the incumbent `best`.
pub(crate) fn expected_improvement(mean: f64, var: f64, best: f64) -> f64 {
    let std = var.sqrt();
    if std < 1e-12 {
        return (mean - best).max(0.0);
    }
    let z = (mean - best) / std;
    (mean - best) * normal_cdf(z) + std * normal_pdf(z)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The dimension of the Three-TIA design space.
    const D: usize = 52;

    /// The single-point predictive formula, one kernel vector and one solve
    /// per point: the reference `predict_batch` must reproduce bit for bit.
    fn reference_predict(gp: &GaussianProcess, x: &[f64]) -> (f64, f64) {
        let k_star: Vec<f64> = gp.x.iter().map(|xi| gp.kernel(xi, x)).collect();
        let mean = gp.y_mean
            + k_star
                .iter()
                .zip(&gp.alpha)
                .map(|(k, a)| k * a)
                .sum::<f64>();
        let v = gp.chol.solve(&k_star).expect("dimensions match");
        let var = gp.kernel(x, x) - k_star.iter().zip(&v).map(|(k, vi)| k * vi).sum::<f64>();
        (mean, var.max(1e-12))
    }

    /// The factor of the whole kernel matrix, built entry by entry and
    /// factored at once.
    fn reference_factor(gp: &GaussianProcess, xs: &[Vec<f64>]) -> Cholesky {
        let n = xs.len();
        let k = Matrix::from_fn(n, n, |i, j| {
            gp.kernel(&xs[i], &xs[j]) + if i == j { gp.noise_var } else { 0.0 }
        });
        Cholesky::new(&k).expect("kernel matrix is positive definite")
    }

    /// `n` uniform points in `[0, 1]^D` and rewards, drawn like BO draws them.
    fn sample(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..D).map(|_| rng.gen::<f64>()).collect())
            .collect();
        let ys = (0..n).map(|_| rng.gen::<f64>() * 4.0 - 1.0).collect();
        (xs, ys)
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn pair_bits(pairs: &[(f64, f64)]) -> Vec<(u64, u64)> {
        pairs
            .iter()
            .map(|(m, v)| (m.to_bits(), v.to_bits()))
            .collect()
    }

    /// Factor and α of `gp` equal those of a fresh fit on `(xs, ys)`, and
    /// the factor equals the whole-matrix reference, bit for bit.
    fn assert_fresh_fit(gp: &GaussianProcess, xs: &[Vec<f64>], ys: &[f64]) {
        let mut fresh = GaussianProcess::new(gp.lengthscale, gp.signal_var, gp.noise_var);
        fresh.fit(xs, ys);
        let n = xs.len();
        assert_eq!(gp.len(), n);
        let lower = gp.chol.lower();
        assert_eq!(
            bits(lower.as_slice()),
            bits(fresh.chol.lower().as_slice()),
            "n = {n}"
        );
        let reference = reference_factor(gp, xs).lower();
        assert_eq!(
            bits(lower.as_slice()),
            bits(reference.as_slice()),
            "n = {n}"
        );
        assert_eq!(bits(&gp.alpha), bits(&fresh.alpha), "n = {n}");
        assert_eq!(gp.y_mean.to_bits(), fresh.y_mean.to_bits());
    }

    #[test]
    fn gp_interpolates_training_points() {
        let xs = vec![vec![0.0], vec![0.5], vec![1.0]];
        let ys = vec![0.0, 1.0, 0.0];
        let mut gp = GaussianProcess::new(0.3, 1.0, 1e-6);
        gp.fit(&xs, &ys);
        for (x, y) in xs.iter().zip(&ys) {
            let (m, v) = gp.predict(x);
            assert!((m - y).abs() < 0.05, "mean {m} vs {y}");
            assert!(v < 0.05);
        }
        // Far from data, the variance grows back towards the prior.
        let (_, v_far) = gp.predict(&[5.0]);
        assert!(v_far > 0.5);
        assert_eq!(gp.len(), 3);
        assert!(!gp.is_empty());
    }

    #[test]
    fn empty_gp_returns_prior() {
        let mut gp = GaussianProcess::new(0.3, 2.0, 1e-6);
        assert_eq!(gp.predict(&[0.3]), (0.0, 2.0));
        // A refit on no points forgets the old mean too.
        gp.fit(&[vec![0.0], vec![1.0]], &[5.0, 7.0]);
        gp.fit(&[], &[]);
        assert!(gp.is_empty());
        assert_eq!(gp.predict(&[0.3]), (0.0, 2.0));
    }

    #[test]
    fn predict_batch_equals_the_single_point_formula_bit_for_bit() {
        for (n, m, seed) in [
            (1, 5, 1),
            (10, 1, 2),
            (37, 256, 3),
            (149, 256, 4),
            (149, 5, 5),
        ] {
            let (train, ys) = sample(n, seed);
            let (candidates, _) = sample(m, seed + 100);
            let mut gp = GaussianProcess::new(0.25 * (D as f64).sqrt(), 1.0, 1e-4);
            gp.fit(&train, &ys);
            let expected: Vec<(f64, f64)> = candidates
                .iter()
                .map(|x| reference_predict(&gp, x))
                .collect();
            let batch = gp.predict_batch(&candidates);
            assert_eq!(pair_bits(&batch), pair_bits(&expected), "n = {n}, m = {m}");
            let single: Vec<(f64, f64)> = candidates.iter().map(|x| gp.predict(x)).collect();
            assert_eq!(pair_bits(&single), pair_bits(&expected), "n = {n}, m = {m}");
        }
    }

    /// `predict_batch` runs the AVX2 build of `kernel_block_body` on a CPU
    /// that has it; the portable build must give the same bits, for full and
    /// partial tiles of points.
    #[test]
    fn portable_kernel_block_equals_the_dispatched_one_bit_for_bit() {
        for (n, seed) in [(1, 11), (149, 12)] {
            let (train, ys) = sample(n, seed);
            let (candidates, _) = sample(13, seed + 100);
            let mut gp = GaussianProcess::new(0.25 * (D as f64).sqrt(), 1.0, 1e-4);
            gp.fit(&train, &ys);
            for tile in candidates.chunks(TILE) {
                let portable = gp.kernel_block_body(tile);
                let dispatched = gp.kernel_block(tile);
                assert_eq!(
                    bits(portable.as_slice()),
                    bits(dispatched.as_slice()),
                    "n = {n}, tile = {}",
                    tile.len()
                );
            }
        }
    }

    #[test]
    fn growing_sliding_and_changed_fits_equal_a_fresh_fit_bit_for_bit() {
        let n = 60;
        let (mut xs, ys) = sample(n + 1, 7);
        let mut gp = GaussianProcess::new(0.25 * (D as f64).sqrt(), 1.0, 1e-4);
        for k in 1..=n {
            gp.fit(&xs[..k], &ys[..k]);
            assert_fresh_fit(&gp, &xs[..k], &ys[..k]);
        }
        // A window slid by one point shares no prefix.
        gp.fit(&xs[1..], &ys[1..]);
        assert_fresh_fit(&gp, &xs[1..], &ys[1..]);
        // A shorter prefix of the current points.
        gp.fit(&xs[1..20], &ys[1..20]);
        assert_fresh_fit(&gp, &xs[1..20], &ys[1..20]);
        // The same points with a changed first one.
        gp.fit(&xs[..n], &ys[..n]);
        xs[0][0] += 0.5;
        gp.fit(&xs[..n], &ys[..n]);
        assert_fresh_fit(&gp, &xs[..n], &ys[..n]);
    }

    #[test]
    fn normal_functions_are_sane() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!(normal_cdf(5.0) > 0.999);
        assert!(normal_cdf(-5.0) < 0.001);
        assert!((normal_pdf(0.0) - 0.3989).abs() < 1e-3);
    }

    #[test]
    fn expected_improvement_prefers_high_mean_and_high_variance() {
        let ei_good_mean = expected_improvement(1.0, 0.01, 0.5);
        let ei_bad_mean = expected_improvement(0.0, 0.01, 0.5);
        assert!(ei_good_mean > ei_bad_mean);
        let ei_high_var = expected_improvement(0.4, 1.0, 0.5);
        let ei_low_var = expected_improvement(0.4, 0.0001, 0.5);
        assert!(ei_high_var > ei_low_var);
    }
}
