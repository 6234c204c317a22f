//! The figure of merit (paper Eq. 2).

use gcnrl_circuit::{benchmarks::Benchmark, ParamVector, TechnologyNode};
use gcnrl_exec::{BatchEvaluator, EngineConfig, EvalBackend};
use gcnrl_sim::PerformanceReport;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// FoM value assigned to designs whose bias point is invalid or whose metrics
/// are not finite (the paper "assigns a negative number as the FoM value").
pub const INFEASIBLE_FOM: f64 = -0.2;

/// Normalisation and weighting of one metric inside the FoM.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricFom {
    /// Metric key as produced by the evaluator (e.g. `"bw_ghz"`).
    pub name: String,
    /// Weight `w_i`; positive for higher-is-better metrics, negative for
    /// lower-is-better metrics (the paper uses ±1 by default).
    pub weight: f64,
    /// Normalising minimum `m_i^min`.
    pub m_min: f64,
    /// Normalising maximum `m_i^max`.
    pub m_max: f64,
    /// Optional upper bound `m_i^bound` beyond which further improvement does
    /// not increase the FoM.
    pub bound: Option<f64>,
}

/// The full FoM definition for one benchmark circuit.
///
/// # Examples
///
/// ```
/// use gcnrl::FomConfig;
/// use gcnrl_circuit::{benchmarks::Benchmark, TechnologyNode};
///
/// let node = TechnologyNode::tsmc180();
/// let fom = FomConfig::calibrated(Benchmark::TwoStageTia, &node, 50, 0);
/// assert!(!fom.metrics().is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FomConfig {
    metrics: Vec<MetricFom>,
}

impl FomConfig {
    /// Creates a FoM from explicit per-metric configurations.
    pub fn new(metrics: Vec<MetricFom>) -> Self {
        FomConfig { metrics }
    }

    /// Calibrates the normalisation bounds by random sampling, the way the
    /// paper obtains `m_i^max` / `m_i^min` ("random sampling 5000 designs").
    ///
    /// `samples` controls the sampling budget (the paper uses 5000; tests and
    /// quick runs use far fewer).  Weights are ±1 according to the metric
    /// direction declared by the evaluator.
    pub fn calibrated(
        benchmark: Benchmark,
        node: &TechnologyNode,
        samples: usize,
        seed: u64,
    ) -> Self {
        Self::calibrated_with_engine(benchmark, node, samples, seed, EngineConfig::from_env())
    }

    /// Like [`FomConfig::calibrated`], sweeping on a private engine built
    /// with `engine_config`. Experiment cells calibrate on their shared
    /// service through [`FomConfig::calibrated_with_backend`] instead.
    pub fn calibrated_with_engine(
        benchmark: Benchmark,
        node: &TechnologyNode,
        samples: usize,
        seed: u64,
        engine_config: EngineConfig,
    ) -> Self {
        // Calibration is an embarrassingly parallel random sweep, so it goes
        // through the batched evaluation engine.
        let engine = BatchEvaluator::for_benchmark(benchmark, node, engine_config);
        Self::calibrated_with_backend(benchmark, node, samples, seed, &engine)
    }

    /// Like [`FomConfig::calibrated`], sweeping through an existing
    /// evaluation backend — an owned engine or an
    /// [`EvalService`](gcnrl_exec::EvalService) session. Session-backed
    /// environments calibrate through this so the sweep lands in the shared
    /// engine cache, where concurrent sessions calibrating the same
    /// benchmark turn each other's sweeps into cache hits.
    pub fn calibrated_with_backend(
        benchmark: Benchmark,
        node: &TechnologyNode,
        samples: usize,
        seed: u64,
        backend: &dyn EvalBackend,
    ) -> Self {
        let circuit = benchmark.circuit();
        let space = circuit.design_space(node);
        let mut rng = StdRng::seed_from_u64(seed);

        let specs_list = backend.metric_specs().to_vec();
        let mut mins = vec![f64::INFINITY; specs_list.len()];
        let mut maxs = vec![f64::NEG_INFINITY; specs_list.len()];
        let candidates: Vec<ParamVector> = (0..samples.max(2))
            .map(|_| {
                let unit: Vec<f64> = (0..space.num_parameters())
                    .map(|_| rng.gen::<f64>())
                    .collect();
                space.from_unit(&unit)
            })
            .collect();
        for report in backend.evaluate_batch(&candidates) {
            for (i, spec) in specs_list.iter().enumerate() {
                if let Some(v) = report.get(spec.name) {
                    if v.is_finite() {
                        mins[i] = mins[i].min(v);
                        maxs[i] = maxs[i].max(v);
                    }
                }
            }
        }

        let metrics = specs_list
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let (lo, hi) = if mins[i] <= maxs[i] {
                    (mins[i], maxs[i])
                } else {
                    (0.0, 1.0)
                };
                let span = if (hi - lo).abs() < 1e-12 {
                    1.0
                } else {
                    hi - lo
                };
                MetricFom {
                    name: spec.name.to_owned(),
                    weight: spec.direction.default_weight(),
                    m_min: lo,
                    m_max: lo + span,
                    bound: None,
                }
            })
            .collect();
        FomConfig::new(metrics)
    }

    /// The per-metric configurations.
    pub fn metrics(&self) -> &[MetricFom] {
        &self.metrics
    }

    /// Multiplies the weight of `metric` by `factor` (the paper's
    /// GCN-RL-1..5 experiments put a 10x larger weight on one metric).
    ///
    /// # Errors
    ///
    /// Names `metric` when the FoM has no metric of that name: a misspelt
    /// emphasis must not leave the FoM silently unchanged.
    pub fn with_weight_emphasis(mut self, metric: &str, factor: f64) -> Result<Self, String> {
        let emphasised = self
            .metrics
            .iter_mut()
            .find(|m| m.name == metric)
            .ok_or_else(|| format!("the FoM has no metric `{metric}` to emphasise"))?;
        emphasised.weight *= factor;
        Ok(self)
    }

    /// Evaluates the FoM of a performance report (paper Eq. 2).
    ///
    /// Infeasible bias points and non-finite metrics return
    /// [`INFEASIBLE_FOM`].
    pub fn fom(&self, report: &PerformanceReport) -> f64 {
        if !report.feasible {
            return INFEASIBLE_FOM;
        }
        let mut total = 0.0;
        for m in &self.metrics {
            let Some(raw) = report.get(&m.name) else {
                continue;
            };
            if !raw.is_finite() {
                return INFEASIBLE_FOM;
            }
            let capped = match m.bound {
                Some(b) => raw.min(b),
                None => raw,
            };
            let clamped = capped.clamp(m.m_min, m.m_max);
            let normalised = (clamped - m.m_min) / (m.m_max - m.m_min);
            total += m.weight * normalised;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_fom() -> FomConfig {
        FomConfig::new(vec![
            MetricFom {
                name: "gain".into(),
                weight: 1.0,
                m_min: 0.0,
                m_max: 100.0,
                bound: None,
            },
            MetricFom {
                name: "power".into(),
                weight: -1.0,
                m_min: 0.0,
                m_max: 10.0,
                bound: None,
            },
        ])
    }

    fn report(gain: f64, power: f64) -> PerformanceReport {
        let mut r = PerformanceReport::new();
        r.set("gain", gain);
        r.set("power", power);
        r
    }

    #[test]
    fn fom_rewards_gain_and_penalises_power() {
        let fom = simple_fom();
        assert!(fom.fom(&report(80.0, 1.0)) > fom.fom(&report(40.0, 1.0)));
        assert!(fom.fom(&report(80.0, 1.0)) > fom.fom(&report(80.0, 9.0)));
    }

    #[test]
    fn fom_is_monotone_in_each_metric_and_clamped() {
        let fom = simple_fom();
        // Values beyond the normalisation range saturate.
        assert_eq!(fom.fom(&report(150.0, 0.0)), fom.fom(&report(100.0, 0.0)));
        assert_eq!(fom.fom(&report(-10.0, 0.0)), fom.fom(&report(0.0, 0.0)));
    }

    #[test]
    fn bound_caps_improvement() {
        let mut cfg = simple_fom();
        cfg.metrics[0].bound = Some(50.0);
        assert_eq!(cfg.fom(&report(50.0, 5.0)), cfg.fom(&report(99.0, 5.0)));
    }

    #[test]
    fn infeasible_and_non_finite_reports_get_negative_fom() {
        let fom = simple_fom();
        assert_eq!(fom.fom(&PerformanceReport::infeasible()), INFEASIBLE_FOM);
        assert_eq!(fom.fom(&report(f64::NAN, 1.0)), INFEASIBLE_FOM);
        assert!(fom.fom(&report(40.0, 1.0)) > INFEASIBLE_FOM);
    }

    #[test]
    fn weight_emphasis_scales_one_metric() {
        let fom = simple_fom()
            .with_weight_emphasis("gain", 10.0)
            .expect("gain is a metric");
        let weights: Vec<(&str, f64)> = fom
            .metrics()
            .iter()
            .map(|m| (m.name.as_str(), m.weight))
            .collect();
        assert_eq!(weights, [("gain", 10.0), ("power", -1.0)]);
    }

    #[test]
    fn weight_emphasis_refuses_a_metric_the_fom_lacks() {
        let error = simple_fom()
            .with_weight_emphasis("gian", 10.0)
            .expect_err("a misspelt metric must be refused");
        assert!(error.contains("`gian`"), "{error}");
    }

    #[test]
    fn calibration_produces_finite_bounds_for_all_benchmarks() {
        let node = TechnologyNode::tsmc180();
        for b in Benchmark::ALL {
            let cfg = FomConfig::calibrated(b, &node, 12, 1);
            assert!(!cfg.metrics().is_empty());
            for m in cfg.metrics() {
                assert!(m.m_max > m.m_min, "{b}: {} has empty range", m.name);
                assert!(m.m_min.is_finite() && m.m_max.is_finite());
            }
        }
    }
}
