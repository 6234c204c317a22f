use crate::gp::{expected_improvement, GaussianProcess};
use gcnrl::{RunHistory, SizingEnv};
use gcnrl_telemetry::span;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How many random warm-up evaluations seed the surrogate.
const WARMUP: usize = 10;
/// How many random candidates the acquisition is evaluated on per iteration.
const CANDIDATES: usize = 256;
/// Cap on the GP training-set size (the O(N³) fit is the reason the paper
/// could not run BO for the full 10 000 steps).
const MAX_GP_POINTS: usize = 256;

/// Gaussian-process Bayesian optimisation with an expected-improvement
/// acquisition (the paper's "BO" baseline, after Snoek et al.).
pub fn bayesian_optimization(env: &SizingEnv, budget: usize, seed: u64) -> RunHistory {
    bo_with_name(env, budget, seed, "BO", 1)
}

pub(crate) fn bo_with_name(
    env: &SizingEnv,
    budget: usize,
    seed: u64,
    name: &str,
    batch: usize,
) -> RunHistory {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut history = RunHistory::new(name);
    let d = env.num_unit_parameters();

    let mut xs: Vec<Vec<f64>> = Vec::new();
    let mut ys: Vec<f64> = Vec::new();
    // Scores a set of points as one rollout batch (parallel simulation; the
    // recorded trajectory is identical to evaluating them one by one).
    let evaluate_batch = |points: Vec<Vec<f64>>,
                          xs: &mut Vec<Vec<f64>>,
                          ys: &mut Vec<f64>,
                          history: &mut RunHistory| {
        for r in env.rollout_units(points) {
            history.record(r.reward, &r.outcome.params, &r.outcome.report);
            xs.push(r.action);
            ys.push(r.reward);
        }
    };

    // Warm-up with random samples, scored as one batch.
    let warmup: Vec<Vec<f64>> = (0..WARMUP.min(budget))
        .map(|_| (0..d).map(|_| rng.gen::<f64>()).collect())
        .collect();
    evaluate_batch(warmup, &mut xs, &mut ys, &mut history);

    let mut gp = GaussianProcess::new(0.25 * (d as f64).sqrt(), 1.0, 1e-4);
    while history.len() < budget {
        // Fit on (at most) the newest MAX_GP_POINTS observations.
        let start = xs.len().saturating_sub(MAX_GP_POINTS);
        {
            let _fit = span!("baselines.gp_fit.ns");
            gp.fit(&xs[start..], &ys[start..]);
        }
        let best = ys.iter().copied().fold(f64::NEG_INFINITY, f64::max);

        // Pick the top `batch` acquisition maximisers among random candidates,
        // scored in one pass.
        let mut scored: Vec<(f64, Vec<f64>)> = {
            let _acquire = span!("baselines.acquire.ns");
            let candidates: Vec<Vec<f64>> = (0..CANDIDATES)
                .map(|_| (0..d).map(|_| rng.gen::<f64>()).collect())
                .collect();
            gp.predict_batch(&candidates)
                .into_iter()
                .zip(candidates)
                .map(|((mean, var), x)| (expected_improvement(mean, var, best), x))
                .collect()
        };
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        let room = budget - history.len();
        let chosen: Vec<Vec<f64>> = scored
            .into_iter()
            .take(batch.max(1).min(room))
            .map(|(_, x)| x)
            .collect();
        evaluate_batch(chosen, &mut xs, &mut ys, &mut history);
    }
    history
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnrl::FomConfig;
    use gcnrl_circuit::{benchmarks::Benchmark, TechnologyNode};

    #[test]
    fn bo_runs_within_budget_and_beats_its_own_warmup_on_average() {
        let node = TechnologyNode::tsmc180();
        let fom = FomConfig::calibrated(Benchmark::TwoStageTia, &node, 8, 0);
        let env = SizingEnv::new(Benchmark::TwoStageTia, &node, fom);
        let h = bayesian_optimization(&env, 30, 0);
        assert_eq!(h.len(), 30);
        assert_eq!(h.method, "BO");
        assert!(h.best_curve().windows(2).all(|w| w[1] >= w[0]));
    }
}
