use serde::{Deserialize, Serialize};

/// Hyper-parameters of the DDPG search (paper Algorithm 1).
///
/// The defaults follow the paper's experimental setup scaled to the
/// laptop-sized simulator: 100 warm-up episodes of random sampling followed
/// by noisy on-policy exploration, a modest replay buffer, and exponentially
/// decaying exploration noise.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DdpgConfig {
    /// Total number of search episodes `M` (each episode is one simulation).
    pub episodes: usize,
    /// Number of warm-up episodes `W` with uniformly random actions.
    pub warmup: usize,
    /// Mini-batch size `N_s` sampled from the replay buffer per update.
    pub batch_size: usize,
    /// Replay-buffer capacity.
    pub replay_capacity: usize,
    /// Actor learning rate.
    pub actor_lr: f64,
    /// Critic learning rate.
    pub critic_lr: f64,
    /// Initial exploration-noise standard deviation.
    pub noise_sigma: f64,
    /// Per-episode multiplicative decay of the exploration noise.
    pub noise_decay: f64,
    /// Decay of the exponential-moving-average reward baseline `B`.
    pub baseline_decay: f64,
    /// Number of hidden units per layer in the actor/critic.
    pub hidden_dim: usize,
    /// Number of GCN layers (the paper uses seven for a global receptive field).
    pub gcn_layers: usize,
    /// Random seed controlling initialisation, warm-up sampling and noise.
    pub seed: u64,
    /// Speculative rollout width `k`: candidates proposed (and evaluated as
    /// one engine batch) per policy step during exploration.  `1` reproduces
    /// the serial trainer bit-identically; larger values trade policy updates
    /// for parallel environment throughput at the same simulation budget.
    pub rollout_k: usize,
    /// Correlation of the `k` exploration perturbations within one rollout
    /// round (see `ExplorationNoise::sample_correlated`); ignored at `k = 1`.
    pub rollout_rho: f64,
    /// Adaptive rollout ceiling: when greater than `rollout_k`, the rollout
    /// width grows linearly from `rollout_k` toward this value as the
    /// exploration noise decays (`width = k + (k_max - k) * decay_progress`,
    /// rounded down) — wide speculative batches are cheap once the policy
    /// has mostly converged and candidates cluster. `0` (the default) keeps
    /// the width fixed at `rollout_k`.
    pub rollout_k_max: usize,
    /// Kept only because `perfbench` reads it; must stay `false` (the designer panics otherwise).
    pub prioritized_replay: bool,
    /// Kept only because `perfbench` reads it; must stay `false` (the designer panics otherwise).
    pub grouped_rollouts: bool,
}

impl Default for DdpgConfig {
    fn default() -> Self {
        DdpgConfig {
            episodes: 500,
            warmup: 100,
            batch_size: 32,
            replay_capacity: 4096,
            actor_lr: 1e-3,
            critic_lr: 1e-3,
            noise_sigma: 0.4,
            noise_decay: 0.99,
            baseline_decay: 0.95,
            hidden_dim: 64,
            gcn_layers: 7,
            seed: 0,
            rollout_k: 1,
            rollout_rho: 0.5,
            rollout_k_max: 0,
            prioritized_replay: false,
            grouped_rollouts: false,
        }
    }
}

impl DdpgConfig {
    /// A configuration sized for fast unit/integration tests.
    pub fn fast() -> Self {
        DdpgConfig {
            episodes: 60,
            warmup: 20,
            batch_size: 16,
            hidden_dim: 32,
            gcn_layers: 3,
            ..Self::default()
        }
    }

    /// Returns a copy with a different random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with a different episode/warm-up budget.
    pub fn with_budget(mut self, episodes: usize, warmup: usize) -> Self {
        self.episodes = episodes;
        self.warmup = warmup;
        self
    }

    /// Returns a copy with a different speculative rollout width.
    pub fn with_rollout_k(mut self, k: usize) -> Self {
        self.rollout_k = k.max(1);
        self
    }

    /// Returns a copy with a different intra-rollout noise correlation.
    pub fn with_rollout_rho(mut self, rho: f64) -> Self {
        self.rollout_rho = rho.clamp(0.0, 1.0);
        self
    }

    /// Returns a copy that widens the rollout from `rollout_k` toward
    /// `k_max` as the exploration noise decays. Values at or below
    /// `rollout_k` disable the adaptation (fixed-width behaviour).
    pub fn with_adaptive_rollout(mut self, k_max: usize) -> Self {
        self.rollout_k_max = k_max;
        self
    }

    /// The rollout width to use at a given noise-decay progress (`0` at the
    /// start of exploration, `1` when the noise has fully decayed).
    pub fn rollout_width_at(&self, decay_progress: f64) -> usize {
        let k = self.rollout_k.max(1);
        if self.rollout_k_max <= k {
            return k;
        }
        let span = (self.rollout_k_max - k) as f64;
        k + (span * decay_progress.clamp(0.0, 1.0)).floor() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = DdpgConfig::default();
        assert!(c.warmup < c.episodes);
        assert!(c.gcn_layers >= 1);
        assert!(c.noise_decay <= 1.0);
        // The perfbench-only stubs stay off.
        assert!(!c.prioritized_replay);
        assert!(!c.grouped_rollouts);
    }

    #[test]
    fn builder_helpers() {
        let c = DdpgConfig::fast().with_seed(9).with_budget(10, 2);
        assert_eq!(c.seed, 9);
        assert_eq!(c.episodes, 10);
        assert_eq!(c.warmup, 2);
    }

    #[test]
    fn rollout_builders_clamp_their_arguments() {
        let c = DdpgConfig::default()
            .with_rollout_k(8)
            .with_rollout_rho(0.3);
        assert_eq!(c.rollout_k, 8);
        assert_eq!(c.rollout_rho, 0.3);
        assert_eq!(DdpgConfig::default().with_rollout_k(0).rollout_k, 1);
        assert_eq!(DdpgConfig::default().with_rollout_rho(7.0).rollout_rho, 1.0);
        // The default is the serial trainer.
        assert_eq!(DdpgConfig::default().rollout_k, 1);
    }

    #[test]
    fn adaptive_rollout_width_grows_with_decay_progress() {
        let c = DdpgConfig::default()
            .with_rollout_k(2)
            .with_adaptive_rollout(8);
        assert_eq!(c.rollout_width_at(0.0), 2);
        assert_eq!(c.rollout_width_at(0.5), 5);
        assert_eq!(c.rollout_width_at(1.0), 8);
        // Progress is clamped.
        assert_eq!(c.rollout_width_at(7.0), 8);
        assert_eq!(c.rollout_width_at(-1.0), 2);
    }

    #[test]
    fn adaptive_rollout_is_disabled_by_default_and_below_k() {
        let fixed = DdpgConfig::default().with_rollout_k(4);
        assert_eq!(fixed.rollout_k_max, 0);
        assert_eq!(fixed.rollout_width_at(1.0), 4);
        // A ceiling at or below k keeps the width fixed.
        let capped = fixed.with_adaptive_rollout(3);
        assert_eq!(capped.rollout_width_at(1.0), 4);
    }
}
