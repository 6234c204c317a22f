use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A bounded replay buffer of `(action, reward)` transitions.
///
/// In the sizing problem the state is a deterministic function of the circuit
/// (it never changes within one optimisation run), so the buffer stores the
/// action representation and the scalar reward; the generic parameter lets
/// the agent choose its own action encoding.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayBuffer<A> {
    capacity: usize,
    actions: Vec<A>,
    rewards: Vec<f64>,
    next: usize,
}

impl<A: Clone> ReplayBuffer<A> {
    /// Creates an empty buffer holding at most `capacity` transitions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "replay capacity must be positive");
        ReplayBuffer {
            capacity,
            actions: Vec::new(),
            rewards: Vec::new(),
            next: 0,
        }
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Returns `true` when the buffer holds no transitions.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Maximum number of transitions retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Stores a transition, overwriting the oldest one when full.
    pub fn push(&mut self, action: A, reward: f64) {
        if self.actions.len() < self.capacity {
            self.actions.push(action);
            self.rewards.push(reward);
        } else {
            self.actions[self.next] = action;
            self.rewards[self.next] = reward;
        }
        self.next = (self.next + 1) % self.capacity;
    }

    /// Ingests a whole rollout batch in proposal order, cloning each action
    /// (the batch usually stays alive for history recording and best-of-`k`
    /// selection after the buffer has absorbed the transitions).
    pub fn ingest<O>(&mut self, batch: &crate::RolloutBatch<A, O>) {
        for rollout in batch.iter() {
            self.push(rollout.action.clone(), rollout.reward);
        }
    }

    /// Samples `batch` transitions uniformly at random: one seeded shuffle
    /// of the stored transitions, read in order. When `batch` exceeds the
    /// buffer length the sample cycles through that same permutation again,
    /// so every transition appears `batch / len` or `batch / len + 1` times.
    pub fn sample(&self, batch: usize, seed: u64) -> Vec<(&A, f64)> {
        if self.is_empty() || batch == 0 {
            return Vec::new();
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut indices: Vec<usize> = (0..self.len()).collect();
        indices.shuffle(&mut rng);
        (0..batch)
            .map(|i| {
                let idx = indices[i % indices.len()];
                (&self.actions[idx], self.rewards[idx])
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_len() {
        let mut buf = ReplayBuffer::new(3);
        assert!(buf.is_empty());
        buf.push(vec![1.0], 0.5);
        buf.push(vec![2.0], 1.5);
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.capacity(), 3);
    }

    #[test]
    fn overwrites_oldest_when_full() {
        let mut buf = ReplayBuffer::new(2);
        buf.push(1, 0.0);
        buf.push(2, 1.0);
        buf.push(3, 2.0); // overwrites the first entry
        assert_eq!(buf.len(), 2);
        let sampled: Vec<i32> = buf.sample(10, 0).iter().map(|(a, _)| **a).collect();
        assert!(!sampled.contains(&1));
        assert!(sampled.contains(&3));
    }

    #[test]
    fn sample_is_deterministic_per_seed() {
        let mut buf = ReplayBuffer::new(100);
        for i in 0..50 {
            buf.push(i, i as f64);
        }
        let a: Vec<f64> = buf.sample(8, 7).iter().map(|(_, r)| *r).collect();
        let b: Vec<f64> = buf.sample(8, 7).iter().map(|(_, r)| *r).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn sample_from_empty_is_empty() {
        let buf: ReplayBuffer<u8> = ReplayBuffer::new(4);
        assert!(buf.sample(4, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _: ReplayBuffer<u8> = ReplayBuffer::new(0);
    }

    #[test]
    fn ingest_pushes_every_rollout_in_proposal_order() {
        let mut batch: crate::RolloutBatch<u8, ()> = crate::RolloutBatch::new();
        batch.push(1, (), 0.5);
        batch.push(2, (), 1.5);
        batch.push(3, (), -0.5);

        // Ingesting the batch matches pushing its transitions one by one.
        let mut wholesale = ReplayBuffer::new(8);
        wholesale.ingest(&batch);
        let mut serial = ReplayBuffer::new(8);
        for r in batch.iter() {
            serial.push(r.action, r.reward);
        }
        assert_eq!(wholesale, serial);
        assert_eq!(wholesale.len(), 3);
    }
}
