//! Metric names, summary statistics and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("candidates_per_s", "1/s"),
    ("step_p50_ms", "ms"),
    ("step_tail_ms", "ms"),
    ("best_fom", "fom"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A layer a
/// workload never reaches reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.agent.critic_update.calls", "count"),
    ("core.agent.critic_update.total_s", "s"),
    ("core.agent.critic_update.p50_ms", "ms"),
    ("core.agent.actor_update.calls", "count"),
    ("core.agent.actor_update.total_s", "s"),
    ("core.agent.actor_update.p50_ms", "ms"),
    ("core.agent.act.calls", "count"),
    ("core.agent.act.total_s", "s"),
    ("core.env.rollout.self_s", "s"),
    ("rl.replay.sample.total_s", "s"),
    ("core.learn.share", "fraction"),
    ("sim.evaluate.calls", "count"),
    ("sim.evaluate.total_s", "s"),
    ("sim.evaluate.p50_us", "us"),
    ("sim.solver.sparse_refactors", "count"),
    ("sim.solver.dense_factors", "count"),
    ("sim.solver.template_builds", "count"),
    ("sim.solver.update_hits", "count"),
    ("sim.solver.refactor_fallbacks", "count"),
    ("exec.backend.calls", "count"),
    ("exec.backend.candidates", "count"),
    ("exec.backend.total_s", "s"),
    ("exec.engine.wall_s", "s"),
    ("exec.engine.self_s", "s"),
    ("exec.service.self_s", "s"),
    ("exec.cache.hits", "count"),
    ("exec.cache.misses", "count"),
    ("exec.cache.hit_ratio", "fraction"),
    ("baselines.es.self_s", "s"),
    ("baselines.bo.self_s", "s"),
    ("serve.wire_share", "fraction"),
    ("serve.requests", "count"),
    ("serve.connections_total", "count"),
    ("serve.admission_rejected", "count"),
    ("unattributed_share", "fraction"),
    ("trace.overhead_share", "fraction"),
];

/// One chunk of a timed phase: candidates scored, its wall time, and the
/// latency of every step completed in it. Chunks of one `group` do alike
/// work.
#[derive(Debug, Default)]
pub struct Chunk {
    pub group: usize,
    pub candidates: usize,
    pub wall: f64,
    pub steps: Vec<f64>,
}

impl Chunk {
    pub fn rate(&self) -> f64 {
        self.candidates as f64 / self.wall
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every failed correctness check, as a readable line.
    pub errors: Vec<String>,
    /// Candidates the workload asked to have scored.
    pub attempted: u64,
    /// Candidates that failed or were refused.
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Context printed above the result line (sample counts, percentiles).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Records `candidates_per_s`, `step_p50_ms` and `step_tail_ms` over the
    /// fastest quarter of `chunks`, short pieces of work of the timed phase.
    ///
    /// Other tenants of a shared machine slow a run by tens of percent, in
    /// bursts from milliseconds to minutes; ranking short chunks by rate and
    /// keeping the fastest quarter measures the program rather than its
    /// neighbours. Chunks are only ranked against chunks of the same group
    /// (the same stretch of every optimiser run), so work that grows along a
    /// run is kept in proportion. The rate and the step percentiles pool the
    /// kept chunks. The tail is the fixed `tail` percentile, which must leave
    /// at least ten steps beyond it.
    pub fn set_chunks(&mut self, chunks: &[Chunk], tail: f64, what: &str) {
        let mut groups: BTreeMap<usize, Vec<&Chunk>> = BTreeMap::new();
        for chunk in chunks {
            groups.entry(chunk.group).or_default().push(chunk);
        }
        let mut kept: Vec<&Chunk> = Vec::new();
        for group in groups.values_mut() {
            group.sort_by(|a, b| b.rate().total_cmp(&a.rate()));
            kept.extend(&group[..quarter(group.len())]);
        }
        let candidates: usize = kept.iter().map(|c| c.candidates).sum();
        let wall: f64 = kept.iter().map(|c| c.wall).sum();
        let mut steps: Vec<f64> = kept.iter().flat_map(|c| c.steps.iter().copied()).collect();
        steps.sort_by(f64::total_cmp);
        let n = steps.len();
        let beyond = n - (n as f64 * tail / 100.0).ceil() as usize;
        self.check(beyond >= 10, || {
            format!("only {beyond} of {n} steps beyond p{tail}; need 10")
        });
        self.set("candidates_per_s", candidates as f64 / wall);
        self.set("step_p50_ms", 1e3 * percentile(&steps, 50.0));
        self.set("step_tail_ms", 1e3 * percentile(&steps, tail));
        let all: Vec<f64> = chunks.iter().map(Chunk::rate).collect();
        self.notes.push(format!(
            "fastest {} of {} chunks ({what}); all-chunk median rate {:.3}/s",
            kept.len(),
            chunks.len(),
            median(&all)
        ));
        self.notes.push(format!(
            "step_tail_ms is p{tail} of {n} steps ({beyond} beyond it)"
        ));
    }

    /// Prints the notes, every metric of `names` by name and unit, and the
    /// result line last. Returns whether every check passed.
    pub fn print(&self, names: &[(&str, &str)]) -> bool {
        for note in &self.notes {
            println!("# {note}");
        }
        const SHOWN: usize = 20;
        for error in self.errors.iter().take(SHOWN) {
            println!("# CHECK FAILED: {error}");
        }
        if self.errors.len() > SHOWN {
            println!("# ... and {} more failed checks", self.errors.len() - SHOWN);
        }
        let unknown: Vec<_> = self
            .metrics
            .keys()
            .filter(|k| !names.iter().any(|(n, _)| n == *k))
            .collect();
        assert!(unknown.is_empty(), "metrics outside the list: {unknown:?}");
        let mut fields = Vec::new();
        for (name, unit) in names {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            assert!(value.is_finite(), "{name} is not finite: {value}");
            println!("{name:<36} {value:>16.6} {unit}");
            fields.push(format!(
                r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#
            ));
        }
        let correct = self.errors.is_empty();
        println!(
            r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        );
        correct
    }
}

/// How many of `n` ranked samples the timing metrics keep: the fastest
/// quarter, at least one.
pub fn quarter(n: usize) -> usize {
    n.div_ceil(4)
}

/// Nearest-rank percentile of sorted `values` (0 for an empty slice).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted `values`.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn fastest_quarter_of_the_chunks_and_the_ten_beyond_rule() {
        let chunk = |scale: f64| Chunk {
            group: 0,
            candidates: 100,
            wall: scale,
            steps: (1..=100).map(|i| scale * f64::from(i)).collect(),
        };
        let mut outcome = Outcome::default();
        let scales = [8.0, 1.0, 6.0, 7.0, 3.0, 5.0, 2.0, 4.0];
        let chunks: Vec<Chunk> = scales.iter().map(|&s| chunk(s)).collect();
        outcome.set_chunks(&chunks, 90.0, "test");
        assert!(outcome.errors.is_empty());
        // Kept: the chunks of scale 1 and 2, 200 candidates in 3 s.
        assert_eq!(outcome.metrics["candidates_per_s"], 200.0 / 3.0);
        assert_eq!(outcome.metrics["step_p50_ms"], 1e3 * 67.0);
        assert_eq!(outcome.metrics["step_tail_ms"], 1e3 * 160.0);
        outcome.set_chunks(&[chunk(1.0)], 99.0, "test");
        assert_eq!(outcome.errors.len(), 1);
    }
}
