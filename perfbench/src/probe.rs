//! A fixed arithmetic probe that measures how fast the machine runs at the
//! moment, so single-threaded step times can be read at a reference speed.
//!
//! On a shared VM, other tenants slow the same code by 20–60% for stretches
//! of seconds to minutes. The probe is benchmark-owned code, so no change to
//! the program can speed it up or slow it down; running it right after each
//! step and scaling the step by `REFERENCE_S / probe` removes most of the
//! machine's momentary slowdown while keeping every change to the program.

use gcnrl_circuit::{benchmarks::Benchmark, ParamVector, TechnologyNode};
use gcnrl_exec::{BatchReport, EvalBackend, ExecStats};
use gcnrl_sim::{MetricSpec, PerformanceReport};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The probe's duration on a quiet 2-vCPU Xeon VM (the machine the
/// benchmark was tuned on): scaled step times read as that machine's.
pub const REFERENCE_S: f64 = 1.7e-4;

/// Runs the probe (six 48×48 matrix products of fixed data, about the work
/// and working set of one small dense layer) and returns its duration in
/// seconds.
pub fn probe() -> f64 {
    const N: usize = 48;
    let a: Vec<f64> = (0..N * N).map(|i| (i % 7) as f64 * 0.1).collect();
    let b = a.clone();
    let mut c = vec![0.0; N * N];
    let start = Instant::now();
    for _ in 0..6 {
        for i in 0..N {
            for k in 0..N {
                let aik = black_box(a[i * N + k]);
                for j in 0..N {
                    c[i * N + j] += aik * b[k * N + j];
                }
            }
        }
    }
    black_box(&c);
    start.elapsed().as_secs_f64()
}

/// `seconds` measured while the probe took `probe_s`, read at the reference
/// speed.
pub fn at_reference_speed(seconds: f64, probe_s: f64) -> f64 {
    seconds * REFERENCE_S / probe_s
}

/// When one engine batch started, the probe run just before it, and the
/// batch size.
#[derive(Debug, Clone, Copy)]
pub struct BatchMark {
    pub start: Instant,
    pub probe_s: f64,
    pub items: usize,
}

/// An evaluation backend that runs the probe before every batch and logs
/// when the batch started: the step clock of an optimiser that only meets
/// the benchmark at its engine boundary.
pub struct StepClock {
    inner: Box<dyn EvalBackend>,
    log: Arc<Mutex<Vec<BatchMark>>>,
}

impl StepClock {
    pub fn new(inner: Box<dyn EvalBackend>, log: Arc<Mutex<Vec<BatchMark>>>) -> Self {
        StepClock { inner, log }
    }

    fn mark(&self, items: usize) {
        let probe_s = probe();
        let mark = BatchMark {
            start: Instant::now(),
            probe_s,
            items,
        };
        self.log.lock().expect("step log lock").push(mark);
    }
}

/// The optimiser steps between consecutive batches: `(seconds at the
/// reference speed, candidates of the step's batch)`. The probe that ran
/// inside each interval is subtracted and scales it.
pub fn steps(marks: &[BatchMark]) -> Vec<(f64, usize)> {
    marks
        .windows(2)
        .map(|w| {
            let raw = (w[1].start - w[0].start).as_secs_f64() - w[1].probe_s;
            (at_reference_speed(raw, w[1].probe_s), w[0].items)
        })
        .collect()
}

impl EvalBackend for StepClock {
    fn benchmark(&self) -> Benchmark {
        self.inner.benchmark()
    }

    fn technology(&self) -> &TechnologyNode {
        self.inner.technology()
    }

    fn metric_specs(&self) -> &[MetricSpec] {
        self.inner.metric_specs()
    }

    fn evaluate_batch(&self, params: &[ParamVector]) -> Vec<PerformanceReport> {
        self.mark(params.len());
        self.inner.evaluate_batch(params)
    }

    fn evaluate_batch_with_base(
        &self,
        base: &ParamVector,
        params: &[ParamVector],
    ) -> Vec<PerformanceReport> {
        self.mark(params.len());
        self.inner.evaluate_batch_with_base(base, params)
    }

    fn stats(&self) -> ExecStats {
        self.inner.stats()
    }

    fn last_batch(&self) -> BatchReport {
        self.inner.last_batch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn steps_subtract_and_scale_by_the_probe() {
        let t0 = Instant::now();
        let mark = |after_ms: u64, probe_s: f64, items: usize| BatchMark {
            start: t0 + Duration::from_millis(after_ms),
            probe_s,
            items,
        };
        // 10 ms between batch starts, the probe included; it ran at half the
        // reference speed, so the rest of the interval reads half as long.
        let probe_s = 2.0 * REFERENCE_S;
        let steps = steps(&[mark(0, REFERENCE_S, 5), mark(10, probe_s, 7)]);
        assert_eq!(steps.len(), 1);
        let expected = (0.010 - probe_s) / 2.0;
        assert!((steps[0].0 - expected).abs() < 1e-12, "{steps:?}");
        assert_eq!(steps[0].1, 5);
        assert!(probe() > 0.0);
    }
}
