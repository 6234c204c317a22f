//! AC frequency sweeps and response-shape metric extraction.

use crate::smallsignal::{AcCircuit, NodeIndex};
use crate::SimError;
use gcnrl_linalg::Complex;

/// Generates a logarithmic frequency grid from `f_min` to `f_max` (hertz).
///
/// # Panics
///
/// Panics if `f_min <= 0`, `f_max <= f_min`, or `points_per_decade == 0`.
pub fn log_sweep(f_min: f64, f_max: f64, points_per_decade: usize) -> Vec<f64> {
    assert!(f_min > 0.0 && f_max > f_min, "invalid sweep range");
    assert!(points_per_decade > 0, "points_per_decade must be positive");
    let decades = (f_max / f_min).log10();
    let n = (decades * points_per_decade as f64).ceil() as usize + 1;
    (0..n)
        .map(|i| f_min * 10f64.powf(i as f64 * decades / (n - 1) as f64))
        .collect()
}

/// The sampled transfer function of one output node over a frequency sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FrequencyResponse {
    points: Vec<(f64, Complex)>,
}

impl FrequencyResponse {
    /// Creates a response from `(frequency, phasor)` samples.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty.
    pub fn new(points: Vec<(f64, Complex)>) -> Self {
        assert!(!points.is_empty(), "frequency response cannot be empty");
        FrequencyResponse { points }
    }

    /// The raw `(frequency, phasor)` samples.
    pub fn points(&self) -> &[(f64, Complex)] {
        &self.points
    }

    /// Magnitude of the lowest-frequency sample (the "DC" gain of the sweep).
    pub fn dc_gain(&self) -> f64 {
        self.points[0].1.abs()
    }

    /// The -3 dB bandwidth relative to the DC gain, in hertz.
    ///
    /// Returns the highest swept frequency if the response never drops 3 dB
    /// (the bandwidth is beyond the sweep).
    pub fn bandwidth_3db(&self) -> f64 {
        let target = self.dc_gain() / 2f64.sqrt();
        for w in self.points.windows(2) {
            let (f0, v0) = (w[0].0, w[0].1.abs());
            let (f1, v1) = (w[1].0, w[1].1.abs());
            if v0 >= target && v1 < target {
                // Log-linear interpolation between the bracketing samples.
                let t = (v0 - target) / (v0 - v1);
                return f0 * (f1 / f0).powf(t);
            }
        }
        self.points.last().expect("non-empty").0
    }

    /// Frequency at which the magnitude crosses unity (0 dB), in hertz, or
    /// `None` if it never does within the sweep.
    pub fn unity_gain_freq(&self) -> Option<f64> {
        if self.points[0].1.abs() < 1.0 {
            return None;
        }
        for w in self.points.windows(2) {
            let (f0, v0) = (w[0].0, w[0].1.abs());
            let (f1, v1) = (w[1].0, w[1].1.abs());
            if v0 >= 1.0 && v1 < 1.0 {
                let t = (v0 - 1.0) / (v0 - v1);
                return Some(f0 * (f1 / f0).powf(t));
            }
        }
        None
    }

    /// Phase margin in degrees: `180° + phase` at the unity-gain frequency.
    ///
    /// Returns `None` when the gain never crosses unity inside the sweep; the
    /// loop is then unconditionally stable within the modelled bandwidth.
    pub fn phase_margin_deg(&self) -> Option<f64> {
        let fu = self.unity_gain_freq()?;
        // Find the closest sample and use its unwrapped phase.
        let mut phase_prev = self.points[0].1.arg();
        let mut unwrapped = phase_prev;
        let mut phase_at_fu = unwrapped;
        for &(f, v) in &self.points {
            let raw = v.arg();
            let mut delta = raw - phase_prev;
            while delta > std::f64::consts::PI {
                delta -= 2.0 * std::f64::consts::PI;
            }
            while delta < -std::f64::consts::PI {
                delta += 2.0 * std::f64::consts::PI;
            }
            unwrapped += delta;
            phase_prev = raw;
            if f <= fu {
                phase_at_fu = unwrapped;
            }
        }
        // Phase relative to the low-frequency phase (removes the inversion of
        // an inverting amplifier from the margin computation).
        let reference = self.points[0].1.arg();
        let lag_deg = (phase_at_fu - reference).to_degrees();
        Some((180.0 + lag_deg).clamp(0.0, 180.0))
    }

    /// Peaking: how far (in dB) the magnitude rises above the DC gain.
    /// A monotonically rolling-off response has zero peaking.
    pub fn peaking_db(&self) -> f64 {
        let dc = self.dc_gain();
        let peak = self
            .points
            .iter()
            .map(|(_, v)| v.abs())
            .fold(0.0f64, f64::max);
        if peak > dc {
            20.0 * (peak / dc).log10()
        } else {
            0.0
        }
    }
}

/// Sweeps the circuit's transfer function to `output` over `freqs`.
///
/// Compiles the circuit once (see [`crate::CompiledAc`]) and solves every
/// frequency point by a value-only restamp plus numeric refactorisation
/// against the shared symbolic analysis — no per-point element walk.
///
/// # Errors
///
/// Propagates [`SimError::SingularSystem`] from any frequency point.
pub fn sweep(
    circuit: &AcCircuit,
    output: NodeIndex,
    freqs: &[f64],
) -> Result<FrequencyResponse, SimError> {
    let mut compiled = circuit.compile()?;
    sweep_compiled(&mut compiled, output, freqs)
}

/// Sweeps an already-compiled circuit, reusing its factorisation machinery.
///
/// # Errors
///
/// Propagates [`SimError::SingularSystem`] from any frequency point.
pub fn sweep_compiled(
    compiled: &mut crate::CompiledAc,
    output: NodeIndex,
    freqs: &[f64],
) -> Result<FrequencyResponse, SimError> {
    Ok(FrequencyResponse::new(
        compiled.sweep_voltages(output, freqs)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smallsignal::{AcElement, GROUND};

    fn single_pole(r: f64, c: f64) -> AcCircuit {
        let mut ckt = AcCircuit::new(1);
        ckt.add(AcElement::Conductance {
            a: 0,
            b: GROUND,
            g: 1.0 / r,
        });
        ckt.add(AcElement::Capacitance { a: 0, b: GROUND, c });
        ckt.add(AcElement::CurrentSource {
            a: GROUND,
            b: 0,
            value: Complex::ONE,
        });
        ckt
    }

    #[test]
    fn log_sweep_is_monotone_and_bounded() {
        let f = log_sweep(1.0, 1e6, 10);
        assert!(f.windows(2).all(|w| w[1] > w[0]));
        assert!((f[0] - 1.0).abs() < 1e-12);
        assert!((f.last().unwrap() - 1e6).abs() / 1e6 < 1e-9);
    }

    #[test]
    #[should_panic(expected = "invalid sweep range")]
    fn log_sweep_rejects_bad_range() {
        let _ = log_sweep(10.0, 1.0, 5);
    }

    #[test]
    fn single_pole_bandwidth_matches_rc() {
        let (r, c) = (10e3, 1e-12);
        let expected = 1.0 / (2.0 * std::f64::consts::PI * r * c);
        let ckt = single_pole(r, c);
        let resp = sweep(&ckt, 0, &log_sweep(1e3, 1e12, 40)).unwrap();
        let bw = resp.bandwidth_3db();
        assert!(
            (bw - expected).abs() / expected < 0.05,
            "bw {bw} vs {expected}"
        );
        assert!((resp.dc_gain() - r).abs() / r < 1e-3);
        assert!(resp.peaking_db() < 1e-9);
    }

    #[test]
    fn unity_gain_and_phase_margin_of_integrator_like_response() {
        // Single-pole response with DC gain 1000 and pole at ~159 Hz:
        // unity gain near 159 kHz with ~90 degrees of phase margin.
        let r = 1e3;
        let c = 1e-6;
        let mut ckt = single_pole(r, c);
        // scale the source to get a DC gain of 1000 V/A * 1 A = 1000.
        ckt.add(AcElement::CurrentSource {
            a: GROUND,
            b: 0,
            value: Complex::ZERO,
        });
        let resp = sweep(&ckt, 0, &log_sweep(1.0, 1e9, 30)).unwrap();
        let fu = resp.unity_gain_freq().expect("crosses unity");
        let pole = 1.0 / (2.0 * std::f64::consts::PI * r * c);
        let expected_fu = pole * r; // gain*pole ~ asymptotic crossover
        assert!(fu > expected_fu * 0.5 && fu < expected_fu * 2.0, "fu {fu}");
        let pm = resp.phase_margin_deg().unwrap();
        assert!(pm > 85.0 && pm <= 95.0, "pm {pm}");
    }

    #[test]
    fn never_crossing_unity_returns_none() {
        // Attenuator: gain < 1 everywhere.
        let mut ckt = AcCircuit::new(1);
        ckt.add(AcElement::Conductance {
            a: 0,
            b: GROUND,
            g: 10.0,
        });
        ckt.add(AcElement::CurrentSource {
            a: GROUND,
            b: 0,
            value: Complex::ONE,
        });
        let resp = sweep(&ckt, 0, &log_sweep(1.0, 1e6, 10)).unwrap();
        assert!(resp.unity_gain_freq().is_none());
        assert!(resp.phase_margin_deg().is_none());
    }

    #[test]
    fn peaking_detected_for_resonant_response() {
        // Two-node LC-ish resonance approximated with a gyrator is overkill;
        // instead fabricate a response directly.
        let points = vec![
            (1.0, Complex::real(1.0)),
            (10.0, Complex::real(1.5)),
            (100.0, Complex::real(0.5)),
        ];
        let resp = FrequencyResponse::new(points);
        assert!((resp.peaking_db() - 20.0 * 1.5f64.log10()).abs() < 1e-9);
    }
}
