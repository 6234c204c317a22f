//! Output-referred thermal-noise analysis.
//!
//! Every transistor contributes a drain thermal-noise current of PSD
//! `4kTγ·gm` and every resistor `4kT/R`.  Each source is injected into the
//! linearised circuit (one MNA solve per source) and its contribution to the
//! output node is accumulated in power.  The evaluators then refer the output
//! noise back to the input by dividing by the signal transfer function.

use crate::compiled::CompiledAc;
use crate::smallsignal::NodeIndex;
use crate::SimError;

/// One independent noise current source between two nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseSource {
    /// Node the noise current is drawn from.
    pub a: NodeIndex,
    /// Node the noise current is injected into.
    pub b: NodeIndex,
    /// Power spectral density of the current, A²/Hz.
    pub psd: f64,
}

/// Total output-referred noise voltage PSD (V²/Hz) at `output` and `freq_hz`:
/// the admittance matrix is factored **once** at `freq_hz` and every noise
/// source reuses the factorisation for its injection solve.
///
/// # Errors
///
/// Propagates [`SimError::SingularSystem`] from the underlying solves.
pub fn output_noise_psd_compiled(
    compiled: &mut CompiledAc,
    sources: &[NoiseSource],
    output: NodeIndex,
    freq_hz: f64,
) -> Result<f64, SimError> {
    let mut total = 0.0;
    compiled.factor_at(freq_hz)?;
    for src in sources {
        if src.psd <= 0.0 {
            continue;
        }
        let gain_sq = compiled.injection_gain(src.a, src.b, output)?.abs_sq();
        total += src.psd * gain_sq;
    }
    Ok(total)
}

/// Output-referred RMS noise voltage spectral density (V/√Hz).
///
/// # Errors
///
/// Propagates [`SimError::SingularSystem`] from the underlying solves.
pub fn output_noise_density_compiled(
    compiled: &mut CompiledAc,
    sources: &[NoiseSource],
    output: NodeIndex,
    freq_hz: f64,
) -> Result<f64, SimError> {
    Ok(output_noise_psd_compiled(compiled, sources, output, freq_hz)?.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mosfet::{resistor_noise_psd, KT};
    use crate::smallsignal::{AcCircuit, AcElement, GROUND};

    /// [`output_noise_psd_compiled`] on a fresh compile of `circuit`.
    fn psd(circuit: &AcCircuit, sources: &[NoiseSource], freq_hz: f64) -> f64 {
        let mut compiled = circuit.compile().unwrap();
        output_noise_psd_compiled(&mut compiled, sources, 0, freq_hz).unwrap()
    }

    #[test]
    fn single_resistor_noise_matches_4ktr() {
        // A resistor R to ground: its own noise current through its own
        // resistance gives an output voltage PSD of 4kT·R.
        let r = 10e3;
        let mut ckt = AcCircuit::new(1);
        ckt.add(AcElement::Conductance {
            a: 0,
            b: GROUND,
            g: 1.0 / r,
        });
        let sources = [NoiseSource {
            a: GROUND,
            b: 0,
            psd: resistor_noise_psd(r),
        }];
        let expected = 4.0 * KT * r;
        assert!((psd(&ckt, &sources, 1.0) - expected).abs() / expected < 1e-6);
    }

    #[test]
    fn uncorrelated_sources_add_in_power() {
        let r = 1e3;
        let mut ckt = AcCircuit::new(1);
        ckt.add(AcElement::Conductance {
            a: 0,
            b: GROUND,
            g: 1.0 / r,
        });
        let one = [NoiseSource {
            a: GROUND,
            b: 0,
            psd: 1e-24,
        }];
        let two = [
            NoiseSource {
                a: GROUND,
                b: 0,
                psd: 1e-24,
            },
            NoiseSource {
                a: GROUND,
                b: 0,
                psd: 1e-24,
            },
        ];
        let p1 = psd(&ckt, &one, 1.0);
        let p2 = psd(&ckt, &two, 1.0);
        assert!((p2 - 2.0 * p1).abs() / p2 < 1e-12);
        let mut compiled = ckt.compile().unwrap();
        let d = output_noise_density_compiled(&mut compiled, &one, 0, 1.0).unwrap();
        assert!((d * d - p1).abs() / p1 < 1e-12);
    }

    #[test]
    fn zero_psd_sources_are_skipped() {
        let mut ckt = AcCircuit::new(1);
        ckt.add(AcElement::Conductance {
            a: 0,
            b: GROUND,
            g: 1e-3,
        });
        let sources = [NoiseSource {
            a: GROUND,
            b: 0,
            psd: 0.0,
        }];
        assert_eq!(psd(&ckt, &sources, 1.0), 0.0);
    }

    #[test]
    fn capacitor_filters_high_frequency_noise() {
        let r = 10e3;
        let c = 1e-9;
        let mut ckt = AcCircuit::new(1);
        ckt.add(AcElement::Conductance {
            a: 0,
            b: GROUND,
            g: 1.0 / r,
        });
        ckt.add(AcElement::Capacitance { a: 0, b: GROUND, c });
        let sources = [NoiseSource {
            a: GROUND,
            b: 0,
            psd: resistor_noise_psd(r),
        }];
        let pole = 1.0 / (2.0 * std::f64::consts::PI * r * c);
        let low = psd(&ckt, &sources, pole / 100.0);
        let high = psd(&ckt, &sources, pole * 100.0);
        assert!(high < low / 100.0);
    }
}
