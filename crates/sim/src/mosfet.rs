//! First-order MOS transistor model.
//!
//! The model is the classic square-law (SPICE level-1) model with two
//! refinements that matter for sizing trade-offs: vertical-field mobility
//! degradation (`Uc`) and channel-length modulation whose strength scales
//! inversely with the drawn length.  It provides both directions the
//! evaluators need: current from voltages (for the Three-TIA's scalar Newton
//! bias solve) and overdrive from current (for mirror-ratio bias analysis).

use gcnrl_circuit::{MosModelParams, MosSizing};
use serde::{Deserialize, Serialize};

/// Boltzmann constant times 300 K, in joules.
pub const KT: f64 = 4.14e-21;

/// Gate-overlap capacitance per metre of width, F/m.
const C_OVERLAP_PER_M: f64 = 3.5e-10;
/// Drain/source junction capacitance per metre of width, F/m.
const C_JUNCTION_PER_M: f64 = 5.0e-10;
/// Thermal-noise excess factor (long-channel value is 2/3; short channel is
/// closer to 1, we use an intermediate value).
const GAMMA_NOISE: f64 = 0.85;

/// Bias-dependent small-signal description of one transistor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MosOperatingPoint {
    /// Drain current, amps.
    pub id: f64,
    /// Gate overdrive `Vgs - Vth`, volts.
    pub vov: f64,
    /// Transconductance, siemens.
    pub gm: f64,
    /// Output conductance, siemens.
    pub gds: f64,
    /// Gate–source capacitance, farads.
    pub cgs: f64,
    /// Gate–drain (overlap/Miller) capacitance, farads.
    pub cgd: f64,
    /// Drain–bulk junction capacitance, farads.
    pub cdb: f64,
    /// `true` when the device has enough overdrive and headroom to operate in
    /// saturation with sensible margins.
    pub saturated: bool,
}

impl MosOperatingPoint {
    /// Thermal drain-noise current power spectral density, A²/Hz.
    pub fn thermal_noise_psd(&self) -> f64 {
        4.0 * KT * GAMMA_NOISE * self.gm
    }
}

/// A sized transistor of one polarity with its technology model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosDevice<'a> {
    /// Sizing (W, L, M).
    pub sizing: MosSizing,
    /// Technology model parameters for the device polarity.
    pub model: &'a MosModelParams,
}

impl<'a> MosDevice<'a> {
    /// Creates a device from a sizing and a model.
    pub fn new(sizing: MosSizing, model: &'a MosModelParams) -> Self {
        MosDevice { sizing, model }
    }

    /// Effective transconductance factor `k' · (W·M/L)` with mobility
    /// degradation at the given overdrive, A/V².
    pub fn beta(&self, vov: f64) -> f64 {
        let beta0 = self.model.kp() * self.sizing.aspect_ratio();
        beta0 / (1.0 + self.model.uc * vov.max(0.0))
    }

    /// Saturation drain current at gate overdrive `vov` (volts), amps.
    ///
    /// Negative overdrive returns zero (sub-threshold conduction is ignored).
    pub fn id_sat(&self, vov: f64) -> f64 {
        if vov <= 0.0 {
            return 0.0;
        }
        0.5 * self.beta(vov) * vov * vov
    }

    /// Drain current in the triode/saturation model at `(vgs, vds)`, amps,
    /// including channel-length modulation in saturation.
    pub fn id(&self, vgs: f64, vds: f64) -> f64 {
        let vov = vgs - self.model.vth0;
        if vov <= 0.0 {
            return 0.0;
        }
        let beta = self.beta(vov);
        let lambda = self.lambda();
        if vds < vov {
            beta * (vov - vds / 2.0) * vds
        } else {
            0.5 * beta * vov * vov * (1.0 + lambda * (vds - vov))
        }
    }

    /// Channel-length modulation coefficient for this drawn length, 1/V.
    pub fn lambda(&self) -> f64 {
        self.model.lambda_per_um / self.sizing.l_um
    }

    /// Gate overdrive needed to conduct `id` amps in saturation, volts.
    ///
    /// Inverts the square law iteratively because mobility degradation makes
    /// the relationship mildly implicit.
    pub fn vov_for_current(&self, id: f64) -> f64 {
        if id <= 0.0 {
            return 0.0;
        }
        let beta0 = self.model.kp() * self.sizing.aspect_ratio();
        let mut vov = (2.0 * id / beta0).sqrt();
        for _ in 0..20 {
            let beta = self.beta(vov);
            let next = (2.0 * id / beta).sqrt();
            if (next - vov).abs() < 1e-9 {
                return next;
            }
            vov = next;
        }
        vov
    }

    /// Small-signal operating point when conducting `id` amps in saturation
    /// with `vds_headroom` volts of drain–source headroom available.
    ///
    /// The headroom is used for the saturation check: the device is flagged
    /// unsaturated when its required overdrive exceeds the headroom minus a
    /// 50 mV margin.  Very small overdrives are allowed (large devices biased
    /// near weak inversion) but the transconductance is capped at the
    /// weak-inversion limit `Id / (n·Vt)` by flooring the effective overdrive
    /// at 70 mV.
    pub fn operating_point(&self, id: f64, vds_headroom: f64) -> MosOperatingPoint {
        let vov = self.vov_for_current(id);
        let vov_eff = vov.max(0.07);
        let gm = if id > 0.0 { 2.0 * id / vov_eff } else { 0.0 };
        let gds = self.lambda() * id;
        let w_m = self.sizing.effective_width_um() * 1e-6;
        let l_m = self.sizing.l_um * 1e-6;
        let cgs = (2.0 / 3.0) * self.model.cox * w_m * l_m + C_OVERLAP_PER_M * w_m;
        let cgd = C_OVERLAP_PER_M * w_m;
        let cdb = C_JUNCTION_PER_M * w_m;
        let saturated = id > 0.0 && vov <= vds_headroom - 0.05;
        MosOperatingPoint {
            id,
            vov,
            gm,
            gds,
            cgs,
            cgd,
            cdb,
            saturated,
        }
    }
}

/// Thermal noise current PSD of a resistor, A²/Hz.
pub fn resistor_noise_psd(resistance: f64) -> f64 {
    if resistance > 0.0 {
        4.0 * KT / resistance
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnrl_circuit::TechnologyNode;

    fn device(node: &TechnologyNode, w: f64, l: f64, m: u32) -> MosDevice<'_> {
        MosDevice::new(MosSizing::new(w, l, m), &node.nmos)
    }

    #[test]
    fn current_increases_with_width_and_overdrive() {
        let node = TechnologyNode::tsmc180();
        let narrow = device(&node, 1.0, 0.18, 1);
        let wide = device(&node, 10.0, 0.18, 1);
        assert!(wide.id_sat(0.2) > narrow.id_sat(0.2));
        assert!(narrow.id_sat(0.3) > narrow.id_sat(0.2));
        assert_eq!(narrow.id_sat(-0.1), 0.0);
    }

    #[test]
    fn triode_saturation_continuity() {
        let node = TechnologyNode::tsmc180();
        let d = device(&node, 4.0, 0.18, 1);
        let vgs = node.nmos.vth0 + 0.25;
        // At vds == vov the triode and saturation expressions agree (up to CLM).
        let triode = d.id(vgs, 0.25 - 1e-9);
        let sat = d.id(vgs, 0.25);
        assert!((triode - sat).abs() / sat < 1e-3);
        // Saturation current keeps rising slightly with vds (CLM).
        assert!(d.id(vgs, 1.0) > d.id(vgs, 0.3));
    }

    #[test]
    fn vov_for_current_inverts_id_sat() {
        let node = TechnologyNode::n65();
        let d = device(&node, 8.0, 0.13, 2);
        for vov in [0.08, 0.15, 0.3, 0.5] {
            let id = d.id_sat(vov);
            let back = d.vov_for_current(id);
            assert!((back - vov).abs() < 1e-6, "vov {vov} -> {back}");
        }
        assert_eq!(d.vov_for_current(0.0), 0.0);
    }

    #[test]
    fn operating_point_small_signal_relations() {
        let node = TechnologyNode::tsmc180();
        let d = device(&node, 20.0, 0.36, 1);
        let id = 100e-6;
        let op = d.operating_point(id, 0.9);
        assert!(op.saturated);
        // gm = 2 Id / max(Vov, 70 mV)
        assert!((op.gm - 2.0 * id / op.vov.max(0.07)).abs() / op.gm < 1e-12);
        // Longer devices have more intrinsic gain gm / gds.
        let long = device(&node, 20.0, 1.0, 1).operating_point(id, 0.9);
        assert!(long.gm / long.gds > op.gm / op.gds);
        // Transit frequency gm / (2π (Cgs + Cgd)).
        let ft = op.gm / (2.0 * std::f64::consts::PI * (op.cgs + op.cgd));
        assert!(ft > 1e8, "ft unexpectedly low: {ft}");
    }

    #[test]
    fn saturation_flag_reflects_headroom() {
        let node = TechnologyNode::tsmc180();
        let d = device(&node, 1.0, 0.18, 1);
        // Large current through a small device needs a large overdrive -> no headroom.
        let op = d.operating_point(2e-3, 0.3);
        assert!(!op.saturated);
        // Tiny current -> weak inversion is allowed, but gm is capped at the
        // weak-inversion limit 2·Id/70mV.
        let op2 = d.operating_point(1e-9, 0.9);
        assert!(op2.saturated);
        assert!(op2.gm <= 2.0 * 1e-9 / 0.07 + 1e-18);
    }

    #[test]
    fn noise_densities_positive_and_scale() {
        let node = TechnologyNode::tsmc180();
        let d = device(&node, 10.0, 0.18, 1);
        let op = d.operating_point(50e-6, 0.9);
        assert!(op.thermal_noise_psd() > 0.0);
        assert!(resistor_noise_psd(1e3) > resistor_noise_psd(1e6));
        assert_eq!(resistor_noise_psd(0.0), 0.0);
    }

    #[test]
    fn pmos_has_lower_kp_than_nmos() {
        let node = TechnologyNode::tsmc180();
        let n = MosDevice::new(MosSizing::new(4.0, 0.18, 1), &node.nmos);
        let p = MosDevice::new(MosSizing::new(4.0, 0.18, 1), &node.pmos);
        assert!(n.id_sat(0.2) > p.id_sat(0.2));
    }
}
