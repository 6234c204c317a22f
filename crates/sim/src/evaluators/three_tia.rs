//! Evaluator for the three-stage transimpedance amplifier (Three-TIA).

use super::common::{mirror_ratio, mos_device, resistance, BiasTable, SmallSignalBuilder};
use super::Evaluator;
use crate::ac::{log_sweep, sweep};
use crate::metrics::{MetricDirection, MetricSpec, PerformanceReport};
use crate::mosfet::MosDevice;
use crate::smallsignal::{AcElement, GROUND};
use crate::solver_stats;
use gcnrl_circuit::{
    benchmarks, benchmarks::Benchmark, Circuit, MosModelParams, MosSizing, ParamVector,
    TechnologyNode,
};
use gcnrl_linalg::Complex;

/// Metrics reported for the Three-TIA (paper Sec. IV-A): bandwidth, gain and
/// power, plus the derived gain–bandwidth product.
const METRICS: [MetricSpec; 4] = [
    MetricSpec {
        name: "bw_ghz",
        unit: "GHz",
        direction: MetricDirection::HigherIsBetter,
    },
    MetricSpec {
        name: "gain_ohm",
        unit: "Ohm",
        direction: MetricDirection::HigherIsBetter,
    },
    MetricSpec {
        name: "power_mw",
        unit: "mW",
        direction: MetricDirection::LowerIsBetter,
    },
    MetricSpec {
        name: "gbw_thz_ohm",
        unit: "THz*Ohm",
        direction: MetricDirection::HigherIsBetter,
    },
];

/// Performance evaluator for the three-stage TIA.
#[derive(Debug, Clone)]
pub struct ThreeStageTiaEvaluator {
    circuit: Circuit,
    node: TechnologyNode,
}

impl ThreeStageTiaEvaluator {
    /// Creates the evaluator for a given technology node.
    pub fn new(node: TechnologyNode) -> Self {
        ThreeStageTiaEvaluator {
            circuit: benchmarks::three_stage_tia(),
            node,
        }
    }

    /// Bias analysis.  The reference current is set by the resistor-biased
    /// diode `RB`/`T0` (a scalar Newton solve, see
    /// [`resistor_diode_reference`]); every stage then propagates it through
    /// its mirrors.
    fn bias(&self, params: &ParamVector) -> BiasTable {
        let c = &self.circuit;
        let node = &self.node;
        let headroom = node.vdd / 2.0;

        let rb = resistance(c, params, "RB");
        let t0 = mos_device(c, params, node, "T0");
        let i_ref = resistor_diode_reference(node.vdd, rb, t0.sizing, &node.nmos)
            .unwrap_or((node.vdd - node.nmos.vth0) / rb)
            .max(1e-9);

        let dev = |name: &str| mos_device(c, params, node, name);
        let (t1, t2) = (dev("T1"), dev("T2"));
        let (t7, t8, t9) = (dev("T7"), dev("T8"), dev("T9"));
        let (t3, t10, t11, t12) = (dev("T3"), dev("T10"), dev("T11"), dev("T12"));
        let (t4, t13, t14, t15) = (dev("T4"), dev("T13"), dev("T14"), dev("T15"));
        let (t16, t5, t6) = (dev("T16"), dev("T5"), dev("T6"));

        // Stage 1: the input diode is biased (through an ideal bias tee) at the
        // reference current; T2 mirrors it; the PMOS mirror folds it onto T9.
        let id1 = i_ref;
        let id2 = id1 * mirror_ratio(&t2, &t1);
        let id8 = id2 * mirror_ratio(&t8, &t7);
        // Stage 2: T3's gate sits at T9's diode voltage.
        let id3 = id8 * mirror_ratio(&t3, &t9);
        let id11 = id3 * mirror_ratio(&t11, &t10);
        // Stage 3.
        let id4 = id11 * mirror_ratio(&t4, &t12);
        let id14 = id4 * mirror_ratio(&t14, &t13);
        // Output stage: T16 mirrors T15; T5/T6 are class-A bias legs off vbias.
        let id16 = id14 * mirror_ratio(&t16, &t15);
        let id6 = i_ref * mirror_ratio(&t6, &t0);

        let mut table = BiasTable::new();
        table.insert("T0", t0.operating_point(i_ref, headroom));
        table.insert("T1", t1.operating_point(id1, headroom));
        table.insert("T2", t2.operating_point(id2, headroom));
        table.insert("T7", t7.operating_point(id2, headroom));
        table.insert("T8", t8.operating_point(id8, headroom));
        table.insert("T9", t9.operating_point(id8, headroom));
        table.insert("T3", t3.operating_point(id3, headroom));
        table.insert("T10", t10.operating_point(id3, headroom));
        table.insert("T11", t11.operating_point(id11, headroom));
        table.insert("T12", t12.operating_point(id11, headroom));
        table.insert("T4", t4.operating_point(id4, headroom));
        table.insert("T13", t13.operating_point(id4, headroom));
        table.insert("T14", t14.operating_point(id14, headroom));
        table.insert("T15", t15.operating_point(id14, headroom));
        table.insert("T16", t16.operating_point(id16, headroom));
        table.insert("T5", t5.operating_point(id16.max(id6), headroom));
        table.insert("T6", t6.operating_point(id6, headroom));

        table.supply_current = i_ref + id1 + id2 + id8 + id3 + id11 + id4 + id14 + id16.max(id6);
        table
    }
}

/// Shunt conductance from the bias node to ground, in siemens: it keeps the
/// Newton slope positive while the diode is cut off.
const GMIN: f64 = 1e-9;

/// The reference current, in amps, of a resistor `r_bias` from `vdd` to the
/// drain and gate of a diode-connected NMOS: the one DC node of the
/// Three-TIA that is not mirror arithmetic.
///
/// The node voltage `V` solves `GMIN·V + (V − VDD)/R_B + I_D(V, V) = 0` by
/// Newton steps from `Vth0 + 0.2 V`, each clamped to ±0.3 V, with the
/// device's `gm` and `gds` taken by forward differences. Every step counts
/// as one dense factor and one dense solve in [`solver_stats`]. Returns
/// `None` on a NaN residual, a vanishing slope, or no convergence within
/// 200 steps.
fn resistor_diode_reference(
    vdd: f64,
    r_bias: f64,
    sizing: MosSizing,
    model: &MosModelParams,
) -> Option<f64> {
    const TOLERANCE: f64 = 1e-9;
    const MAX_STEPS: usize = 200;
    const MAX_STEP_V: f64 = 0.3;
    const DV: f64 = 1e-6;
    let device = MosDevice::new(sizing, model);
    let (g, source) = (1.0 / r_bias, vdd / r_bias);
    // The KCL residual at `v` (current out of the node) and its slope. The
    // terms are summed in this order on purpose: the rounding of the
    // reference current is pinned bit for bit by the tests below.
    let residual_and_slope = |v: f64| {
        let vds = v.max(0.0);
        let id = device.id(v, vds);
        let gm = ((device.id(v + DV, vds) - id) / DV).max(0.0);
        let gds = ((device.id(v, vds + DV) - id) / DV).max(0.0);
        (GMIN * v - source + g * v + id, GMIN + g + gm + gds)
    };
    let current = |v: f64| ((vdd - v) / r_bias).max(0.0);
    let mut v = model.vth0 + 0.2;
    for _ in 0..MAX_STEPS {
        let (residual, slope) = residual_and_slope(v);
        if residual.is_nan() {
            return None;
        }
        if residual.abs() < TOLERANCE {
            return Some(current(v));
        }
        solver_stats::record_dense_factor();
        solver_stats::record_dense_solve();
        if slope.abs() < 1e-300 {
            return None;
        }
        v -= (residual / slope).clamp(-MAX_STEP_V, MAX_STEP_V);
    }
    let (residual, _) = residual_and_slope(v);
    (residual.abs() < TOLERANCE).then(|| current(v))
}

impl Evaluator for ThreeStageTiaEvaluator {
    fn benchmark(&self) -> Benchmark {
        Benchmark::ThreeStageTia
    }

    fn technology(&self) -> &TechnologyNode {
        &self.node
    }

    fn metric_specs(&self) -> &[MetricSpec] {
        &METRICS
    }

    fn evaluate(&self, params: &ParamVector) -> PerformanceReport {
        let bias = self.bias(params);
        let builder = SmallSignalBuilder::new(&self.circuit, &self.node);
        let (mut ac, _noise) = builder.build(params, &bias);

        let vin = builder.ac_node("vin");
        let vout = builder.ac_node("vout");
        ac.add(AcElement::CurrentSource {
            a: GROUND,
            b: vin,
            value: Complex::ONE,
        });

        let freqs = log_sweep(1e3, 100e9, 12);
        let Ok(resp) = sweep(&ac, vout, &freqs) else {
            return PerformanceReport::infeasible();
        };

        let gain_ohm = resp.dc_gain();
        let bw_hz = resp.bandwidth_3db();
        let power_mw = self.node.vdd * bias.supply_current * 1e3;

        let mut report = PerformanceReport::new();
        report.feasible = bias.feasible;
        report.set("bw_ghz", bw_hz / 1e9);
        report.set("gain_ohm", gain_ohm);
        report.set("power_mw", power_mw);
        report.set("gbw_thz_ohm", gain_ohm * bw_hz / 1e12);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_design_amplifies() {
        let node = TechnologyNode::tsmc180();
        let eval = ThreeStageTiaEvaluator::new(node.clone());
        let space = eval.circuit.design_space(&node);
        let r = eval.evaluate(&space.nominal());
        assert!(r.get("gain_ohm").unwrap() > 10.0);
        assert!(r.get("bw_ghz").unwrap() > 0.0);
        assert!(r.get("power_mw").unwrap() > 0.0);
    }

    #[test]
    fn three_stage_has_more_gain_than_two_stage_at_nominal() {
        let node = TechnologyNode::tsmc180();
        let three = ThreeStageTiaEvaluator::new(node.clone());
        let two = super::super::two_tia::TwoStageTiaEvaluator::new(node.clone());
        let g3 = {
            let space = three.circuit.design_space(&node);
            three.evaluate(&space.nominal()).get("gain_ohm").unwrap()
        };
        let g2 = {
            let circuit = benchmarks::two_stage_tia();
            let space = circuit.design_space(&node);
            two.evaluate(&space.nominal()).get("gain_ohm").unwrap()
        };
        // Both are shunt-feedback TIAs, but the extra stage buys loop gain and
        // therefore a transimpedance closer to the ideal feedback value.
        assert!(g3 > 0.0 && g2 > 0.0);
    }

    #[test]
    fn larger_bias_resistor_lowers_power() {
        let node = TechnologyNode::tsmc180();
        let eval = ThreeStageTiaEvaluator::new(node.clone());
        let space = eval.circuit.design_space(&node);
        // RB is component index 0.
        let mut low = vec![0.5; space.num_parameters()];
        let mut high = low.clone();
        low[0] = 0.3;
        high[0] = 0.9;
        let p_low_rb = eval
            .evaluate(&space.from_unit(&low))
            .get("power_mw")
            .unwrap();
        let p_high_rb = eval
            .evaluate(&space.from_unit(&high))
            .get("power_mw")
            .unwrap();
        assert!(p_high_rb < p_low_rb, "power {p_low_rb} -> {p_high_rb}");
    }

    /// `resistor_diode_reference` at the `RB`/`T0` sizing of `params`.
    fn reference_at(node: &TechnologyNode, params: &ParamVector) -> Option<f64> {
        let circuit = benchmarks::three_stage_tia();
        let rb = resistance(&circuit, params, "RB");
        let t0 = mos_device(&circuit, params, node, "T0");
        resistor_diode_reference(node.vdd, rb, t0.sizing, &node.nmos)
    }

    #[test]
    fn reference_current_is_pinned_bit_for_bit() {
        // Per node: the nominal design, every parameter at its lower bound,
        // every one at its upper bound, and a fixed mixed point.
        let pins: [(&str, [u64; 4]); 5] = [
            (
                "250nm",
                [
                    0x3f1f_c694_ecf7_fdda,
                    0x3f5f_90ec_972d_e4f6,
                    0x3e9a_2784_9bc4_e9f6,
                    0x3f80_47fd_7a65_281e,
                ],
            ),
            (
                "180nm",
                [
                    0x3f15_80d2_0079_fc37,
                    0x3f53_be97_98d4_0933,
                    0x3e91_b447_49e2_af4b,
                    0x3f75_ec0e_d815_7f2e,
                ],
            ),
            (
                "130nm",
                [
                    0x3f0e_1404_b221_9360,
                    0x3f4f_8ad8_745e_607b,
                    0x3e88_ae99_fdb6_361a,
                    0x3f70_4580_e6ee_77ca,
                ],
            ),
            (
                "65nm",
                [
                    0x3f0c_93c2_5c8b_f21c,
                    0x3f52_676b_8040_5f5c,
                    0x3e87_5851_4d9a_7c76,
                    0x3f70_bc9d_0e2b_dfa2,
                ],
            ),
            (
                "45nm",
                [
                    0x3f0a_5436_16e1_2dbe,
                    0x3f55_58a8_0f1c_2f1f,
                    0x3e85_77e2_f102_e21d,
                    0x3f6f_d7be_0ae6_3e58,
                ],
            ),
        ];
        let circuit = benchmarks::three_stage_tia();
        for (name, bits) in pins {
            let node = TechnologyNode::by_name(name).expect("paper node");
            let space = circuit.design_space(&node);
            let n = space.num_parameters();
            let mixed: Vec<f64> = (0..n)
                .map(|j| ((j * 37 + 11) % 100) as f64 / 99.0)
                .collect();
            let points = [
                space.nominal(),
                space.from_unit(&vec![0.0; n]),
                space.from_unit(&vec![1.0; n]),
                space.from_unit(&mixed),
            ];
            for (point, (params, expected)) in points.iter().zip(bits).enumerate() {
                let got = reference_at(&node, params).map(f64::to_bits);
                assert_eq!(got, Some(expected), "{name}, point {point}");
            }
        }
    }

    #[test]
    fn resistor_diode_reference_current_is_plausible() {
        let node = TechnologyNode::tsmc180();
        let sizing = MosSizing::new(20.0, 0.5, 1);
        let i = resistor_diode_reference(1.8, 20e3, sizing, &node.nmos).unwrap();
        // The current must be below vdd/r and above (vdd - vth - 0.5)/r.
        assert!(i < 1.8 / 20e3);
        assert!(i > (1.8 - node.nmos.vth0 - 0.5) / 20e3, "i = {i}");
    }

    #[test]
    fn degenerate_bias_resistors_fail_or_cut_the_current_off() {
        let node = TechnologyNode::tsmc180();
        let circuit = benchmarks::three_stage_tia();
        let t0 = mos_device(
            &circuit,
            &circuit.design_space(&node).nominal(),
            &node,
            "T0",
        );
        let reference = |r_bias| resistor_diode_reference(node.vdd, r_bias, t0.sizing, &node.nmos);
        // A NaN or zero resistor makes the first residual NaN; a negative one
        // never converges.
        for r_bias in [f64::NAN, 0.0, -1e3, -20e3] {
            assert_eq!(reference(r_bias), None, "R_B = {r_bias}");
        }
        // An open resistor carries no current.
        assert_eq!(reference(f64::INFINITY), Some(0.0));
    }

    proptest::proptest! {
        /// The solve never panics, and it returns a current only when that
        /// current satisfies the node's KCL equation to the solver
        /// tolerance; a NaN supply or resistor always gives `None`.
        #[test]
        fn reference_current_solves_the_node_or_is_none(
            vdd in -1.0f64..3.0,
            log_r in -1.0f64..8.0,
            negative_r in 0usize..4,
            nan_input in 0usize..8,
            w in 0.1f64..300.0,
            l in 0.03f64..5.0,
            m in 1usize..40,
            node in 0usize..5,
        ) {
            let node = &TechnologyNode::all()[node];
            let sign = if negative_r == 0 { -1.0 } else { 1.0 };
            let (vdd, r_bias) = match nan_input {
                0 => (f64::NAN, sign * 10f64.powf(log_r)),
                1 => (vdd, f64::NAN),
                _ => (vdd, sign * 10f64.powf(log_r)),
            };
            let sizing = MosSizing::new(w, l, m as u32);
            let current = resistor_diode_reference(vdd, r_bias, sizing, &node.nmos);
            if vdd.is_nan() || r_bias.is_nan() {
                proptest::prop_assert_eq!(current, None);
            }
            if let Some(i) = current {
                proptest::prop_assert!(i.is_finite() && i >= 0.0, "current {i}");
                if i > 0.0 {
                    let v = vdd - i * r_bias;
                    let device = MosDevice::new(sizing, &node.nmos);
                    let kcl = GMIN * v - i + device.id(v, v.max(0.0));
                    proptest::prop_assert!(kcl.abs() < 2e-9, "KCL residual {kcl} at {v} V");
                }
            }
        }
    }
}
