//! Newton–Raphson DC operating-point solver for nonlinear resistive networks.
//!
//! The evaluators use this for bias cells whose operating point is not a
//! simple mirror ratio — e.g. the resistor-biased diode reference of the
//! three-stage TIA, where the reference current solves
//! `VDD = I·R_B + V_GS(I)` — and it is exercised independently by the test
//! suite on textbook circuits.
//!
//! Elements are resistors, independent current sources, grounded voltage
//! sources and square-law MOSFETs (either polarity).  The solver iterates
//! Newton steps with voltage-step damping and a `gmin` shunt for robustness.
//! Each step restamps one reused dense Jacobian and factors it with
//! partial-pivoting LU: the bias networks solved here have a node or a few,
//! far below the size where sparse bookkeeping pays.

use crate::mosfet::MosDevice;
use crate::solver_stats;
use crate::SimError;
use gcnrl_circuit::{MosModelParams, MosPolarity, MosSizing};
use gcnrl_linalg::{LuDecomposition, Matrix};

/// Node index of a DC circuit; [`DC_GROUND`] is the reference node.
pub type DcNode = usize;

/// The ground / reference node.
pub const DC_GROUND: DcNode = usize::MAX;

/// One element of a DC circuit.
#[derive(Debug, Clone, PartialEq)]
pub enum DcElement {
    /// Linear resistor between `a` and `b`.
    Resistor {
        /// First terminal.
        a: DcNode,
        /// Second terminal.
        b: DcNode,
        /// Resistance in ohms.
        r: f64,
    },
    /// Independent current source pushing `i` amps from `a` into `b`.
    CurrentSource {
        /// Node the current is drawn from.
        a: DcNode,
        /// Node the current is injected into.
        b: DcNode,
        /// Current in amps.
        i: f64,
    },
    /// Ideal voltage source holding `node` at `v` volts relative to ground.
    VoltageSource {
        /// The driven node.
        node: DcNode,
        /// Voltage in volts.
        v: f64,
    },
    /// A square-law MOSFET.
    Mosfet {
        /// Drain node.
        drain: DcNode,
        /// Gate node.
        gate: DcNode,
        /// Source node.
        source: DcNode,
        /// Device polarity.
        polarity: MosPolarity,
        /// Sizing.
        sizing: MosSizing,
        /// Model parameters (must match the polarity).
        model: MosModelParams,
    },
}

/// A DC circuit plus solver configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DcCircuit {
    num_nodes: usize,
    elements: Vec<DcElement>,
    max_iterations: usize,
    tolerance: f64,
}

const GMIN: f64 = 1e-9;
const MAX_STEP_V: f64 = 0.3;

impl DcCircuit {
    /// Creates an empty DC circuit with `num_nodes` non-ground nodes.
    pub fn new(num_nodes: usize) -> Self {
        DcCircuit {
            num_nodes,
            elements: Vec::new(),
            max_iterations: 200,
            tolerance: 1e-9,
        }
    }

    /// Adds an element.
    pub fn add(&mut self, element: DcElement) {
        self.elements.push(element);
    }

    /// Number of non-ground nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn voltage(v: &[f64], node: DcNode) -> f64 {
        if node == DC_GROUND {
            0.0
        } else {
            v[node]
        }
    }

    /// MOSFET drain current and conductances at the given terminal voltages,
    /// expressed for the NMOS convention; PMOS is handled by mirroring.
    fn mos_eval(
        polarity: MosPolarity,
        sizing: MosSizing,
        model: &MosModelParams,
        vd: f64,
        vg: f64,
        vs: f64,
    ) -> (f64, f64, f64) {
        // Returns (id_into_drain, gm, gds) in the sign convention of the
        // actual node voltages (PMOS current flows source -> drain).
        let dev = MosDevice::new(sizing, model);
        let (vgs, vds, sign) = match polarity {
            MosPolarity::Nmos => (vg - vs, vd - vs, 1.0),
            MosPolarity::Pmos => (vs - vg, vs - vd, -1.0),
        };
        let vds_pos = vds.max(0.0);
        let id = dev.id(vgs, vds_pos);
        // Finite-difference small-signal parameters keep the Jacobian
        // consistent with the current equation in all regions.
        let dv = 1e-6;
        let gm = (dev.id(vgs + dv, vds_pos) - id) / dv;
        let gds = (dev.id(vgs, vds_pos + dv) - id) / dv;
        (sign * id, gm.max(0.0), gds.max(0.0))
    }

    /// Assembles the Jacobian and residual at the candidate solution `v` into
    /// the reused buffers (no per-iteration allocation).
    fn assemble_into(&self, v: &[f64], jac: &mut Matrix, res: &mut [f64]) {
        jac.as_mut_slice().fill(0.0);
        res.fill(0.0);

        for (i, r) in res.iter_mut().enumerate() {
            jac[(i, i)] += GMIN;
            *r += GMIN * v[i];
        }

        let stamp_g = |jac: &mut Matrix, res: &mut [f64], a: DcNode, b: DcNode, g: f64| {
            let va = Self::voltage(v, a);
            let vb = Self::voltage(v, b);
            let i_ab = g * (va - vb);
            if a != DC_GROUND {
                res[a] += i_ab;
                jac[(a, a)] += g;
                if b != DC_GROUND {
                    jac[(a, b)] -= g;
                }
            }
            if b != DC_GROUND {
                res[b] -= i_ab;
                jac[(b, b)] += g;
                if a != DC_GROUND {
                    jac[(b, a)] -= g;
                }
            }
        };

        for e in &self.elements {
            match e {
                DcElement::Resistor { a, b, r } => {
                    stamp_g(jac, res, *a, *b, 1.0 / r);
                }
                DcElement::CurrentSource { a, b, i } => {
                    if *a != DC_GROUND {
                        res[*a] += *i;
                    }
                    if *b != DC_GROUND {
                        res[*b] -= *i;
                    }
                }
                DcElement::VoltageSource { .. } => {
                    // Handled after assembly by row substitution.
                }
                DcElement::Mosfet {
                    drain,
                    gate,
                    source,
                    polarity,
                    sizing,
                    model,
                } => {
                    let vd = Self::voltage(v, *drain);
                    let vg = Self::voltage(v, *gate);
                    let vs = Self::voltage(v, *source);
                    let (id, gm, gds) = Self::mos_eval(*polarity, *sizing, model, vd, vg, vs);
                    // Current `id` flows INTO the drain terminal and OUT of the
                    // source terminal (sign already reflects polarity).
                    if *drain != DC_GROUND {
                        res[*drain] += id;
                    }
                    if *source != DC_GROUND {
                        res[*source] -= id;
                    }
                    // Jacobian entries: d(id)/d(vg), d(id)/d(vd), d(id)/d(vs).
                    // The chain rule through the polarity mirroring makes the
                    // signed derivatives identical for NMOS and PMOS:
                    //   d(id_signed)/dVg = +gm, d/dVd = +gds, d/dVs = -(gm+gds).
                    let entries = [(*gate, gm), (*drain, gds), (*source, -(gm + gds))];
                    for (col, dval) in entries {
                        if *drain != DC_GROUND && col != DC_GROUND {
                            jac[(*drain, col)] += dval;
                        }
                        if *source != DC_GROUND && col != DC_GROUND {
                            jac[(*source, col)] -= dval;
                        }
                    }
                }
            }
        }

        // Voltage sources: replace the KCL row of the driven node by v_node = v.
        for e in &self.elements {
            if let DcElement::VoltageSource { node, v: vsrc } = e {
                if *node != DC_GROUND {
                    jac.row_mut(*node).fill(0.0);
                    jac[(*node, *node)] += 1.0;
                    res[*node] = v[*node] - vsrc;
                }
            }
        }
    }

    /// Solves for the node voltages.
    ///
    /// Every Newton iteration restamps the same `n x n` Jacobian buffer and
    /// factors it afresh — no per-iteration allocation of the matrix.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DcNoConvergence`] if the residual does not fall
    /// below tolerance within the iteration budget or turns NaN, or
    /// [`SimError::SingularSystem`] if the Jacobian becomes singular.
    pub fn solve(&self, initial: Option<Vec<f64>>) -> Result<Vec<f64>, SimError> {
        let n = self.num_nodes;
        let mut v = initial.unwrap_or_else(|| vec![0.0; n]);
        assert_eq!(v.len(), n, "initial guess length mismatch");

        let singular = |_| SimError::SingularSystem { frequency_hz: 0.0 };
        let mut jac = Matrix::zeros(n, n);
        let mut res = vec![0.0; n];
        for iteration in 0..self.max_iterations {
            self.assemble_into(&v, &mut jac, &mut res);
            let residual = residual_norm(&res);
            if residual.is_nan() {
                return Err(SimError::DcNoConvergence {
                    iterations: iteration,
                    residual,
                });
            }
            if residual < self.tolerance {
                return Ok(v);
            }
            solver_stats::record_dense_factor();
            solver_stats::record_dense_solve();
            let delta = LuDecomposition::new(&jac)
                .map_err(singular)?
                .solve(&res)
                .map_err(singular)?;
            for i in 0..n {
                let step = delta[i].clamp(-MAX_STEP_V, MAX_STEP_V);
                v[i] -= step;
            }
        }
        // One last check in case the final update converged.
        self.assemble_into(&v, &mut jac, &mut res);
        let residual = residual_norm(&res);
        if residual < self.tolerance {
            Ok(v)
        } else {
            Err(SimError::DcNoConvergence {
                iterations: self.max_iterations,
                residual,
            })
        }
    }
}

/// The largest `|r|` in `res`, or NaN if any entry is NaN (`f64::max`
/// alone skips a NaN, which would then read as converged).
fn residual_norm(res: &[f64]) -> f64 {
    if res.iter().any(|r| r.is_nan()) {
        return f64::NAN;
    }
    res.iter().map(|r| r.abs()).fold(0.0, f64::max)
}

/// Solves the classic resistor-biased diode reference: a resistor `r_bias`
/// from `vdd` to the drain/gate of a diode-connected NMOS.  Returns the
/// reference current in amps.
///
/// # Errors
///
/// Propagates solver errors; falls back to `vdd / r_bias` only through `Err`.
pub fn resistor_diode_reference(
    vdd: f64,
    r_bias: f64,
    sizing: MosSizing,
    model: &MosModelParams,
) -> Result<f64, SimError> {
    // The resistor from VDD to the diode is modelled by its Norton
    // equivalent (current source vdd/r in parallel with r to ground), which
    // keeps the network single-node.
    let mut ckt = DcCircuit::new(1);
    ckt.add(DcElement::CurrentSource {
        a: DC_GROUND,
        b: 0,
        i: vdd / r_bias,
    });
    ckt.add(DcElement::Resistor {
        a: 0,
        b: DC_GROUND,
        r: r_bias,
    });
    ckt.add(DcElement::Mosfet {
        drain: 0,
        gate: 0,
        source: DC_GROUND,
        polarity: MosPolarity::Nmos,
        sizing,
        model: *model,
    });
    let v = ckt.solve(Some(vec![model.vth0 + 0.2]))?;
    let i = (vdd - v[0]) / r_bias;
    Ok(i.max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnrl_circuit::TechnologyNode;

    #[test]
    fn resistor_divider_dc() {
        // 1 V source, two equal resistors: middle node at 0.5 V.
        let mut ckt = DcCircuit::new(2);
        ckt.add(DcElement::VoltageSource { node: 0, v: 1.0 });
        ckt.add(DcElement::Resistor { a: 0, b: 1, r: 1e3 });
        ckt.add(DcElement::Resistor {
            a: 1,
            b: DC_GROUND,
            r: 1e3,
        });
        let v = ckt.solve(None).unwrap();
        assert!((v[0] - 1.0).abs() < 1e-6);
        assert!((v[1] - 0.5).abs() < 1e-4);
    }

    #[test]
    fn current_source_into_resistor() {
        let mut ckt = DcCircuit::new(1);
        ckt.add(DcElement::CurrentSource {
            a: DC_GROUND,
            b: 0,
            i: 1e-3,
        });
        ckt.add(DcElement::Resistor {
            a: 0,
            b: DC_GROUND,
            r: 2e3,
        });
        let v = ckt.solve(None).unwrap();
        assert!((v[0] - 2.0).abs() < 1e-3);
    }

    #[test]
    fn diode_connected_mosfet_bias() {
        // Push 100 µA into a diode-connected NMOS and check V_GS = Vth + Vov.
        let node = TechnologyNode::tsmc180();
        let sizing = MosSizing::new(10.0, 0.18, 1);
        let mut ckt = DcCircuit::new(1);
        ckt.add(DcElement::CurrentSource {
            a: DC_GROUND,
            b: 0,
            i: 100e-6,
        });
        ckt.add(DcElement::Mosfet {
            drain: 0,
            gate: 0,
            source: DC_GROUND,
            polarity: MosPolarity::Nmos,
            sizing,
            model: node.nmos,
        });
        let v = ckt.solve(Some(vec![0.6])).unwrap();
        let dev = MosDevice::new(sizing, &node.nmos);
        let expected_vov = dev.vov_for_current(100e-6);
        // CLM makes the exact overdrive slightly smaller than the ideal value.
        assert!(
            (v[0] - (node.nmos.vth0 + expected_vov)).abs() < 0.05,
            "vgs {} vs {}",
            v[0],
            node.nmos.vth0 + expected_vov
        );
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
    fn pmos_common_source_pulls_node_up() {
        // PMOS with source at VDD and gate low conducts and pulls its drain
        // (loaded by a resistor to ground) towards VDD.
        let node = TechnologyNode::tsmc180();
        let mut ckt = DcCircuit::new(3);
        ckt.add(DcElement::VoltageSource { node: 0, v: 1.8 }); // vdd
        ckt.add(DcElement::VoltageSource { node: 1, v: 0.8 }); // gate
        ckt.add(DcElement::Mosfet {
            drain: 2,
            gate: 1,
            source: 0,
            polarity: MosPolarity::Pmos,
            sizing: MosSizing::new(20.0, 0.18, 1),
            model: node.pmos,
        });
        ckt.add(DcElement::Resistor {
            a: 2,
            b: DC_GROUND,
            r: 10e3,
        });
        let v = ckt.solve(Some(vec![1.8, 0.8, 0.9])).unwrap();
        assert!(v[2] > 0.5, "drain voltage {}", v[2]);
        assert!(v[2] <= 1.8 + 1e-6);
    }

    #[test]
    fn resistor_ladder_matches_analytic_solution() {
        // 8-node ladder: 1 V source through equal resistors to ground; with
        // the source node pinned the interior nodes divide linearly.
        let n = 8;
        let mut ckt = DcCircuit::new(n);
        ckt.add(DcElement::VoltageSource { node: 0, v: 1.0 });
        for i in 0..n {
            let next = if i + 1 < n { i + 1 } else { DC_GROUND };
            ckt.add(DcElement::Resistor {
                a: i,
                b: next,
                r: 1e3,
            });
        }
        let v = ckt.solve(None).unwrap();
        for (i, vi) in v.iter().enumerate() {
            let expected = 1.0 - i as f64 / n as f64;
            assert!((vi - expected).abs() < 1e-4, "node {i}: {vi} vs {expected}");
        }
    }

    #[test]
    fn non_convergence_is_reported() {
        let source_into = |r: f64| {
            let mut ckt = DcCircuit::new(1);
            ckt.add(DcElement::CurrentSource {
                a: DC_GROUND,
                b: 0,
                i: 1e-3,
            });
            ckt.add(DcElement::Resistor {
                a: 0,
                b: DC_GROUND,
                r,
            });
            ckt
        };
        // A zero tolerance can never be met: the budget runs out, and the
        // error reports the residual after the final step.
        let mut strict = source_into(1e3);
        strict.tolerance = 0.0;
        assert!(matches!(
            strict.solve(None),
            Err(SimError::DcNoConvergence { iterations, residual })
                if iterations == strict.max_iterations && residual.is_finite()
        ));
        // A NaN residual is never convergence, whatever the tolerance.
        assert!(matches!(
            source_into(f64::NAN).solve(None),
            Err(SimError::DcNoConvergence { residual, .. }) if residual.is_nan()
        ));
        let node = TechnologyNode::tsmc180();
        let sizing = MosSizing::new(20.0, 0.5, 1);
        assert!(matches!(
            resistor_diode_reference(1.8, f64::NAN, sizing, &node.nmos),
            Err(SimError::DcNoConvergence { .. })
        ));
    }
}
