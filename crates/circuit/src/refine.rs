use crate::component::{ComponentId, ComponentParams, MosSizing};
use crate::design_space::{DesignSpace, ParamVector};
use crate::netlist::Circuit;
use serde::{Deserialize, Serialize};

/// A set of components that must remain identically sized.
///
/// Analog circuits rely on matched devices — differential pairs, current
/// mirror legs, ratioed output stages.  The paper refines the raw agent
/// actions "to guarantee the transistor matching"; a `MatchingGroup` is the
/// declarative form of that constraint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatchingGroup {
    /// Human-readable label, e.g. `"input_pair"`.
    pub label: String,
    /// Component ids constrained to identical parameters.
    pub members: Vec<ComponentId>,
}

/// Applies the refinement step of the sizing loop: matching-group
/// harmonisation followed by re-clamping/rounding through the design space.
///
/// # Examples
///
/// ```
/// use gcnrl_circuit::{benchmarks, Refiner, TechnologyNode};
///
/// let circuit = benchmarks::two_stage_tia();
/// let node = TechnologyNode::tsmc180();
/// let space = circuit.design_space(&node);
/// let refiner = Refiner::new(&circuit);
///
/// let sized = space.nominal();
/// let refined = refiner.refine(&space, &sized);
/// // Refinement is idempotent.
/// assert_eq!(refined, refiner.refine(&space, &refined));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Refiner {
    groups: Vec<MatchingGroup>,
}

impl Refiner {
    /// Creates a refiner from the circuit's declared matching groups.
    pub fn new(circuit: &Circuit) -> Self {
        Refiner {
            groups: circuit.matching_groups().to_vec(),
        }
    }

    /// The matching groups this refiner enforces.
    pub fn groups(&self) -> &[MatchingGroup] {
        &self.groups
    }

    /// Harmonises every matching group (members take the element-wise mean of
    /// the group) and re-applies bounds/grid rounding.
    pub fn refine(&self, space: &DesignSpace, pv: &ParamVector) -> ParamVector {
        let mut params: Vec<ComponentParams> = pv.params().to_vec();
        for group in &self.groups {
            if group.members.len() < 2 {
                continue;
            }
            let member_vals: Vec<Vec<f64>> = group
                .members
                .iter()
                .map(|id| params[id.index()].to_vec())
                .collect();
            let dims = member_vals[0].len();
            let mean: Vec<f64> = (0..dims)
                .map(|d| member_vals.iter().map(|v| v[d]).sum::<f64>() / member_vals.len() as f64)
                .collect();
            for id in &group.members {
                params[id.index()] = match params[id.index()] {
                    ComponentParams::Mos(_) => ComponentParams::Mos(MosSizing::new(
                        mean[0],
                        mean[1],
                        mean[2].round().max(1.0) as u32,
                    )),
                    ComponentParams::Resistance(_) => ComponentParams::Resistance(mean[0]),
                    ComponentParams::Capacitance(_) => ComponentParams::Capacitance(mean[0]),
                };
            }
        }
        space.refine(&ParamVector::new(params))
    }

    /// Returns `true` if every matching group of `pv` is already harmonised.
    pub fn is_matched(&self, pv: &ParamVector) -> bool {
        self.groups.iter().all(|group| {
            let mut iter = group.members.iter();
            let first = match iter.next() {
                Some(id) => pv.params()[id.index()].to_vec(),
                None => return true,
            };
            iter.all(|id| {
                pv.params()[id.index()]
                    .to_vec()
                    .iter()
                    .zip(&first)
                    .all(|(a, b)| (a - b).abs() < 1e-12)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks;
    use crate::technology::TechnologyNode;

    #[test]
    fn groups_are_harmonised() {
        let circuit = benchmarks::two_stage_tia();
        let node = TechnologyNode::tsmc180();
        let space = circuit.design_space(&node);
        let refiner = Refiner::new(&circuit);
        assert!(
            !refiner.groups().is_empty(),
            "benchmark must declare matching"
        );

        // Start from deliberately mismatched actions.
        let actions: Vec<Vec<f64>> = (0..circuit.num_components())
            .map(|i| vec![if i % 2 == 0 { -0.8 } else { 0.8 }; 3])
            .collect();
        let pv = space.denormalize(&actions);
        let refined = refiner.refine(&space, &pv);
        assert!(refiner.is_matched(&refined));
        assert!(space.validate(&refined));
    }

    #[test]
    fn refine_is_idempotent() {
        let circuit = benchmarks::three_stage_tia();
        let node = TechnologyNode::n65();
        let space = circuit.design_space(&node);
        let refiner = Refiner::new(&circuit);
        let pv = space.nominal();
        let once = refiner.refine(&space, &pv);
        let twice = refiner.refine(&space, &once);
        assert_eq!(once, twice);
    }

    #[test]
    fn empty_groups_pass_through() {
        let circuit = benchmarks::two_stage_tia();
        let node = TechnologyNode::tsmc180();
        let space = circuit.design_space(&node);
        let refiner = Refiner { groups: vec![] };
        let pv = space.nominal();
        assert_eq!(refiner.refine(&space, &pv), space.refine(&pv));
        assert!(refiner.is_matched(&pv));
    }
}
