use crate::component::{ComponentId, ComponentKind, ComponentParams, MosSizing};
use crate::netlist::Circuit;
use crate::technology::TechnologyNode;
use serde::{Deserialize, Serialize};

/// How a parameter interpolates between its bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ParamScale {
    /// Linear interpolation — used for W, L and M.
    Linear,
    /// Logarithmic interpolation — used for resistance and capacitance values,
    /// which span several decades.
    Log,
}

/// Legal range, scale, grid and integrality of one sizable parameter.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ParamBounds {
    /// Lower bound (inclusive).
    pub lo: f64,
    /// Upper bound (inclusive).
    pub hi: f64,
    /// Interpolation scale between the bounds.
    pub scale: ParamScale,
    /// Manufacturing grid; values are rounded to an integer multiple of this.
    /// `None` means no grid restriction beyond the bounds.
    pub grid: Option<f64>,
    /// Whether the parameter is an integer (the MOS multiplier M).
    pub integer: bool,
}

impl ParamBounds {
    /// Maps a normalised action in `[-1, 1]` to a legal parameter value:
    /// clamping, scale mapping, grid rounding and integrality are applied in
    /// that order (the paper's "denormalise and refine" step 4).
    pub fn denormalize(&self, action: f64) -> f64 {
        let a = action.clamp(-1.0, 1.0);
        let unit = (a + 1.0) / 2.0;
        self.from_unit(unit)
    }

    /// Maps a unit value in `[0, 1]` to a legal parameter value.
    pub fn from_unit(&self, unit: f64) -> f64 {
        let u = unit.clamp(0.0, 1.0);
        let raw = match self.scale {
            ParamScale::Linear => self.lo + u * (self.hi - self.lo),
            ParamScale::Log => {
                let (llo, lhi) = (self.lo.ln(), self.hi.ln());
                (llo + u * (lhi - llo)).exp()
            }
        };
        self.refine(raw)
    }

    /// Maps a legal value back to a unit value in `[0, 1]`.
    pub fn to_unit(&self, value: f64) -> f64 {
        let v = value.clamp(self.lo, self.hi);
        match self.scale {
            ParamScale::Linear => (v - self.lo) / (self.hi - self.lo),
            ParamScale::Log => (v.ln() - self.lo.ln()) / (self.hi.ln() - self.lo.ln()),
        }
    }

    /// Clamps to the bounds, rounds to the grid, and enforces integrality.
    pub fn refine(&self, value: f64) -> f64 {
        let mut v = value.clamp(self.lo, self.hi);
        if let Some(grid) = self.grid {
            v = (v / grid).round() * grid;
            v = v.clamp(self.lo, self.hi);
        }
        if self.integer {
            v = v.round().max(self.lo.ceil());
        }
        v
    }

    /// Returns `true` if `value` lies within the bounds (after grid rounding
    /// it always will; this is used by tests and validation).
    pub fn contains(&self, value: f64) -> bool {
        value >= self.lo - 1e-12 && value <= self.hi + 1e-12
    }
}

/// A concrete sizing of every component of one circuit.
///
/// Produced by [`DesignSpace::denormalize`] (from RL actions) or
/// [`DesignSpace::from_unit`] (from flat optimiser vectors) and consumed by the
/// performance evaluators in `gcnrl-sim`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParamVector {
    params: Vec<ComponentParams>,
}

impl ParamVector {
    /// Creates a parameter vector from per-component parameters.
    pub fn new(params: Vec<ComponentParams>) -> Self {
        ParamVector { params }
    }

    /// Per-component parameters in component-id order.
    pub fn params(&self) -> &[ComponentParams] {
        &self.params
    }

    /// Parameters of one component.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range for the owning circuit.
    pub fn get(&self, id: ComponentId) -> &ComponentParams {
        &self.params[id.index()]
    }

    /// Number of components covered.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Returns `true` if the vector covers no components.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Flattens to a single `Vec<f64>` in component order
    /// (`[W, L, M]` per transistor, `[R]` / `[C]` per passive).
    pub fn to_flat(&self) -> Vec<f64> {
        self.params.iter().flat_map(|p| p.to_vec()).collect()
    }
}

/// The per-component search space of one circuit at one technology node.
///
/// # Examples
///
/// ```
/// use gcnrl_circuit::{benchmarks, TechnologyNode};
///
/// let circuit = benchmarks::two_stage_tia();
/// let node = TechnologyNode::tsmc180();
/// let space = circuit.design_space(&node);
///
/// // All-zero actions land exactly in the middle of every range.
/// let actions: Vec<Vec<f64>> = space.action_sizes().iter().map(|n| vec![0.0; *n]).collect();
/// let sized = space.denormalize(&actions);
/// assert_eq!(sized.len(), circuit.num_components());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignSpace {
    kinds: Vec<ComponentKind>,
    bounds: Vec<Vec<ParamBounds>>,
}

impl DesignSpace {
    /// Builds the search space for `circuit` under technology `node`.
    pub fn for_circuit(circuit: &Circuit, node: &TechnologyNode) -> Self {
        let kinds: Vec<ComponentKind> = circuit.components().iter().map(|c| c.kind).collect();
        let bounds = kinds
            .iter()
            .map(|k| Self::bounds_for_kind(*k, node))
            .collect();
        DesignSpace { kinds, bounds }
    }

    fn bounds_for_kind(kind: ComponentKind, node: &TechnologyNode) -> Vec<ParamBounds> {
        match kind {
            ComponentKind::Nmos | ComponentKind::Pmos => vec![
                // W in µm
                ParamBounds {
                    lo: node.w_min_um,
                    hi: node.w_max_um,
                    scale: ParamScale::Linear,
                    grid: Some(node.grid_um),
                    integer: false,
                },
                // L in µm
                ParamBounds {
                    lo: node.l_min_um,
                    hi: node.l_max_um,
                    scale: ParamScale::Linear,
                    grid: Some(node.grid_um),
                    integer: false,
                },
                // M
                ParamBounds {
                    lo: 1.0,
                    hi: f64::from(node.m_max),
                    scale: ParamScale::Linear,
                    grid: None,
                    integer: true,
                },
            ],
            ComponentKind::Resistor => vec![ParamBounds {
                lo: 50.0,
                hi: 5.0e6,
                scale: ParamScale::Log,
                grid: None,
                integer: false,
            }],
            ComponentKind::Capacitor => vec![ParamBounds {
                lo: 50e-15,
                hi: 50e-12,
                scale: ParamScale::Log,
                grid: None,
                integer: false,
            }],
        }
    }

    /// Number of components.
    pub fn num_components(&self) -> usize {
        self.kinds.len()
    }

    /// Total number of scalar parameters across all components.
    pub fn num_parameters(&self) -> usize {
        self.bounds.iter().map(|b| b.len()).sum()
    }

    /// Per-component action-vector sizes (3 for transistors, 1 for passives).
    pub fn action_sizes(&self) -> Vec<usize> {
        self.bounds.iter().map(|b| b.len()).collect()
    }

    /// Bounds of one component's parameters.
    ///
    /// # Panics
    ///
    /// Panics if `component` is out of range.
    pub fn bounds(&self, component: usize) -> &[ParamBounds] {
        &self.bounds[component]
    }

    /// Kind of one component.
    ///
    /// # Panics
    ///
    /// Panics if `component` is out of range.
    pub fn kind(&self, component: usize) -> ComponentKind {
        self.kinds[component]
    }

    /// Converts per-component normalised actions (each entry in `[-1, 1]`)
    /// into a concrete, legal [`ParamVector`].
    ///
    /// Extra action entries beyond a component's parameter count are ignored,
    /// which lets a fixed-width action head drive mixed component kinds.
    ///
    /// # Panics
    ///
    /// Panics if `actions.len()` differs from the number of components or an
    /// action vector is shorter than that component's parameter count.
    pub fn denormalize(&self, actions: &[Vec<f64>]) -> ParamVector {
        assert_eq!(
            actions.len(),
            self.num_components(),
            "one action vector per component is required"
        );
        let params = self
            .kinds
            .iter()
            .zip(&self.bounds)
            .zip(actions)
            .map(|((kind, bounds), action)| {
                assert!(
                    action.len() >= bounds.len(),
                    "action vector too short for component"
                );
                let vals: Vec<f64> = bounds
                    .iter()
                    .zip(action)
                    .map(|(b, a)| b.denormalize(*a))
                    .collect();
                Self::pack(*kind, &vals)
            })
            .collect();
        ParamVector::new(params)
    }

    /// Converts a flat unit vector (each entry in `[0, 1]`, length
    /// [`DesignSpace::num_parameters`]) into a legal [`ParamVector`].
    /// This is the interface the black-box baselines use.
    ///
    /// # Panics
    ///
    /// Panics if `unit.len() != self.num_parameters()`.
    pub fn from_unit(&self, unit: &[f64]) -> ParamVector {
        assert_eq!(
            unit.len(),
            self.num_parameters(),
            "unit vector length mismatch"
        );
        let mut offset = 0;
        let params = self
            .kinds
            .iter()
            .zip(&self.bounds)
            .map(|(kind, bounds)| {
                let vals: Vec<f64> = bounds
                    .iter()
                    .enumerate()
                    .map(|(i, b)| b.from_unit(unit[offset + i]))
                    .collect();
                offset += bounds.len();
                Self::pack(*kind, &vals)
            })
            .collect();
        ParamVector::new(params)
    }

    /// Converts a [`ParamVector`] back to the flat unit representation.
    pub fn to_unit(&self, pv: &ParamVector) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.num_parameters());
        for (bounds, params) in self.bounds.iter().zip(pv.params()) {
            for (b, v) in bounds.iter().zip(params.to_vec()) {
                out.push(b.to_unit(v));
            }
        }
        out
    }

    /// The mid-range sizing: every parameter at the middle of its range.
    pub fn nominal(&self) -> ParamVector {
        let actions: Vec<Vec<f64>> = self.bounds.iter().map(|b| vec![0.0; b.len()]).collect();
        self.denormalize(&actions)
    }

    /// Re-applies clamping, grid rounding and integrality to an existing
    /// parameter vector (used after matching-group harmonisation).
    pub fn refine(&self, pv: &ParamVector) -> ParamVector {
        let params = self
            .kinds
            .iter()
            .zip(&self.bounds)
            .zip(pv.params())
            .map(|((kind, bounds), p)| {
                let vals: Vec<f64> = bounds
                    .iter()
                    .zip(p.to_vec())
                    .map(|(b, v)| b.refine(v))
                    .collect();
                Self::pack(*kind, &vals)
            })
            .collect();
        ParamVector::new(params)
    }

    fn pack(kind: ComponentKind, vals: &[f64]) -> ComponentParams {
        match kind {
            ComponentKind::Nmos | ComponentKind::Pmos => ComponentParams::Mos(MosSizing::new(
                vals[0],
                vals[1],
                vals[2].round().max(1.0) as u32,
            )),
            ComponentKind::Resistor => ComponentParams::Resistance(vals[0]),
            ComponentKind::Capacitor => ComponentParams::Capacitance(vals[0]),
        }
    }

    /// Checks that every parameter of `pv` lies within its bounds.
    pub fn validate(&self, pv: &ParamVector) -> bool {
        self.bounds
            .iter()
            .zip(pv.params())
            .all(|(bounds, p)| bounds.iter().zip(p.to_vec()).all(|(b, v)| b.contains(v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks;
    use crate::technology::TechnologyNode;

    fn space() -> (DesignSpace, usize) {
        let c = benchmarks::two_stage_tia();
        let node = TechnologyNode::tsmc180();
        let n = c.num_components();
        (c.design_space(&node), n)
    }

    #[test]
    fn linear_denormalize_hits_bounds_and_midpoint() {
        let b = ParamBounds {
            lo: 1.0,
            hi: 3.0,
            scale: ParamScale::Linear,
            grid: None,
            integer: false,
        };
        assert_eq!(b.denormalize(-1.0), 1.0);
        assert_eq!(b.denormalize(1.0), 3.0);
        assert_eq!(b.denormalize(0.0), 2.0);
        // Out-of-range actions clamp.
        assert_eq!(b.denormalize(5.0), 3.0);
    }

    #[test]
    fn log_denormalize_is_geometric() {
        let b = ParamBounds {
            lo: 1.0,
            hi: 100.0,
            scale: ParamScale::Log,
            grid: None,
            integer: false,
        };
        assert!((b.denormalize(0.0) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn grid_rounding_and_integer() {
        let b = ParamBounds {
            lo: 0.18,
            hi: 2.0,
            scale: ParamScale::Linear,
            grid: Some(0.005),
            integer: false,
        };
        let v = b.refine(0.7512);
        assert!((v / 0.005 - (v / 0.005).round()).abs() < 1e-9);

        let m = ParamBounds {
            lo: 1.0,
            hi: 32.0,
            scale: ParamScale::Linear,
            grid: None,
            integer: true,
        };
        assert_eq!(m.refine(3.7), 4.0);
        assert_eq!(m.refine(0.2), 1.0);
    }

    #[test]
    fn unit_round_trip_stays_close() {
        let b = ParamBounds {
            lo: 50.0,
            hi: 5e6,
            scale: ParamScale::Log,
            grid: None,
            integer: false,
        };
        let v = b.from_unit(0.3);
        let u = b.to_unit(v);
        assert!((u - 0.3).abs() < 1e-9);
    }

    #[test]
    fn design_space_shapes_match_circuit() {
        let (space, n) = space();
        assert_eq!(space.num_components(), n);
        assert_eq!(
            space.num_parameters(),
            space.action_sizes().iter().sum::<usize>()
        );
    }

    #[test]
    fn denormalize_respects_bounds_for_extreme_actions() {
        let (space, _) = space();
        for extreme in [-1.0, 1.0, -3.0, 3.0] {
            let actions: Vec<Vec<f64>> = space
                .action_sizes()
                .iter()
                .map(|n| vec![extreme; *n])
                .collect();
            let pv = space.denormalize(&actions);
            assert!(space.validate(&pv));
        }
    }

    #[test]
    fn from_unit_and_to_unit_round_trip() {
        let (space, _) = space();
        let unit: Vec<f64> = (0..space.num_parameters())
            .map(|i| (i as f64 * 0.37).fract())
            .collect();
        let pv = space.from_unit(&unit);
        assert!(space.validate(&pv));
        let back = space.to_unit(&pv);
        assert_eq!(back.len(), unit.len());
        // M rounding and grid snapping may move values slightly; all must stay in [0,1].
        assert!(back.iter().all(|u| (0.0..=1.0).contains(u)));
    }

    #[test]
    fn nominal_is_valid_and_refine_is_idempotent() {
        let (space, _) = space();
        let nom = space.nominal();
        assert!(space.validate(&nom));
        let refined = space.refine(&nom);
        assert_eq!(refined, space.refine(&refined));
    }
}
