//! The sizing environment: state, actions, refinement, simulation, reward.

use crate::fom::FomConfig;
use crate::state::{state_matrix, StateEncoding};
use gcnrl_circuit::{
    benchmarks::Benchmark, Circuit, DesignSpace, ParamVector, Refiner, TechnologyNode,
};
use gcnrl_exec::{BatchEvaluator, EngineConfig, EvalBackend, ExecStats};
use gcnrl_linalg::Matrix;
use gcnrl_rl::RolloutBatch;
use gcnrl_sim::evaluators::{evaluator_for, Evaluator};
use gcnrl_sim::PerformanceReport;
use rand::Rng;

/// The result of evaluating one candidate design.
#[derive(Debug, Clone, PartialEq)]
pub struct StepOutcome {
    /// The refined, legal sizing that was simulated.
    pub params: ParamVector,
    /// The simulated performance metrics.
    pub report: PerformanceReport,
    /// The figure of merit (the RL reward).
    pub fom: f64,
}

/// One optimisation environment: a benchmark circuit in a technology node
/// with a FoM definition (paper Fig. 2, steps 1-2 and 4-6).
///
/// All simulation goes through an [`EvalBackend`] from `gcnrl-exec` — a
/// privately owned [`BatchEvaluator`] (the classic setup) or a
/// [`SessionHandle`](gcnrl_exec::SessionHandle) of a shared
/// [`EvalService`](gcnrl_exec::EvalService), where many environments
/// multiplex onto one engine + cache. Either way, repeated candidates are
/// served from the content-addressed cache and
/// [`SizingEnv::evaluate_batch`] fans candidates across the engine's worker
/// pool; results are bit-identical for every backend.
pub struct SizingEnv {
    benchmark: Benchmark,
    circuit: Circuit,
    node: TechnologyNode,
    space: DesignSpace,
    refiner: Refiner,
    engine: Box<dyn EvalBackend>,
    fom: FomConfig,
    encoding: StateEncoding,
    adjacency: Matrix,
    states: Matrix,
}

impl SizingEnv {
    /// Creates the environment with the default (transfer-friendly) scalar
    /// index state encoding. The evaluation engine is configured from the
    /// environment ([`EngineConfig::from_env`]: `GCNRL_THREADS`,
    /// `GCNRL_CACHE_CAP`).
    pub fn new(benchmark: Benchmark, node: &TechnologyNode, fom: FomConfig) -> Self {
        Self::with_encoding(benchmark, node, fom, StateEncoding::ScalarIndex)
    }

    /// Creates the environment with an explicit state encoding.
    pub fn with_encoding(
        benchmark: Benchmark,
        node: &TechnologyNode,
        fom: FomConfig,
        encoding: StateEncoding,
    ) -> Self {
        Self::with_engine_config(benchmark, node, fom, encoding, EngineConfig::from_env())
    }

    /// Creates the environment with an explicit evaluation-engine
    /// configuration (thread count, cache capacity).
    pub fn with_engine_config(
        benchmark: Benchmark,
        node: &TechnologyNode,
        fom: FomConfig,
        encoding: StateEncoding,
        engine_config: EngineConfig,
    ) -> Self {
        Self::with_custom_evaluator(
            benchmark,
            node,
            fom,
            encoding,
            engine_config,
            evaluator_for(benchmark, node),
        )
    }

    /// Creates the environment around a caller-supplied evaluator (e.g. an
    /// instrumented or latency-injecting wrapper in benchmarks). The
    /// evaluator must model the benchmark/technology pair it is registered
    /// under: the engine's cache keys hold only the parameters, so the
    /// engine's one evaluator is what ties its cached reports to that pair.
    pub fn with_custom_evaluator(
        benchmark: Benchmark,
        node: &TechnologyNode,
        fom: FomConfig,
        encoding: StateEncoding,
        engine_config: EngineConfig,
        evaluator: Box<dyn Evaluator>,
    ) -> Self {
        Self::with_backend(
            benchmark,
            node,
            fom,
            encoding,
            Box::new(BatchEvaluator::new(evaluator, engine_config)),
        )
    }

    /// Creates the environment over an existing evaluation backend: an owned
    /// engine, or a [`SessionHandle`](gcnrl_exec::SessionHandle) so this
    /// environment shares an [`EvalService`](gcnrl_exec::EvalService)'s
    /// engine + cache with other concurrent sessions. The backend must model
    /// the same benchmark/technology pair as the environment.
    pub fn with_backend(
        benchmark: Benchmark,
        node: &TechnologyNode,
        fom: FomConfig,
        encoding: StateEncoding,
        backend: Box<dyn EvalBackend>,
    ) -> Self {
        assert_eq!(
            backend.benchmark(),
            benchmark,
            "evaluation backend models a different benchmark"
        );
        let circuit = benchmark.circuit();
        let space = circuit.design_space(node);
        let refiner = Refiner::new(&circuit);
        let adjacency = circuit.topology_graph().normalized_adjacency();
        let states = state_matrix(&circuit, node, encoding);
        SizingEnv {
            benchmark,
            circuit,
            node: node.clone(),
            space,
            refiner,
            engine: backend,
            fom,
            encoding,
            adjacency,
            states,
        }
    }

    /// The benchmark being sized.
    pub fn benchmark(&self) -> Benchmark {
        self.benchmark
    }

    /// The circuit netlist.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The technology node.
    pub fn technology(&self) -> &TechnologyNode {
        &self.node
    }

    /// The design space.
    pub fn design_space(&self) -> &DesignSpace {
        &self.space
    }

    /// The state encoding in use.
    pub fn encoding(&self) -> StateEncoding {
        self.encoding
    }

    /// Number of components (graph vertices / action rows).
    pub fn num_components(&self) -> usize {
        self.circuit.num_components()
    }

    /// Per-component one-hot type indices (0..=3), used by the per-type
    /// encoder/decoder layers of the agent.
    pub fn component_types(&self) -> Vec<usize> {
        self.circuit
            .components()
            .iter()
            .map(|c| c.kind.type_index())
            .collect()
    }

    /// The `n x d` state matrix (constant within one environment).
    pub fn states(&self) -> &Matrix {
        &self.states
    }

    /// The normalised adjacency `D̃^-1/2 (A+I) D̃^-1/2` of the topology graph.
    pub fn adjacency(&self) -> &Matrix {
        &self.adjacency
    }

    /// Width of the per-component action vector (3: W, L, M; passives use the
    /// first entry only).
    pub fn action_dim(&self) -> usize {
        3
    }

    /// Converts an `n x 3` action matrix (entries in `[-1, 1]`) into a legal
    /// sizing: denormalisation, matching-group refinement, grid rounding.
    pub fn actions_to_params(&self, actions: &Matrix) -> ParamVector {
        assert_eq!(
            actions.rows(),
            self.num_components(),
            "one action row per component"
        );
        let per_component: Vec<Vec<f64>> = (0..actions.rows())
            .map(|r| actions.row(r).to_vec())
            .collect();
        let raw = self.space.denormalize(&per_component);
        self.refiner.refine(&self.space, &raw)
    }

    /// Evaluates an `n x 3` action matrix: refine, simulate, score.
    ///
    /// Thin wrapper over [`SizingEnv::evaluate_actions_batch`] with a batch
    /// of one; every singular entry point shares the batched code path.
    pub fn evaluate_actions(&self, actions: &Matrix) -> StepOutcome {
        self.evaluate_actions_batch(std::slice::from_ref(actions))
            .pop()
            .expect("batch of one yields one outcome")
    }

    /// Evaluates an already-legal sizing (cache-aware; thin wrapper over
    /// [`SizingEnv::evaluate_batch`] with a batch of one).
    pub fn evaluate_params(&self, params: ParamVector) -> StepOutcome {
        self.evaluate_batch(vec![params])
            .pop()
            .expect("batch of one yields one outcome")
    }

    /// Evaluates a batch of already-legal sizings through the evaluation
    /// engine, in parallel when the engine has more than one worker thread.
    ///
    /// Outcomes are returned in input order, and every outcome is
    /// bit-identical to what the corresponding [`SizingEnv::evaluate_params`]
    /// call would produce (evaluators are pure, so thread count and cache
    /// state are unobservable in the results).
    pub fn evaluate_batch(&self, params: Vec<ParamVector>) -> Vec<StepOutcome> {
        let reports = self.engine.evaluate_batch(&params);
        params
            .into_iter()
            .zip(reports)
            .map(|(params, report)| {
                let fom = self.fom.fom(&report);
                StepOutcome {
                    params,
                    report,
                    fom,
                }
            })
            .collect()
    }

    /// Evaluates a batch of `n x 3` action matrices (refine + batched
    /// simulate + score).
    pub fn evaluate_actions_batch(&self, actions: &[Matrix]) -> Vec<StepOutcome> {
        let params = actions.iter().map(|a| self.actions_to_params(a)).collect();
        self.evaluate_batch(params)
    }

    /// Evaluates a flat unit vector in `[0, 1]^num_parameters`; this is the
    /// interface the black-box baselines use (thin wrapper over
    /// [`SizingEnv::evaluate_units`] with a batch of one).
    pub fn evaluate_unit(&self, unit: &[f64]) -> StepOutcome {
        self.evaluate_units(std::slice::from_ref(&unit.to_vec()))
            .pop()
            .expect("batch of one yields one outcome")
    }

    /// Evaluates a batch of flat unit vectors through the evaluation engine
    /// (the batched counterpart of [`SizingEnv::evaluate_unit`]).
    pub fn evaluate_units(&self, units: &[Vec<f64>]) -> Vec<StepOutcome> {
        let params = units
            .iter()
            .map(|unit| {
                let raw = self.space.from_unit(unit);
                self.refiner.refine(&self.space, &raw)
            })
            .collect();
        self.evaluate_batch(params)
    }

    /// Evaluates a batch of action matrices and packages them as a
    /// [`RolloutBatch`] (reward = FoM):
    /// the unit the batched exploration pipeline and the replay buffer
    /// consume.
    pub fn rollout_actions(&self, actions: Vec<Matrix>) -> RolloutBatch<Matrix, StepOutcome> {
        let outcomes = self.evaluate_actions_batch(&actions);
        actions
            .into_iter()
            .zip(outcomes)
            .map(|(action, outcome)| {
                let fom = outcome.fom;
                (action, outcome, fom)
            })
            .collect()
    }

    /// Evaluates a batch of flat unit vectors and packages them as a
    /// [`RolloutBatch`] — the population-scoring path shared by the ES /
    /// Random / BO / MACE baselines.
    pub fn rollout_units(&self, units: Vec<Vec<f64>>) -> RolloutBatch<Vec<f64>, StepOutcome> {
        let outcomes = self.evaluate_units(&units);
        units
            .into_iter()
            .zip(outcomes)
            .map(|(unit, outcome)| {
                let fom = outcome.fom;
                (unit, outcome, fom)
            })
            .collect()
    }

    /// The evaluation backend serving this environment (an owned engine or
    /// a shared-service session).
    pub fn engine(&self) -> &dyn EvalBackend {
        &*self.engine
    }

    /// Cumulative evaluation statistics (throughput, cache hit rate, wall
    /// time) of this environment's engine.
    pub fn exec_stats(&self) -> ExecStats {
        self.engine.stats()
    }

    /// Number of flat parameters (the baselines' search dimensionality).
    pub fn num_unit_parameters(&self) -> usize {
        self.space.num_parameters()
    }

    /// Samples a uniformly random `n x 3` action matrix (warm-up episodes).
    pub fn random_actions<R: Rng>(&self, rng: &mut R) -> Matrix {
        Matrix::from_fn(self.num_components(), self.action_dim(), |_, _| {
            rng.gen_range(-1.0..1.0)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fom::FomConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn env() -> SizingEnv {
        let node = TechnologyNode::tsmc180();
        let fom = FomConfig::calibrated(Benchmark::TwoStageTia, &node, 8, 0);
        SizingEnv::new(Benchmark::TwoStageTia, &node, fom)
    }

    #[test]
    fn shapes_are_consistent() {
        let e = env();
        assert_eq!(e.states().rows(), e.num_components());
        assert_eq!(e.adjacency().rows(), e.num_components());
        assert_eq!(e.component_types().len(), e.num_components());
        assert_eq!(e.action_dim(), 3);
    }

    #[test]
    fn zero_actions_give_the_nominal_refined_design() {
        let e = env();
        let actions = Matrix::zeros(e.num_components(), 3);
        let outcome = e.evaluate_actions(&actions);
        assert!(e.design_space().validate(&outcome.params));
        assert!(outcome.fom.is_finite());
        assert!(!outcome.report.is_empty());
    }

    #[test]
    fn random_actions_are_in_range_and_legal() {
        let e = env();
        let mut rng = StdRng::seed_from_u64(3);
        let actions = e.random_actions(&mut rng);
        assert!(actions.as_slice().iter().all(|a| a.abs() <= 1.0));
        let params = e.actions_to_params(&actions);
        assert!(e.design_space().validate(&params));
    }

    #[test]
    fn unit_interface_matches_dimensionality() {
        let e = env();
        let unit = vec![0.5; e.num_unit_parameters()];
        let outcome = e.evaluate_unit(&unit);
        assert!(outcome.fom.is_finite());
    }

    #[test]
    fn batch_evaluation_matches_the_serial_path_in_order() {
        let e = env();
        let d = e.num_unit_parameters();
        let units: Vec<Vec<f64>> = (0..6)
            .map(|i| {
                (0..d)
                    .map(|j| ((i * 13 + j * 5) % 97) as f64 / 96.0)
                    .collect()
            })
            .collect();
        let serial: Vec<StepOutcome> = units.iter().map(|u| e.evaluate_unit(u)).collect();
        let batched = e.evaluate_units(&units);
        assert_eq!(batched, serial);
    }

    #[test]
    fn rollout_batches_carry_fom_as_reward_and_match_the_batch_path() {
        let e = env();
        let d = e.num_unit_parameters();
        let units: Vec<Vec<f64>> = (0..4)
            .map(|i| (0..d).map(|j| ((i * 7 + j) % 13) as f64 / 12.0).collect())
            .collect();
        let outcomes = e.evaluate_units(&units);
        let batch = e.rollout_units(units.clone());
        assert_eq!(batch.len(), 4);
        for (i, r) in batch.iter().enumerate() {
            assert_eq!(r.action, units[i]);
            assert_eq!(r.outcome, outcomes[i]);
            assert_eq!(r.reward, outcomes[i].fom);
        }
        let best = batch.best().expect("non-empty batch");
        assert!(batch.iter().all(|r| r.reward <= best.reward));
    }

    #[test]
    fn repeated_evaluations_are_cache_hits_with_identical_outcomes() {
        let e = env();
        let unit = vec![0.25; e.num_unit_parameters()];
        let first = e.evaluate_unit(&unit);
        let hits_before = e.exec_stats().cache_hits;
        let second = e.evaluate_unit(&unit);
        assert_eq!(first, second);
        assert!(e.exec_stats().cache_hits > hits_before);
    }
}
