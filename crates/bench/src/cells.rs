//! The two cell types every table and figure binary enqueues.
//!
//! The paper's evaluation has two experiment shapes:
//!
//! * a **method run** ([`MethodCell`]): one Table I method on one circuit
//!   for one seed, optionally with one metric's FoM weight emphasised 10×
//!   (Table I, Figure 5, Tables II/III);
//! * a **transfer run** ([`TransferCell`]): GCN-RL or NG-RL fine-tuned on a
//!   target circuit, either from scratch or from a policy pretrained on
//!   another technology node or topology (Tables IV/V, Figures 7/8).
//!
//! Both cells output the run's [`RunHistory`]; each binary derives its own
//! numbers (mean best FoM, the best design's metrics, the best-FoM curve)
//! and labels from the histories. The enumeration functions return flat
//! queues in presentation order for [`drain_cells`], so every experiment is
//! sharded, cache-budgeted and queue-fed the same way, and the
//! `coordinator` integration test pins each binary's cell set to identical
//! results at any worker count. Both cells build every environment through
//! [`backend_for`] and [`env_for_backend`], so every binary rides the
//! evaluation server named by `GCNRL_SERVE_ADDR` when one is set.
//!
//! [`drain_cells`]: crate::coordinator::drain_cells

use crate::coordinator::{Cell, CellContext, DrainReport};
use crate::harness::{
    backend_for, env_for_backend, merge_exec_stats, run_config, run_method, train,
    ExperimentConfig, MethodResult, METHODS,
};
use gcnrl::{AgentKind, ExecStats, GcnRlDesigner, RunHistory};
use gcnrl_circuit::{benchmarks::Benchmark, TechnologyNode};
use gcnrl_rl::DdpgConfig;

// ---------------------------------------------------------------------------
// Method runs: Table I, Figure 5, Tables II / III.
// ---------------------------------------------------------------------------

/// One method run: `method` on `benchmark` at `node` for one seed.
#[derive(Debug, Clone)]
pub struct MethodCell {
    /// Benchmark circuit of the run.
    pub benchmark: Benchmark,
    /// Technology node of the run.
    pub node: TechnologyNode,
    /// Method name (one of [`METHODS`]).
    pub method: String,
    /// Seed of the run.
    pub seed: u64,
    /// The metric whose FoM weight is multiplied by 10 (Table II's
    /// GCN-RL-1..5 rows); `None` keeps the calibrated FoM.
    pub emphasis: Option<String>,
    /// Budget configuration of the run.
    pub cfg: ExperimentConfig,
    /// DDPG hyper-parameter base of the RL methods (seed, budget and
    /// rollout width applied per run). The binaries use
    /// [`DdpgConfig::default`]; tests shrink the network.
    pub ddpg: DdpgConfig,
}

impl MethodCell {
    fn new(
        benchmark: Benchmark,
        node: &TechnologyNode,
        method: &str,
        seed: u64,
        cfg: &ExperimentConfig,
    ) -> Self {
        MethodCell {
            benchmark,
            node: node.clone(),
            method: method.to_owned(),
            seed,
            emphasis: None,
            cfg: *cfg,
            ddpg: DdpgConfig::default(),
        }
    }
}

impl Cell for MethodCell {
    type Output = RunHistory;

    fn id(&self) -> String {
        let emphasis = match &self.emphasis {
            Some(metric) => format!(" (10x {metric})"),
            None => String::new(),
        };
        format!(
            "{}{emphasis} {} on {} seed {}",
            self.method, self.benchmark, self.node.name, self.seed
        )
    }

    fn run(&self, ctx: &CellContext) -> (RunHistory, ExecStats) {
        let backend = backend_for(self.benchmark, &self.node, ctx.engine.clone());
        let env = env_for_backend(backend, &self.cfg, self.emphasis.as_deref());
        run_method(&self.method, env, &self.cfg, self.seed, self.ddpg)
    }
}

/// The method grid `benchmarks × METHODS × seeds` in table order (Table I,
/// Figure 5).
pub fn table_cells(
    benchmarks: &[Benchmark],
    node: &TechnologyNode,
    cfg: &ExperimentConfig,
) -> Vec<MethodCell> {
    let mut cells = Vec::new();
    for &benchmark in benchmarks {
        for method in METHODS {
            for seed in 0..cfg.seeds.max(1) as u64 {
                cells.push(MethodCell::new(benchmark, node, method, seed, cfg));
            }
        }
    }
    cells
}

/// Table II's rows: every Table I method on the Two-TIA at seed 0, then the
/// weighted-FoM ablations GCN-RL-1..5 (a 10x weight on BW, gain, power,
/// noise and peaking respectively, at seeds 100..104).
pub fn table2_cells(node: &TechnologyNode, cfg: &ExperimentConfig) -> Vec<MethodCell> {
    let emphasised = [
        "bw_ghz",
        "gain_ohm",
        "power_mw",
        "noise_pa_rthz",
        "peaking_db",
    ];
    let ablations = emphasised
        .iter()
        .zip(100..)
        .map(|(metric, seed)| MethodCell {
            emphasis: Some((*metric).to_owned()),
            ..MethodCell::new(Benchmark::TwoStageTia, node, "GCN-RL", seed, cfg)
        });
    metric_rows(Benchmark::TwoStageTia, node, cfg)
        .into_iter()
        .chain(ablations)
        .collect()
}

/// Table III's rows: every Table I method on the Two-Volt amplifier at
/// seed 0.
pub fn table3_cells(node: &TechnologyNode, cfg: &ExperimentConfig) -> Vec<MethodCell> {
    metric_rows(Benchmark::TwoStageVoltageAmp, node, cfg)
}

fn metric_rows(
    benchmark: Benchmark,
    node: &TechnologyNode,
    cfg: &ExperimentConfig,
) -> Vec<MethodCell> {
    METHODS
        .iter()
        .map(|method| MethodCell::new(benchmark, node, method, 0, cfg))
        .collect()
}

/// Folds the drained method grid of one benchmark into per-method
/// [`MethodResult`]s in table order (seeds grouped per method, engine
/// statistics merged). `report` is the drain of `cells`.
pub fn method_results(
    cells: &[MethodCell],
    report: &DrainReport<RunHistory>,
    benchmark: Benchmark,
) -> Vec<MethodResult> {
    assert_eq!(cells.len(), report.cells.len(), "report is not this grid's");
    METHODS
        .iter()
        .map(|method| {
            let (histories, stats): (Vec<RunHistory>, Vec<ExecStats>) = cells
                .iter()
                .zip(&report.cells)
                .filter(|(cell, _)| cell.benchmark == benchmark && cell.method == *method)
                .map(|(_, drained)| (drained.value.clone(), drained.exec))
                .unzip();
            assert!(
                !histories.is_empty(),
                "no cells for method `{method}` on {benchmark}"
            );
            MethodResult {
                exec: Some(merge_exec_stats(stats)),
                ..MethodResult::from_histories(method, histories)
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Transfer runs: Tables IV / V, Figures 7 / 8.
// ---------------------------------------------------------------------------

/// The fine-tuning budget the transfer experiments derive from the overall
/// budget (the paper uses 300 steps against a 10 000-step pretrain).
pub fn finetune_budget(cfg: &ExperimentConfig) -> (usize, usize) {
    let budget = (cfg.budget / 2).max(10);
    (budget, (budget / 3).max(3))
}

fn finetune_config(base: DdpgConfig, cfg: &ExperimentConfig, seed: u64) -> DdpgConfig {
    let (budget, warmup) = finetune_budget(cfg);
    base.with_seed(seed)
        .with_budget(budget, warmup)
        .with_rollout_k(cfg.rollout_k)
}

/// One transfer run: a `kind` agent trained on `target` with the
/// fine-tuning budget, either from scratch or warm-started from a policy
/// pretrained on `source` with the full budget.
#[derive(Debug, Clone)]
pub struct TransferCell {
    /// Pretraining circuit and node: another node of the same benchmark
    /// (Table IV, Figure 7) or another topology at the same node (Table V,
    /// Figure 8). `None` trains from scratch.
    pub source: Option<(Benchmark, TechnologyNode)>,
    /// Fine-tuning circuit and node.
    pub target: (Benchmark, TechnologyNode),
    /// Agent variant (the scratch runs use GCN-RL).
    pub kind: AgentKind,
    /// Seed of the run.
    pub seed: u64,
    /// Budget configuration: the pretraining budget, from which
    /// [`finetune_budget`] derives the fine-tuning one.
    pub cfg: ExperimentConfig,
    /// DDPG hyper-parameter base (seed, budget and rollout width applied
    /// per run). The binaries use [`DdpgConfig::default`]; tests shrink the
    /// network.
    pub ddpg: DdpgConfig,
}

impl TransferCell {
    fn new(
        source: Option<(Benchmark, &TechnologyNode)>,
        target: (Benchmark, &TechnologyNode),
        kind: AgentKind,
        seed: u64,
        cfg: &ExperimentConfig,
    ) -> Self {
        TransferCell {
            source: source.map(|(benchmark, node)| (benchmark, node.clone())),
            target: (target.0, target.1.clone()),
            kind,
            seed,
            cfg: *cfg,
            ddpg: DdpgConfig::default(),
        }
    }
}

impl Cell for TransferCell {
    type Output = RunHistory;

    fn id(&self) -> String {
        let (benchmark, node) = &self.target;
        let start = match &self.source {
            Some((source, source_node)) => format!(
                "{:?} transfer from {} at {}",
                self.kind,
                source.paper_name(),
                source_node.name
            ),
            None => "scratch".to_owned(),
        };
        format!(
            "{} at {} ({start}) seed {}",
            benchmark.paper_name(),
            node.name,
            self.seed
        )
    }

    fn weight(&self) -> usize {
        // A transfer runs a full pretrain plus the fine-tune, so it claims
        // a double share of the coordinator's cache budget.
        if self.source.is_some() {
            2
        } else {
            1
        }
    }

    fn run(&self, ctx: &CellContext) -> (RunHistory, ExecStats) {
        let (benchmark, node) = &self.target;
        let fine = finetune_config(self.ddpg, &self.cfg, self.seed);
        let Some((source_benchmark, source_node)) = &self.source else {
            let backend = backend_for(*benchmark, node, ctx.engine.clone());
            return train(env_for_backend(backend, &self.cfg, None), fine, self.kind);
        };
        // The source and target engines split the cell's cache share, so
        // its footprint stays within what the coordinator carved out of
        // `GCNRL_CACHE_CAP`.
        let share = ctx
            .engine
            .clone()
            .with_cache_capacity((ctx.engine.cache_capacity / 2).max(1));
        let source_backend = backend_for(*source_benchmark, source_node, share.clone());
        let source_env = env_for_backend(source_backend, &self.cfg, None);
        let target_env = env_for_backend(backend_for(*benchmark, node, share), &self.cfg, None);
        // `gcnrl::transfer::pretrain_and_transfer` would consume both
        // environments; the designers are kept to read their engine
        // statistics afterwards.
        let pretrain = run_config(self.ddpg, &self.cfg, self.seed);
        let mut pretrained = GcnRlDesigner::with_kind(source_env, pretrain, self.kind);
        pretrained.run();
        let mut finetuned = GcnRlDesigner::with_kind(target_env, fine, self.kind);
        finetuned
            .agent_mut()
            .load_checkpoint(&pretrained.agent().checkpoint());
        let history = finetuned.run();
        let exec = merge_exec_stats([pretrained.env().exec_stats(), finetuned.env().exec_stats()]);
        (history, exec)
    }
}

/// Table IV's cell grid in presentation order: for each benchmark, all
/// targets without transfer (one row), then all targets with transfer from
/// `source` (the next row), seeds innermost.
pub fn table4_cells(
    benchmarks: &[Benchmark],
    source: &TechnologyNode,
    targets: &[TechnologyNode],
    cfg: &ExperimentConfig,
) -> Vec<TransferCell> {
    let mut cells = Vec::new();
    for &benchmark in benchmarks {
        for transfer in [false, true] {
            for target in targets {
                for seed in 0..cfg.seeds.max(1) as u64 {
                    cells.push(TransferCell::new(
                        transfer.then_some((benchmark, source)),
                        (benchmark, target),
                        AgentKind::Gcn,
                        seed,
                        cfg,
                    ));
                }
            }
        }
    }
    cells
}

/// The warm starts Table V and Figure 8 compare, in row order: from
/// scratch, NG-RL transfer, GCN-RL transfer (`true` = pretrained).
const TOPOLOGY_STARTS: [(bool, AgentKind); 3] = [
    (false, AgentKind::Gcn),
    (true, AgentKind::NonGcn),
    (true, AgentKind::Gcn),
];

/// Table V's cell grid in presentation order: for each warm start (scratch,
/// NG-RL transfer, GCN-RL transfer), both transfer directions, seeds
/// innermost.
pub fn table5_cells(
    directions: &[(Benchmark, Benchmark)],
    node: &TechnologyNode,
    cfg: &ExperimentConfig,
) -> Vec<TransferCell> {
    let mut cells = Vec::new();
    for (transfer, kind) in TOPOLOGY_STARTS {
        for &(source, target) in directions {
            for seed in 0..cfg.seeds.max(1) as u64 {
                cells.push(TransferCell::new(
                    transfer.then_some((source, node)),
                    (target, node),
                    kind,
                    seed,
                    cfg,
                ));
            }
        }
    }
    cells
}

/// Figure 7's cell grid: per target node, the scratch curve then the curve
/// transferred from `source` (the paper's fixed seed 1).
pub fn fig7_cells(
    benchmark: Benchmark,
    source: &TechnologyNode,
    targets: &[TechnologyNode],
    cfg: &ExperimentConfig,
) -> Vec<TransferCell> {
    let mut cells = Vec::new();
    for target in targets {
        for transfer in [false, true] {
            cells.push(TransferCell::new(
                transfer.then_some((benchmark, source)),
                (benchmark, target),
                AgentKind::Gcn,
                1,
                cfg,
            ));
        }
    }
    cells
}

/// Figure 8's cell grid: per transfer direction, the scratch, NG-RL and
/// GCN-RL curves (the paper's fixed seed 2).
pub fn fig8_cells(
    directions: &[(Benchmark, Benchmark)],
    node: &TechnologyNode,
    cfg: &ExperimentConfig,
) -> Vec<TransferCell> {
    let mut cells = Vec::new();
    for &(source, target) in directions {
        for (transfer, kind) in TOPOLOGY_STARTS {
            cells.push(TransferCell::new(
                transfer.then_some((source, node)),
                (target, node),
                kind,
                2,
                cfg,
            ));
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ExperimentConfig {
        ExperimentConfig {
            budget: 6,
            warmup: 2,
            seeds: 2,
            calibration: 4,
            rollout_k: 1,
        }
    }

    #[test]
    fn table_cells_enumerate_benchmarks_methods_and_seeds_in_order() {
        let node = TechnologyNode::tsmc180();
        let cells = table_cells(
            &[Benchmark::TwoStageTia, Benchmark::Ldo],
            &node,
            &tiny_cfg(),
        );
        assert_eq!(cells.len(), 2 * METHODS.len() * 2);
        assert_eq!(cells[0].benchmark, Benchmark::TwoStageTia);
        assert_eq!(cells[0].method, "Human");
        assert_eq!(cells[0].seed, 0);
        assert_eq!(cells[1].seed, 1);
        assert_eq!(cells.last().unwrap().benchmark, Benchmark::Ldo);
        assert_eq!(cells.last().unwrap().method, "GCN-RL");
    }

    #[test]
    fn table2_cells_enumerate_methods_then_emphases() {
        let node = TechnologyNode::tsmc180();
        let cells = table2_cells(&node, &tiny_cfg());
        assert_eq!(cells.len(), METHODS.len() + 5);
        assert!(cells[0].method == "Human" && cells[0].emphasis.is_none());
        let first = &cells[METHODS.len()];
        assert!(
            first.method == "GCN-RL"
                && first.emphasis.as_deref() == Some("bw_ghz")
                && first.seed == 100
        );
        assert!(cells.iter().all(|c| c.benchmark == Benchmark::TwoStageTia));
    }

    #[test]
    fn table4_cells_order_rows_before_seeds_and_weight_transfers_double() {
        let node180 = TechnologyNode::tsmc180();
        let targets = [TechnologyNode::n250(), TechnologyNode::n130()];
        let cells = table4_cells(&[Benchmark::TwoStageTia], &node180, &targets, &tiny_cfg());
        // 1 benchmark × 2 modes × 2 targets × 2 seeds.
        assert_eq!(cells.len(), 8);
        assert!(cells[0].source.is_none() && cells[0].seed == 0);
        assert!(cells[1].source.is_none() && cells[1].seed == 1);
        assert!(cells[4].source.is_some());
        assert_eq!(cells[0].weight(), 1);
        assert_eq!(cells[4].weight(), 2);
    }

    #[test]
    fn table5_and_fig8_cells_cover_every_mode_per_direction() {
        let node = TechnologyNode::tsmc180();
        let directions = [
            (Benchmark::TwoStageTia, Benchmark::ThreeStageTia),
            (Benchmark::ThreeStageTia, Benchmark::TwoStageTia),
        ];
        let t5 = table5_cells(&directions, &node, &tiny_cfg());
        // 3 modes × 2 directions × 2 seeds.
        assert_eq!(t5.len(), 12);
        assert!(t5[0].source.is_none());
        let f8 = fig8_cells(&directions, &node, &tiny_cfg());
        assert_eq!(f8.len(), 6);
        assert!(f8[2].source.is_some() && f8[2].kind == AgentKind::Gcn);
    }

    #[test]
    fn fig7_cells_pair_scratch_and_transfer_per_target() {
        let source = TechnologyNode::tsmc180();
        let targets = [TechnologyNode::n45(), TechnologyNode::n65()];
        let cells = fig7_cells(Benchmark::ThreeStageTia, &source, &targets, &tiny_cfg());
        assert_eq!(cells.len(), 4);
        assert!(cells[0].source.is_none() && cells[1].source.is_some());
        assert_eq!(cells[0].target.1.name, cells[1].target.1.name);
    }

    #[test]
    fn finetune_budget_mirrors_the_binaries_rounding() {
        let cfg = ExperimentConfig {
            budget: 40,
            ..tiny_cfg()
        };
        assert_eq!(finetune_budget(&cfg), (20, 6));
        // Tiny budgets floor at the paper's minimum useful run.
        assert_eq!(finetune_budget(&tiny_cfg()), (10, 3));
    }
}
