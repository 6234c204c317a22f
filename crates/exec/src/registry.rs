//! The multi-benchmark service registry: one shared [`EvalService`] per
//! `(benchmark, technology node)` behind a single facade.
//!
//! Services spin up lazily on the first caller that asks for their pair and
//! are shared by every later one, so concurrent sessions optimising the same
//! benchmark land on one engine + cache (cross-session cache hits and
//! in-flight dedup — everything one [`EvalService`] already guarantees).
//! The experiment coordinator drains every cell queue through one registry,
//! and the evaluation server maps every connection onto a session of one.
//!
//! The registry also owns the **cache budget**: every service it creates
//! caches at most `cache_budget / cache_slots` reports. With the default
//! four slots, a process hosting the four paper benchmarks at one node
//! stays within `cache_budget`; every further `(benchmark, node)` service
//! adds one more share.

use crate::{
    ClosedSessionStats, EngineConfig, EvalService, ExecStats, ServiceConfig, SessionStats,
};
use gcnrl_circuit::{benchmarks::Benchmark, TechnologyNode};
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Configuration of a [`ServiceRegistry`].
#[derive(Debug, Clone, PartialEq)]
pub struct RegistryConfig {
    /// Engine template for every lazily created service. The cache capacity
    /// is overridden by the budget split below; threads and quantisation
    /// apply as given.
    pub engine: EngineConfig,
    /// An empty stub, kept only because the `perfbench/` benchmark names it.
    pub service: ServiceConfig,
    /// Cached reports across `cache_slots` services.
    pub cache_budget: usize,
    /// How many `(benchmark, node)` services the budget is split over. Each
    /// service gets one share; services beyond this count still open, each
    /// with one more share, overshooting the budget rather than refusing
    /// clients.
    pub cache_slots: usize,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        let engine = EngineConfig::default();
        RegistryConfig {
            cache_budget: engine.cache_capacity,
            cache_slots: Benchmark::ALL.len(),
            service: ServiceConfig::default(),
            engine,
        }
    }
}

impl RegistryConfig {
    /// The default configuration over [`EngineConfig::from_env`]: the engine
    /// follows `GCNRL_THREADS`, and `GCNRL_CACHE_CAP` is the budget split
    /// over the default four slots (each service caches a quarter of it).
    ///
    /// # Panics
    ///
    /// Panics when a variable is set but unparseable (see
    /// [`env_usize`](crate::env_usize)).
    pub fn from_env() -> Self {
        let engine = EngineConfig::from_env();
        RegistryConfig {
            cache_budget: engine.cache_capacity,
            engine,
            ..Self::default()
        }
    }

    /// The per-service cache capacity under the even budget split.
    pub fn cache_share(&self) -> usize {
        (self.cache_budget / self.cache_slots.max(1)).max(1)
    }
}

/// Statistics of one registry entry, serialisable for server reports.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServiceEntryStats {
    /// Benchmark the service evaluates (paper short name).
    pub benchmark: String,
    /// Technology node name.
    pub node: String,
    /// Merged engine statistics across every session of the service.
    pub engine: ExecStats,
    /// Per-session accounting of the *live* sessions, in session-creation
    /// order.
    pub sessions: Vec<SessionStats>,
    /// Aggregate of every retired (closed-connection) session.
    pub closed: ClosedSessionStats,
}

/// Lazily instantiated, shared [`EvalService`]s keyed by
/// `(benchmark, technology node)`.
pub struct ServiceRegistry {
    config: RegistryConfig,
    services: Mutex<BTreeMap<String, (Benchmark, String, EvalService)>>,
}

impl std::fmt::Debug for ServiceRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let services = self.services.lock().expect("registry lock");
        f.debug_struct("ServiceRegistry")
            .field("config", &self.config)
            .field("services", &services.keys().collect::<Vec<_>>())
            .finish()
    }
}

/// The registry key of `(benchmark, node)`: the benchmark, then the *full*
/// node parameters, not just the name, so two nodes that merely share a
/// label do not alias onto one evaluator. Services are listed in key order.
fn service_key(benchmark: Benchmark, node: &TechnologyNode) -> String {
    format!(
        "{benchmark:?}@{}",
        serde_json::to_string(node).unwrap_or_else(|_| node.name.clone())
    )
}

impl ServiceRegistry {
    /// Creates an empty registry.
    pub fn new(config: RegistryConfig) -> Self {
        ServiceRegistry {
            config,
            services: Mutex::new(BTreeMap::new()),
        }
    }

    /// The configuration the registry was built with.
    pub fn config(&self) -> &RegistryConfig {
        &self.config
    }

    /// The service for `(benchmark, node)`, creating it (and its engine) on
    /// first use.
    pub fn service_for(&self, benchmark: Benchmark, node: &TechnologyNode) -> EvalService {
        let key = service_key(benchmark, node);
        if let Some((_, _, service)) = self.services.lock().expect("registry lock").get(&key) {
            return service.clone();
        }
        // Build outside the lock: building the evaluator is slow next to a
        // map lookup, and holding the registry mutex through it would stall
        // every concurrent handshake and stats() call. Two racing builders
        // are resolved at insert time — the loser's service is dropped.
        let engine = self
            .config
            .engine
            .clone()
            .with_cache_capacity(self.config.cache_share());
        let built =
            EvalService::for_benchmark(benchmark, node, engine, self.config.service.clone());
        let mut services = self.services.lock().expect("registry lock");
        if let Some((_, _, service)) = services.get(&key) {
            return service.clone();
        }
        services.insert(key, (benchmark, node.name.clone(), built.clone()));
        built
    }

    /// Installs an already-built service for `(benchmark, node)`, replacing
    /// any lazily created one. Tests and benches use this to put a
    /// deterministic evaluator (e.g. a fixed-latency stub) behind a server.
    pub fn insert_service(
        &self,
        benchmark: Benchmark,
        node: &TechnologyNode,
        service: EvalService,
    ) {
        let key = service_key(benchmark, node);
        self.services
            .lock()
            .expect("registry lock")
            .insert(key, (benchmark, node.name.clone(), service));
    }

    /// Requests submitted but not yet resolved, summed over every service
    /// (the server's admission control compares it against its backlog
    /// limit).
    pub fn pending_requests(&self) -> u64 {
        let services = self.services.lock().expect("registry lock");
        services
            .values()
            .map(|(_, _, service)| service.pending_requests())
            .sum()
    }

    /// Number of services instantiated so far.
    pub fn len(&self) -> usize {
        self.services.lock().expect("registry lock").len()
    }

    /// Whether no service has been instantiated yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-service statistics (engine + sessions), in key order.
    pub fn stats(&self) -> Vec<ServiceEntryStats> {
        let services = self.services.lock().expect("registry lock");
        services
            .values()
            .map(|(benchmark, node, service)| ServiceEntryStats {
                benchmark: benchmark.paper_name().to_owned(),
                node: node.clone(),
                engine: service.engine_stats(),
                sessions: service.session_stats(),
                closed: service.closed_session_stats(),
            })
            .collect()
    }

    /// Closes every service to new batches (idempotent). Called after the
    /// last session of a drain or a server has finished.
    pub fn shutdown(&self) {
        let services = self.services.lock().expect("registry lock");
        for (_, _, service) in services.values() {
            service.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> ServiceRegistry {
        ServiceRegistry::new(RegistryConfig {
            cache_budget: 64,
            cache_slots: 4,
            ..RegistryConfig::default()
        })
    }

    #[test]
    fn services_are_created_lazily_and_shared_per_pair() {
        let registry = registry();
        assert!(registry.is_empty());
        let node = TechnologyNode::tsmc180();
        let a = registry.service_for(Benchmark::TwoStageTia, &node);
        let b = registry.service_for(Benchmark::TwoStageTia, &node);
        assert_eq!(registry.len(), 1, "same pair must share one service");
        // Shared service: a session opened through one handle is visible in
        // statistics read through the other.
        let _session = a.session_named("via-a");
        assert_eq!(b.session_stats().len(), 1);
        let other = registry.service_for(Benchmark::Ldo, &node);
        assert_eq!(registry.len(), 2);
        assert!(other.is_open());
        registry.shutdown();
        assert!(!a.is_open());
        assert!(!other.is_open());
    }

    #[test]
    fn cache_budget_splits_evenly_across_slots() {
        let registry = registry();
        assert_eq!(registry.config().cache_share(), 16);
        let node = TechnologyNode::tsmc180();
        let service = registry.service_for(Benchmark::TwoStageTia, &node);
        assert_eq!(service.engine().config().cache_capacity, 16);
    }

    #[test]
    fn nodes_differing_beyond_the_name_get_their_own_service() {
        let registry = registry();
        let node = TechnologyNode::tsmc180();
        let mut tweaked = node.clone();
        tweaked.vdd += 0.1;
        registry.service_for(Benchmark::TwoStageTia, &node);
        registry.service_for(Benchmark::TwoStageTia, &tweaked);
        assert_eq!(registry.len(), 2);
    }

    #[test]
    fn one_design_at_two_nodes_is_simulated_by_each_nodes_service() {
        // Cache keys hold only the parameters, so what keeps the nodes apart
        // is their separate services.
        let registry = registry();
        let benchmark = Benchmark::TwoStageTia;
        let design = benchmark
            .circuit()
            .design_space(&TechnologyNode::tsmc180())
            .nominal();
        let mut reports = Vec::new();
        for node in [TechnologyNode::tsmc180(), TechnologyNode::n65()] {
            let service = registry.service_for(benchmark, &node);
            let report = service
                .session()
                .evaluate_batch(std::slice::from_ref(&design))
                .remove(0);
            let fresh = gcnrl_sim::evaluators::evaluator_for(benchmark, &node).evaluate(&design);
            let name = &node.name;
            assert_eq!(report, fresh, "{name}");
            let engine = service.engine_stats();
            assert_eq!((engine.simulated, engine.cache_hits), (1, 0), "{name}");
            reports.push(report);
        }
        assert_ne!(reports[0], reports[1]);
    }

    #[test]
    fn stats_cover_every_instantiated_service() {
        let registry = registry();
        let node = TechnologyNode::tsmc180();
        let service = registry.service_for(Benchmark::Ldo, &node);
        let session = service.session_named("client");
        let space = Benchmark::Ldo.circuit().design_space(&node);
        session.evaluate_batch(&[space.nominal()]);
        let stats = registry.stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].benchmark, "LDO");
        assert_eq!(stats[0].node, node.name);
        assert_eq!(stats[0].engine.simulated, 1);
        assert_eq!(stats[0].sessions.len(), 1);
        assert_eq!(stats[0].sessions[0].name, "client");
    }
}
