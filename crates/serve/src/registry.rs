//! The multi-benchmark service registry: one shared [`EvalService`] per
//! `(benchmark, technology node)` behind a single facade.
//!
//! The server maps every connection onto a session of the service matching
//! its [`Hello`](crate::protocol::Hello); services spin up lazily on the
//! first connection that asks for their pair and are shared by every later
//! one, so concurrent clients optimising the same benchmark land on one
//! engine + cache (cross-client cache hits, in-flight dedup, fair rounds —
//! everything the process-local [`EvalService`] already guarantees).
//!
//! The registry also owns the **global cache budget**: `cache_budget` cached
//! reports are split evenly across `cache_slots` expected services, so a
//! server hosting all four paper benchmarks stays within one configured
//! memory envelope no matter which services clients actually touch.

use gcnrl_circuit::{benchmarks::Benchmark, TechnologyNode};
use gcnrl_exec::{
    ClosedSessionStats, EngineConfig, EvalService, ExecStats, ServiceConfig, SessionStats,
};
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Configuration of a [`ServiceRegistry`].
#[derive(Debug, Clone, PartialEq)]
pub struct RegistryConfig {
    /// Engine template for every lazily created service. The cache capacity
    /// is overridden by the budget split below; threads, quantisation and
    /// persistence apply as given.
    pub engine: EngineConfig,
    /// Dispatcher configuration of every created service (the per-round
    /// candidate cap).
    pub service: ServiceConfig,
    /// Total cached reports across all services the registry creates.
    pub cache_budget: usize,
    /// How many distinct `(benchmark, node)` services the budget is split
    /// over. Services beyond this count still open (each with one even
    /// share), slightly overshooting the budget rather than refusing
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
    /// Returns a copy with a different total cache budget.
    pub fn with_cache_budget(mut self, budget: usize) -> Self {
        self.cache_budget = budget.max(1);
        self
    }

    /// Returns a copy splitting the budget over a different slot count.
    pub fn with_cache_slots(mut self, slots: usize) -> Self {
        self.cache_slots = slots.max(1);
        self
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

    /// The service for `(benchmark, node)`, creating it (and its engine +
    /// dispatcher) on first use. The key includes the *full* node parameters,
    /// not just the name, so two nodes that merely share a label do not
    /// alias onto one evaluator.
    pub fn service_for(&self, benchmark: Benchmark, node: &TechnologyNode) -> EvalService {
        let key = format!(
            "{benchmark:?}@{}",
            serde_json::to_string(node).unwrap_or_else(|_| node.name.clone())
        );
        if let Some((_, _, service)) = self.services.lock().expect("registry lock").get(&key) {
            return service.clone();
        }
        // Build outside the lock: constructing an EvalService can be slow
        // (evaluator build, dispatcher spawn, persistent-cache replay when
        // GCNRL_CACHE_PATH is set), and holding the registry mutex through
        // it would stall every concurrent handshake and stats() call. Two
        // racing builders are resolved at insert time — the loser's service
        // is dropped (its dispatcher drains an empty queue and joins).
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
    /// any lazily created one. Tests use this to put a deterministic
    /// evaluator (e.g. a fixed-latency stub) behind the wire path; the
    /// admission-control tests rely on it to hold the queue provably busy.
    pub fn insert_service(
        &self,
        benchmark: Benchmark,
        node: &TechnologyNode,
        service: EvalService,
    ) {
        let key = format!(
            "{benchmark:?}@{}",
            serde_json::to_string(node).unwrap_or_else(|_| node.name.clone())
        );
        self.services
            .lock()
            .expect("registry lock")
            .insert(key, (benchmark, node.name.clone(), service));
    }

    /// Requests submitted but not yet resolved, summed over every service —
    /// the backlog signal the server's admission control compares against
    /// `GCNRL_SERVE_BACKLOG`.
    pub fn pending_requests(&self) -> u64 {
        let services = self.services.lock().expect("registry lock");
        services
            .values()
            .map(|(_, _, service)| service.pending_requests())
            .sum()
    }

    /// The admission policy that gates every `Hello`: `Ok(())` when a new
    /// session would be admitted, `Err(reason)` while more than
    /// `backlog_limit` requests are pending. `None` admits unconditionally.
    ///
    /// # Errors
    ///
    /// The human-readable reason admission would currently refuse.
    pub fn admission_report(&self, backlog_limit: Option<u64>) -> Result<(), String> {
        let Some(limit) = backlog_limit else {
            return Ok(());
        };
        let pending = self.pending_requests();
        if pending > limit {
            return Err(format!(
                "busy: {pending} evaluation requests pending exceed the \
                 backlog limit of {limit}"
            ));
        }
        Ok(())
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

    /// Drains and joins every service's dispatcher (idempotent). Called by
    /// the server after the last connection handler exits.
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
        ServiceRegistry::new(
            RegistryConfig::default()
                .with_cache_budget(64)
                .with_cache_slots(4),
        )
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
