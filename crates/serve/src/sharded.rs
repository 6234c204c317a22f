//! Horizontally sharded evaluation: a client-side [`EvalBackend`] fanning
//! one batch across several [`EvalServer`](crate::EvalServer) shards.
//!
//! ```text
//!              ┌─ rendezvous hash of the candidate's CacheKey ─┐
//!   evaluate_batch(candidates)                                 │
//!        │   ┌──────────────┬──────────────┬───────────────┐   ▼
//!        └──▶│ shard A      │ shard B      │ shard C       │ owner per
//!            │ sub-batches  │ sub-batches  │ sub-batches   │ candidate
//!            │ (pipelined)  │ (pipelined)  │ (pipelined)   │
//!            └──────┬───────┴──────┬───────┴──────┬────────┘
//!                   └── results reassembled in submission order ──▶
//! ```
//!
//! Routing is **rendezvous (highest-random-weight) hashing** of each
//! candidate's content-addressed [`CacheKey`] digest against the shard
//! address strings: deterministic across runs and across client processes
//! (no coordination, no shared state), and when a shard dies only *its*
//! keys move — the survivors keep their cache locality.
//!
//! Evaluators are pure and the wire is bit-exact, so *which* shard computes
//! a candidate never changes its report: a sharded run is bit-identical to
//! a solo run over one server, or to a local engine.

use crate::client::{PendingReply, RemoteBackend, RemoteConfig, ServeError};
use gcnrl_circuit::{benchmarks::Benchmark, ParamVector, TechnologyNode};
use gcnrl_exec::{BatchReport, CacheKey, EvalBackend, ExecStats, DEFAULT_QUANTIZE_DIGITS};
use gcnrl_sim::{MetricSpec, PerformanceReport};
use gcnrl_telemetry::{trace_id_for, SpanHandle, TraceContext};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Picks the owner of `digest` among `shards` by rendezvous hashing: each
/// shard is scored with an FNV-1a hash of `(digest, shard)` and the highest
/// score wins (ties broken toward the lexicographically smaller shard, so
/// the choice is total). Every client and server computing this over the
/// same shard list agrees on the owner without any coordination, and
/// removing one shard only moves the keys that shard owned.
pub fn rendezvous_owner<'a>(
    digest: u64,
    shards: impl IntoIterator<Item = &'a str>,
) -> Option<&'a str> {
    shards
        .into_iter()
        .map(|shard| {
            let mut hash: u64 = 0xcbf29ce484222325;
            for byte in digest.to_le_bytes().iter().chain(shard.as_bytes()) {
                hash ^= u64::from(*byte);
                hash = hash.wrapping_mul(0x100000001b3);
            }
            (hash, shard)
        })
        .max_by(|(ha, sa), (hb, sb)| ha.cmp(hb).then(sb.cmp(sa)))
        .map(|(_, shard)| shard)
}

/// Client-side options of a [`ShardedBackend`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedConfig {
    /// Per-shard connection options (session name, pipeline window,
    /// reconnect policy). The pipeline window bounds how many sub-batches
    /// ride each shard's wire concurrently.
    pub remote: RemoteConfig,
    /// Candidates per pipelined sub-batch sent to one shard. Smaller
    /// sub-batches overlap better under the pipeline window; `8` keeps the
    /// framing overhead negligible against simulator latency.
    pub sub_batch: usize,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            remote: RemoteConfig::default(),
            sub_batch: 8,
        }
    }
}

/// Pipelined sub-batches in flight on one shard: each sub-batch's original
/// candidate indices alongside its pending reply.
type InFlight = Vec<(Vec<usize>, PendingReply)>;

/// One shard's connection slot. `None` once the shard has been declared
/// dead (connect failure at startup, or transport failure after the
/// reconnect budget) — its keys re-hash onto the survivors.
struct Shard {
    addr: String,
    backend: Mutex<Option<RemoteBackend>>,
}

/// An [`EvalBackend`] spread over several evaluation servers.
///
/// Every candidate routes to the shard owning its content-addressed cache
/// key ([`rendezvous_owner`]); one `evaluate_batch` call fans out as
/// pipelined per-shard sub-batches and reassembles the reports in
/// submission order. When a shard dies mid-batch its candidates re-hash
/// onto the surviving shards and the batch completes — bit-identical to a
/// run that never touched the dead shard, because evaluators are pure.
pub struct ShardedBackend {
    shards: Vec<Shard>,
    benchmark: Benchmark,
    node: TechnologyNode,
    metric_specs: Vec<MetricSpec>,
    config: ShardedConfig,
    /// Batch counter seeding the deterministic root trace id of each
    /// `evaluate_batch` fan-out.
    trace_seq: AtomicU64,
}

impl std::fmt::Debug for ShardedBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedBackend")
            .field("benchmark", &self.benchmark)
            .field("node", &self.node.name)
            .field(
                "shards",
                &self.shards.iter().map(|s| &s.addr).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl ShardedBackend {
    /// Connects to every shard in `addrs` (the `GCNRL_SERVE_ADDRS` ring,
    /// in order). Shards that refuse the connection are marked dead
    /// immediately — the backend comes up as long as at least one shard
    /// answers.
    ///
    /// # Errors
    ///
    /// [`ServeError::Disconnected`] when every shard is unreachable;
    /// handshake rejections propagate from the first reachable shard.
    pub fn connect(
        addrs: &[String],
        benchmark: Benchmark,
        node: &TechnologyNode,
        config: ShardedConfig,
    ) -> Result<Self, ServeError> {
        if addrs.is_empty() {
            return Err(ServeError::Disconnected(
                "no shard addresses configured (GCNRL_SERVE_ADDRS is empty)".to_owned(),
            ));
        }
        let mut shards = Vec::with_capacity(addrs.len());
        let mut metric_specs: Option<Vec<MetricSpec>> = None;
        let mut last_error: Option<ServeError> = None;
        for (index, addr) in addrs.iter().enumerate() {
            let mut remote = config.remote.clone();
            remote.session = Some(match &config.remote.session {
                Some(name) => format!("{name}@{index}"),
                None => format!("sharded@{index}"),
            });
            match RemoteBackend::connect_with(addr.as_str(), benchmark, node, remote) {
                Ok(backend) => {
                    if metric_specs.is_none() {
                        metric_specs = Some(backend.metric_specs().to_vec());
                    }
                    shards.push(Shard {
                        addr: addr.clone(),
                        backend: Mutex::new(Some(backend)),
                    });
                }
                Err(ServeError::Rejected(message)) => {
                    // A live server refusing the handshake (version clash,
                    // admission) is a configuration error, not a dead shard.
                    return Err(ServeError::Rejected(message));
                }
                Err(error) => {
                    shard_failover_counter(index).inc();
                    last_error = Some(error);
                    shards.push(Shard {
                        addr: addr.clone(),
                        backend: Mutex::new(None),
                    });
                }
            }
        }
        let Some(metric_specs) = metric_specs else {
            return Err(last_error.unwrap_or_else(|| {
                ServeError::Disconnected("every shard is unreachable".to_owned())
            }));
        };
        Ok(ShardedBackend {
            shards,
            benchmark,
            node: node.clone(),
            metric_specs,
            config,
            trace_seq: AtomicU64::new(0),
        })
    }

    /// The shard addresses of the ring, in configuration order (dead shards
    /// included — the ring is the hash domain, liveness is separate).
    pub fn shard_addrs(&self) -> Vec<String> {
        self.shards.iter().map(|s| s.addr.clone()).collect()
    }

    /// Addresses of the shards currently considered alive.
    pub fn live_shards(&self) -> Vec<String> {
        self.shards
            .iter()
            .filter(|s| s.backend.lock().expect("shard slot lock").is_some())
            .map(|s| s.addr.clone())
            .collect()
    }

    /// The routing key of one candidate — what [`rendezvous_owner`] hashes:
    /// its cache key at the engines' default quantisation.
    pub fn routing_key(&self, params: &ParamVector) -> CacheKey {
        CacheKey::new(
            self.benchmark,
            &self.node.name,
            params,
            DEFAULT_QUANTIZE_DIGITS,
        )
    }

    /// The index (into [`ShardedBackend::shard_addrs`]) of the *live* shard
    /// `params` currently routes to, or `None` when every shard is dead.
    pub fn shard_for(&self, params: &ParamVector) -> Option<usize> {
        let live = self.live_shards();
        let digest = self.routing_key(params).digest();
        let owner = rendezvous_owner(digest, live.iter().map(String::as_str))?;
        self.shards.iter().position(|s| s.addr == owner)
    }

    fn mark_dead(&self, addr: &str) {
        for (index, shard) in self.shards.iter().enumerate() {
            if shard.addr == addr {
                let mut slot = shard.backend.lock().expect("shard slot lock");
                if slot.take().is_some() {
                    shard_failover_counter(index).inc();
                }
            }
        }
    }

    /// Submits `indices` of `params` to the shard at `addr` as pipelined
    /// sub-batches. Returns one pending reply per sub-batch, or `None` when
    /// the shard is (or just became) dead.
    fn submit_to_shard(
        &self,
        addr: &str,
        indices: &[usize],
        params: &[ParamVector],
    ) -> Option<InFlight> {
        let index = self.shards.iter().position(|s| s.addr == addr)?;
        let slot = self.shards[index].backend.lock().expect("shard slot lock");
        let backend = slot.as_ref()?;
        shard_request_counter(index).add(indices.len() as u64);
        let mut pending = Vec::new();
        for chunk in indices.chunks(self.config.sub_batch.max(1)) {
            let sub: Vec<ParamVector> = chunk.iter().map(|&i| params[i].clone()).collect();
            match backend.submit_batch(&sub) {
                Ok(reply) => pending.push((chunk.to_vec(), reply)),
                Err(_) => {
                    // The submit path only fails once the backend is broken
                    // (reconnects exhausted); everything still pending on
                    // this shard is re-routed by the caller.
                    drop(slot);
                    self.mark_dead(addr);
                    return None;
                }
            }
        }
        Some(pending)
    }

    /// Evaluates `params` across the shard ring, reassembling reports in
    /// submission order. Candidates on a shard that dies mid-batch re-hash
    /// onto the survivors.
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] when a server failed the evaluation itself
    /// (an evaluator panic fails identically on every shard);
    /// [`ServeError::Disconnected`] once every shard is dead.
    pub fn try_evaluate_batch(
        &self,
        params: &[ParamVector],
    ) -> Result<Vec<PerformanceReport>, ServeError> {
        // The root of the request tree: every per-shard `serve.rpc.ns` span
        // below (and, over the wire, each shard's server-side segment)
        // parents under this span, so one fan-out reassembles into a single
        // tree spanning all processes.
        let root = match TraceContext::current() {
            Some(parent) => SpanHandle::child_of("sharded.evaluate.ns", parent),
            None => {
                let seq = self.trace_seq.fetch_add(1, Ordering::Relaxed);
                let session = self.config.remote.session.as_deref().unwrap_or("sharded");
                SpanHandle::root("sharded.evaluate.ns", trace_id_for(session, seq))
            }
        };
        let _trace_scope = root.enter();
        let mut results: Vec<Option<PerformanceReport>> = vec![None; params.len()];
        let mut todo: Vec<usize> = (0..params.len()).collect();
        while !todo.is_empty() {
            let live = self.live_shards();
            if live.is_empty() {
                return Err(ServeError::Disconnected(
                    "every shard has died; the batch cannot complete".to_owned(),
                ));
            }
            // Route each remaining candidate to its owner among the live
            // shards; BTreeMap keeps the fan-out order deterministic.
            let mut per_shard: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
            for &index in &todo {
                let digest = self.routing_key(&params[index]).digest();
                let owner = rendezvous_owner(digest, live.iter().map(String::as_str))
                    .expect("live shard list is non-empty");
                per_shard.entry(owner).or_default().push(index);
            }
            // Fan out: submit every shard's pipelined sub-batches first,
            // collect afterwards, so the shards overlap each other too.
            let mut in_flight: Vec<(&str, InFlight)> = Vec::new();
            let mut retry: Vec<usize> = Vec::new();
            for (addr, indices) in &per_shard {
                match self.submit_to_shard(addr, indices, params) {
                    Some(pending) => in_flight.push((addr, pending)),
                    None => retry.extend(indices.iter().copied()),
                }
            }
            for (addr, pending) in in_flight {
                let mut shard_died = false;
                for (indices, reply) in pending {
                    if shard_died {
                        retry.extend(indices);
                        continue;
                    }
                    match reply.wait() {
                        Ok(reports) => {
                            for (&index, report) in indices.iter().zip(reports) {
                                results[index] = Some(report);
                            }
                        }
                        Err(ServeError::Rejected(message)) => {
                            // The evaluation itself failed; re-routing would
                            // fail the same way on any shard.
                            return Err(ServeError::Rejected(message));
                        }
                        Err(_) => {
                            // Transport death after the reconnect budget:
                            // declare the shard dead and re-hash its share.
                            self.mark_dead(addr);
                            shard_died = true;
                            retry.extend(indices);
                        }
                    }
                }
            }
            todo = retry;
        }
        Ok(results
            .into_iter()
            .map(|slot| slot.expect("every index resolved"))
            .collect())
    }

    /// Says `Goodbye` on every live shard connection.
    ///
    /// # Errors
    ///
    /// The first shard's error, after attempting all of them.
    pub fn goodbye(self) -> Result<(), ServeError> {
        let mut first_error = None;
        for shard in &self.shards {
            let backend = shard.backend.lock().expect("shard slot lock").take();
            if let Some(backend) = backend {
                if let (Err(error), None) = (backend.goodbye(), first_error.as_ref()) {
                    first_error = Some(error);
                }
            }
        }
        match first_error {
            Some(error) => Err(error),
            None => Ok(()),
        }
    }
}

/// Parses the comma-separated `GCNRL_SERVE_ADDRS` shard ring; `None` when
/// unset or empty.
pub fn addrs_from_env() -> Option<Vec<String>> {
    let raw = gcnrl_telemetry::env_string("GCNRL_SERVE_ADDRS")?;
    let addrs: Vec<String> = raw
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_owned)
        .collect();
    if addrs.is_empty() {
        None
    } else {
        Some(addrs)
    }
}

/// The `family{shard="<index>"}` counter of the shard at `index` in the
/// configured ring. Labelled by position, not address, so ephemeral ports
/// do not mint a new label value on every run.
fn shard_counter(family: &str, index: usize) -> std::sync::Arc<gcnrl_telemetry::Counter> {
    gcnrl_telemetry::global().counter(&gcnrl_telemetry::labeled(
        family,
        &[("shard", &index.to_string())],
    ))
}

fn shard_request_counter(index: usize) -> std::sync::Arc<gcnrl_telemetry::Counter> {
    shard_counter("serve.shard.requests", index)
}

fn shard_failover_counter(index: usize) -> std::sync::Arc<gcnrl_telemetry::Counter> {
    shard_counter("serve.shard.failovers", index)
}

impl EvalBackend for ShardedBackend {
    fn benchmark(&self) -> Benchmark {
        self.benchmark
    }

    fn technology(&self) -> &TechnologyNode {
        &self.node
    }

    fn metric_specs(&self) -> &[MetricSpec] {
        &self.metric_specs
    }

    /// # Panics
    ///
    /// Panics when a server failed the batch or every shard became
    /// unreachable, mirroring the [`RemoteBackend`] contract. Use
    /// [`ShardedBackend::try_evaluate_batch`] to handle failures.
    fn evaluate_batch(&self, params: &[ParamVector]) -> Vec<PerformanceReport> {
        match self.try_evaluate_batch(params) {
            Ok(reports) => reports,
            Err(ServeError::Rejected(message)) => {
                panic!("sharded evaluation failed: {message}")
            }
            Err(error) => panic!("sharded evaluation transport failed: {error}"),
        }
    }

    /// Field-wise sum of every live shard's engine statistics — the
    /// aggregate view of the ring (`cache_len` sums too: the ring's total
    /// cached reports).
    fn stats(&self) -> ExecStats {
        let mut merged = ExecStats::default();
        for shard in &self.shards {
            let slot = shard.backend.lock().expect("shard slot lock");
            if let Some(backend) = slot.as_ref() {
                if let Ok(stats) = backend.remote_stats() {
                    let engine = stats.engine;
                    merged.requests += engine.requests;
                    merged.simulated += engine.simulated;
                    merged.cache_hits += engine.cache_hits;
                    merged.evictions += engine.evictions;
                    merged.batches += engine.batches;
                    merged.cache_len += engine.cache_len;
                    merged.wall_seconds += engine.wall_seconds;
                }
            }
        }
        merged
    }

    /// Merged last-batch report across the live shards (counts add, the
    /// widest pool wins), matching `BatchReport::merge` semantics.
    fn last_batch(&self) -> BatchReport {
        let mut merged = BatchReport::default();
        for shard in &self.shards {
            let slot = shard.backend.lock().expect("shard slot lock");
            if let Some(backend) = slot.as_ref() {
                if let Ok(stats) = backend.remote_stats() {
                    let last = stats.last_batch;
                    merged.size += last.size;
                    merged.cache_hits += last.cache_hits;
                    merged.simulated += last.simulated;
                    merged.threads = merged.threads.max(last.threads);
                    merged.wall_seconds += last.wall_seconds;
                }
            }
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn rendezvous_owner_is_deterministic_and_total() {
        let shards = ["127.0.0.1:7001", "127.0.0.1:7002", "127.0.0.1:7003"];
        for digest in 0..256u64 {
            let a = rendezvous_owner(digest, shards.iter().copied());
            let b = rendezvous_owner(digest, shards.iter().copied());
            assert_eq!(a, b, "same inputs must route identically");
            // Order of the shard list must not matter (HRW is symmetric).
            let reversed = rendezvous_owner(digest, shards.iter().rev().copied());
            assert_eq!(a, reversed, "shard-list order must not affect routing");
        }
        assert_eq!(rendezvous_owner(1, std::iter::empty()), None);
    }

    #[test]
    fn rendezvous_spreads_keys_and_only_moves_the_dead_shards_share() {
        let shards = ["127.0.0.1:7001", "127.0.0.1:7002", "127.0.0.1:7003"];
        let mut owners = BTreeSet::new();
        let mut moved = 0usize;
        let survivors = [shards[0], shards[2]];
        for digest in 0..512u64 {
            let owner = rendezvous_owner(digest, shards.iter().copied()).expect("owner");
            owners.insert(owner);
            let rerouted = rendezvous_owner(digest, survivors.iter().copied()).expect("owner");
            if owner != shards[1] {
                // Keys not owned by the removed shard must not move — that
                // is the cache-locality property failover relies on.
                assert_eq!(owner, rerouted, "survivor-owned key moved on failover");
            } else {
                moved += 1;
            }
        }
        assert_eq!(owners.len(), shards.len(), "every shard must own keys");
        assert!(moved > 0, "the dead shard owned nothing out of 512 keys?");
    }

    #[test]
    fn shard_counters_are_labelled_by_ring_index_not_address() {
        use crate::{EvalServer, RegistryConfig, ServerConfig};
        use gcnrl_exec::EngineConfig;

        let server = EvalServer::bind(
            "127.0.0.1:0",
            ServerConfig {
                registry: RegistryConfig {
                    engine: EngineConfig::serial(),
                    ..RegistryConfig::default()
                },
                ..ServerConfig::default()
            },
        )
        .expect("bind loopback server");
        let live = server.local_addr();
        // A port that refuses connections: bound, then released.
        let dead = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|listener| listener.local_addr())
            .expect("reserve a port");
        let name =
            |family: &str, shard: &str| gcnrl_telemetry::labeled(family, &[("shard", shard)]);
        let count = |name: &str| {
            gcnrl_telemetry::global()
                .snapshot()
                .counter(name)
                .unwrap_or(0)
        };
        let requests_0 = name("serve.shard.requests", "0");
        let failovers_1 = name("serve.shard.failovers", "1");
        let (requests_before, failovers_before) = (count(&requests_0), count(&failovers_1));

        let node = TechnologyNode::tsmc180();
        let backend = ShardedBackend::connect(
            &[live.to_string(), dead.to_string()],
            Benchmark::TwoStageTia,
            &node,
            ShardedConfig::default(),
        )
        .expect("the live shard answers");
        let nominal = Benchmark::TwoStageTia
            .circuit()
            .design_space(&node)
            .nominal();
        backend.evaluate_batch(&[nominal]);

        // The first shard is "0" and the second "1", whatever their ports.
        assert_eq!(count(&requests_0), requests_before + 1);
        assert_eq!(count(&failovers_1), failovers_before + 1);
        let snapshot = gcnrl_telemetry::global().snapshot();
        for port in [live.port(), dead.port()] {
            let port = format!(":{port}");
            assert!(
                !snapshot
                    .counters
                    .iter()
                    .any(|(name, _)| name.contains(&port)),
                "a shard counter is labelled by address"
            );
        }
        backend.goodbye().expect("goodbye");
        server.shutdown();
    }
}
