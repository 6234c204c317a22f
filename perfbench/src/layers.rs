//! Per-layer metrics shared by the workloads: the evaluation path
//! (`sim`, `exec`), read from the trace and from per-workload counter deltas.

use crate::report::{median, Outcome};
use crate::trace::Summary;
use gcnrl_exec::ExecStats;
use gcnrl_sim::{solver_stats, SolverStats};

/// Solver counters at a point in time; [`SolverMark::delta`] gives the work
/// done since, not the process total.
pub struct SolverMark(SolverStats);

impl SolverMark {
    pub fn now() -> Self {
        SolverMark(solver_stats::snapshot())
    }

    pub fn delta(&self) -> SolverStats {
        let now = solver_stats::snapshot();
        let then = self.0;
        SolverStats {
            symbolic_analyses: now.symbolic_analyses - then.symbolic_analyses,
            sparse_refactors: now.sparse_refactors - then.sparse_refactors,
            sparse_solves: now.sparse_solves - then.sparse_solves,
            dense_factors: now.dense_factors - then.dense_factors,
            dense_solves: now.dense_solves - then.dense_solves,
            template_hits: now.template_hits - then.template_hits,
            template_builds: now.template_builds - then.template_builds,
            update_hits: now.update_hits - then.update_hits,
            refactor_fallbacks: now.refactor_fallbacks - then.refactor_fallbacks,
            cache_evictions: now.cache_evictions - then.cache_evictions,
        }
    }
}

/// Engine counters accumulated over several engines (or one engine's delta).
pub fn add_exec(total: &mut ExecStats, more: &ExecStats) {
    total.requests += more.requests;
    total.simulated += more.simulated;
    total.cache_hits += more.cache_hits;
    total.evictions += more.evictions;
    total.batches += more.batches;
    total.wall_seconds += more.wall_seconds;
}

/// `after - before` for one engine's cumulative counters.
pub fn exec_delta(after: &ExecStats, before: &ExecStats) -> ExecStats {
    ExecStats {
        requests: after.requests - before.requests,
        simulated: after.simulated - before.simulated,
        cache_hits: after.cache_hits - before.cache_hits,
        evictions: after.evictions - before.evictions,
        batches: after.batches - before.batches,
        cache_len: after.cache_len,
        wall_seconds: after.wall_seconds - before.wall_seconds,
    }
}

/// Records the `sim.*` and `exec.*` metrics of a traced phase.
pub fn record_eval_path(
    outcome: &mut Outcome,
    trace: &Summary,
    engine: &ExecStats,
    solver: &SolverStats,
) {
    let sim = trace.get("sim.evaluate");
    outcome.set("sim.evaluate.calls", sim.items as f64);
    outcome.set("sim.evaluate.total_s", sim.total_s);
    outcome.set("sim.evaluate.p50_us", 1e6 * median(&sim.durations));
    outcome.set(
        "sim.solver.sparse_refactors",
        solver.sparse_refactors as f64,
    );
    outcome.set("sim.solver.dense_factors", solver.dense_factors as f64);
    outcome.set("sim.solver.template_builds", solver.template_builds as f64);
    outcome.set("sim.solver.update_hits", solver.update_hits as f64);
    outcome.set(
        "sim.solver.refactor_fallbacks",
        solver.refactor_fallbacks as f64,
    );

    let backend = trace.get("exec.backend");
    outcome.set("exec.backend.calls", backend.calls as f64);
    outcome.set("exec.backend.candidates", backend.items as f64);
    outcome.set("exec.backend.total_s", backend.total_s);
    outcome.set("exec.engine.wall_s", engine.wall_seconds);
    // The engines run single-threaded, so every simulation of a batch lies
    // inside the engine's wall time on the same thread.
    outcome.set("exec.engine.self_s", engine.wall_seconds - sim.total_s);
    outcome.set("exec.cache.hits", engine.cache_hits as f64);
    outcome.set("exec.cache.misses", engine.simulated as f64);
    if engine.requests > 0 {
        outcome.set(
            "exec.cache.hit_ratio",
            engine.cache_hits as f64 / engine.requests as f64,
        );
    }
}

/// Records `unattributed_share` and `trace.overhead_share`.
///
/// `thread_walls` are the `(thread, wall seconds)` of the threads that ran
/// the traced phase; time on them outside any top-level span is
/// unattributed. `untraced_wall` and `traced_wall` time the same work.
pub fn record_attribution(
    outcome: &mut Outcome,
    trace: &Summary,
    thread_walls: &[(u32, f64)],
    untraced_wall: f64,
    traced_wall: f64,
) {
    let wall: f64 = thread_walls.iter().map(|(_, w)| w).sum();
    let spanned: f64 = thread_walls
        .iter()
        .map(|(thread, _)| trace.top_level_on(*thread))
        .sum();
    outcome.set("unattributed_share", (wall - spanned) / wall);
    outcome.set("trace.overhead_share", traced_wall / untraced_wall - 1.0);
    outcome.notes.push(format!(
        "traced phase {traced_wall:.3} s vs the same work untraced {untraced_wall:.3} s"
    ));
}
