//! Pre-compiled small-signal circuits: `Y(ω) = G + jωC` sweep assembly over
//! a fixed sparsity pattern with symbolic-once LU refactorisation.
//!
//! [`AcCircuit`] stores a flat element list, and its dense reference solve
//! re-walks it (and re-allocates an `n x n` matrix) at every frequency point.
//! [`CompiledAc`] does that walk **once**: every element is lowered into
//! frequency-independent conductance stamps `G` and frequency-dependent
//! capacitance stamps `C` aggregated per matrix slot, so a sweep point
//! assembles `Y(ω) = G + jωC` with a single pass over the cached nonzero
//! slots and then numerically refactors against a shared symbolic analysis
//! (see [`gcnrl_linalg::sparse`]).  Every system, from one node up, takes
//! this one sparse path.
//!
//! The sparsity pattern, its symbolic analysis and the slot of every stamp
//! depend only on the topology, so they live in one process-wide template
//! cache; topologies that lower to equal patterns share one analysis.

use crate::smallsignal::{AcCircuit, AcElement, NodeIndex, GMIN, GROUND};
use crate::solver_stats;
use crate::SimError;
use gcnrl_linalg::sparse::{SoaLu, SparseLu, SparsityPattern, SymbolicLu, SOA_LANES};
use gcnrl_linalg::Complex;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Relative residual above which the sparse solve applies one step of
/// iterative refinement (static pattern-chosen pivoting is almost always
/// accurate on MNA systems; the residual check catches the rare exception).
const REFINE_THRESHOLD: f64 = 1e-10;

/// Squared element-growth bound under which a factorisation is considered
/// backward stable and the per-solve residual verification is skipped
/// entirely (growth `1e4`, i.e. a backward error around `n·eps·1e4 ≈ 1e-11`
/// for the node counts at hand).
const BENIGN_GROWTH_SQ: f64 = 1e8;

/// Bound on the process-wide per-topology template cache (far above the
/// handful of distinct circuit topologies any run touches; a safety valve,
/// not a limit).
const TEMPLATE_CACHE_MAX: usize = 256;

/// Monotonic logical clock for cache recency: entries stamp the tick on
/// insert and on every hit, and the eviction at capacity removes the entry
/// with the smallest stamp (the coldest) instead of dropping everything.
static CACHE_TICK: AtomicU64 = AtomicU64::new(0);

fn next_cache_tick() -> u64 {
    CACHE_TICK.fetch_add(1, Ordering::Relaxed)
}

/// Everything about the sparse stamp-slot lowering of one circuit topology
/// that does not depend on element values: the sparsity pattern, its
/// symbolic analysis, and the pattern slot of every stamp in the canonical
/// lowering order.  Cached process-wide keyed by the stamp-position sequence,
/// so repeated compiles of the same evaluator (one per candidate evaluation)
/// skip the pattern build, the per-stamp slot searches and the symbolic
/// analysis entirely.
struct AcTemplate {
    /// The stamp positions in canonical lowering order (the cache identity:
    /// two circuits with the same position sequence lower identically).
    positions: Vec<(usize, usize)>,
    pattern: Arc<SparsityPattern>,
    symbolic: Arc<SymbolicLu>,
    /// `slots[i]` is the pattern slot of `positions[i]`.
    slots: Vec<usize>,
}

/// Templates bucketed by the hash of their positions, each stamped with the
/// tick of its last use.
type TemplateMap = HashMap<u64, Vec<(u64, Arc<AcTemplate>)>>;

static TEMPLATE_CACHE: OnceLock<Mutex<TemplateMap>> = OnceLock::new();

/// Removes the least-recently-used template (and its bucket once empty).
fn evict_coldest(map: &mut TemplateMap) {
    let mut coldest: Option<(u64, u64, usize)> = None; // (tick, key, idx)
    for (&key, bucket) in map.iter() {
        for (idx, entry) in bucket.iter().enumerate() {
            if coldest.is_none_or(|(tick, ..)| entry.0 < tick) {
                coldest = Some((entry.0, key, idx));
            }
        }
    }
    if let Some((_, key, idx)) = coldest {
        let bucket = map.get_mut(&key).expect("coldest bucket exists");
        bucket.remove(idx);
        if bucket.is_empty() {
            map.remove(&key);
        }
        solver_stats::record_cache_eviction();
    }
}

/// Returns the compiled template for the topology whose canonical stamp
/// positions are `positions`, building (and caching) it on first sight.
fn template_for(n: usize, positions: &[(usize, usize)]) -> Result<Arc<AcTemplate>, SimError> {
    let mut hasher = DefaultHasher::new();
    n.hash(&mut hasher);
    positions.hash(&mut hasher);
    let key = hasher.finish();

    let cache = TEMPLATE_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().expect("template cache poisoned");
    if let Some(bucket) = map.get_mut(&key) {
        for (tick, t) in bucket {
            if t.pattern.n() == n && t.positions == positions {
                *tick = next_cache_tick();
                solver_stats::record_template_hit();
                return Ok(t.clone());
            }
        }
    }

    // Build under the lock: a miss happens once per topology per process,
    // so a concurrent first request of the same topology waits and then
    // hits, instead of building (and counting) a duplicate.
    let singular = |_| SimError::SingularSystem { frequency_hz: 0.0 };
    let pattern = SparsityPattern::from_positions(n, positions).map_err(singular)?;
    // Different position sequences can lower to one pattern (Two-Volt's two
    // sweeps do): reuse a cached template's analysis of an equal pattern, so
    // each pattern is analysed once per process.  Any match will do, since
    // the analysis is a pure function of the pattern.
    let shared = map
        .values()
        .flatten()
        .find(|(_, t)| *t.pattern == pattern)
        .map(|(_, t)| (t.pattern.clone(), t.symbolic.clone()));
    let (pattern, symbolic) = match shared {
        Some(shared) => shared,
        None => {
            let symbolic = SymbolicLu::analyze(&pattern).map_err(singular)?;
            solver_stats::record_symbolic_analysis();
            (Arc::new(pattern), Arc::new(symbolic))
        }
    };
    let slots: Vec<usize> = positions
        .iter()
        .map(|&(r, c)| pattern.slot(r, c).expect("stamp position is in pattern"))
        .collect();
    let template = Arc::new(AcTemplate {
        positions: positions.to_vec(),
        pattern,
        symbolic,
        slots,
    });
    solver_stats::record_template_build();

    if map.values().map(Vec::len).sum::<usize>() >= TEMPLATE_CACHE_MAX {
        evict_coldest(&mut map);
    }
    map.entry(key)
        .or_default()
        .push((next_cache_tick(), template.clone()));
    Ok(template)
}

/// Accumulated `(G, C)` stamp pair for one matrix position.
#[derive(Debug, Clone, Copy, Default)]
struct GcStamp {
    g: f64,
    c: f64,
}

/// A small-signal circuit compiled for repeated solves over a sweep.
pub struct CompiledAc {
    rhs: Vec<Complex>,
    /// The template's sparsity pattern; `g`, `c` and `y` hold one value per
    /// slot of it.
    pattern: Arc<SparsityPattern>,
    /// Per-slot `G` and `C` images.
    g: Vec<f64>,
    c: Vec<f64>,
    /// Per-slot `Y(ω)` at the last scalar factorisation.
    y: Vec<Complex>,
    /// Numeric LU state bound to the template's symbolic analysis.
    numeric: SparseLu,
    /// Lazily-built struct-of-arrays lane state for chunked sweeps; each
    /// lane is bit-identical to `numeric`'s scalar factor/solve.
    soa: Option<SoaLu>,
    factored_at: Option<f64>,
    factor_count: u64,
    /// Solution buffer: holds the RHS before a solve and the solution after.
    x_buf: Vec<Complex>,
    /// Residual / refinement-correction buffer.
    r_buf: Vec<Complex>,
}

impl CompiledAc {
    /// Compiles `circuit`: one element walk producing aggregated `G`/`C`
    /// stamps, scattered into the slots of the topology's cached template
    /// (sparsity pattern plus symbolic LU analysis).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SingularSystem`] if the structure cannot support a
    /// factorisation (never the case for MNA systems, whose diagonal is
    /// structurally complete thanks to the GMIN leakage).
    pub fn compile(circuit: &AcCircuit) -> Result<Self, SimError> {
        let n = circuit.num_nodes().max(1);
        let mut stamps: Vec<(usize, usize, GcStamp)> = Vec::new();
        let mut rhs = vec![Complex::ZERO; n];

        let stamp = |entries: &mut Vec<(usize, usize, GcStamp)>,
                     r: NodeIndex,
                     c: NodeIndex,
                     g: f64,
                     cap: f64| {
            if r != GROUND && c != GROUND {
                entries.push((r, c, GcStamp { g, c: cap }));
            }
        };
        let stamp_pair = |entries: &mut Vec<(usize, usize, GcStamp)>,
                          a: NodeIndex,
                          b: NodeIndex,
                          g: f64,
                          cap: f64| {
            if a != GROUND {
                entries.push((a, a, GcStamp { g, c: cap }));
            }
            if b != GROUND {
                entries.push((b, b, GcStamp { g, c: cap }));
            }
            if a != GROUND && b != GROUND {
                entries.push((a, b, GcStamp { g: -g, c: -cap }));
                entries.push((b, a, GcStamp { g: -g, c: -cap }));
            }
        };

        for i in 0..n {
            stamps.push((i, i, GcStamp { g: GMIN, c: 0.0 }));
        }
        for e in circuit.elements() {
            match *e {
                AcElement::Conductance { a, b, g } => stamp_pair(&mut stamps, a, b, g, 0.0),
                AcElement::Capacitance { a, b, c } => stamp_pair(&mut stamps, a, b, 0.0, c),
                AcElement::Vccs {
                    out_p,
                    out_n,
                    ctrl_p,
                    ctrl_n,
                    gm,
                } => {
                    stamp(&mut stamps, out_p, ctrl_p, gm, 0.0);
                    stamp(&mut stamps, out_p, ctrl_n, -gm, 0.0);
                    stamp(&mut stamps, out_n, ctrl_p, -gm, 0.0);
                    stamp(&mut stamps, out_n, ctrl_n, gm, 0.0);
                }
                AcElement::CurrentSource { a, b, value } => {
                    if b != GROUND {
                        rhs[b] += value;
                    }
                    if a != GROUND {
                        rhs[a] -= value;
                    }
                }
            }
        }

        // The stamp *positions* are a pure function of the topology, so the
        // pattern, the symbolic analysis and the per-stamp slot map come
        // from the per-topology template cache; only the value scatter below
        // runs per compile.
        let positions: Vec<(usize, usize)> = stamps.iter().map(|&(r, c, _)| (r, c)).collect();
        let template = template_for(n, &positions)?;
        let mut g = vec![0.0; template.pattern.nnz()];
        let mut c = vec![0.0; template.pattern.nnz()];
        for (&(_, _, s), &slot) in stamps.iter().zip(&template.slots) {
            g[slot] += s.g;
            c[slot] += s.c;
        }
        let numeric = SparseLu::new(template.symbolic.clone(), &template.pattern)
            .map_err(|_| SimError::SingularSystem { frequency_hz: 0.0 })?;

        Ok(CompiledAc {
            rhs,
            pattern: template.pattern.clone(),
            y: vec![Complex::ZERO; g.len()],
            g,
            c,
            numeric,
            soa: None,
            factored_at: None,
            factor_count: 0,
            x_buf: vec![Complex::ZERO; n],
            r_buf: vec![Complex::ZERO; n],
        })
    }

    /// Assembles `Y(ω) = G + jωC` over the cached slots and numerically
    /// (re)factorises it.  A repeated call at the current frequency is free.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SingularSystem`] if the factorisation fails.
    pub fn factor_at(&mut self, freq_hz: f64) -> Result<(), SimError> {
        if self.factored_at == Some(freq_hz) {
            return Ok(());
        }
        self.factored_at = None;
        let omega = 2.0 * std::f64::consts::PI * freq_hz;
        {
            let _assemble = gcnrl_telemetry::span!("sim.assemble.ns");
            for ((v, &gv), &cv) in self.y.iter_mut().zip(&self.g).zip(&self.c) {
                *v = Complex::new(gv, omega * cv);
            }
        }
        {
            let _factor = gcnrl_telemetry::span!("sim.factor.ns");
            self.numeric
                .refactor(&self.y)
                .map_err(|_| SimError::SingularSystem {
                    frequency_hz: freq_hz,
                })?;
            solver_stats::record_sparse_refactor();
        }
        self.factored_at = Some(freq_hz);
        self.factor_count += 1;
        Ok(())
    }

    /// Number of numeric factorisations this instance has performed (repeat
    /// requests at the current frequency are served without refactoring).
    pub fn factor_count(&self) -> u64 {
        self.factor_count
    }

    /// Solves the RHS currently loaded in `x_buf` in place (allocation-free),
    /// with one step of residual-gated iterative refinement to keep static
    /// pivoting at dense-LU accuracy.
    fn solve_loaded(&mut self) -> Result<(), SimError> {
        let _solve = gcnrl_telemetry::span!("sim.solve.ns");
        let freq = self.factored_at.unwrap_or(0.0);
        let singular = |_| SimError::SingularSystem { frequency_hz: freq };
        solver_stats::record_sparse_solve();
        if self.numeric.growth_sq() <= BENIGN_GROWTH_SQ {
            // The factorisation is backward stable: solve directly, no
            // residual verification needed.
            return self
                .numeric
                .solve_in_place(&mut self.x_buf)
                .map_err(singular);
        }
        // b is needed for the residual check; stash it in r_buf.
        self.r_buf.copy_from_slice(&self.x_buf);
        self.numeric
            .solve_in_place(&mut self.x_buf)
            .map_err(singular)?;
        // r = b - A x, written over the stashed b.  Squared-magnitude
        // comparisons keep `hypot` off the hot path; comparing
        // |r|^2 > t^2 (1 + |b|^2) is conservative (refines at least as often
        // as the |r| > t (1 + |b|) gate would).
        let mut b_sq = 0.0f64;
        let mut resid_sq = 0.0f64;
        for (r, acc) in self.r_buf.iter_mut().enumerate() {
            b_sq = b_sq.max(acc.abs_sq());
            for (&c, s) in self.pattern.row(r).iter().zip(self.pattern.row_slots(r)) {
                *acc -= self.y[s] * self.x_buf[c];
            }
            resid_sq = resid_sq.max(acc.abs_sq());
        }
        if resid_sq > REFINE_THRESHOLD * REFINE_THRESHOLD * (1.0 + b_sq) {
            self.numeric
                .solve_in_place(&mut self.r_buf)
                .map_err(singular)?;
            for (x, c) in self.x_buf.iter_mut().zip(&self.r_buf) {
                *x += *c;
            }
        }
        Ok(())
    }

    /// Solves for all node voltages using the circuit's own sources, against
    /// the current factorisation.
    fn solve_sources(&mut self) -> Result<Vec<Complex>, SimError> {
        self.x_buf.copy_from_slice(&self.rhs);
        self.solve_loaded()?;
        Ok(self.x_buf.clone())
    }

    /// The voltage at `output` produced by a unit current injected from `a`
    /// into `b`, ignoring the circuit's own sources; reuses the current
    /// factorisation, which is what makes the noise analysis
    /// one-factor-per-frequency.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SingularSystem`] if no factorisation is current.
    pub fn injection_gain(
        &mut self,
        a: NodeIndex,
        b: NodeIndex,
        output: NodeIndex,
    ) -> Result<Complex, SimError> {
        self.x_buf.fill(Complex::ZERO);
        if b != GROUND {
            self.x_buf[b] += Complex::ONE;
        }
        if a != GROUND {
            self.x_buf[a] -= Complex::ONE;
        }
        self.solve_loaded()?;
        Ok(self.x_buf[output])
    }

    /// Factors at `freq_hz` and solves with the circuit's own sources.
    ///
    /// # Errors
    ///
    /// Propagates factorisation and solve failures.
    pub fn solve_at(&mut self, freq_hz: f64) -> Result<Vec<Complex>, SimError> {
        self.factor_at(freq_hz)?;
        self.solve_sources()
    }

    /// Sweeps the transfer function to `output` over `freqs`.
    ///
    /// Assembles and factors up to [`SOA_LANES`] frequency points per pass
    /// through the struct-of-arrays kernels (lane results are bit-identical
    /// to the scalar path); a single-point tail chunk, or a chunk whose
    /// factorisation is singular or whose element growth exceeds the benign
    /// bound, takes the scalar per-point path, which reports errors precisely
    /// and applies residual-gated refinement.
    ///
    /// # Errors
    ///
    /// Propagates the first failing frequency point.
    pub fn sweep_voltages(
        &mut self,
        output: NodeIndex,
        freqs: &[f64],
    ) -> Result<Vec<(f64, Complex)>, SimError> {
        let mut points = Vec::with_capacity(freqs.len());
        for chunk in freqs.chunks(SOA_LANES) {
            let lanes = if chunk.len() >= 2 {
                self.soa_chunk_solutions(chunk)?
            } else {
                None
            };
            match lanes {
                Some(sols) => {
                    for (&f, sol) in chunk.iter().zip(&sols) {
                        points.push((f, sol[output]));
                    }
                }
                None => points.extend(self.sweep_voltages_scalar(output, chunk)?),
            }
        }
        Ok(points)
    }

    /// The scalar reference sweep: one value-only restamp, numeric refactor
    /// and solve per frequency point.  Single-point chunks and chunks the
    /// lanes refuse sweep this way; it stays public as the reference the
    /// struct-of-arrays lanes are pinned bit-identical against.
    ///
    /// # Errors
    ///
    /// Propagates the first failing frequency point.
    pub fn sweep_voltages_scalar(
        &mut self,
        output: NodeIndex,
        freqs: &[f64],
    ) -> Result<Vec<(f64, Complex)>, SimError> {
        let mut points = Vec::with_capacity(freqs.len());
        for &f in freqs {
            self.factor_at(f)?;
            self.x_buf.copy_from_slice(&self.rhs);
            self.solve_loaded()?;
            points.push((f, self.x_buf[output]));
        }
        Ok(points)
    }

    /// Factors a chunk of frequencies through the struct-of-arrays kernels
    /// and solves the circuit's own sources against every lane.
    ///
    /// Returns `Ok(None)` when the chunk should take the scalar path instead
    /// (singular lane, or element growth beyond the benign bound where the
    /// scalar path's residual-gated refinement is required); `Ok(Some(sols))`
    /// with `sols[lane][node]` otherwise.
    fn soa_chunk_solutions(
        &mut self,
        chunk: &[f64],
    ) -> Result<Option<Vec<Vec<Complex>>>, SimError> {
        if self.soa.is_none() {
            let symbolic = self.numeric.symbolic().clone();
            let Ok(soa) = SoaLu::new(symbolic, &self.pattern) else {
                return Ok(None);
            };
            self.soa = Some(soa);
        }
        let soa = self.soa.as_mut().expect("lane state initialised above");
        let omegas: Vec<f64> = chunk
            .iter()
            .map(|&f| 2.0 * std::f64::consts::PI * f)
            .collect();
        {
            let _refactor = gcnrl_telemetry::span!("sim.soa_refactor.ns");
            if soa.refactor_gc(&self.g, &self.c, &omegas).is_err() {
                return Ok(None);
            }
        }
        if soa.max_growth_sq() > BENIGN_GROWTH_SQ {
            return Ok(None);
        }
        let active = soa.active() as u64;
        for _ in 0..active {
            solver_stats::record_sparse_refactor();
        }
        self.factor_count += active;
        let _solve = gcnrl_telemetry::span!("sim.solve.ns");
        let sols = soa
            .solve_broadcast(&self.rhs)
            .map_err(|_| SimError::SingularSystem {
                frequency_hz: chunk[0],
            })?;
        for _ in 0..active {
            solver_stats::record_sparse_solve();
        }
        Ok(Some(sols))
    }
}

impl AcCircuit {
    /// Compiles the circuit for repeated solves (see [`CompiledAc`]).
    ///
    /// # Errors
    ///
    /// Propagates [`CompiledAc::compile`] failures.
    pub fn compile(&self) -> Result<CompiledAc, SimError> {
        CompiledAc::compile(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smallsignal::AcElement;

    /// RC ladder with `n` nodes driven by a current source at node 0.
    fn ladder(n: usize) -> AcCircuit {
        let mut ckt = AcCircuit::new(n);
        for i in 0..n {
            let prev = if i == 0 { GROUND } else { i - 1 };
            ckt.add(AcElement::Conductance {
                a: prev,
                b: i,
                g: 1e-3,
            });
            ckt.add(AcElement::Capacitance {
                a: i,
                b: GROUND,
                c: 1e-12,
            });
        }
        ckt.add(AcElement::CurrentSource {
            a: GROUND,
            b: 0,
            value: Complex::ONE,
        });
        ckt
    }

    #[test]
    fn compiled_matches_dense_reference_across_sizes() {
        for n in [1usize, 2, 3, 4, 8, 17] {
            let ckt = ladder(n);
            let mut compiled = ckt.compile().unwrap();
            for freq in [1.0, 1e6, 1e9] {
                let reference = ckt.solve(freq).unwrap();
                let fast = compiled.solve_at(freq).unwrap();
                for (a, b) in reference.iter().zip(&fast) {
                    assert!((*a - *b).abs() < 1e-9 * (1.0 + a.abs()), "n={n} f={freq}");
                }
            }
        }
    }

    #[test]
    fn injection_matches_dense_reference() {
        let ckt = ladder(6);
        let mut compiled = ckt.compile().unwrap();
        compiled.factor_at(2e6).unwrap();
        let reference = ckt.solve_injection(2e6, GROUND, 3).unwrap();
        for (node, a) in reference.iter().enumerate() {
            let b = compiled.injection_gain(GROUND, 3, node).unwrap();
            assert!((*a - b).abs() < 1e-9 * (1.0 + a.abs()), "node {node}");
        }
    }

    #[test]
    fn repeated_factor_at_same_frequency_is_cached() {
        let ckt = ladder(5);
        let mut compiled = ckt.compile().unwrap();
        compiled.factor_at(1e6).unwrap();
        compiled.factor_at(1e6).unwrap();
        assert_eq!(compiled.factor_count(), 1);
        compiled.factor_at(2e6).unwrap();
        assert_eq!(compiled.factor_count(), 2);
    }

    #[test]
    fn sweep_voltages_matches_pointwise_solves() {
        let ckt = ladder(7);
        let mut compiled = ckt.compile().unwrap();
        let freqs = [1.0, 1e3, 1e6, 1e9];
        let swept = compiled.sweep_voltages(2, &freqs).unwrap();
        for (f, v) in swept {
            let reference = ckt.solve(f).unwrap()[2];
            assert!((v - reference).abs() < 1e-9 * (1.0 + reference.abs()));
        }
    }

    #[test]
    fn repeated_compiles_of_the_same_topology_hit_the_template_cache() {
        let ckt = ladder(9);
        let _ = ckt.compile().unwrap(); // first compile builds (or finds) the template
        let before = solver_stats::snapshot();
        let _ = ckt.compile().unwrap();
        let after = solver_stats::snapshot();
        assert!(
            after.template_hits > before.template_hits,
            "second compile of an identical topology must be a template hit"
        );
    }

    #[test]
    fn template_reuse_across_sizings_matches_the_dense_reference() {
        // Same topology, different element values: the cached template is
        // shared while the stamped values differ, and both agree with the
        // dense reference.
        let build = |g: f64, c: f64| {
            let mut ckt = AcCircuit::new(6);
            for i in 0..6 {
                let prev = if i == 0 { GROUND } else { i - 1 };
                ckt.add(AcElement::Conductance { a: prev, b: i, g });
                ckt.add(AcElement::Capacitance { a: i, b: GROUND, c });
            }
            ckt.add(AcElement::CurrentSource {
                a: GROUND,
                b: 0,
                value: Complex::ONE,
            });
            ckt
        };
        for (g, c) in [(1e-3, 1e-12), (5e-4, 3e-13), (2e-2, 8e-12)] {
            let ckt = build(g, c);
            let mut compiled = ckt.compile().unwrap();
            for f in [1e2, 1e6, 1e9] {
                let fast = compiled.solve_at(f).unwrap();
                let reference = ckt.solve(f).unwrap();
                for (a, b) in reference.iter().zip(&fast) {
                    assert!(
                        (*a - *b).abs() < 1e-9 * (1.0 + a.abs()),
                        "g={g} c={c} f={f}"
                    );
                }
            }
        }
    }

    #[test]
    fn soa_sweep_is_bit_identical_to_scalar_sweep() {
        // The struct-of-arrays chunk path must not change a single bit of
        // the sweep relative to the scalar per-point reference, including
        // over a partial tail chunk (11 points = one full chunk + 3 lanes).
        let ckt = ladder(10);
        let mut soa = ckt.compile().unwrap();
        let mut scalar = ckt.compile().unwrap();
        let freqs: Vec<f64> = (0..11).map(|i| 10f64.powi(i)).collect();
        let fast = soa.sweep_voltages(3, &freqs).unwrap();
        let reference = scalar.sweep_voltages_scalar(3, &freqs).unwrap();
        assert_eq!(fast.len(), reference.len());
        for ((f0, v0), (f1, v1)) in fast.iter().zip(&reference) {
            assert_eq!(f0, f1);
            assert_eq!(v0.re.to_bits(), v1.re.to_bits(), "re differs at {f0} Hz");
            assert_eq!(v0.im.to_bits(), v1.im.to_bits(), "im differs at {f0} Hz");
        }
    }

    #[test]
    fn template_cache_evicts_cold_entries_instead_of_clearing() {
        // More distinct topologies than the cache holds: a 26-node ladder
        // plus one extra conductance over a distinct node pair each gives
        // 325 distinct patterns.  The cache must evict (counter moves) and
        // the most recently used topology must survive the churn.
        let n = 26;
        let variant = |a: usize, b: usize| {
            let mut ckt = ladder(n);
            ckt.add(AcElement::Conductance { a, b, g: 1e-5 });
            ckt
        };
        let before = solver_stats::snapshot();
        let mut last = (0, 1);
        let mut count = 0;
        'outer: for a in 0..n {
            for b in (a + 1)..n {
                let _ = variant(a, b).compile().unwrap();
                last = (a, b);
                count += 1;
                if count > TEMPLATE_CACHE_MAX + 8 {
                    break 'outer;
                }
            }
        }
        let churned = solver_stats::snapshot();
        assert!(
            churned.cache_evictions > before.cache_evictions,
            "filling past capacity must evict cold entries"
        );
        // The hottest (last-inserted) topology is still cached.
        let hits_before = solver_stats::snapshot().template_hits;
        let _ = variant(last.0, last.1).compile().unwrap();
        assert!(
            solver_stats::snapshot().template_hits > hits_before,
            "most recently used entry must survive eviction"
        );
    }

    #[test]
    fn vccs_circuit_compiles_and_agrees() {
        // Common-source stage driving an RC ladder.
        let mut ckt = AcCircuit::new(5);
        ckt.drive_voltage(0, 1.0);
        ckt.add(AcElement::Vccs {
            out_p: 1,
            out_n: GROUND,
            ctrl_p: 0,
            ctrl_n: GROUND,
            gm: 1e-3,
        });
        for i in 1..5 {
            ckt.add(AcElement::Conductance {
                a: i - 1,
                b: i,
                g: 1e-4,
            });
            ckt.add(AcElement::Capacitance {
                a: i,
                b: GROUND,
                c: 1e-13,
            });
        }
        let mut compiled = ckt.compile().unwrap();
        for f in [10.0, 1e7] {
            let fast = compiled.solve_at(f).unwrap();
            let reference = ckt.solve(f).unwrap();
            for (a, b) in reference.iter().zip(&fast) {
                assert!((*a - *b).abs() < 1e-9 * (1.0 + a.abs()));
            }
        }
    }
}
