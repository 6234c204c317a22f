//! Dense-vs-sparse MNA solve benchmark: full AC sweeps over the paper's
//! benchmark circuits plus synthetic RC ladders that show the asymptotics.
//!
//! The dense baseline is the legacy per-point path (re-walk the element list,
//! allocate and LU-factorise a dense matrix at every frequency).  The sparse
//! path compiles the circuit once into `G + jωC` stamp slots and refactors
//! numerically against a symbolic-once sparse LU.  Besides the criterion
//! timings, the harness cross-checks that both paths agree to 1e-9 and writes
//! `BENCH_sim.json` with the measured speedups so the perf trajectory is
//! tracked in CI.

use criterion::{criterion_group, criterion_main, Criterion};
use gcnrl_circuit::{benchmarks::Benchmark, ComponentKind, MosPolarity, TechnologyNode};
use gcnrl_linalg::Complex;
use gcnrl_sim::ac::log_sweep;
use gcnrl_sim::evaluators::{BiasTable, SmallSignalBuilder};
use gcnrl_sim::mosfet::MosDevice;
use gcnrl_sim::smallsignal::GROUND;
use gcnrl_sim::{solver_stats, AcCircuit, AcElement};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

/// One dense-vs-sparse sweep comparison, as written to `BENCH_sim.json`.
#[derive(Debug, Serialize)]
struct SweepCase {
    name: String,
    nodes: usize,
    freq_points: usize,
    dense_us: f64,
    sparse_us: f64,
    speedup: f64,
    max_rel_err: f64,
}

#[derive(Debug, Serialize)]
struct BenchSimReport {
    cases: Vec<SweepCase>,
    best_paper_speedup: f64,
    solver_symbolic_analyses: u64,
    solver_sparse_refactors: u64,
    solver_sparse_solves: u64,
    solver_dense_factors: u64,
    solver_cache_evictions: u64,
    /// Process-wide telemetry at the end of the run (assemble/factor/solve
    /// latency histograms for the sparse path under test).
    telemetry: gcnrl_telemetry::RegistrySnapshot,
}

/// Builds the linearised small-signal circuit of a paper benchmark at its
/// nominal sizing with a representative bias (the structure — node count and
/// sparsity pattern — is what the solver comparison depends on).
fn paper_circuit(b: Benchmark, node: &TechnologyNode) -> (AcCircuit, usize) {
    let circuit = b.circuit();
    let space = circuit.design_space(node);
    let pv = space.nominal();
    let builder = SmallSignalBuilder::new(&circuit, node);
    let mut bias = BiasTable::new();
    for comp in circuit.components() {
        let polarity = match comp.kind {
            ComponentKind::Nmos => MosPolarity::Nmos,
            ComponentKind::Pmos => MosPolarity::Pmos,
            _ => continue,
        };
        let sizing = pv.get(comp.id).as_mos().expect("transistor sizing");
        let dev = MosDevice::new(sizing, node.mos(polarity));
        bias.insert(&comp.name, dev.operating_point(50e-6, 0.9));
    }
    let (mut ac, _noise) = builder.build(&pv, &bias);
    let (input, output) = match b {
        Benchmark::TwoStageTia | Benchmark::ThreeStageTia => ("vin", "vout"),
        Benchmark::TwoStageVoltageAmp => ("vin_p", "vout"),
        Benchmark::Ldo => ("vfb", "vout"),
    };
    ac.add(AcElement::CurrentSource {
        a: GROUND,
        b: builder.ac_node(input),
        value: Complex::ONE,
    });
    (ac, builder.ac_node(output))
}

/// Synthetic RC ladder with `n` nodes: tridiagonal structure whose dense
/// solve cost grows as `n^3` while the sparse path stays linear.
fn ladder_circuit(n: usize) -> (AcCircuit, usize) {
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
    (ckt, n - 1)
}

/// Full sweep through the legacy dense path: per-point element walk,
/// allocation and dense LU.
fn dense_sweep(ckt: &AcCircuit, output: usize, freqs: &[f64]) -> Vec<Complex> {
    freqs
        .iter()
        .map(|&f| ckt.solve(f).expect("dense solve")[output])
        .collect()
}

/// Full sweep through the compiled path (includes the one-time compile, as
/// every evaluation pays it exactly once).
fn sparse_sweep(ckt: &AcCircuit, output: usize, freqs: &[f64]) -> Vec<Complex> {
    let mut compiled = ckt.compile().expect("compile");
    compiled
        .sweep_voltages(output, freqs)
        .expect("compiled sweep")
        .into_iter()
        .map(|(_, v)| v)
        .collect()
}

/// Median wall time of `runs` executions, in microseconds.
fn time_us<F: FnMut()>(mut f: F, runs: usize) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

fn compare_case(name: &str, ckt: &AcCircuit, output: usize, freqs: &[f64]) -> SweepCase {
    // Correctness first: full node vectors must agree to 1e-9 at every point.
    let mut compiled = ckt.compile().expect("compile");
    let mut max_rel_err = 0.0f64;
    for &f in freqs {
        let dense = ckt.solve(f).expect("dense solve");
        let sparse = compiled.solve_at(f).expect("sparse solve");
        for (d, s) in dense.iter().zip(&sparse) {
            let err = (*d - *s).abs() / (1.0 + d.abs());
            max_rel_err = max_rel_err.max(err);
        }
    }
    assert!(
        max_rel_err < 1e-9,
        "{name}: sparse/dense disagree ({max_rel_err:.3e})"
    );

    let runs = 15;
    let dense_us = time_us(|| drop(black_box(dense_sweep(ckt, output, freqs))), runs);
    let sparse_us = time_us(|| drop(black_box(sparse_sweep(ckt, output, freqs))), runs);
    SweepCase {
        name: name.to_owned(),
        nodes: ckt.num_nodes(),
        freq_points: freqs.len(),
        dense_us,
        sparse_us,
        speedup: dense_us / sparse_us,
        max_rel_err,
    }
}

fn bench_sweeps(c: &mut Criterion) {
    let node = TechnologyNode::tsmc180();
    solver_stats::reset();
    let freqs = log_sweep(1e3, 100e9, 12);
    let mut cases: Vec<SweepCase> = Vec::new();

    let mut group = c.benchmark_group("sim_full_sweep");
    group.sample_size(10);
    for b in Benchmark::ALL {
        let (ckt, out) = paper_circuit(b, &node);
        group.bench_function(format!("{}_dense", b.paper_name()), |bench| {
            bench.iter(|| black_box(dense_sweep(&ckt, out, &freqs)));
        });
        group.bench_function(format!("{}_sparse", b.paper_name()), |bench| {
            bench.iter(|| black_box(sparse_sweep(&ckt, out, &freqs)));
        });
        cases.push(compare_case(b.paper_name(), &ckt, out, &freqs));
    }
    for n in [20usize, 50, 100] {
        let (ckt, out) = ladder_circuit(n);
        let ladder_freqs = log_sweep(1e3, 1e9, 4);
        group.bench_function(format!("ladder_{n}_dense"), |bench| {
            bench.iter(|| black_box(dense_sweep(&ckt, out, &ladder_freqs)));
        });
        group.bench_function(format!("ladder_{n}_sparse"), |bench| {
            bench.iter(|| black_box(sparse_sweep(&ckt, out, &ladder_freqs)));
        });
        cases.push(compare_case(
            &format!("ladder_{n}"),
            &ckt,
            out,
            &ladder_freqs,
        ));
    }
    group.finish();

    let best_paper_speedup = cases
        .iter()
        .take(Benchmark::ALL.len())
        .map(|c| c.speedup)
        .fold(0.0f64, f64::max);
    println!("\nfull-sweep speedups (dense / sparse wall time):");
    for case in &cases {
        println!(
            "  {:<16} {:>3} nodes  {:>4} pts  dense {:>10.1} µs  sparse {:>10.1} µs  {:>6.2}x  (max rel err {:.2e})",
            case.name, case.nodes, case.freq_points, case.dense_us, case.sparse_us, case.speedup,
            case.max_rel_err,
        );
    }
    let stats = solver_stats::snapshot();
    println!("solver: {}", stats.summary());
    // Deterministic structural check: the whole run must amortise a handful
    // of symbolic analyses over very many numeric refactorisations.
    assert!(
        stats.symbolic_analyses <= 16 && stats.reuse_ratio() > 100.0,
        "symbolic analyses not amortised: {}",
        stats.summary()
    );
    // Wall-clock sanity floor.  The measured best is ~3.2x (see
    // BENCH_sim.json); the hard gate is looser so scheduler jitter on a
    // shared 1-CPU CI runner cannot fail an unrelated PR, and a genuine
    // regression to ~parity still does.
    assert!(
        best_paper_speedup >= 2.0,
        "sparse sweep regressed to near-dense speed, best was {best_paper_speedup:.2}x"
    );
    if best_paper_speedup < 3.0 {
        println!(
            "WARNING: best paper-benchmark speedup {best_paper_speedup:.2}x below the 3x target \
             (noisy runner?) — see BENCH_sim.json for the tracked trajectory"
        );
    }

    let report = BenchSimReport {
        cases,
        best_paper_speedup,
        solver_symbolic_analyses: stats.symbolic_analyses,
        solver_sparse_refactors: stats.sparse_refactors,
        solver_sparse_solves: stats.sparse_solves,
        solver_dense_factors: stats.dense_factors,
        solver_cache_evictions: stats.cache_evictions,
        telemetry: gcnrl_telemetry::global().snapshot(),
    };
    let json = serde_json::to_string_pretty(&report).expect("serialise report");
    let path = std::env::var("BENCH_SIM_PATH")
        .unwrap_or_else(|_| format!("{}/../../BENCH_sim.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&path, json).expect("write BENCH_sim.json");
    println!("wrote {path}");
}

criterion_group!(benches, bench_sweeps);
criterion_main!(benches);
