//! Sparse-vs-dense equivalence of the MNA solve path.
//!
//! Random well-conditioned circuits are generated and solved both through the
//! legacy dense reference path ([`AcCircuit::solve`]) and through the
//! compiled sparse path ([`AcCircuit::compile`], `G + jωC` restamping against
//! a symbolic-once LU); node voltages must agree to 1e-9 across a log sweep.
//! Value-only restamp reuse and the singular error paths are covered by unit
//! tests below.

use gcnrl_linalg::Complex;
use gcnrl_sim::ac::log_sweep;
use gcnrl_sim::smallsignal::GROUND;
use gcnrl_sim::{AcCircuit, AcElement, SimError};
use proptest::prelude::*;

/// Builds a random but structurally well-conditioned circuit: a conductive
/// ladder to keep every node anchored, plus random cross conductances,
/// capacitances and moderate-transconductance VCCS elements.
fn random_circuit(
    n: usize,
    anchors: &[f64],
    cross: &[(usize, usize, f64, f64)],
    vccs: &[(usize, usize, f64)],
) -> AcCircuit {
    let mut ckt = AcCircuit::new(n);
    for (i, &g) in anchors.iter().enumerate().take(n) {
        let prev = if i == 0 { GROUND } else { i - 1 };
        ckt.add(AcElement::Conductance {
            a: prev,
            b: i,
            g: 1e-4 + g.abs(),
        });
        ckt.add(AcElement::Capacitance {
            a: i,
            b: GROUND,
            c: 1e-13 + g.abs() * 1e-11,
        });
    }
    for &(a, b, g, c) in cross {
        let (a, b) = (a % n, b % n);
        if a != b {
            ckt.add(AcElement::Conductance { a, b, g: g.abs() });
            ckt.add(AcElement::Capacitance { a, b, c: c.abs() });
        }
    }
    for &(out, ctrl, gm) in vccs {
        let (out, ctrl) = (out % n, ctrl % n);
        ckt.add(AcElement::Vccs {
            out_p: out,
            out_n: GROUND,
            ctrl_p: ctrl,
            ctrl_n: GROUND,
            gm,
        });
    }
    ckt.add(AcElement::CurrentSource {
        a: GROUND,
        b: 0,
        value: Complex::ONE,
    });
    ckt
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sparse and dense node voltages agree to 1e-9 across a log sweep.
    #[test]
    fn sparse_matches_dense_across_log_sweep(
        anchors in prop::collection::vec(1e-4f64..1e-2, 10),
        cross_idx in prop::collection::vec(0usize..10, 8),
        cross_g in prop::collection::vec(1e-5f64..1e-3, 4),
        cross_c in prop::collection::vec(1e-14f64..1e-11, 4),
        vccs_idx in prop::collection::vec(0usize..10, 4),
        gm in prop::collection::vec(1e-5f64..1e-3, 2),
        nodes in 4usize..11,
    ) {
        let cross: Vec<(usize, usize, f64, f64)> = (0..4)
            .map(|k| (cross_idx[2 * k], cross_idx[2 * k + 1], cross_g[k], cross_c[k]))
            .collect();
        let vccs: Vec<(usize, usize, f64)> = (0..2)
            .map(|k| (vccs_idx[2 * k], vccs_idx[2 * k + 1], gm[k]))
            .collect();
        let ckt = random_circuit(nodes, &anchors, &cross, &vccs);
        let mut compiled = ckt.compile().unwrap();
        prop_assert!(compiled.is_sparse());
        for f in log_sweep(1.0, 1e9, 2) {
            let dense = ckt.solve(f).unwrap();
            let sparse = compiled.solve_at(f).unwrap();
            for (d, s) in dense.iter().zip(&sparse) {
                prop_assert!(
                    (*d - *s).abs() < 1e-9 * (1.0 + d.abs()),
                    "f={} dense={:?} sparse={:?}", f, d, s
                );
            }
        }
    }
}

/// A value-only restamp (same topology, different element values) must reuse
/// the compiled machinery and still match the dense reference.
#[test]
fn symbolic_reuse_after_value_only_restamp() {
    let build = |scale: f64| {
        let mut ckt = AcCircuit::new(6);
        for i in 0..6 {
            let prev = if i == 0 { GROUND } else { i - 1 };
            ckt.add(AcElement::Conductance {
                a: prev,
                b: i,
                g: 1e-3 * scale,
            });
            ckt.add(AcElement::Capacitance {
                a: i,
                b: GROUND,
                c: 1e-12 / scale,
            });
        }
        ckt.add(AcElement::CurrentSource {
            a: GROUND,
            b: 0,
            value: Complex::ONE,
        });
        ckt
    };
    // Sweep the same compiled circuit across many frequencies: each point is
    // a value-only restamp against the one symbolic analysis.
    let ckt = build(1.0);
    let mut compiled = ckt.compile().unwrap();
    let freqs = log_sweep(1.0, 1e10, 6);
    for &f in &freqs {
        let dense = ckt.solve(f).unwrap();
        let sparse = compiled.solve_at(f).unwrap();
        for (d, s) in dense.iter().zip(&sparse) {
            assert!((*d - *s).abs() < 1e-9 * (1.0 + d.abs()));
        }
    }
    assert_eq!(compiled.factor_count(), freqs.len() as u64);
    // A structurally identical circuit with different values compiles to the
    // same backend and stays correct (fresh compile, same pattern shape).
    let scaled = build(3.0);
    let mut compiled_scaled = scaled.compile().unwrap();
    let dense = scaled.solve(1e6).unwrap();
    let sparse = compiled_scaled.solve_at(1e6).unwrap();
    for (d, s) in dense.iter().zip(&sparse) {
        assert!((*d - *s).abs() < 1e-9 * (1.0 + d.abs()));
    }
}

/// A circuit whose admittance matrix is numerically singular must error (not
/// panic) through both the dense reference and the compiled sparse path.
#[test]
fn singular_system_errors_through_both_paths() {
    const GMIN: f64 = 1e-12;
    let g = 1e-3;
    let mut ckt = AcCircuit::new(5);
    for i in 0..5 {
        ckt.add(AcElement::Conductance { a: i, b: GROUND, g });
    }
    // A self-controlled VCCS that exactly cancels node 4's conductance and
    // its GMIN anchor: row 4 of Y becomes identically zero.
    ckt.add(AcElement::Vccs {
        out_p: 4,
        out_n: GROUND,
        ctrl_p: 4,
        ctrl_n: GROUND,
        gm: -(g + GMIN),
    });
    ckt.add(AcElement::CurrentSource {
        a: GROUND,
        b: 0,
        value: Complex::ONE,
    });
    assert!(matches!(
        ckt.solve(0.0),
        Err(SimError::SingularSystem { .. })
    ));
    let mut compiled = ckt.compile().unwrap();
    assert!(compiled.is_sparse());
    assert!(matches!(
        compiled.solve_at(0.0),
        Err(SimError::SingularSystem { .. })
    ));
    // The compiled circuit recovers at a frequency where the capacitive part
    // is absent but the system is still singular — and stays usable if a
    // later frequency succeeds.
    assert!(compiled.solve_at(0.0).is_err());
}
