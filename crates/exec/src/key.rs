//! Content addressing of evaluation requests.
//!
//! A [`CacheKey`] identifies one simulator invocation by *what* is being
//! simulated — `(benchmark, technology node, quantized parameter vector)` —
//! rather than by where the request came from, so the same candidate sizing
//! reached via RL actions or a flat unit vector, by any session of a shared
//! engine, addresses the same cache slot.

use gcnrl_circuit::{benchmarks::Benchmark, ComponentParams, ParamVector};

/// Number of significant decimal digits kept when quantizing parameters into
/// a key. Manufacturing grids in every technology node are ≥ 1e-3 µm and all
/// passive ranges span < 6 decades, so 12 significant digits is far below the
/// resolution at which two sizings are physically distinct, while absorbing
/// last-bit float noise from different arithmetic paths.
pub const DEFAULT_QUANTIZE_DIGITS: i32 = 12;

/// Rounds `value` to `digits` significant decimal digits.
///
/// Zero and non-finite values pass through unchanged.
pub fn quantize(value: f64, digits: i32) -> f64 {
    if value == 0.0 || !value.is_finite() {
        return value;
    }
    let magnitude = value.abs().log10().floor() as i32;
    let scale = 10f64.powi(digits - 1 - magnitude);
    if !scale.is_finite() || scale == 0.0 {
        return value;
    }
    (value * scale).round() / scale
}

/// The content address of one evaluation: benchmark + technology node +
/// quantized parameter vector (stored as exact bit patterns so `Eq`/`Hash`
/// are well defined).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The benchmark circuit being simulated.
    pub benchmark: Benchmark,
    /// Name of the technology node (nodes are uniquely named).
    pub node: String,
    /// Bit patterns of the quantized flat parameter vector.
    pub param_bits: Vec<u64>,
}

impl CacheKey {
    /// Builds the key for evaluating `params` on `benchmark` at the node
    /// named `node`, quantizing to `digits` significant digits.
    pub fn new(benchmark: Benchmark, node: &str, params: &ParamVector, digits: i32) -> Self {
        let mut param_bits = Vec::with_capacity(params.len() * 3);
        for component in params.params() {
            // Tag each component kind so e.g. a resistor of 2.0 Ω and a lone
            // width of 2.0 µm can never alias.
            match component {
                ComponentParams::Mos(_) => param_bits.push(0),
                ComponentParams::Resistance(_) => param_bits.push(1),
                ComponentParams::Capacitance(_) => param_bits.push(2),
            }
            for v in component.to_vec() {
                param_bits.push(quantize(v, digits).to_bits());
            }
        }
        CacheKey {
            benchmark,
            node: node.to_owned(),
            param_bits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnrl_circuit::TechnologyNode;
    use std::hash::BuildHasher;

    fn nominal(benchmark: Benchmark) -> ParamVector {
        let node = TechnologyNode::tsmc180();
        benchmark.circuit().design_space(&node).nominal()
    }

    #[test]
    fn quantize_rounds_to_significant_digits() {
        assert_eq!(quantize(1.000000000000071, 12), 1.0);
        assert_eq!(quantize(123.456, 4), 123.5);
        assert_eq!(quantize(0.0, 12), 0.0);
        assert!(quantize(f64::NAN, 12).is_nan());
        // Idempotent, and collapses sub-quantum differences, even where the
        // rounded result is not exactly representable in binary.
        for v in [-5.0e-14, 0.3057, 4.7e6, -123.456789] {
            let q = quantize(v, 12);
            assert_eq!(quantize(q, 12), q, "idempotence for {v}");
            assert_eq!(
                quantize(v * (1.0 + 5.0e-15), 12),
                q,
                "noise absorption for {v}"
            );
        }
    }

    #[test]
    fn identical_requests_share_a_key_and_digest() {
        let pv = nominal(Benchmark::TwoStageTia);
        let a = CacheKey::new(Benchmark::TwoStageTia, "180nm", &pv, 12);
        let b = CacheKey::new(Benchmark::TwoStageTia, "180nm", &pv.clone(), 12);
        assert_eq!(a, b);
        // The cache's hash map needs equal keys to hash alike.
        let hasher = std::collections::hash_map::RandomState::new();
        assert_eq!(hasher.hash_one(&a), hasher.hash_one(&b));
    }

    #[test]
    fn benchmark_node_and_params_all_separate_keys() {
        let pv = nominal(Benchmark::TwoStageTia);
        let base = CacheKey::new(Benchmark::TwoStageTia, "180nm", &pv, 12);
        let other_node = CacheKey::new(Benchmark::TwoStageTia, "65nm", &pv, 12);
        let other_bench = CacheKey::new(Benchmark::Ldo, "180nm", &pv, 12);
        assert_ne!(base, other_node);
        assert_ne!(base, other_bench);
        let other_params = nominal(Benchmark::Ldo);
        let changed = CacheKey::new(Benchmark::TwoStageTia, "180nm", &other_params, 12);
        assert_ne!(base, changed);
    }

    #[test]
    fn sub_quantum_noise_is_absorbed() {
        let pv = nominal(Benchmark::TwoStageTia);
        let flat = pv.to_flat();
        // Perturb by ~1 part in 1e14 — far below 12 significant digits.
        let a = quantize(flat[0] * (1.0 + 1e-14), 12);
        assert_eq!(a, quantize(flat[0], 12));
    }
}
