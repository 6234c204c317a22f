//! Content addressing of evaluation requests.
//!
//! One engine evaluates one benchmark at one technology node, so a cache key
//! names only *what* is simulated: the quantized parameter vector. The same
//! candidate sizing reached via RL actions or a flat unit vector, by any
//! session of a shared engine, addresses the same cache slot.

use gcnrl_circuit::{ComponentParams, ParamVector};
use std::sync::Arc;

/// Number of significant decimal digits kept when quantizing parameters into
/// a key. Manufacturing grids in every technology node are ≥ 1e-3 µm and all
/// passive ranges span < 6 decades, so 12 significant digits is far below the
/// resolution at which two sizings are physically distinct, while absorbing
/// last-bit float noise from different arithmetic paths.
pub const DEFAULT_QUANTIZE_DIGITS: i32 = 12;

/// Rounds `value` to `digits` significant decimal digits.
///
/// Zero and non-finite values pass through unchanged.
fn quantize(value: f64, digits: i32) -> f64 {
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

/// The content address of one evaluation: the bit patterns of the quantized
/// flat parameter vector (exact bits, so `Eq`/`Hash` are well defined). It is
/// allocated once, at its exact length, and shared by the cache's entry map
/// and recency index; it hashes like the borrowed `[u64]` the cache is
/// probed with.
pub(crate) type CacheKey = Arc<[u64]>;

/// Replaces the contents of `bits` with the key bits of `params`, quantized
/// to `digits` significant digits. Lookups borrow these bits; only a
/// cache miss copies them into a [`CacheKey`].
pub(crate) fn key_bits(params: &ParamVector, digits: i32, bits: &mut Vec<u64>) {
    let q = |value: f64| quantize(value, digits).to_bits();
    bits.clear();
    // At most four words per component (a transistor's).
    bits.reserve(4 * params.len());
    for component in params.params() {
        // Tag each component kind so e.g. a resistor of 2.0 Ω and a lone
        // width of 2.0 µm can never alias.
        match *component {
            ComponentParams::Mos(s) => bits.extend([0, q(s.w_um), q(s.l_um), q(f64::from(s.m))]),
            ComponentParams::Resistance(r) => bits.extend([1, q(r)]),
            ComponentParams::Capacitance(c) => bits.extend([2, q(c)]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnrl_circuit::{benchmarks::Benchmark, TechnologyNode};
    use std::hash::BuildHasher;

    fn nominal(benchmark: Benchmark) -> ParamVector {
        let node = TechnologyNode::tsmc180();
        benchmark.circuit().design_space(&node).nominal()
    }

    fn key(params: &ParamVector) -> CacheKey {
        let mut bits = Vec::new();
        key_bits(params, 12, &mut bits);
        CacheKey::from(bits)
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
        let a = key(&pv);
        let b = key(&pv.clone());
        assert_eq!(a, b);
        // The cache's hash map needs equal keys, and a key and the borrowed
        // bits it is probed with, to hash alike.
        let hasher = std::collections::hash_map::RandomState::new();
        assert_eq!(hasher.hash_one(&a), hasher.hash_one(&b));
        assert_eq!(hasher.hash_one(&a), hasher.hash_one(&a[..]));
        // Four words per transistor and two per passive.
        let words: usize = pv
            .params()
            .iter()
            .map(|c| if c.as_mos().is_some() { 4 } else { 2 })
            .sum();
        assert_eq!(a.len(), words);
    }

    #[test]
    fn distinct_params_get_distinct_keys() {
        let base = key(&nominal(Benchmark::TwoStageTia));
        assert_ne!(base, key(&nominal(Benchmark::Ldo)));
        // The kind tag keeps equal values of different components apart.
        let resistor = ParamVector::new(vec![ComponentParams::Resistance(2.0)]);
        let capacitor = ParamVector::new(vec![ComponentParams::Capacitance(2.0)]);
        assert_ne!(key(&resistor), key(&capacitor));
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
