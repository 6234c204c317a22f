//! The GP acquisition split between the caller and the linalg helper
//! thread. The helper retires for good once concurrent callers outnumber the
//! CPUs, and a test binary runs its tests on parallel threads, so this file
//! holds one `#[test]`.

use gcnrl_baselines::GaussianProcess;
use std::panic::{self, AssertUnwindSafe};

/// The dimension of the Three-TIA design space.
const D: usize = 52;

/// `n` points of `[0, 1]^D` from a fixed sequence.
fn points(n: usize, salt: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            (0..D)
                .map(|j| (((i * D + j) * 7919 + salt * 104_729) as f64 * 0.618_034).fract())
                .collect()
        })
        .collect()
}

#[test]
fn shared_acquisition_equals_single_points_and_panics_on_the_caller() {
    let train = points(149, 1);
    let ys: Vec<f64> = (0..149).map(|i| (i as f64 * 0.37).sin()).collect();
    let mut gp = GaussianProcess::new(0.25 * (D as f64).sqrt(), 1.0, 1e-4);
    gp.fit(&train, &ys);

    // 256 candidates, as one BO iteration scores them: 32 tiles, shared.
    let mut candidates = points(256, 2);
    let bits = |(mean, var): (f64, f64)| (mean.to_bits(), var.to_bits());
    let batch: Vec<_> = gp
        .predict_batch(&candidates)
        .into_iter()
        .map(bits)
        .collect();
    let single: Vec<_> = candidates.iter().map(|x| bits(gp.predict(x))).collect();
    assert_eq!(batch, single);

    // A point of the wrong dimension in the last tile panics the caller,
    // whichever thread scored that tile.
    candidates[255].pop();
    let payload = panic::catch_unwind(AssertUnwindSafe(|| gp.predict_batch(&candidates)))
        .expect_err("a short point panics");
    let text = match payload.downcast::<String>() {
        Ok(text) => *text,
        Err(payload) => payload
            .downcast::<&str>()
            .expect("a text payload")
            .to_string(),
    };
    assert!(text.contains("point dimension"), "{text}");
}
