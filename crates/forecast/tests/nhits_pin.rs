//! Pins the bits of a trained N-HiTS model.
//!
//! Training is deterministic for a seed, and the paper-sized runs
//! (`repro`, the benchmark digest) depend on every bit of it. This test
//! trains a small `NHitsConfig::standard` model on a seeded
//! sine-plus-noise series and hashes its point and distribution
//! outputs, so a refactor of `faro-nn` or of N-HiTS that changes one
//! floating-point operation fails here.

use faro_forecast::nhits::{NHits, NHitsConfig};
use faro_forecast::{Forecaster, ProbForecaster};

/// FNV-1a over the little-endian bytes of each value.
fn fnv1a(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// A daily-shaped sine plus xorshift noise in `[-5, 5)`.
fn series(n: usize) -> Vec<f64> {
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    (0..n)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let noise = (state >> 11) as f64 / (1u64 << 53) as f64 * 10.0 - 5.0;
            100.0 + 40.0 * (2.0 * std::f64::consts::PI * i as f64 / 48.0).sin() + noise
        })
        .collect()
}

#[test]
fn trained_standard_model_is_bit_stable() {
    let data = series(480);
    let mut cfg = NHitsConfig::standard(48, 16, 11);
    cfg.epochs = 4;
    cfg.hidden = 24;
    let mut model = NHits::new(cfg).unwrap();
    model.fit(&data).unwrap();

    let mut out = Vec::new();
    for end in [48, 200, 480] {
        let ctx = &data[end - 48..end];
        out.extend(model.predict(ctx).unwrap());
        let dist = model.predict_distribution(ctx).unwrap();
        out.extend(dist.mu);
        out.extend(dist.sigma);
    }
    assert!(out.iter().all(|v| v.is_finite()));
    assert_eq!(
        fnv1a(&out),
        0x778e_0394_e37f_3062,
        "N-HiTS outputs changed bits"
    );
}
