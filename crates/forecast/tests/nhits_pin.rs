//! Pins the bits of a trained N-HiTS model.
//!
//! Training is deterministic for a seed, and the paper-sized runs
//! (`repro`, the benchmark digest) depend on every bit of it. Each test
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

/// Trains `cfg` on `data` and hashes `predict` and
/// `predict_distribution` at three contexts ending at `ends`.
fn trained_hash(cfg: NHitsConfig, data: &[f64], ends: [usize; 3]) -> u64 {
    let input_len = cfg.input_len;
    let mut model = NHits::new(cfg).unwrap();
    model.fit(data).unwrap();

    let mut out = Vec::new();
    for end in ends {
        let ctx = &data[end - input_len..end];
        out.extend(model.predict(ctx).unwrap());
        let dist = model.predict_distribution(ctx).unwrap();
        out.extend(dist.mu);
        out.extend(dist.sigma);
    }
    assert!(out.iter().all(|v| v.is_finite()));
    fnv1a(&out)
}

#[test]
fn trained_standard_model_is_bit_stable() {
    let mut cfg = NHitsConfig::standard(48, 16, 11);
    cfg.epochs = 4;
    cfg.hidden = 24;
    assert_eq!(
        trained_hash(cfg, &series(480), [48, 200, 480]),
        0x778e_0394_e37f_3062,
        "N-HiTS outputs changed bits"
    );
}

/// The shape the benchmark and `repro` train (input 15, horizon 7,
/// hidden 48): head widths 3, 5 and 13 and pooled widths 4, 8 and 15,
/// none a multiple of four.
#[test]
fn trained_paper_shaped_model_is_bit_stable() {
    let mut cfg = NHitsConfig::standard(15, 7, 42);
    cfg.epochs = 3;
    cfg.hidden = 48;
    assert_eq!(
        trained_hash(cfg, &series(1_000), [15, 500, 1_000]),
        0xad2a_7e16_9488_68cd,
        "N-HiTS outputs changed bits"
    );
}
