//! Seeded synthetic trace generation.
//!
//! Each generated series is a deterministic function of its
//! [`TraceSpec`], composed of: a base level, one or two diurnal
//! harmonics with random phase, Poisson-arriving spikes with geometric
//! decay (Azure function invocations are famously bursty), occasional
//! sustained level shifts, and multiplicative noise. Twitter-like traces
//! get a sharper evening peak and heavier noise.

use rand::prelude::*;
use rand_distr::{Distribution, LogNormal};

/// Minutes per day.
pub const MINUTES_PER_DAY: usize = 24 * 60;

/// Which published trace family to imitate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Azure Functions 2019-like: bursty diurnal invocation counts.
    AzureLike,
    /// Twitter stream 2018-like: strong diurnal with sharp evening peak.
    TwitterLike,
}

/// Parameters of one synthetic trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSpec {
    /// Trace family.
    pub kind: TraceKind,
    /// Seed; two specs differing only in seed give independent traces.
    pub seed: u64,
    /// Number of days at 1-minute resolution.
    pub days: usize,
    /// Minimum rate after rescaling (requests/minute).
    pub min_rate: f64,
    /// Maximum rate after rescaling (requests/minute). The paper
    /// rescales to 1-1600 requests/minute.
    pub max_rate: f64,
}

impl Default for TraceSpec {
    fn default() -> Self {
        Self {
            kind: TraceKind::AzureLike,
            seed: 0,
            days: 11,
            min_rate: 1.0,
            max_rate: 1600.0,
        }
    }
}

/// A per-minute arrival-rate series (requests per minute).
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Requests per minute, one entry per minute.
    pub rates_per_minute: Vec<f64>, // faro-lint: allow(raw-time-arith): legacy public trace API, per-minute by contract
}

impl TraceSpec {
    /// Generates the trace deterministically from the spec.
    ///
    /// # Panics
    ///
    /// Panics when `days == 0` or the rate range is invalid.
    pub fn generate(&self) -> Trace {
        assert!(self.days > 0, "trace needs at least one day");
        assert!(
            self.min_rate >= 0.0 && self.max_rate > self.min_rate,
            "invalid rate range"
        );
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x7ace_5eed);
        let n = self.days * MINUTES_PER_DAY;
        let raw = match self.kind {
            TraceKind::AzureLike => azure_like(&mut rng, n),
            TraceKind::TwitterLike => twitter_like(&mut rng, n),
        };
        // Quantile-anchored rescale: the q95 of the series lands at 80%
        // of the target peak so the diurnal body (not rare bursts)
        // occupies the 1-1600 req/min range, as with the paper's
        // high-volume top-9 traces.
        Trace {
            rates_per_minute: crate::scale::rescale_by_quantile(
                &raw,
                self.min_rate,
                self.max_rate,
                0.05,
                0.95,
                0.8,
            ),
        }
    }
}

impl Trace {
    /// Splits into the first `train_days` days and the remainder.
    ///
    /// # Panics
    ///
    /// Panics when the trace is shorter than `train_days`.
    pub fn split_days(&self, train_days: usize) -> (Trace, Trace) {
        let cut = train_days * MINUTES_PER_DAY;
        assert!(
            cut <= self.rates_per_minute.len(),
            "trace shorter than split point"
        );
        (
            Trace {
                rates_per_minute: self.rates_per_minute[..cut].to_vec(),
            },
            Trace {
                rates_per_minute: self.rates_per_minute[cut..].to_vec(),
            },
        )
    }

    /// Total requests implied by the series (sum of per-minute rates).
    pub fn total_requests(&self) -> f64 {
        self.rates_per_minute.iter().sum()
    }

    /// Mean per-minute rate.
    pub fn mean_rate(&self) -> f64 {
        if self.rates_per_minute.is_empty() {
            0.0
        } else {
            self.total_requests() / self.rates_per_minute.len() as f64
        }
    }
}

/// Shared burst process: Poisson-arriving spikes with geometric decay.
fn add_bursts(rng: &mut StdRng, series: &mut [f64], rate_per_day: f64, magnitude: f64) {
    let per_minute_prob = rate_per_day / MINUTES_PER_DAY as f64;
    let mut i = 0;
    while i < series.len() {
        if rng.gen::<f64>() < per_minute_prob {
            // Spike height is heavy-tailed but capped; the paper's
            // top-9 traces are high-volume diurnal series with moderate
            // spikes (max/mean of a few x), not pathological bursts.
            let height = magnitude * (1.0 + rng.gen::<f64>().powi(-1).min(1.5));
            let decay = rng.gen_range(0.55..0.9);
            let mut amp = height;
            let mut j = i;
            while amp > 0.02 * height && j < series.len() {
                series[j] += amp;
                amp *= decay;
                j += 1;
            }
            // A burst suppresses new bursts for its duration.
            i = j;
        }
        i += 1;
    }
}

/// Occasional sustained level shifts (deploys, campaigns, incidents).
fn add_level_shifts(rng: &mut StdRng, series: &mut [f64], shifts_per_day: f64) {
    let per_minute_prob = shifts_per_day / MINUTES_PER_DAY as f64;
    let mut multiplier = 1.0f64;
    for v in series.iter_mut() {
        if rng.gen::<f64>() < per_minute_prob {
            multiplier = rng.gen_range(0.5..2.0);
        }
        // Drift slowly back toward 1.
        multiplier += (1.0 - multiplier) * 0.002;
        *v *= multiplier;
    }
}

fn azure_like(rng: &mut StdRng, n: usize) -> Vec<f64> {
    let base: f64 = LogNormal::new(0.0, 0.6)
        .expect("valid lognormal")
        .sample(rng);
    let phase1 = rng.gen_range(0.0..std::f64::consts::TAU);
    let phase2 = rng.gen_range(0.0..std::f64::consts::TAU);
    let amp1 = rng.gen_range(0.6..0.9);
    let amp2 = rng.gen_range(0.05..0.3);
    let noise_sd = rng.gen_range(0.05..0.2);
    let noise = LogNormal::new(0.0, noise_sd).expect("valid lognormal");
    let mut out: Vec<f64> = (0..n)
        .map(|i| {
            let day_frac = (i % MINUTES_PER_DAY) as f64 / MINUTES_PER_DAY as f64;
            // tanh-flattened sinusoid: sustained hours near the daily
            // peak and trough, like business-hours invocation plateaus.
            let s1 = (std::f64::consts::TAU * day_frac + phase1).sin();
            let flattened = (1.5 * s1).tanh() / 1.5f64.tanh();
            let diurnal = 1.0
                + amp1 * flattened
                + amp2 * (2.0 * std::f64::consts::TAU * day_frac + phase2).sin();
            base * diurnal.max(0.05) * noise.sample(rng)
        })
        .collect();
    let burst_rate = rng.gen_range(2.0..8.0);
    let burst_mag = base * rng.gen_range(0.2..0.5);
    add_bursts(rng, &mut out, burst_rate, burst_mag);
    let shift_rate = rng.gen_range(0.3..1.5);
    add_level_shifts(rng, &mut out, shift_rate);
    out
}

fn twitter_like(rng: &mut StdRng, n: usize) -> Vec<f64> {
    let base: f64 = 1.0;
    let phase = rng.gen_range(0.0..std::f64::consts::TAU);
    let noise = LogNormal::new(0.0, 0.25).expect("valid lognormal");
    let mut out: Vec<f64> = (0..n)
        .map(|i| {
            let day_frac = (i % MINUTES_PER_DAY) as f64 / MINUTES_PER_DAY as f64;
            // A sharper peak: raise the positive half of the sinusoid to
            // a power, imitating concentrated evening activity.
            let s = (std::f64::consts::TAU * day_frac + phase).sin();
            let peak = if s > 0.0 { s.powf(1.5) } else { 0.15 * s };
            base * (0.6 + 1.4 * peak.max(-0.3)) * noise.sample(rng)
        })
        .collect();
    let burst_rate = rng.gen_range(4.0..12.0);
    let burst_mag = base * rng.gen_range(0.4..1.0);
    add_bursts(rng, &mut out, burst_rate, burst_mag);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let spec = TraceSpec {
            seed: 42,
            days: 2,
            ..Default::default()
        };
        assert_eq!(spec.generate(), spec.generate());
        let other = TraceSpec { seed: 43, ..spec };
        assert_ne!(spec.generate(), other.generate());
    }

    #[test]
    fn rates_respect_bounds() {
        for kind in [TraceKind::AzureLike, TraceKind::TwitterLike] {
            for seed in 0..5 {
                let spec = TraceSpec {
                    kind,
                    seed,
                    days: 3,
                    ..Default::default()
                };
                let t = spec.generate();
                for &r in &t.rates_per_minute {
                    assert!(
                        (1.0..=1600.0).contains(&r),
                        "{kind:?} seed {seed}: rate {r}"
                    );
                }
                let peak = t.rates_per_minute.iter().copied().fold(0.0, f64::max);
                assert!((peak - 1600.0).abs() < 1e-9, "peak is scaled to max");
            }
        }
    }

    #[test]
    fn diurnal_autocorrelation_present() {
        // Rates one day apart should correlate far more than half a day
        // apart for the Twitter-like trace (strong diurnality).
        let spec = TraceSpec {
            kind: TraceKind::TwitterLike,
            seed: 3,
            days: 6,
            ..Default::default()
        };
        let t = spec.generate();
        let r = &t.rates_per_minute;
        let corr = |lag: usize| -> f64 {
            let n = r.len() - lag;
            let a = &r[..n];
            let b = &r[lag..];
            let ma = a.iter().sum::<f64>() / n as f64;
            let mb = b.iter().sum::<f64>() / n as f64;
            let cov: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
            let va: f64 = a.iter().map(|x| (x - ma) * (x - ma)).sum();
            let vb: f64 = b.iter().map(|y| (y - mb) * (y - mb)).sum();
            cov / (va.sqrt() * vb.sqrt())
        };
        let day = corr(MINUTES_PER_DAY);
        let half_day = corr(MINUTES_PER_DAY / 2);
        assert!(day > 0.3, "1-day autocorrelation {day} too weak");
        assert!(
            day > half_day,
            "diurnal structure missing: {day} vs {half_day}"
        );
    }

    #[test]
    fn azure_like_is_bursty() {
        // Burstiness: the 99.5th percentile should sit well above the
        // median.
        let spec = TraceSpec {
            seed: 11,
            days: 5,
            ..Default::default()
        };
        let t = spec.generate();
        let mut sorted = t.rates_per_minute.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite rates"));
        let median = sorted[sorted.len() / 2];
        let p995 = sorted[(sorted.len() as f64 * 0.995) as usize];
        assert!(p995 > 2.0 * median, "p99.5 {p995} vs median {median}");
    }

    #[test]
    fn split_days_partitions() {
        let spec = TraceSpec {
            seed: 1,
            days: 11,
            ..Default::default()
        };
        let t = spec.generate();
        let (train, eval) = t.split_days(10);
        assert_eq!(
            train.rates_per_minute.len() + eval.rates_per_minute.len(),
            t.rates_per_minute.len()
        );
        assert_eq!(
            &t.rates_per_minute[..10 * MINUTES_PER_DAY],
            &train.rates_per_minute[..]
        );
    }

    #[test]
    #[should_panic(expected = "at least one day")]
    fn zero_days_panics() {
        let _ = TraceSpec {
            days: 0,
            ..Default::default()
        }
        .generate();
    }

    #[test]
    fn stats_helpers() {
        let t = Trace {
            rates_per_minute: vec![1.0, 3.0, 2.0],
        };
        assert_eq!(t.total_requests(), 6.0);
        assert_eq!(t.mean_rate(), 2.0);
        let empty = Trace {
            rates_per_minute: vec![],
        };
        assert_eq!(empty.mean_rate(), 0.0);
    }
}
