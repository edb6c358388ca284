//! Arrival-rate predictor adapters.
//!
//! Faro's autoscaler consumes per-minute arrival-rate *distributions*
//! ([`faro_forecast::GaussianForecast`]); this module adapts the
//! forecasting models (and degenerate ablation variants) to a uniform
//! [`RatePredictor`] interface:
//!
//! - [`ProbabilisticPredictor`]: a fitted [`ProbForecaster`] (N-HiTS
//!   with the Gaussian head) — Faro's default; its mean is the point
//!   forecast of the "no probabilistic prediction" ablation (Sec. 6.4)
//!   and of the Mark/Cocktail/Barista baseline.
//! - [`FlatPredictor`]: repeats the recent mean rate — the "no
//!   time-series prediction" ablation.

use crate::units::RatePerMin;
use faro_forecast::{GaussianForecast, ProbForecaster};
use std::borrow::Cow;

/// Predicts the distribution of per-minute arrival rates over the next
/// `horizon` minutes from a per-minute history.
///
/// The forecast itself stays in raw per-minute `f64`s — it is the output
/// of a numeric model, not an observed quantity — but the history input
/// is typed so callers cannot hand a per-second series to a per-minute
/// model.
pub trait RatePredictor: Send {
    /// Produces a forecast of exactly `horizon` steps. Implementations
    /// must cope with histories of any length (padding internally).
    fn predict(&mut self, history_per_minute: &[RatePerMin], horizon: usize) -> GaussianForecast;
}

/// Unwraps a typed history into the raw per-minute series the numeric
/// models consume.
fn raw_rates(history: &[RatePerMin]) -> Vec<f64> {
    history.iter().map(|r| r.get()).collect()
}

/// Repairs a rate history corrupted by metric outages: every non-finite
/// or negative entry is replaced by the closest preceding finite
/// non-negative value (the last rate the scraper actually observed).
/// A corrupted prefix borrows the first healthy value instead; an
/// entirely corrupted history sanitizes to zeros. A clean history is
/// borrowed as it is.
pub fn sanitize_history(history: &[RatePerMin]) -> Cow<'_, [RatePerMin]> {
    if !history.iter().any(|v| v.is_corrupt()) {
        return Cow::Borrowed(history);
    }
    let first_good = history
        .iter()
        .copied()
        .find(|v| !v.is_corrupt())
        .unwrap_or(RatePerMin::ZERO);
    let mut last_good = first_good;
    history
        .iter()
        .map(|&v| {
            if v.is_corrupt() {
                last_good
            } else {
                last_good = v;
                v
            }
        })
        .collect()
}

/// Pads/trims a history to exactly `len` values (repeating the earliest
/// value on the left).
fn fit_context(history: &[f64], len: usize) -> Vec<f64> {
    if history.len() >= len {
        return history[history.len() - len..].to_vec();
    }
    let pad = history.first().copied().unwrap_or(0.0);
    let mut out = vec![pad; len - history.len()];
    out.extend_from_slice(history);
    out
}

/// Stretches or trims a forecast to exactly `horizon` steps (repeating
/// the final step).
fn fit_horizon(mut f: GaussianForecast, horizon: usize) -> GaussianForecast {
    let last_mu = f.mu.last().copied().unwrap_or(0.0);
    let last_sigma = f.sigma.last().copied().unwrap_or(1e-9);
    f.mu.resize(horizon, last_mu);
    f.sigma.resize(horizon, last_sigma);
    f
}

/// A fitted probabilistic forecaster (Faro's default predictor).
pub struct ProbabilisticPredictor {
    model: Box<dyn ProbForecaster + Send>,
}

impl ProbabilisticPredictor {
    /// Wraps a fitted model.
    pub fn new(model: Box<dyn ProbForecaster + Send>) -> Self {
        Self { model }
    }
}

impl RatePredictor for ProbabilisticPredictor {
    fn predict(&mut self, history: &[RatePerMin], horizon: usize) -> GaussianForecast {
        let ctx = fit_context(&raw_rates(history), self.model.input_len());
        match self.model.predict_distribution(&ctx) {
            Ok(f) => fit_horizon(f, horizon),
            // An unfitted or mis-sized model degrades to a flat guess
            // rather than failing the control loop.
            Err(_) => FlatPredictor::default().predict(history, horizon),
        }
    }
}

/// Repeats the mean of the last `lookback` minutes, with an optional
/// proportional sigma.
pub struct FlatPredictor {
    /// Minutes of history to average.
    pub lookback: usize,
    /// Sigma as a fraction of the level (0 for a point guess).
    pub sigma_fraction: f64,
}

impl Default for FlatPredictor {
    fn default() -> Self {
        Self {
            lookback: 3,
            sigma_fraction: 0.0,
        }
    }
}

impl RatePredictor for FlatPredictor {
    fn predict(&mut self, history: &[RatePerMin], horizon: usize) -> GaussianForecast {
        let history = raw_rates(history);
        let lookback = self.lookback.min(history.len()).max(1);
        let level = if history.is_empty() {
            0.0
        } else {
            history[history.len() - lookback..].iter().sum::<f64>() / lookback as f64
        };
        GaussianForecast::new(
            vec![level; horizon],
            vec![(level * self.sigma_fraction).max(1e-9); horizon],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faro_forecast::Forecaster;

    /// Predicts two steps of the last context value with sigma 1, once
    /// fitted.
    struct LastValue {
        input_len: usize,
        fitted: bool,
    }

    impl Forecaster for LastValue {
        fn input_len(&self) -> usize {
            self.input_len
        }

        fn horizon(&self) -> usize {
            2
        }

        fn fit(&mut self, _series: &[f64]) -> faro_forecast::Result<()> {
            self.fitted = true;
            Ok(())
        }

        fn predict(&self, context: &[f64]) -> faro_forecast::Result<Vec<f64>> {
            match context.last() {
                Some(&v) if self.fitted => Ok(vec![v; 2]),
                _ => Err(faro_forecast::Error::NotFitted),
            }
        }
    }

    impl ProbForecaster for LastValue {
        fn predict_distribution(&self, context: &[f64]) -> faro_forecast::Result<GaussianForecast> {
            let mu = self.predict(context)?;
            Ok(GaussianForecast::new(mu, vec![1.0; 2]))
        }
    }

    fn rpm(v: &[f64]) -> Vec<RatePerMin> {
        v.iter().map(|&v| RatePerMin::new(v)).collect()
    }

    #[test]
    fn flat_predictor_repeats_recent_mean() {
        let mut p = FlatPredictor {
            lookback: 2,
            sigma_fraction: 0.1,
        };
        let f = p.predict(&rpm(&[10.0, 20.0, 30.0]), 4);
        assert_eq!(f.mu, vec![25.0; 4]);
        assert!((f.sigma[0] - 2.5).abs() < 1e-9);
    }

    #[test]
    fn flat_predictor_empty_history() {
        let mut p = FlatPredictor::default();
        let f = p.predict(&[], 3);
        assert_eq!(f.mu, vec![0.0; 3]);
    }

    #[test]
    fn probabilistic_predictor_wraps_forecaster() {
        let mut model = LastValue {
            input_len: 4,
            fitted: false,
        };
        model.fit(&[1.0]).unwrap();
        let mut p = ProbabilisticPredictor::new(Box::new(model));
        let f = p.predict(&rpm(&[8.0, 8.0, 8.0, 8.0]), 5);
        assert_eq!(f.horizon(), 5);
        assert_eq!(f.mu, vec![8.0; 5], "the last step stretches");
        assert_eq!(f.sigma, vec![1.0; 5]);
    }

    #[test]
    fn probabilistic_predictor_pads_short_history() {
        let mut model = LastValue {
            input_len: 8,
            fitted: false,
        };
        model.fit(&[1.0]).unwrap();
        let mut p = ProbabilisticPredictor::new(Box::new(model));
        let f = p.predict(&rpm(&[4.0]), 2);
        assert_eq!(f.horizon(), 2);
        assert!((f.mu[0] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn unfitted_model_degrades_to_flat() {
        let model = LastValue {
            input_len: 4,
            fitted: false,
        };
        let mut p = ProbabilisticPredictor::new(Box::new(model));
        let f = p.predict(&rpm(&[6.0, 6.0]), 3);
        assert_eq!(f.mu, vec![6.0; 3]);
    }

    #[test]
    fn sanitize_history_repairs_gaps() {
        let h = rpm(&[5.0, f64::NAN, f64::INFINITY, 7.0, -1.0, 8.0]);
        assert_eq!(sanitize_history(&h), rpm(&[5.0, 5.0, 5.0, 7.0, 7.0, 8.0]));
        // A corrupted prefix borrows the first healthy value.
        let h = rpm(&[f64::NAN, f64::NAN, 3.0, 4.0]);
        assert_eq!(sanitize_history(&h), rpm(&[3.0, 3.0, 3.0, 4.0]));
        // All-corrupt histories become zeros rather than poisoning the
        // forecaster.
        assert_eq!(
            sanitize_history(&[RatePerMin::NAN; 3]),
            vec![RatePerMin::ZERO; 3]
        );
        assert!(sanitize_history(&[]).is_empty());
        // A clean history is borrowed, not copied.
        let h = rpm(&[1.0, 2.0]);
        assert!(matches!(sanitize_history(&h), Cow::Borrowed(_)));
    }

    #[test]
    fn fit_context_and_horizon_shapes() {
        assert_eq!(fit_context(&[1.0, 2.0, 3.0], 2), vec![2.0, 3.0]);
        assert_eq!(fit_context(&[5.0], 3), vec![5.0, 5.0, 5.0]);
        let f = GaussianForecast::new(vec![1.0, 2.0], vec![0.1, 0.2]);
        let g = fit_horizon(f, 4);
        assert_eq!(g.mu, vec![1.0, 2.0, 2.0, 2.0]);
    }
}
