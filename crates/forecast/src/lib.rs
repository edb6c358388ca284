//! Probabilistic time-series forecasting for Faro's predictive
//! autoscaler (paper Sec. 3.5).
//!
//! Faro predicts each job's future arrival rates with an N-HiTS network
//! extended with a Gaussian head, so the autoscaler receives a
//! *distribution* over future rates rather than a single trajectory —
//! the paper's "sloppy" probabilistic prediction that captures workload
//! fluctuation. The ARMA model the paper's Cilantro baseline uses is
//! implemented alongside; its LSTM and DeepAR comparison models are
//! not:
//!
//! - [`nhits::NHits`]: multi-rate pooled, hierarchically interpolated MLP
//!   stacks trained with Gaussian negative log-likelihood.
//! - [`arma::Ar`]: least-squares AR(p), the ARMA-family stand-in used by
//!   the Cilantro baseline.
//!
//! # Examples
//!
//! ```
//! use faro_forecast::{nhits::NHits, Forecaster, ProbForecaster};
//!
//! // A noiseless ramp is easy: the network should extrapolate roughly.
//! let series: Vec<f64> = (0..400).map(|i| (i % 40) as f64).collect();
//! let mut model = NHits::quick(24, 8, 0);
//! model.fit(&series).unwrap();
//! let context = &series[series.len() - 24..];
//! let point = model.predict(context).unwrap();
//! assert_eq!(point.len(), 8);
//! let dist = model.predict_distribution(context).unwrap();
//! assert!(dist.sigma.iter().all(|&s| s > 0.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code of this crate trains and runs the predictor inside long
// sweeps: a panic is a typed error not yet written. An `expect` that
// cannot fire carries `#[expect(clippy::expect_used, reason =
// "invariant: …")]`; test code is exempt through clippy.toml.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable
)]

pub mod arma;
pub mod dataset;
pub mod error;
pub mod gaussian;
pub mod nhits;

pub use error::{Error, Result};
pub use gaussian::GaussianForecast;

/// A point forecaster: fits on a history and predicts `horizon` values
/// from an `input_len` context window.
pub trait Forecaster {
    /// Context window length the model consumes.
    fn input_len(&self) -> usize;

    /// Number of future steps the model emits.
    fn horizon(&self) -> usize;

    /// Fits the model on a historical series (oldest first).
    ///
    /// # Errors
    ///
    /// Fails when the series is shorter than one training window.
    fn fit(&mut self, series: &[f64]) -> Result<()>;

    /// Predicts the next `horizon` values from the last `input_len`
    /// observations.
    ///
    /// # Errors
    ///
    /// Fails when the model is unfitted or the context length is wrong.
    fn predict(&self, context: &[f64]) -> Result<Vec<f64>>;
}

/// A probabilistic forecaster that emits per-step Gaussian marginals.
pub trait ProbForecaster: Forecaster {
    /// Predicts the distribution of the next `horizon` values.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Forecaster::predict`].
    fn predict_distribution(&self, context: &[f64]) -> Result<GaussianForecast>;
}

/// Root-mean-square error between two equal-length series.
///
/// # Panics
///
/// Panics when the lengths differ or are zero.
pub fn rmse(a: &[f64], b: &[f64]) -> f64 {
    assert!(
        !a.is_empty() && a.len() == b.len(),
        "rmse needs equal non-empty series"
    );
    let sum: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    (sum / a.len() as f64).sqrt()
}
