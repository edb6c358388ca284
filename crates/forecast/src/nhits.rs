//! N-HiTS: Neural Hierarchical Interpolation for Time Series (Challu et
//! al., AAAI 2023), with Faro's Gaussian probabilistic head.
//!
//! Each stack block (1) average-pools its input at a block-specific rate
//! (multi-rate data sampling), (2) runs a small MLP over the pooled
//! signal, (3) emits a few expansion coefficients ("knots") that are
//! linearly interpolated up to the backcast and forecast lengths
//! (hierarchical interpolation). Blocks are chained by doubly-residual
//! stacking: each block subtracts its backcast from the running input
//! and adds its forecast to the running output.
//!
//! Faro's extension (paper Sec. 3.5.2) adds a second forecast head per
//! block for the raw standard deviation; training minimizes Gaussian
//! negative log-likelihood and prediction yields per-step `(mu, sigma)`.

use crate::dataset::{StandardScaler, WindowDataset};
use crate::error::{Error, Result};
use crate::gaussian::GaussianForecast;
use crate::{Forecaster, ProbForecaster};
use faro_nn::layer::{relu, relu_backward, Linear};
use faro_nn::loss::{gaussian_nll, softplus};
use faro_nn::ops::{avg_pool1d, avg_pool1d_backward, interp1d, interp1d_backward};
use faro_nn::Matrix;
use rand::prelude::*;

/// Minibatch size.
const BATCH_SIZE: usize = 64;

/// Additive floor on the predicted standard deviation (scaled units).
const SIGMA_FLOOR: f64 = 1e-3;

/// The three stacks, coarsest pooling first (the N-HiTS convention):
/// each block's pooling kernel and the divisor of `input_len` and
/// `horizon` that gives its backcast and forecast knot counts.
const STACKS: [(usize, usize); 3] = [(4, 8), (2, 4), (1, 2)];

/// N-HiTS model configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct NHitsConfig {
    /// Context window length.
    pub input_len: usize,
    /// Forecast horizon.
    pub horizon: usize,
    /// MLP hidden width.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// RNG seed for initialization and batching.
    pub seed: u64,
}

impl NHitsConfig {
    /// The paper-shaped default: three stacks with multi-rate pooling.
    pub fn standard(input_len: usize, horizon: usize, seed: u64) -> Self {
        Self {
            input_len,
            horizon,
            hidden: 64,
            epochs: 60,
            lr: 1e-3,
            seed,
        }
    }

    fn validate(&self) -> Result<()> {
        if self.input_len == 0 || self.horizon == 0 {
            return Err(Error::InvalidConfig(
                "input_len and horizon must be positive",
            ));
        }
        if self.hidden == 0 || self.epochs == 0 {
            return Err(Error::InvalidConfig("hidden and epochs must be positive"));
        }
        Ok(())
    }
}

/// The shape of one stack block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlockConfig {
    /// Average-pooling kernel applied to the block input.
    pool_kernel: usize,
    /// Number of forecast expansion coefficients (interpolated up to the
    /// horizon).
    forecast_knots: usize,
    /// Number of backcast expansion coefficients (interpolated up to the
    /// input length).
    backcast_knots: usize,
}

/// One stack block: pooling, a two-layer MLP, and a head laid out as
/// backcast | mu | raw sigma knots.
#[derive(Debug, Clone)]
struct Block {
    cfg: BlockConfig,
    l1: Linear,
    l2: Linear,
    head: Linear,
}

/// The activations of one block's forward pass that its backward pass
/// reads: the pooled input and each layer's output before and after its
/// ReLU.
struct Tape {
    pooled: Matrix,
    a1: Matrix,
    h1: Matrix,
    a2: Matrix,
    h2: Matrix,
}

impl Block {
    fn new(cfg: BlockConfig, input_len: usize, hidden: usize, seed: u64) -> Self {
        let pooled = input_len.div_ceil(cfg.pool_kernel);
        let head_out = cfg.backcast_knots + cfg.forecast_knots * 2;
        Self {
            cfg,
            l1: Linear::new(pooled, hidden, seed.wrapping_mul(31).wrapping_add(1)),
            l2: Linear::new(hidden, hidden, seed.wrapping_mul(31).wrapping_add(2)),
            head: Linear::new(hidden, head_out, seed.wrapping_mul(31).wrapping_add(3)),
        }
    }

    /// Returns `(backcast, mu, raw_sigma)`, already interpolated to full
    /// lengths, and the tape the backward pass needs.
    fn forward(
        &self,
        x: &Matrix,
        input_len: usize,
        horizon: usize,
    ) -> (Matrix, Matrix, Matrix, Tape) {
        let pooled = avg_pool1d(x, self.cfg.pool_kernel);
        let a1 = self.l1.forward(&pooled);
        let h1 = relu(&a1);
        let a2 = self.l2.forward(&h1);
        let h2 = relu(&a2);
        let theta = self.head.forward(&h2);
        let (theta_back, rest) = theta.hsplit(self.cfg.backcast_knots);
        let (theta_mu, theta_sig) = rest.hsplit(self.cfg.forecast_knots);
        (
            interp1d(&theta_back, input_len),
            interp1d(&theta_mu, horizon),
            interp1d(&theta_sig, horizon),
            Tape {
                pooled,
                a1,
                h1,
                a2,
                h2,
            },
        )
    }

    /// Backward from `(d_backcast, d_mu, d_raw_sigma)` over the tape of
    /// the matching forward pass; returns the gradient with respect to
    /// the block input (pooling path only).
    fn backward(
        &mut self,
        tape: &Tape,
        d_backcast: &Matrix,
        d_mu: &Matrix,
        d_sig: &Matrix,
        input_len: usize,
    ) -> Matrix {
        let d_theta = interp1d_backward(d_backcast, self.cfg.backcast_knots)
            .hcat(&interp1d_backward(d_mu, self.cfg.forecast_knots))
            .hcat(&interp1d_backward(d_sig, self.cfg.forecast_knots));
        let d_h2 = self.head.backward(&tape.h2, &d_theta);
        let d_h1 = self.l2.backward(&tape.h1, &relu_backward(&tape.a2, &d_h2));
        let d_pooled = self
            .l1
            .backward(&tape.pooled, &relu_backward(&tape.a1, &d_h1));
        avg_pool1d_backward(&d_pooled, input_len, self.cfg.pool_kernel)
    }

    fn apply_grads(&mut self, lr: f64) {
        self.l1.apply_grads(lr);
        self.l2.apply_grads(lr);
        self.head.apply_grads(lr);
    }
}

/// The N-HiTS forecaster.
#[derive(Debug, Clone)]
pub struct NHits {
    cfg: NHitsConfig,
    blocks: Vec<Block>,
    scaler: Option<StandardScaler>,
    /// Final training loss, for diagnostics.
    last_loss: Option<f64>,
}

impl NHits {
    /// Builds an untrained model from a configuration.
    ///
    /// # Errors
    ///
    /// Fails on a structurally invalid configuration.
    pub fn new(cfg: NHitsConfig) -> Result<Self> {
        cfg.validate()?;
        let blocks = STACKS
            .iter()
            .enumerate()
            .map(|(i, &(pool_kernel, knot_divisor))| {
                let shape = BlockConfig {
                    pool_kernel,
                    forecast_knots: (cfg.horizon / knot_divisor).max(1),
                    backcast_knots: (cfg.input_len / knot_divisor).max(1),
                };
                Block::new(shape, cfg.input_len, cfg.hidden, cfg.seed + i as u64)
            })
            .collect();
        Ok(Self {
            cfg,
            blocks,
            scaler: None,
            last_loss: None,
        })
    }

    /// A small fast configuration for tests and examples.
    ///
    /// # Panics
    ///
    /// Panics when `input_len` or `horizon` is zero.
    #[expect(
        clippy::expect_used,
        reason = "invariant: quick config is valid for positive sizes"
    )]
    pub fn quick(input_len: usize, horizon: usize, seed: u64) -> Self {
        let mut cfg = NHitsConfig::standard(input_len, horizon, seed);
        cfg.hidden = 32;
        cfg.epochs = 100;
        cfg.lr = 2e-3;
        Self::new(cfg).expect("quick config is valid")
    }

    /// Final epoch's mean training loss, once fitted.
    pub fn last_loss(&self) -> Option<f64> {
        self.last_loss
    }

    /// Runs every block over a batch of scaled contexts; returns the
    /// summed `(mu, raw_sigma)` and each block's tape, which training
    /// keeps for [`NHits::backward`] and inference drops.
    fn forward(&self, x0: &Matrix) -> (Matrix, Matrix, Vec<Tape>) {
        let (input_len, horizon) = (self.cfg.input_len, self.cfg.horizon);
        let mut x = x0.clone();
        let mut mu = Matrix::zeros(x0.rows(), horizon);
        let mut sig = Matrix::zeros(x0.rows(), horizon);
        let mut tapes = Vec::with_capacity(self.blocks.len());
        for b in &self.blocks {
            let (backcast, m, s, tape) = b.forward(&x, input_len, horizon);
            x = x.sub(&backcast);
            mu = mu.add(&m);
            sig = sig.add(&s);
            tapes.push(tape);
        }
        (mu, sig, tapes)
    }

    /// Backward over all blocks given head gradients and the tapes of
    /// the matching [`NHits::forward`].
    fn backward(&mut self, tapes: &[Tape], d_mu: &Matrix, d_sig: &Matrix) {
        let input_len = self.cfg.input_len;
        // Gradient with respect to the running residual after the last
        // block (unused downstream): zero.
        let mut d_x_next = Matrix::zeros(d_mu.rows(), input_len);
        for (b, tape) in self.blocks.iter_mut().zip(tapes).rev() {
            // x_{b+1} = x_b - backcast_b  =>  d_backcast = -d_x_next.
            let d_backcast = d_x_next.scale(-1.0);
            let d_pool_path = b.backward(tape, &d_backcast, d_mu, d_sig, input_len);
            d_x_next = d_pool_path.add(&d_x_next);
        }
    }

    /// Scaled `(mu, raw_sigma)` for one scaled context.
    fn predict_scaled(&self, context_scaled: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let x = Matrix::from_vec(1, self.cfg.input_len, context_scaled.to_vec());
        let (mu, sig, _) = self.forward(&x);
        (mu.data().to_vec(), sig.data().to_vec())
    }

    fn check_context(&self, context: &[f64]) -> Result<&StandardScaler> {
        let scaler = self.scaler.as_ref().ok_or(Error::NotFitted)?;
        if context.len() != self.cfg.input_len {
            return Err(Error::BadContextLength {
                got: context.len(),
                need: self.cfg.input_len,
            });
        }
        Ok(scaler)
    }
}

impl Forecaster for NHits {
    fn input_len(&self) -> usize {
        self.cfg.input_len
    }

    fn horizon(&self) -> usize {
        self.cfg.horizon
    }

    fn fit(&mut self, series: &[f64]) -> Result<()> {
        let scaler = StandardScaler::fit(series)?;
        let scaled = scaler.transform_slice(series);
        let ds = WindowDataset::build(&scaled, self.cfg.input_len, self.cfg.horizon, 1)?;
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0x0da7_a5e7);
        let mut order: Vec<usize> = (0..ds.len()).collect();
        for _epoch in 0..self.cfg.epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            let mut batches: f64 = 0.0;
            for chunk in order.chunks(BATCH_SIZE) {
                let (x, y) = ds.batch(chunk);
                let (mu, raw_sig, tapes) = self.forward(&x);
                let (loss, d_mu, d_sig) = gaussian_nll(&mu, &raw_sig, &y, SIGMA_FLOOR);
                self.backward(&tapes, &d_mu, &d_sig);
                for b in &mut self.blocks {
                    b.apply_grads(self.cfg.lr);
                }
                epoch_loss += loss;
                batches += 1.0;
            }
            self.last_loss = Some(epoch_loss / batches.max(1.0));
        }
        self.scaler = Some(scaler);
        Ok(())
    }

    fn predict(&self, context: &[f64]) -> Result<Vec<f64>> {
        let scaler = self.check_context(context)?;
        let scaled = scaler.transform_slice(context);
        let (mu, _) = self.predict_scaled(&scaled);
        Ok(mu.into_iter().map(|m| scaler.inverse(m)).collect())
    }
}

impl ProbForecaster for NHits {
    fn predict_distribution(&self, context: &[f64]) -> Result<GaussianForecast> {
        let scaler = self.check_context(context)?;
        let scaled = scaler.transform_slice(context);
        let (mu, raw_sig) = self.predict_scaled(&scaled);
        let mu: Vec<f64> = mu.into_iter().map(|m| scaler.inverse(m)).collect();
        let sigma: Vec<f64> = raw_sig
            .into_iter()
            .map(|r| scaler.inverse_scale(softplus(r) + SIGMA_FLOOR))
            .collect();
        Ok(GaussianForecast::new(mu, sigma))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rmse;

    fn sine_series(n: usize, period: f64, noise: f64, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                100.0
                    + 50.0 * (2.0 * std::f64::consts::PI * i as f64 / period).sin()
                    + noise * rng.gen_range(-1.0..1.0)
            })
            .collect()
    }

    #[test]
    fn config_validation() {
        let mut cfg = NHitsConfig::standard(24, 8, 0);
        cfg.hidden = 0;
        assert!(NHits::new(cfg).is_err());
        let mut cfg = NHitsConfig::standard(24, 8, 0);
        cfg.horizon = 0;
        assert!(NHits::new(cfg).is_err());
    }

    #[test]
    fn predict_before_fit_errors() {
        let m = NHits::quick(12, 4, 0);
        assert_eq!(m.predict(&[0.0; 12]).unwrap_err(), Error::NotFitted);
    }

    #[test]
    fn non_finite_series_is_refused() {
        for bad in [f64::NAN, f64::INFINITY] {
            let mut series = sine_series(400, 24.0, 1.0, 1);
            series[123] = bad;
            let mut m = NHits::quick(12, 4, 0);
            assert_eq!(m.fit(&series), Err(Error::NonFinite { index: 123 }));
            assert_eq!(m.predict(&[0.0; 12]).unwrap_err(), Error::NotFitted);
        }
    }

    #[test]
    fn wrong_context_length_errors() {
        let mut m = NHits::quick(12, 4, 0);
        m.fit(&sine_series(200, 24.0, 1.0, 1)).unwrap();
        assert!(matches!(
            m.predict(&[0.0; 5]).unwrap_err(),
            Error::BadContextLength { got: 5, need: 12 }
        ));
    }

    #[test]
    fn beats_flat_baseline_on_seasonal_series() {
        let series = sine_series(600, 48.0, 2.0, 2);
        let (train, test) = series.split_at(500);
        let mut m = NHits::quick(48, 16, 3);
        m.fit(train).unwrap();
        // Evaluate on a handful of held-out windows.
        let mut nhits_err = 0.0;
        let mut flat_err = 0.0;
        let mut count = 0.0;
        for start in (0..test.len() - 64).step_by(16) {
            let ctx_start = 500 + start;
            let ctx = &series[ctx_start - 48..ctx_start];
            let truth = &series[ctx_start..ctx_start + 16];
            let pred = m.predict(ctx).unwrap();
            let flat = vec![ctx[ctx.len() - 1]; 16];
            nhits_err += rmse(&pred, truth);
            flat_err += rmse(&flat, truth);
            count += 1.0;
        }
        assert!(
            nhits_err / count < flat_err / count,
            "N-HiTS RMSE {} should beat last-value {}",
            nhits_err / count,
            flat_err / count
        );
    }

    #[test]
    fn probabilistic_widths_cover_noise() {
        // On a noisy flat series, predicted sigma should be on the order
        // of the noise amplitude and the 20-80 band should cover most of
        // the truth.
        let mut rng = StdRng::seed_from_u64(7);
        let series: Vec<f64> = (0..500)
            .map(|_| 100.0 + rng.gen_range(-20.0..20.0))
            .collect();
        let mut m = NHits::quick(24, 8, 5);
        m.fit(&series).unwrap();
        let ctx = &series[series.len() - 24..];
        let dist = m.predict_distribution(ctx).unwrap();
        let mean_sigma = dist.sigma.iter().sum::<f64>() / dist.sigma.len() as f64;
        assert!(
            mean_sigma > 3.0 && mean_sigma < 60.0,
            "sigma {mean_sigma} should reflect noise scale"
        );
    }

    #[test]
    fn training_loss_decreases() {
        let series = sine_series(300, 24.0, 1.0, 9);
        let mut cfg = NHitsConfig::standard(24, 8, 0);
        cfg.hidden = 32;
        cfg.epochs = 1;
        let mut m = NHits::new(cfg.clone()).unwrap();
        m.fit(&series).unwrap();
        let one_epoch = m.last_loss().unwrap();
        cfg.epochs = 25;
        let mut m = NHits::new(cfg).unwrap();
        m.fit(&series).unwrap();
        let many_epochs = m.last_loss().unwrap();
        assert!(
            many_epochs < one_epoch,
            "loss should fall with training: {one_epoch} -> {many_epochs}"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let series = sine_series(200, 24.0, 1.0, 4);
        let mut a = NHits::quick(24, 8, 42);
        let mut b = NHits::quick(24, 8, 42);
        a.fit(&series).unwrap();
        b.fit(&series).unwrap();
        let ctx = &series[series.len() - 24..];
        assert_eq!(a.predict(ctx).unwrap(), b.predict(ctx).unwrap());
    }
}
