//! The training loss and its gradients.
//!
//! Faro's predictor trains with Gaussian negative log-likelihood over a
//! `(mu, softplus-sigma)` head (paper Sec. 3.5.2). Mean-squared error
//! lives in this module's tests, as the loss of the layer gradient
//! checks.

use crate::tensor::Matrix;

/// Numerically-stable softplus, `ln(1 + e^x)`.
pub fn softplus(x: f64) -> f64 {
    if x > 30.0 {
        x
    } else if x < -30.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}

/// Derivative of softplus: the logistic sigmoid.
pub fn softplus_grad(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Gaussian negative log-likelihood for a `(mu, raw_sigma)` head.
///
/// `mu` and `raw_sigma` are `(batch, horizon)`; the effective standard
/// deviation is `softplus(raw_sigma) + sigma_floor`. Returns the mean
/// NLL and the gradients with respect to `mu` and `raw_sigma`.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn gaussian_nll(
    mu: &Matrix,
    raw_sigma: &Matrix,
    target: &Matrix,
    sigma_floor: f64,
) -> (f64, Matrix, Matrix) {
    assert_eq!(
        (mu.rows(), mu.cols()),
        (target.rows(), target.cols()),
        "nll shape mismatch"
    );
    assert_eq!(
        (mu.rows(), mu.cols()),
        (raw_sigma.rows(), raw_sigma.cols()),
        "nll sigma shape mismatch"
    );
    let n = (mu.rows() * mu.cols()) as f64;
    let half_ln_2pi = 0.5 * (2.0 * std::f64::consts::PI).ln();
    let mut loss = 0.0;
    let mut d_mu = Matrix::zeros(mu.rows(), mu.cols());
    let mut d_raw = Matrix::zeros(mu.rows(), mu.cols());
    for i in 0..mu.data().len() {
        let m = mu.data()[i];
        let raw = raw_sigma.data()[i];
        let y = target.data()[i];
        let sigma = softplus(raw) + sigma_floor;
        let z = (y - m) / sigma;
        loss += half_ln_2pi + sigma.ln() + 0.5 * z * z;
        // d/d mu: (mu - y) / sigma^2.
        d_mu.data_mut()[i] = (m - y) / (sigma * sigma) / n;
        // d/d sigma: 1/sigma - (y - mu)^2 / sigma^3, chained through
        // softplus.
        let d_sigma = 1.0 / sigma - (y - m) * (y - m) / (sigma * sigma * sigma);
        d_raw.data_mut()[i] = d_sigma * softplus_grad(raw) / n;
    }
    (loss / n, d_mu, d_raw)
}

#[cfg(test)]
pub(crate) use tests::mse;

#[cfg(test)]
mod tests {
    use super::*;

    /// Mean-squared error over all elements and its gradient with
    /// respect to `pred`.
    pub(crate) fn mse(pred: &Matrix, target: &Matrix) -> (f64, Matrix) {
        assert_eq!(
            (pred.rows(), pred.cols()),
            (target.rows(), target.cols()),
            "mse shape mismatch"
        );
        let n = (pred.rows() * pred.cols()) as f64;
        let diff = pred.sub(target);
        let loss = diff.data().iter().map(|d| d * d).sum::<f64>() / n;
        let grad = diff.scale(2.0 / n);
        (loss, grad)
    }

    #[test]
    fn mse_zero_for_perfect_prediction() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let (loss, grad) = mse(&a, &a);
        assert_eq!(loss, 0.0);
        assert!(grad.data().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn mse_known_value_and_gradient() {
        let pred = Matrix::from_rows(&[&[3.0, 0.0]]);
        let target = Matrix::from_rows(&[&[1.0, 0.0]]);
        let (loss, grad) = mse(&pred, &target);
        assert!((loss - 2.0).abs() < 1e-12); // (4 + 0) / 2.
        assert!((grad.get(0, 0) - 2.0).abs() < 1e-12); // 2 * 2 / 2.
    }

    #[test]
    fn softplus_stable_at_extremes() {
        assert!((softplus(100.0) - 100.0).abs() < 1e-9);
        assert!(softplus(-100.0) > 0.0 && softplus(-100.0) < 1e-30);
        assert!((softplus(0.0) - 2.0f64.ln()).abs() < 1e-12);
        assert!((softplus_grad(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn nll_minimized_at_true_mean() {
        let target = Matrix::from_rows(&[&[2.0]]);
        let sigma = Matrix::from_rows(&[&[0.5]]);
        let at = |m: f64| {
            let mu = Matrix::from_rows(&[&[m]]);
            gaussian_nll(&mu, &sigma, &target, 1e-3).0
        };
        assert!(at(2.0) < at(1.5));
        assert!(at(2.0) < at(2.5));
    }

    #[test]
    fn nll_gradients_match_finite_differences() {
        let mu = Matrix::from_rows(&[&[1.3, -0.4]]);
        let raw = Matrix::from_rows(&[&[0.2, -1.0]]);
        let y = Matrix::from_rows(&[&[1.0, 0.5]]);
        let floor = 1e-3;
        let (_, d_mu, d_raw) = gaussian_nll(&mu, &raw, &y, floor);
        let eps = 1e-6;
        for i in 0..2 {
            let mut up = mu.clone();
            up.data_mut()[i] += eps;
            let mut down = mu.clone();
            down.data_mut()[i] -= eps;
            let numeric = (gaussian_nll(&up, &raw, &y, floor).0
                - gaussian_nll(&down, &raw, &y, floor).0)
                / (2.0 * eps);
            assert!(
                (d_mu.data()[i] - numeric).abs() < 1e-6,
                "mu[{i}]: {} vs {numeric}",
                d_mu.data()[i]
            );
            let mut up = raw.clone();
            up.data_mut()[i] += eps;
            let mut down = raw.clone();
            down.data_mut()[i] -= eps;
            let numeric = (gaussian_nll(&mu, &up, &y, floor).0
                - gaussian_nll(&mu, &down, &y, floor).0)
                / (2.0 * eps);
            assert!(
                (d_raw.data()[i] - numeric).abs() < 1e-6,
                "raw[{i}]: {} vs {numeric}",
                d_raw.data()[i]
            );
        }
    }

    #[test]
    fn nll_penalizes_overconfidence() {
        // Wrong mean with tiny sigma must cost more than with honest
        // sigma.
        let target = Matrix::from_rows(&[&[0.0]]);
        let mu = Matrix::from_rows(&[&[1.0]]);
        let confident = Matrix::from_rows(&[&[-5.0]]); // sigma ~ 0.0067.
        let honest = Matrix::from_rows(&[&[1.0]]); // sigma ~ 1.31.
        let over = gaussian_nll(&mu, &confident, &target, 1e-3).0;
        let hon = gaussian_nll(&mu, &honest, &target, 1e-3).0;
        assert!(over > hon);
    }
}
