//! Per-step Gaussian forecast marginals: sampling and quantiles.
//!
//! The paper's probabilistic predictor (Sec. 3.5.2) draws prediction
//! *samples* (Figure 8c plots 100 of them) and the autoscaler plans
//! against the resulting range of future arrival rates.

use rand::prelude::*;
use rand_distr::StandardNormal;

/// A forecast of `horizon` future values with independent Gaussian
/// marginals.
#[derive(Debug, Clone, PartialEq)]
pub struct GaussianForecast {
    /// Per-step means.
    pub mu: Vec<f64>,
    /// Per-step standard deviations (positive).
    pub sigma: Vec<f64>,
}

impl GaussianForecast {
    /// Creates a forecast; sigmas are floored at a small positive value.
    ///
    /// # Panics
    ///
    /// Panics when the lengths differ.
    pub fn new(mu: Vec<f64>, sigma: Vec<f64>) -> Self {
        assert_eq!(mu.len(), sigma.len(), "mu/sigma length mismatch");
        let sigma = sigma.into_iter().map(|s| s.max(1e-9)).collect();
        Self { mu, sigma }
    }

    /// Forecast horizon.
    pub fn horizon(&self) -> usize {
        self.mu.len()
    }

    /// Draws one sampled trajectory.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        self.mu
            .iter()
            .zip(&self.sigma)
            .map(|(&m, &s)| m + s * rng.sample::<f64, _>(StandardNormal))
            .collect()
    }

    /// Draws `n` sampled trajectories.
    pub fn sample_many<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// The per-step `q`-quantile trajectory (e.g. `q = 0.8` gives the
    /// pointwise 80th percentile of future rates).
    pub fn quantile(&self, q: f64) -> Vec<f64> {
        let z = normal_quantile(q.clamp(1e-9, 1.0 - 1e-9));
        self.mu
            .iter()
            .zip(&self.sigma)
            .map(|(&m, &s)| m + s * z)
            .collect()
    }

    /// The point (mean) trajectory.
    pub fn mean(&self) -> &[f64] {
        &self.mu
    }
}

/// Inverse standard-normal CDF (Acklam's rational approximation,
/// absolute error < 1.15e-9).
///
/// # Panics
///
/// Panics when `p` is outside `(0, 1)`.
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile probability must be in (0,1)");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    let p_low = 0.02425;
    if p < p_low {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - p_low {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_quantile_known_values() {
        assert!(normal_quantile(0.5).abs() < 1e-8);
        assert!((normal_quantile(0.975) - 1.959964).abs() < 1e-4);
        assert!((normal_quantile(0.025) + 1.959964).abs() < 1e-4);
        assert!((normal_quantile(0.8) - 0.8416212).abs() < 1e-5);
        assert!((normal_quantile(0.9999) - 3.719016).abs() < 1e-4);
    }

    #[test]
    fn quantile_trajectories_ordered() {
        let f = GaussianForecast::new(vec![10.0, 20.0], vec![2.0, 4.0]);
        let lo = f.quantile(0.2);
        let mid = f.quantile(0.5);
        let hi = f.quantile(0.8);
        for i in 0..2 {
            assert!(lo[i] < mid[i] && mid[i] < hi[i]);
        }
        assert!((mid[0] - 10.0).abs() < 1e-6);
    }

    #[test]
    fn samples_match_moments() {
        let f = GaussianForecast::new(vec![5.0], vec![2.0]);
        let mut rng = StdRng::seed_from_u64(9);
        let samples: Vec<f64> = (0..20_000).map(|_| f.sample(&mut rng)[0]).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var =
            samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / samples.len() as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.05, "sd {}", var.sqrt());
    }

    #[test]
    fn sigma_floored_positive() {
        let f = GaussianForecast::new(vec![1.0], vec![0.0]);
        assert!(f.sigma[0] > 0.0);
    }

    #[test]
    fn sample_many_counts() {
        let f = GaussianForecast::new(vec![0.0; 3], vec![1.0; 3]);
        let mut rng = StdRng::seed_from_u64(1);
        let s = f.sample_many(&mut rng, 100);
        assert_eq!(s.len(), 100);
        assert!(s.iter().all(|t| t.len() == 3));
    }
}
