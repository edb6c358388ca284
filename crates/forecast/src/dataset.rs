//! Sliding-window datasets and feature scaling for forecaster training.

use crate::error::{Error, Result};
use faro_nn::Matrix;

/// A z-score scaler fitted on training data.
///
/// Forecasters train on standardized values and un-scale predictions, so
/// traces with rates of 1–1600 req/min (paper Sec. 6) train stably.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StandardScaler {
    mean: f64,
    std: f64,
}

impl StandardScaler {
    /// Fits mean and standard deviation on a series.
    ///
    /// # Errors
    ///
    /// Fails on an empty series, and on a NaN or infinite value, which
    /// would make the mean and the deviation non-finite and so every
    /// scaled value and every prediction.
    pub fn fit(series: &[f64]) -> Result<Self> {
        if series.is_empty() {
            return Err(Error::SeriesTooShort { got: 0, need: 1 });
        }
        if let Some(index) = series.iter().position(|x| !x.is_finite()) {
            return Err(Error::NonFinite { index });
        }
        let n = series.len() as f64;
        let mean = series.iter().sum::<f64>() / n;
        let var = series.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        let std = var.sqrt().max(1e-9);
        Ok(Self { mean, std })
    }

    /// Standardizes one value.
    pub fn transform(&self, x: f64) -> f64 {
        (x - self.mean) / self.std
    }

    /// Inverts the standardization of one value.
    pub fn inverse(&self, z: f64) -> f64 {
        z * self.std + self.mean
    }

    /// Inverts only the scale (for standard deviations).
    pub fn inverse_scale(&self, z: f64) -> f64 {
        z * self.std
    }

    /// Standardizes a whole slice.
    pub fn transform_slice(&self, xs: &[f64]) -> Vec<f64> {
        xs.iter().map(|&x| self.transform(x)).collect()
    }
}

/// Supervised windows extracted from a series: each row pairs
/// `input_len` context values with the following `horizon` targets.
#[derive(Debug, Clone)]
pub struct WindowDataset {
    /// Context matrix `(num_windows, input_len)`.
    pub inputs: Matrix,
    /// Target matrix `(num_windows, horizon)`.
    pub targets: Matrix,
}

impl WindowDataset {
    /// Builds all windows with the given stride from a (scaled) series.
    ///
    /// # Errors
    ///
    /// Fails when the series cannot produce at least one window, or when
    /// `input_len`, `horizon`, or `stride` is zero.
    pub fn build(series: &[f64], input_len: usize, horizon: usize, stride: usize) -> Result<Self> {
        if input_len == 0 || horizon == 0 || stride == 0 {
            return Err(Error::InvalidConfig(
                "window sizes and stride must be positive",
            ));
        }
        let need = input_len + horizon;
        if series.len() < need {
            return Err(Error::SeriesTooShort {
                got: series.len(),
                need,
            });
        }
        let num = (series.len() - need) / stride + 1;
        let mut inputs = Vec::with_capacity(num * input_len);
        let mut targets = Vec::with_capacity(num * horizon);
        for w in 0..num {
            let start = w * stride;
            inputs.extend_from_slice(&series[start..start + input_len]);
            targets.extend_from_slice(&series[start + input_len..start + need]);
        }
        Ok(Self {
            inputs: Matrix::from_vec(num, input_len, inputs),
            targets: Matrix::from_vec(num, horizon, targets),
        })
    }

    /// Number of windows.
    pub fn len(&self) -> usize {
        self.inputs.rows()
    }

    /// Whether the dataset is empty (never true after `build`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A row-subset batch `(inputs, targets)` selected by indices.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn batch(&self, indices: &[usize]) -> (Matrix, Matrix) {
        let mut xi = Vec::with_capacity(indices.len() * self.inputs.cols());
        let mut yi = Vec::with_capacity(indices.len() * self.targets.cols());
        for &i in indices {
            xi.extend_from_slice(self.inputs.row(i));
            yi.extend_from_slice(self.targets.row(i));
        }
        (
            Matrix::from_vec(indices.len(), self.inputs.cols(), xi),
            Matrix::from_vec(indices.len(), self.targets.cols(), yi),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaler_roundtrip() {
        let s = StandardScaler::fit(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        for x in [0.0, 2.5, 100.0] {
            assert!((s.inverse(s.transform(x)) - x).abs() < 1e-9);
        }
        let z = s.transform_slice(&[1.0, 2.0, 3.0, 4.0]);
        let mean: f64 = z.iter().sum::<f64>() / 4.0;
        assert!(mean.abs() < 1e-12);
    }

    #[test]
    fn scaler_constant_series_survives() {
        let s = StandardScaler::fit(&[5.0; 10]).unwrap();
        let z = s.transform(5.0);
        assert!(z.abs() < 1e-6);
        assert!(s.inverse(z).is_finite());
    }

    #[test]
    fn scaler_rejects_non_finite_values() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut series = vec![1.0, 2.0, 3.0, 4.0, 5.0];
            series[3] = bad;
            series[4] = bad;
            assert_eq!(
                StandardScaler::fit(&series).unwrap_err(),
                Error::NonFinite { index: 3 }
            );
        }
    }

    #[test]
    fn windows_cover_series() {
        let series: Vec<f64> = (0..10).map(f64::from).collect();
        let ds = WindowDataset::build(&series, 3, 2, 1).unwrap();
        assert_eq!(ds.len(), 6);
        assert_eq!(ds.inputs.row(0), &[0.0, 1.0, 2.0]);
        assert_eq!(ds.targets.row(0), &[3.0, 4.0]);
        assert_eq!(ds.inputs.row(5), &[5.0, 6.0, 7.0]);
        assert_eq!(ds.targets.row(5), &[8.0, 9.0]);
    }

    #[test]
    fn stride_skips_windows() {
        let series: Vec<f64> = (0..11).map(f64::from).collect();
        let ds = WindowDataset::build(&series, 3, 2, 3).unwrap();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.inputs.row(1), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn too_short_rejected() {
        let err = WindowDataset::build(&[1.0, 2.0], 3, 2, 1).unwrap_err();
        assert_eq!(err, Error::SeriesTooShort { got: 2, need: 5 });
        assert!(WindowDataset::build(&[1.0; 10], 0, 2, 1).is_err());
    }

    #[test]
    fn batch_selects_rows() {
        let series: Vec<f64> = (0..10).map(f64::from).collect();
        let ds = WindowDataset::build(&series, 3, 1, 1).unwrap();
        let (x, y) = ds.batch(&[0, 2]);
        assert_eq!(x.rows(), 2);
        assert_eq!(x.row(1), &[2.0, 3.0, 4.0]);
        assert_eq!(y.row(1), &[5.0]);
    }
}
