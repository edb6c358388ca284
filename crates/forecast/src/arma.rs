//! Least-squares autoregressive models (the ARMA family member used by
//! the Cilantro baseline).
//!
//! Cilantro forecasts arrival rates with an ARMA model that is re-fitted
//! on a fixed-size window of the latest observations (paper Sec. 2). The
//! dominant, identifiable part of a short-window ARMA fit is the AR
//! component; this module fits AR(p) with an intercept by ordinary least
//! squares (normal equations, Gaussian elimination with partial
//! pivoting) and predicts recursively.

use crate::error::{Error, Result};
use crate::Forecaster;

/// An AR(p) forecaster with intercept.
#[derive(Debug, Clone)]
pub struct Ar {
    /// AR order.
    p: usize,
    input_len: usize,
    horizon: usize,
    /// `[intercept, phi_1, ..., phi_p]` once fitted.
    coeffs: Option<Vec<f64>>,
}

impl Ar {
    /// Creates an AR(p) model consuming `input_len >= p` context values
    /// and predicting `horizon` steps.
    ///
    /// # Errors
    ///
    /// Fails when `p`, `horizon`, or `input_len` is zero, or
    /// `input_len < p`.
    pub fn new(p: usize, input_len: usize, horizon: usize) -> Result<Self> {
        if p == 0 || horizon == 0 || input_len == 0 {
            return Err(Error::InvalidConfig(
                "p, input_len, horizon must be positive",
            ));
        }
        if input_len < p {
            return Err(Error::InvalidConfig("input_len must be at least p"));
        }
        Ok(Self {
            p,
            input_len,
            horizon,
            coeffs: None,
        })
    }

    /// Fitted coefficients `[intercept, phi_1 (lag 1), ...]`, if any.
    pub fn coefficients(&self) -> Option<&[f64]> {
        self.coeffs.as_deref()
    }
}

/// Solves `A x = b` by Gaussian elimination with partial pivoting.
/// Returns `None` for (near-)singular systems, and for a system whose
/// pivot is not finite (a NaN or infinite input) as well.
fn solve_linear(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        // Pivot. `total_cmp` ranks a NaN above every number, so a
        // non-finite entry in the column is always the one picked.
        let (pivot_row, pivot_val) = (col..n)
            .map(|r| (r, a[r][col].abs()))
            .max_by(|x, y| x.1.total_cmp(&y.1))?;
        if !pivot_val.is_finite() || pivot_val < 1e-12 {
            return None;
        }
        a.swap(col, pivot_row);
        b.swap(col, pivot_row);
        for r in (col + 1)..n {
            let factor = a[r][col] / a[col][col];
            let (pivot_rows, rest) = a.split_at_mut(r);
            let pivot = &pivot_rows[col];
            for (c, v) in rest[0].iter_mut().enumerate().skip(col) {
                *v -= factor * pivot[c];
            }
            b[r] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut sum = b[row];
        for c in (row + 1)..n {
            sum -= a[row][c] * x[c];
        }
        x[row] = sum / a[row][row];
    }
    Some(x)
}

impl Forecaster for Ar {
    fn input_len(&self) -> usize {
        self.input_len
    }

    fn horizon(&self) -> usize {
        self.horizon
    }

    fn fit(&mut self, series: &[f64]) -> Result<()> {
        let p = self.p;
        if series.len() < p + 2 {
            return Err(Error::SeriesTooShort {
                got: series.len(),
                need: p + 2,
            });
        }
        // Design matrix rows: [1, y_{t-1}, ..., y_{t-p}] -> y_t.
        let rows = series.len() - p;
        let k = p + 1;
        // Normal equations: (X^T X) beta = X^T y.
        let mut xtx = vec![vec![0.0; k]; k];
        let mut xty = vec![0.0; k];
        for t in p..series.len() {
            let mut row = Vec::with_capacity(k);
            row.push(1.0);
            row.extend((1..=p).map(|lag| series[t - lag]));
            let y = series[t];
            for i in 0..k {
                xty[i] += row[i] * y;
                for j in 0..k {
                    xtx[i][j] += row[i] * row[j];
                }
            }
        }
        // Ridge dampening for stability on short/constant windows.
        let ridge = 1e-8 * rows as f64;
        for (i, row) in xtx.iter_mut().enumerate() {
            row[i] += ridge;
        }
        let beta = solve_linear(xtx, xty).ok_or(Error::InvalidConfig("singular AR system"))?;
        self.coeffs = Some(beta);
        Ok(())
    }

    fn predict(&self, context: &[f64]) -> Result<Vec<f64>> {
        let beta = self.coeffs.as_ref().ok_or(Error::NotFitted)?;
        if context.len() != self.input_len {
            return Err(Error::BadContextLength {
                got: context.len(),
                need: self.input_len,
            });
        }
        let mut history: Vec<f64> = context.to_vec();
        let mut out = Vec::with_capacity(self.horizon);
        for _ in 0..self.horizon {
            let mut y = beta[0];
            for lag in 1..=self.p {
                y += beta[lag] * history[history.len() - lag];
            }
            out.push(y);
            history.push(y);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    #[test]
    fn recovers_ar1_coefficient() {
        // y_t = 5 + 0.8 y_{t-1} + noise.
        let mut rng = StdRng::seed_from_u64(2);
        let mut series = vec![25.0];
        for _ in 0..2000 {
            let prev = *series.last().expect("non-empty");
            series.push(5.0 + 0.8 * prev + rng.gen_range(-0.5..0.5));
        }
        let mut ar = Ar::new(1, 4, 3).unwrap();
        ar.fit(&series).unwrap();
        let beta = ar.coefficients().unwrap();
        assert!((beta[1] - 0.8).abs() < 0.05, "phi {}", beta[1]);
        assert!((beta[0] - 5.0).abs() < 1.5, "intercept {}", beta[0]);
    }

    #[test]
    fn recursive_prediction_converges_to_mean() {
        // Stationary AR(1): long-horizon forecast tends to c / (1 - phi).
        let mut ar = Ar::new(1, 2, 50).unwrap();
        ar.coeffs = Some(vec![5.0, 0.8]);
        let pred = ar.predict(&[0.0, 0.0]).unwrap();
        let limit = 5.0 / (1.0 - 0.8);
        assert!((pred[49] - limit).abs() < 0.5, "tail {}", pred[49]);
    }

    #[test]
    fn constant_series_predicts_constant() {
        let series = vec![42.0; 100];
        let mut ar = Ar::new(3, 6, 4).unwrap();
        ar.fit(&series).unwrap();
        let pred = ar.predict(&[42.0; 6]).unwrap();
        for v in pred {
            assert!((v - 42.0).abs() < 0.1, "pred {v}");
        }
    }

    #[test]
    fn errors_on_misuse() {
        assert!(Ar::new(0, 4, 2).is_err());
        assert!(Ar::new(5, 4, 2).is_err());
        let ar = Ar::new(2, 4, 2).unwrap();
        assert_eq!(ar.predict(&[0.0; 4]).unwrap_err(), Error::NotFitted);
        let mut ar = Ar::new(2, 4, 2).unwrap();
        assert!(matches!(
            ar.fit(&[1.0, 2.0]),
            Err(Error::SeriesTooShort { .. })
        ));
        ar.fit(&[1.0, 2.0, 1.5, 2.5, 1.8, 2.2, 1.9, 2.3]).unwrap();
        assert!(ar.predict(&[1.0]).is_err());
    }

    #[test]
    fn solve_linear_known_system() {
        // 2x + y = 5; x - y = 1 -> x = 2, y = 1.
        let sol = solve_linear(vec![vec![2.0, 1.0], vec![1.0, -1.0]], vec![5.0, 1.0]).unwrap();
        assert!((sol[0] - 2.0).abs() < 1e-12);
        assert!((sol[1] - 1.0).abs() < 1e-12);
        // Singular system rejected.
        assert!(solve_linear(vec![vec![1.0, 1.0], vec![1.0, 1.0]], vec![1.0, 2.0]).is_none());
    }

    #[test]
    fn nan_minute_fails_the_fit() {
        // A lost scrape leaves a NaN minute: the normal equations carry
        // it into every pivot, and the fit reports a singular system.
        let mut series: Vec<f64> = (0..40).map(|i| 50.0 + f64::from(i % 7)).collect();
        series[20] = f64::NAN;
        let mut ar = Ar::new(8, 10, 7).unwrap();
        assert!(matches!(ar.fit(&series), Err(Error::InvalidConfig(_))));
        assert!(ar.coefficients().is_none());
        series[20] = f64::INFINITY;
        assert!(ar.fit(&series).is_err());
    }
}
