//! Trace rescaling and compression.
//!
//! The paper rescales traces to inject 1-1600 requests/minute and, for
//! cluster deployments, compresses the original traces "by splitting
//! them into 4-minute windows and averaging them to reduce experiment
//! time while retaining the temporal patterns" (Sec. 6).

/// Rescales a series by quantile anchors: the `q_lo` quantile maps to
/// `lo` and the `q_hi` quantile to `hi * body_fraction`, with values
/// beyond the anchors extrapolated linearly and clipped into
/// `[lo, hi]`. Compared to min-max rescaling this keeps the bulk
/// (diurnal body) of a bursty series high in the target range instead
/// of letting rare spikes squash it.
///
/// # Panics
///
/// Panics when the series is empty, `hi <= lo`, or the quantiles are
/// not ordered within `(0, 1)`.
pub fn rescale_by_quantile(
    series: &[f64],
    lo: f64,
    hi: f64,
    q_lo: f64,
    q_hi: f64,
    body_fraction: f64,
) -> Vec<f64> {
    assert!(!series.is_empty(), "cannot rescale an empty series");
    assert!(hi > lo, "invalid target range");
    assert!(0.0 < q_lo && q_lo < q_hi && q_hi < 1.0, "invalid quantiles");
    assert!(
        body_fraction > 0.0 && body_fraction <= 1.0,
        "invalid body fraction"
    );
    let mut sorted = series.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite rates"));
    let pick = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
    let a_lo = pick(q_lo);
    let a_hi = pick(q_hi);
    if (a_hi - a_lo).abs() < 1e-12 {
        return vec![(lo + hi) / 2.0; series.len()];
    }
    let target_hi = lo + (hi - lo) * body_fraction;
    series
        .iter()
        .map(|&x| {
            let v = lo + (x - a_lo) / (a_hi - a_lo) * (target_hi - lo);
            v.clamp(lo, hi)
        })
        .collect()
}

/// Compresses a series by averaging consecutive windows of `window`
/// samples (the paper's 4-minute window compression). A ragged final
/// window averages its members.
///
/// # Panics
///
/// Panics when `window == 0`.
///
/// # Examples
///
/// ```
/// let compressed = faro_trace::scale::window_average(&[1.0, 3.0, 5.0, 7.0, 10.0], 2);
/// assert_eq!(compressed, vec![2.0, 6.0, 10.0]);
/// ```
pub fn window_average(series: &[f64], window: usize) -> Vec<f64> {
    assert!(window > 0, "window must be positive");
    series
        .chunks(window)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_average_preserves_mean() {
        let series: Vec<f64> = (0..100).map(f64::from).collect();
        let compressed = window_average(&series, 4);
        let mean_in: f64 = series.iter().sum::<f64>() / 100.0;
        let mean_out: f64 = compressed.iter().sum::<f64>() / compressed.len() as f64;
        assert!((mean_in - mean_out).abs() < 1e-9);
        assert_eq!(compressed.len(), 25);
    }

    #[test]
    fn window_average_ragged_tail() {
        let out = window_average(&[1.0, 2.0, 3.0], 2);
        assert_eq!(out, vec![1.5, 3.0]);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_panics() {
        let _ = window_average(&[1.0], 0);
    }
}
