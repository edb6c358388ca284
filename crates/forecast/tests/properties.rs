//! Property-based tests for the forecasting stack.

use faro_forecast::dataset::{StandardScaler, WindowDataset};
use faro_forecast::gaussian::{normal_quantile, GaussianForecast};
use proptest::prelude::*;

proptest! {
    /// Scaler round-trips arbitrary values.
    #[test]
    fn scaler_roundtrip(series in prop::collection::vec(-1e4f64..1e4, 2..100), probe in -1e4f64..1e4) {
        let s = StandardScaler::fit(&series).unwrap();
        prop_assert!((s.inverse(s.transform(probe)) - probe).abs() < 1e-6);
    }

    /// Window datasets tile the series without gaps at stride 1.
    #[test]
    fn windows_consistent(len in 10usize..200, input in 1usize..8, horizon in 1usize..4) {
        let series: Vec<f64> = (0..len).map(|i| i as f64).collect();
        if let Ok(ds) = WindowDataset::build(&series, input, horizon, 1) {
            prop_assert_eq!(ds.len(), len - input - horizon + 1);
            // Every window's target continues its input contiguously.
            for w in 0..ds.len() {
                let last_in = ds.inputs.row(w)[input - 1];
                let first_out = ds.targets.row(w)[0];
                prop_assert!((first_out - last_in - 1.0).abs() < 1e-12);
            }
        }
    }

    /// Normal quantile is monotone and symmetric around the median.
    #[test]
    fn normal_quantile_properties(p in 0.001f64..0.499) {
        let lo = normal_quantile(p);
        let hi = normal_quantile(1.0 - p);
        prop_assert!((lo + hi).abs() < 1e-6, "symmetry at {p}");
        let lo2 = normal_quantile(p + 0.0005);
        prop_assert!(lo2 >= lo);
    }

    /// Gaussian forecast quantiles are monotone in q and centered on mu.
    #[test]
    fn forecast_quantiles_ordered(
        mu in prop::collection::vec(-100.0f64..100.0, 1..10),
        sigma_scale in 0.1f64..20.0,
    ) {
        let sigma = vec![sigma_scale; mu.len()];
        let f = GaussianForecast::new(mu.clone(), sigma);
        let q20 = f.quantile(0.2);
        let q50 = f.quantile(0.5);
        let q80 = f.quantile(0.8);
        for k in 0..mu.len() {
            prop_assert!(q20[k] <= q50[k] && q50[k] <= q80[k]);
            prop_assert!((q50[k] - mu[k]).abs() < 1e-6);
        }
    }
}
