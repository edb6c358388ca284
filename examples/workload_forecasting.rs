//! Probabilistic workload forecasting: train Faro's N-HiTS predictor
//! (Gaussian head) on a synthetic Azure-like trace, compare its point
//! prediction against an AR(8) model, and show how the
//! sampled prediction band covers the real fluctuation (paper Fig. 8).
//!
//! Run with: `cargo run --release --example workload_forecasting`

use faro::forecast::arma::Ar;
use faro::forecast::nhits::NHits;
use faro::forecast::{rmse, Forecaster, ProbForecaster};
use faro::trace::generator::{TraceKind, TraceSpec};
use rand::prelude::*;

fn main() {
    let spec = TraceSpec {
        kind: TraceKind::AzureLike,
        seed: 8,
        days: 11,
        ..Default::default()
    };
    let trace = spec.generate();
    let (train, eval) = trace.split_days(10);

    let (input, horizon) = (60, 40);
    println!("training probabilistic N-HiTS (input {input} min -> horizon {horizon} min)...");
    let mut model = NHits::quick(input, horizon, 3);
    model
        .fit(&train.rates_per_minute)
        .expect("long enough series");

    let mut ar = Ar::new(8, input, horizon).expect("valid config");
    ar.fit(&train.rates_per_minute).expect("long enough series");

    // Evaluate on a handful of day-11 windows.
    let series = &eval.rates_per_minute;
    let mut rng = StdRng::seed_from_u64(1);
    let mut nhits_err = 0.0;
    let mut ar_err = 0.0;
    let mut covered = 0usize;
    let mut total = 0usize;
    let mut windows = 0.0;
    for start in (input..series.len() - horizon).step_by(97) {
        let ctx = &series[start - input..start];
        let truth = &series[start..start + horizon];
        let point = model.predict(ctx).expect("fitted");
        let ar_point = ar.predict(ctx).expect("fitted");
        nhits_err += rmse(&point, truth);
        ar_err += rmse(&ar_point, truth);
        windows += 1.0;

        // 100 samples -> min/max band (Figure 8c).
        let dist = model.predict_distribution(ctx).expect("fitted");
        let samples = dist.sample_many(&mut rng, 100);
        for (k, &y) in truth.iter().enumerate() {
            let lo = samples.iter().map(|s| s[k]).fold(f64::INFINITY, f64::min);
            let hi = samples
                .iter()
                .map(|s| s[k])
                .fold(f64::NEG_INFINITY, f64::max);
            if (lo..=hi).contains(&y) {
                covered += 1;
            }
            total += 1;
        }
    }
    println!("point RMSE over {windows} windows:");
    println!(
        "  N-HiTS               {:>8.2} req/min",
        nhits_err / windows
    );
    println!("  AR(8)                {:>8.2} req/min", ar_err / windows);
    println!(
        "probabilistic min-max band covers {:.1}% of ground-truth minutes",
        100.0 * covered as f64 / total as f64
    );
    println!("(the band, not the point forecast, is what Faro plans against)");
}
