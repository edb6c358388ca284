//! Figure 8: point vs probabilistic N-HiTS prediction on a 1-day
//! Azure-like trace sample (input 60 minutes -> horizon 40 minutes).
//!
//! Prints, for each forecast step: ground truth, the damped-average
//! view of the point prediction (Fig. 8b's blue line), and the
//! probabilistic band (min-max, 20-80th, 30-70th percentiles of 100
//! samples; Fig. 8c), plus coverage statistics.

use crate::Run;
use faro_forecast::nhits::{NHits, NHitsConfig};
use faro_forecast::{rmse, Forecaster, ProbForecaster};
use faro_trace::generator::{TraceKind, TraceSpec};
use rand::prelude::*;

pub fn run() -> Run {
    let spec = TraceSpec {
        kind: TraceKind::AzureLike,
        seed: 8,
        days: 11,
        ..Default::default()
    };
    let trace = spec.generate();
    let (train, eval) = trace.split_days(10);

    let (input, horizon) = (60usize, 40usize);
    eprintln!("training probabilistic N-HiTS ({input} -> {horizon})...");
    let mut cfg = NHitsConfig::standard(input, horizon, 3);
    cfg.epochs = 40;
    let mut model = NHits::new(cfg).expect("valid config");
    model
        .fit(&train.rates_per_minute)
        .expect("series long enough");

    // One representative day-11 window (mid-day).
    let series = &eval.rates_per_minute;
    let start = 600usize;
    let ctx = &series[start - input..start];
    let truth = &series[start..start + horizon];
    let point = model.predict(ctx).expect("fitted");
    let dist = model.predict_distribution(ctx).expect("fitted");
    let mut rng = StdRng::seed_from_u64(1);
    let samples = dist.sample_many(&mut rng, 100);

    let q = |k: usize, q: f64| -> f64 {
        let mut v: Vec<f64> = samples.iter().map(|s| s[k]).collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        v[((v.len() - 1) as f64 * q).round() as usize]
    };
    let mut out = format!(
        "{:>5} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
        "step", "truth", "point", "min", "p20", "p80", "max", "covered"
    );
    let mut covered = 0;
    for k in 0..horizon {
        let (lo, hi) = (q(k, 0.0), q(k, 1.0));
        let inside = (lo..=hi).contains(&truth[k]);
        covered += usize::from(inside);
        out += &format!(
            "{k:>5} {:>9.0} {:>9.0} {:>9.0} {:>9.0} {:>9.0} {:>9.0} {:>9}\n",
            truth[k],
            point[k],
            lo,
            q(k, 0.2),
            q(k, 0.8),
            hi,
            if inside { "yes" } else { "NO" }
        );
    }
    let peak_truth = truth.iter().cloned().fold(0.0f64, f64::max);
    let peak_point = point.iter().cloned().fold(0.0f64, f64::max);
    out += &format!(
        "\npoint RMSE on this window: {:.1} req/min\n",
        rmse(&point, truth)
    );
    out += &format!(
        "ground-truth max {:.0} vs point-predicted max {:.0} ({:.2}x underestimate)\n",
        peak_truth,
        peak_point,
        peak_truth / peak_point.max(1.0)
    );
    out += &format!(
        "min-max sample band covers {covered}/{horizon} steps \
         (paper Fig. 8: the band, not the point forecast, captures fluctuation)\n"
    );

    let mut run = Run::default();
    let ok = 10 * covered >= 9 * horizon;
    run.claim(ok, "min-max band covers >= 90% of steps", covered);
    let peaks = (peak_point, peak_truth);
    run.claim(
        peaks.0 < peaks.1,
        "point forecast underestimates the peak",
        peaks,
    );
    run.text(out)
}
