//! The paper's evaluation workloads (Sec. 6, "Workloads").
//!
//! Ten diverse jobs: nine driven by Azure-function-like arrival
//! patterns and a tenth by a Twitter-like pattern, rescaled to 1-1600
//! requests/minute over 11 days. Days 1-10 train the time-series
//! predictor; day 11 is evaluated. For cluster-scale runs the traces
//! are compressed by 4-minute window averaging, turning each day into
//! 360 "minutes" while retaining temporal patterns.

use faro_core::types::JobSpec;
use faro_forecast::nhits::{NHits, NHitsConfig};
use faro_forecast::Forecaster;
use faro_sim::JobSetup;
use faro_trace::generator::{TraceKind, TraceSpec};
use faro_trace::scale::window_average;

/// The paper's trace compression window (minutes).
pub const COMPRESSION_WINDOW: usize = 4;
/// Predictor context length (paper: 15-minute arrival history).
pub const PREDICTOR_INPUT: usize = 15;
/// Predictor horizon (paper: 7-minute prediction window).
pub const PREDICTOR_HORIZON: usize = 7;

/// A reproducible workload set: job specs, per-job training series, and
/// per-job evaluation series (all per-minute rates).
#[derive(Debug, Clone)]
pub struct WorkloadSet {
    /// Job specs in job order.
    pub jobs: Vec<JobSpec>,
    /// Per-job training rates (compressed days 1-10).
    pub train: Vec<Vec<f64>>,
    /// Per-job evaluation rates (compressed day 11).
    pub eval: Vec<Vec<f64>>,
}

impl WorkloadSet {
    /// The paper's 10-job set: 9 Azure-like + 1 Twitter-like ResNet34
    /// jobs, rescaled so the *cluster-wide* workload fits the given
    /// per-job peak (default 1600 req/min per the paper).
    pub fn paper_ten_jobs(seed: u64) -> Self {
        Self::n_jobs(10, seed, 1600.0)
    }

    /// `n` jobs with the paper's 9:1 Azure:Twitter mix, peak rate
    /// `max_rate` requests/minute per job before compression.
    pub fn n_jobs(n: usize, seed: u64, max_rate: f64) -> Self {
        let mut jobs = Vec::with_capacity(n);
        let mut train = Vec::with_capacity(n);
        let mut eval = Vec::with_capacity(n);
        for i in 0..n {
            let kind = if (i + 1) % 10 == 0 {
                TraceKind::TwitterLike
            } else {
                TraceKind::AzureLike
            };
            let spec = TraceSpec {
                kind,
                seed: seed.wrapping_add(i as u64 * 7919),
                days: 11,
                min_rate: 1.0,
                max_rate,
            };
            let trace = spec.generate();
            let (t, e) = trace.split_days(10);
            jobs.push(JobSpec::resnet34(format!(
                "{}-{i}",
                if kind == TraceKind::AzureLike {
                    "azure"
                } else {
                    "twitter"
                }
            )));
            train.push(window_average(&t.rates_per_minute, COMPRESSION_WINDOW));
            eval.push(window_average(&e.rates_per_minute, COMPRESSION_WINDOW));
        }
        Self { jobs, train, eval }
    }

    /// The mixed-model workload of Sec. 6.3: half ResNet18 (100 ms,
    /// 400 ms SLO), half ResNet34 (180 ms, 720 ms SLO).
    pub fn mixed_models(seed: u64) -> Self {
        let mut set = Self::paper_ten_jobs(seed);
        for (i, job) in set.jobs.iter_mut().enumerate() {
            if i % 2 == 0 {
                let name = format!("resnet18-{i}");
                *job = JobSpec::resnet18(name);
            }
        }
        set
    }

    /// Truncates the evaluation series to at most `minutes`.
    pub fn truncated_eval(mut self, minutes: usize) -> Self {
        for e in &mut self.eval {
            e.truncate(minutes);
        }
        self
    }

    /// Restricts the evaluation series to `[start, start + len)` minutes
    /// (clamped to the series length) — useful for picking a busy
    /// mid-day slice.
    pub fn eval_window(mut self, start: usize, len: usize) -> Self {
        for e in &mut self.eval {
            let s = start.min(e.len());
            let end = (s + len).min(e.len());
            *e = e[s..end].to_vec();
        }
        self
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Builds simulator job setups for the evaluation series.
    pub fn setups(&self, initial_replicas: u32) -> Vec<JobSetup> {
        self.jobs
            .iter()
            .zip(&self.eval)
            .map(|(spec, rates)| JobSetup {
                spec: spec.clone(),
                rates_per_minute: rates.clone(),
                initial_replicas,
            })
            .collect()
    }

    /// Trains one probabilistic N-HiTS predictor per job on the training
    /// series (paper Sec. 3.5: < 10 minutes of training; here seconds).
    ///
    /// # Panics
    ///
    /// Panics if a training series is shorter than one window — the
    /// built-in workloads are always long enough.
    pub fn train_predictors(&self, seed: u64) -> Vec<NHits> {
        self.train
            .iter()
            .enumerate()
            .map(|(i, series)| {
                let mut cfg =
                    NHitsConfig::standard(PREDICTOR_INPUT, PREDICTOR_HORIZON, seed + i as u64);
                cfg.epochs = 25;
                cfg.hidden = 48;
                let mut model = NHits::new(cfg).expect("standard config is valid");
                model.fit(series).expect("training series long enough");
                model
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_set_shape() {
        let set = WorkloadSet::paper_ten_jobs(1);
        assert_eq!(set.len(), 10);
        // 10 days compressed 4:1 -> 3600 points; day 11 -> 360 points.
        assert_eq!(set.train[0].len(), 3600);
        assert_eq!(set.eval[0].len(), 360);
        // Exactly one Twitter-like job.
        let twitter = set
            .jobs
            .iter()
            .filter(|j| j.name.starts_with("twitter"))
            .count();
        assert_eq!(twitter, 1);
    }

    #[test]
    fn rates_bounded_by_rescale() {
        let set = WorkloadSet::paper_ten_jobs(2);
        for series in set.train.iter().chain(&set.eval) {
            for &r in series {
                assert!((0.0..=1600.0).contains(&r), "rate {r}");
            }
        }
    }

    #[test]
    fn mixed_has_both_models() {
        let set = WorkloadSet::mixed_models(3);
        let r18 = set
            .jobs
            .iter()
            .filter(|j| j.name.starts_with("resnet18"))
            .count();
        assert_eq!(r18, 5);
        let r34: Vec<_> = set
            .jobs
            .iter()
            .filter(|j| !j.name.starts_with("resnet18"))
            .collect();
        assert!(r34.iter().all(|j| (j.processing_time - 0.180).abs() < 1e-9));
    }

    #[test]
    fn deterministic() {
        let a = WorkloadSet::paper_ten_jobs(7);
        let b = WorkloadSet::paper_ten_jobs(7);
        assert_eq!(a.eval, b.eval);
        let c = WorkloadSet::paper_ten_jobs(8);
        assert_ne!(a.eval, c.eval);
    }

    #[test]
    fn truncation_and_setups() {
        let set = WorkloadSet::paper_ten_jobs(1).truncated_eval(60);
        assert!(set.eval.iter().all(|e| e.len() == 60));
        let setups = set.setups(2);
        assert_eq!(setups.len(), 10);
        assert!(setups.iter().all(|s| s.initial_replicas == 2));
    }

    #[test]
    fn predictors_train_and_predict() {
        // Tiny 2-job set to keep the test quick.
        let set = WorkloadSet::n_jobs(2, 5, 400.0).truncated_eval(30);
        let models = set.train_predictors(1);
        assert_eq!(models.len(), 2);
        let ctx = &set.train[0][set.train[0].len() - PREDICTOR_INPUT..];
        let pred = models[0].predict(ctx).unwrap();
        assert_eq!(pred.len(), PREDICTOR_HORIZON);
        assert!(pred.iter().all(|p| p.is_finite()));
    }
}
