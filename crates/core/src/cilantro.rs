//! A Cilantro-like multi-tenant baseline (paper Sec. 2, Figure 2).
//!
//! Cilantro (OSDI '23) allocates resources from *online-learned*
//! performance models: a tree/binning estimator mapping load-per-replica
//! to observed latency, and an ARMA-family forecaster over recent
//! arrival rates. The paper finds this adapts too slowly for ML
//! inference workloads: the binning estimator needs many observations
//! per bin before its predictions are trustworthy, and the AR model is
//! refit on a fixed-size recent window.
//!
//! This baseline reproduces those structural choices: an optimistic
//! binned latency model learned only from its own observations, an AR(8)
//! rate forecaster refit each planning round on the last 60 minutes, and
//! a greedy utility allocation under the quota.

use crate::admission::ClampToQuota;
use crate::policy::{carry, emit, Cadence, Policy};
use crate::predictor::sanitize_history;
use crate::types::{ClusterSnapshot, DesiredState, JobDecision};
use crate::units::RatePerMin;
use faro_forecast::arma::Ar;
use faro_forecast::Forecaster;

/// Bins of load-per-replica (requests/second) with EWMA-learned tail
/// latency.
#[derive(Debug, Clone)]
struct BinnedLatency {
    /// Upper edge of each bin (load per replica, req/s).
    edges: Vec<f64>,
    /// EWMA latency per bin; `None` until observed.
    latency: Vec<Option<f64>>,
    /// Observation counts per bin.
    count: Vec<usize>,
    ewma: f64,
}

impl BinnedLatency {
    fn new() -> Self {
        // Bin edges up to 10 req/s per replica (a 100 ms model saturates
        // at 10 req/s per replica).
        let edges: Vec<f64> = (1..=40).map(|i| f64::from(i) * 0.25).collect();
        let n = edges.len();
        Self {
            edges,
            latency: vec![None; n],
            count: vec![0; n],
            ewma: 0.3,
        }
    }

    fn bin_of(&self, load_per_replica: f64) -> usize {
        self.edges
            .iter()
            .position(|&e| load_per_replica <= e)
            .unwrap_or(self.edges.len() - 1)
    }

    fn observe(&mut self, load_per_replica: f64, tail_latency: f64) {
        if !tail_latency.is_finite() || load_per_replica < 0.0 {
            return;
        }
        let b = self.bin_of(load_per_replica);
        self.count[b] += 1;
        self.latency[b] = Some(match self.latency[b] {
            Some(prev) => prev + self.ewma * (tail_latency - prev),
            None => tail_latency,
        });
    }

    /// Predicted latency at a load; optimistic (assumes the SLO is met)
    /// for unobserved bins — the root cause of slow convergence.
    fn predict(&self, load_per_replica: f64) -> Option<f64> {
        let b = self.bin_of(load_per_replica);
        // Require a handful of observations before trusting a bin.
        if self.count[b] >= 3 {
            return self.latency[b];
        }
        // Fall back to the nearest trustworthy bin below (lighter load
        // never has *higher* latency, so this stays optimistic).
        (0..b)
            .rev()
            .find(|&i| self.count[i] >= 3)
            .and_then(|i| self.latency[i])
    }
}

/// AR window: minutes of history used for refitting.
const AR_WINDOW: usize = 60;

/// The Cilantro-like policy, re-planning at the shared
/// [`LONG_TERM_INTERVAL`](crate::policy::LONG_TERM_INTERVAL).
#[derive(Default)]
pub struct CilantroLike {
    models: Vec<BinnedLatency>,
    cadence: Cadence,
    current: Vec<JobDecision>,
}

impl CilantroLike {
    /// Forecasts the mean next-window rate (requests/minute) by
    /// refitting AR(8) on the recent fixed-size window, after the repair
    /// Faro's predictor applies to minutes a metric outage lost.
    fn forecast_rate(history: &[RatePerMin]) -> f64 {
        let history: Vec<f64> = sanitize_history(history).iter().map(|r| r.get()).collect();
        let window = &history[history.len().saturating_sub(AR_WINDOW)..];
        if window.len() < 12 {
            return window.last().copied().unwrap_or(0.0);
        }
        let mut ar = match Ar::new(8, 10, 7) {
            Ok(a) => a,
            Err(_) => return window.last().copied().unwrap_or(0.0),
        };
        if ar.fit(window).is_err() {
            return window.last().copied().unwrap_or(0.0);
        }
        let ctx = &window[window.len() - 10..];
        match ar.predict(ctx) {
            Ok(pred) => {
                let mean = pred.iter().sum::<f64>() / pred.len() as f64;
                mean.max(0.0)
            }
            Err(_) => window.last().copied().unwrap_or(0.0),
        }
    }
}

impl Policy for CilantroLike {
    fn name(&self) -> &str {
        "Cilantro-like"
    }

    fn decide(&mut self, snapshot: &ClusterSnapshot) -> DesiredState {
        let n = snapshot.jobs.len();
        if carry(&mut self.current, snapshot) {
            self.models = (0..n).map(|_| BinnedLatency::new()).collect();
        }
        // Continuous learning from every tick's observation.
        for (i, obs) in snapshot.jobs.iter().enumerate() {
            let replicas = obs.ready_replicas.max(1);
            let load = obs.recent_arrival_rate / f64::from(replicas);
            self.models[i].observe(load, obs.recent_tail_latency);
        }

        if self.cadence.due(snapshot.now) {
            let quota = snapshot.replica_quota();
            // Greedy: start everyone at 1 replica, then add the replica
            // with the largest predicted latency improvement toward the
            // SLO.
            let mut alloc = vec![1u32; n];
            let rates: Vec<f64> = snapshot
                .jobs
                .iter()
                .map(|obs| Self::forecast_rate(&obs.arrival_rate_history) / 60.0)
                .collect();
            let mut spent: u32 = n as u32;
            while spent < quota.get() {
                let mut best: Option<(usize, f64)> = None;
                for i in 0..n {
                    let slo = snapshot.jobs[i].spec.slo.latency;
                    let now_lat = self.models[i]
                        .predict(rates[i] / f64::from(alloc[i]))
                        .unwrap_or(slo * 0.5); // Optimistic default.
                    if now_lat <= slo {
                        continue; // Believed satisfied: no more replicas.
                    }
                    let next_lat = self.models[i]
                        .predict(rates[i] / f64::from(alloc[i] + 1))
                        .unwrap_or(slo * 0.5);
                    let gain = now_lat - next_lat;
                    if best.is_none_or(|(_, g)| gain > g) {
                        best = Some((i, gain));
                    }
                }
                match best {
                    Some((i, _)) => {
                        alloc[i] += 1;
                        spent += 1;
                    }
                    None => break, // Everyone believed satisfied.
                }
            }
            for (i, d) in self.current.iter_mut().enumerate() {
                d.target_replicas = alloc[i];
            }
        }
        let out = emit(snapshot, &self.current, &mut ClampToQuota);
        self.current = out.iter().map(|(_, d)| d).collect();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{JobId, JobObservation, JobSpec, ResourceModel};
    use crate::units::SimTimeMs;

    fn t0(ds: &DesiredState) -> u32 {
        ds.get(JobId::new(0)).unwrap().target_replicas
    }

    fn obs(rate_per_min: f64, target: u32, tail: f64) -> JobObservation {
        JobObservation {
            spec: std::sync::Arc::new(JobSpec::resnet34("job")),
            target_replicas: target,
            ready_replicas: target,
            queue_len: 0,
            arrival_rate_history: std::sync::Arc::new(vec![RatePerMin::new(rate_per_min); 70]),
            recent_arrival_rate: rate_per_min / 60.0,
            mean_processing_time: 0.180,
            recent_tail_latency: tail,
            drop_rate: 0.0,
            class_target: None,
            class_ready: None,
        }
    }

    fn snap(now: f64, quota: u32, jobs: Vec<JobObservation>) -> ClusterSnapshot {
        ClusterSnapshot {
            now: SimTimeMs::from_secs(now),
            resources: ResourceModel::replicas(crate::units::ReplicaCount::new(quota)),
            jobs,
        }
    }

    #[test]
    fn initially_optimistic_underallocates() {
        // An overloaded job, but the latency model has no data: Cilantro
        // believes everything is fine and allocates (almost) nothing —
        // the slow-adaptation pathology of Figure 2.
        let mut p = CilantroLike::default();
        let ds = p.decide(&snap(0.0, 32, vec![obs(2400.0, 1, 0.1)]));
        assert!(t0(&ds) <= 2, "optimistic cold start: {ds:?}");
    }

    #[test]
    fn learns_from_observations_eventually() {
        let mut p = CilantroLike::default();
        // Feed many ticks of (overloaded, bad latency) observations so
        // the relevant bins accumulate data, then replan.
        let mut target = 1;
        for k in 0..40 {
            let t = k as f64 * 10.0;
            let ds = p.decide(&snap(t, 32, vec![obs(2400.0, target, 3.0)]));
            target = t0(&ds);
        }
        // After two planning rounds with populated bins, the allocation
        // must have moved above the optimistic initial one.
        assert!(target > 1, "should eventually scale up, got {target}");
    }

    #[test]
    fn binned_model_requires_data() {
        let mut m = BinnedLatency::new();
        assert_eq!(m.predict(1.0), None);
        for _ in 0..3 {
            m.observe(1.0, 0.9);
        }
        let p = m.predict(1.0).unwrap();
        assert!((p - 0.9).abs() < 1e-9);
        // Non-finite observations are ignored.
        m.observe(1.0, f64::INFINITY);
        assert!(m.predict(1.0).unwrap().is_finite());
    }

    #[test]
    fn respects_quota() {
        let mut p = CilantroLike::default();
        let jobs = (0..4).map(|_| obs(2400.0, 4, 3.0)).collect();
        let ds = p.decide(&snap(0.0, 8, jobs));
        assert!(ds.total_replicas() <= 16);
    }
}
