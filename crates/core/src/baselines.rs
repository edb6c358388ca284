//! Baseline autoscaling policies (paper Table 6 and Sec. 6).
//!
//! - [`FairShare`]: no autoscaling; the quota is split equally
//!   (Clipper, TensorFlow-Serving deployments).
//! - [`Oneshot`]: reactive, allocates proportionally to `latency / SLO`
//!   in one shot (K8s HPA, Henge, Ray Serve autoscaler).
//! - [`Aiad`]: additive-increase/additive-decrease (INFaaS).
//! - [`MarkCocktailBarista`]: proactive per-job policy sizing each job
//!   independently from predicted load and per-replica max throughput
//!   (MArk, Barista, Cocktail).
//!
//! Scale-up triggers after 30 s of sustained overload and scale-down
//! after 5 min of sustained underload (the suggested values the paper
//! adopts for both the baselines and Faro's short-term autoscaler),
//! counted by the one [`Persistence`] clock.

use crate::admission::{Admission, ClampToQuota, RotatingQuota};
use crate::policy::{
    carry, emit, planned_processing_time, Cadence, Persistence, Policy, PREDICTION_WINDOW_MINUTES,
};
use crate::predictor::{sanitize_history, RatePredictor};
use crate::types::{ClusterSnapshot, DesiredState, JobDecision};
use crate::units::ReplicaCount;

/// Static equal split of the quota (no autoscaling).
#[derive(Debug, Clone, Default)]
pub struct FairShare;

impl Policy for FairShare {
    fn name(&self) -> &str {
        "FairShare"
    }

    fn decide(&mut self, snapshot: &ClusterSnapshot) -> DesiredState {
        let n = snapshot.jobs.len().max(1) as u32;
        let share = (snapshot.replica_quota().get() / n).max(1);
        let mut out: DesiredState = snapshot
            .job_ids()
            .map(|id| (id, JobDecision::replicas(share)))
            .collect();
        ClampToQuota.admit(snapshot, &mut out);
        out
    }
}

/// One-shot proportional reactive scaling.
#[derive(Debug, Clone, Default)]
pub struct Oneshot {
    persistence: Persistence,
    current: Vec<JobDecision>,
    admission: RotatingQuota,
}

impl Policy for Oneshot {
    fn name(&self) -> &str {
        "Oneshot"
    }

    fn decide(&mut self, snapshot: &ClusterSnapshot) -> DesiredState {
        carry(&mut self.current, snapshot);
        self.persistence.tick(snapshot);
        for (i, obs) in snapshot.jobs.iter().enumerate() {
            // Proportional factor latency/SLO, capped so infinite
            // latency (drops) requests a large-but-finite jump.
            let factor = (obs.recent_tail_latency / obs.spec.slo.latency).clamp(0.0, 8.0);
            let held = self.current[i].target_replicas;
            let target = ((f64::from(held) * factor).ceil()).max(1.0) as u32;
            if self.persistence.overloaded(i) {
                self.current[i].target_replicas = target;
                self.persistence.restart(i);
            } else if self.persistence.underloaded(i) {
                self.current[i].target_replicas = target.min(held);
                self.persistence.restart(i);
            }
        }
        let out = emit(snapshot, &self.current, &mut self.admission);
        self.current = out.iter().map(|(_, d)| d).collect();
        out
    }
}

/// Additive-increase / additive-decrease reactive scaling.
#[derive(Debug, Clone, Default)]
pub struct Aiad {
    persistence: Persistence,
    current: Vec<JobDecision>,
    admission: RotatingQuota,
}

impl Policy for Aiad {
    fn name(&self) -> &str {
        "AIAD"
    }

    fn decide(&mut self, snapshot: &ClusterSnapshot) -> DesiredState {
        carry(&mut self.current, snapshot);
        self.persistence.tick(snapshot);
        for i in 0..snapshot.jobs.len() {
            if self.persistence.overloaded(i) {
                self.current[i].target_replicas += 1;
                self.persistence.restart(i);
            } else if self.persistence.underloaded(i) {
                self.current[i].target_replicas =
                    self.current[i].target_replicas.saturating_sub(1).max(1);
                self.persistence.restart(i);
            }
        }
        let out = emit(snapshot, &self.current, &mut self.admission);
        self.current = out.iter().map(|(_, d)| d).collect();
        out
    }
}

/// The Mark/Cocktail/Barista-style proactive policy: sizes each job
/// independently as `ceil(predicted peak rate / per-replica max
/// throughput)`, re-planned every long interval, with the reactive
/// upscaling these systems fall back to when SLO violations are
/// observed (paper Sec. 3.5.2: "reactive upscaling [30, 91] when SLO
/// violations are observed").
pub struct MarkCocktailBarista {
    predictors: Vec<Box<dyn RatePredictor>>,
    cadence: Cadence,
    persistence: Persistence,
    current: Vec<JobDecision>,
    admission: RotatingQuota,
}

impl MarkCocktailBarista {
    /// Creates the policy with one point predictor per job.
    pub fn new(predictors: Vec<Box<dyn RatePredictor>>) -> Self {
        Self {
            predictors,
            cadence: Cadence::default(),
            persistence: Persistence::default(),
            current: Vec::new(),
            admission: RotatingQuota::new(),
        }
    }
}

impl Policy for MarkCocktailBarista {
    fn name(&self) -> &str {
        "Mark/Cocktail/Barista"
    }

    fn decide(&mut self, snapshot: &ClusterSnapshot) -> DesiredState {
        carry(&mut self.current, snapshot);
        self.persistence.tick(snapshot);
        if self.cadence.due(snapshot.now) {
            for (i, obs) in snapshot.jobs.iter().enumerate() {
                let Some(p) = self.predictors.get_mut(i) else {
                    continue;
                };
                // Minutes a metric outage lost are repaired as Faro
                // repairs them: a NaN forecast would read as zero load.
                let history = sanitize_history(&obs.arrival_rate_history);
                let forecast = p.predict(&history, PREDICTION_WINDOW_MINUTES);
                // Peak predicted per-second rate over the window.
                let peak_per_sec =
                    forecast.mu.iter().fold(0.0f64, |a, &b| a.max(b)).max(0.0) / 60.0;
                // Size to the per-replica max throughput *under the
                // SLO* (MArk/Barista profile instances against the SLO,
                // not at full saturation): the smallest replica count
                // whose M/D/c tail latency meets the target.
                let quota = snapshot.replica_quota().max(ReplicaCount::ONE);
                let target = &mut self.current[i].target_replicas;
                match faro_queueing::mdc::replicas_for_slo(
                    obs.spec.slo.percentile,
                    planned_processing_time(obs),
                    peak_per_sec,
                    obs.spec.slo.latency,
                    quota,
                ) {
                    Ok(needed) => *target = needed.get(),
                    // Not even the quota meets the SLO: all of it.
                    Err(faro_queueing::Error::Infeasible { .. }) => *target = quota.get(),
                    // An input the estimator refuses says nothing about
                    // the load: keep the target.
                    Err(_) => {}
                }
            }
        } else {
            // Reactive fallback: one extra replica per job after a
            // sustained observed violation (the point-prediction
            // underestimate the paper calls out).
            for i in 0..snapshot.jobs.len() {
                if self.persistence.overloaded(i) {
                    self.current[i].target_replicas += 1;
                    self.persistence.restart(i);
                }
            }
        }
        let out = emit(snapshot, &self.current, &mut self.admission);
        self.current = out.iter().map(|(_, d)| d).collect();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::FlatPredictor;
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
            arrival_rate_history: std::sync::Arc::new(vec![
                crate::units::RatePerMin::new(
                    rate_per_min
                );
                15
            ]),
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
            resources: ResourceModel::replicas(ReplicaCount::new(quota)),
            jobs,
        }
    }

    #[test]
    fn fairshare_splits_equally() {
        let mut p = FairShare;
        let ds = p.decide(&snap(0.0, 32, vec![obs(1.0, 1, 0.1); 10]));
        assert!(ds.targets().all(|t| t == 3));
    }

    #[test]
    fn oneshot_jumps_proportionally() {
        let mut p = Oneshot::default();
        // latency 2.88 = 4x the 0.72 SLO.
        let mut target = 2;
        let d = p.decide(&snap(0.0, 64, vec![obs(600.0, target, 2.88)]));
        target = t0(&d);
        assert_eq!(target, 2, "no jump before 30 s sustained");
        let d = p.decide(&snap(15.0, 64, vec![obs(600.0, target, 2.88)]));
        target = t0(&d);
        let d = p.decide(&snap(30.0, 64, vec![obs(600.0, target, 2.88)]));
        assert_eq!(t0(&d), 8, "4x jump in one shot: {d:?}");
    }

    #[test]
    fn oneshot_downscale_is_slow() {
        let mut p = Oneshot::default();
        let mut target = 16;
        // Underloaded (latency 0.18 = SLO/4) but only after 5 min.
        for t in [0.0, 60.0, 120.0, 240.0] {
            let d = p.decide(&snap(t, 64, vec![obs(10.0, target, 0.18)]));
            target = t0(&d);
            assert_eq!(target, 16, "no downscale before 5 min (t={t})");
        }
        let d = p.decide(&snap(301.0, 64, vec![obs(10.0, target, 0.18)]));
        assert!(t0(&d) <= 4, "proportional downscale: {d:?}");
    }

    #[test]
    fn aiad_steps_one_at_a_time() {
        let mut p = Aiad::default();
        let mut target = 4;
        let d = p.decide(&snap(0.0, 64, vec![obs(600.0, target, 2.0)]));
        target = t0(&d);
        let d = p.decide(&snap(30.0, 64, vec![obs(600.0, target, 2.0)]));
        assert_eq!(t0(&d), 5, "additive increase");
        // Underload for 5 min drops one.
        let mut target = t0(&d);
        for t in [60.0, 200.0, 331.0] {
            let d = p.decide(&snap(t, 64, vec![obs(1.0, target, 0.1)]));
            target = t0(&d);
        }
        assert_eq!(target, 4, "additive decrease");
    }

    #[test]
    fn mark_sizes_from_predicted_peak() {
        // Flat prediction of 2400 req/min = 40 req/s at 180 ms -> 8.
        let predictors: Vec<Box<dyn RatePredictor>> = vec![Box::new(FlatPredictor {
            lookback: 3,
            sigma_fraction: 0.0,
        })];
        let mut p = MarkCocktailBarista::new(predictors);
        let d = p.decide(&snap(0.0, 64, vec![obs(2400.0, 1, 0.1)]));
        assert_eq!(t0(&d), 8, "{d:?}");
    }

    /// Mark plans with the processing time Faro plans with. A lost one
    /// (NaN, which is also what a `null` on the wire parses to) is the
    /// spec's, and so is a zero or negative one: each sizes the job as
    /// the spec's 180 ms does, none to the whole quota. Only a target the quota
    /// cannot meet takes the quota; an input the estimator refuses
    /// keeps the job's target.
    #[test]
    fn mark_sizes_a_lost_processing_time_as_faro_plans_it() {
        let decide = |o: JobObservation| {
            let predictors: Vec<Box<dyn RatePredictor>> = vec![Box::new(FlatPredictor {
                lookback: 3,
                sigma_fraction: 0.0,
            })];
            t0(&MarkCocktailBarista::new(predictors).decide(&snap(0.0, 64, vec![o])))
        };
        let with_p = |p: f64| JobObservation {
            mean_processing_time: p,
            ..obs(2400.0, 5, 0.1)
        };
        // The spec's 180 ms at 40 req/s, as measured.
        assert_eq!(decide(with_p(f64::NAN)), decide(obs(2400.0, 5, 0.1)));
        assert_eq!(decide(with_p(f64::NAN)), 8);
        let json = serde_json::to_string(&with_p(f64::NAN)).unwrap();
        assert!(json.contains("\"mean_processing_time\":null"), "{json}");
        let parsed = JobObservation::from_json(&serde_json::from_str(&json).unwrap()).unwrap();
        assert!(parsed.mean_processing_time.is_nan());
        assert_eq!(decide(parsed), 8);
        for p in [0.0, -0.1] {
            assert_eq!(planned_processing_time(&with_p(p)), 0.180);
            assert_eq!(decide(with_p(p)), 8, "p={p}");
        }
        // 800 req/s at 180 ms is 144 busy replicas: the quota, all of it.
        assert_eq!(decide(obs(48_000.0, 5, 0.1)), 64);
        let refused = JobObservation {
            spec: std::sync::Arc::new(JobSpec {
                slo: crate::types::Slo {
                    latency: 0.72,
                    percentile: 1.5,
                },
                ..JobSpec::resnet34("job")
            }),
            ..obs(2400.0, 5, 0.1)
        };
        assert_eq!(decide(refused), 5);
    }

    #[test]
    fn mark_replans_on_interval_only() {
        let predictors: Vec<Box<dyn RatePredictor>> = vec![Box::new(FlatPredictor {
            lookback: 3,
            sigma_fraction: 0.0,
        })];
        let mut p = MarkCocktailBarista::new(predictors);
        let d0 = p.decide(&snap(0.0, 64, vec![obs(2400.0, 1, 0.1)]));
        // Load drops but the plan is sticky until the next interval.
        let d1 = p.decide(&snap(60.0, 64, vec![obs(60.0, t0(&d0), 0.1)]));
        assert_eq!(t0(&d1), t0(&d0));
        let d2 = p.decide(&snap(301.0, 64, vec![obs(60.0, t0(&d1), 0.1)]));
        assert!(t0(&d2) < t0(&d0), "replanned down");
    }

    #[test]
    fn baselines_never_grow_past_quota() {
        // Quota admission: existing holdings are kept (pods are not
        // evicted), but no *increase* is admitted past the quota.
        let jobs = vec![obs(6000.0, 3, 5.0), obs(6000.0, 3, 5.0)];
        for p in [
            &mut Oneshot::default() as &mut dyn Policy,
            &mut Aiad::default(),
        ] {
            let _ = p.decide(&snap(0.0, 8, jobs.clone()));
            let ds = p.decide(&snap(31.0, 8, jobs.clone()));
            assert!(ds.total_replicas() <= 8, "{}: {ds:?}", p.name());
            assert!(ds.targets().all(|t| t >= 3), "holdings kept");
        }
    }
}
