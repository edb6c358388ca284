//! Deterministic fault injection (the "house divided" experiments).
//!
//! A [`FaultPlan`] describes up to four failure classes the simulator
//! can replay against any policy:
//!
//! - **Independent replica crashes**: every live replica fails after an
//!   exponentially distributed lifetime (per-replica MTTF). A crash
//!   kills the request in flight (accounted separately from drops),
//!   frees the quota slot, and the replacement re-enters cold start.
//! - **Correlated node outage**: a fraction of the cluster quota
//!   disappears for a window, evicting the newest replicas (busy ones
//!   lose their in-flight request).
//! - **Cold-start spike**: replica startup times are inflated by a
//!   lognormal multiplier during a window (an image-registry or
//!   scheduler brown-out).
//! - **Metric outage**: the snapshot delivered to the policy carries
//!   stale or missing observations for selected jobs (a scraping or
//!   router-telemetry failure).
//!
//! All randomness flows through the [`FaultInjector`]'s own RNG, seeded
//! from `SimConfig::seed` with a distinct XOR constant, so
//! [`FaultPlan::none`] leaves every existing event stream byte-for-byte
//! identical and any plan replays deterministically for a fixed seed.

use crate::events::{micros, Micros};
use crate::runtime::CrashOutcome;
use crate::{Error, Result};
use faro_core::types::JobId;
use faro_telemetry::TelemetryEvent;
use rand::prelude::*;
use rand_distr::{Distribution, Exp, LogNormal};

/// Independent replica crashes with an exponential time-to-failure.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaCrashes {
    /// Mean time to failure of one replica, in seconds.
    pub mttf_secs: f64, // faro-lint: allow(raw-time-arith): legacy public fault-plan API, seconds by contract
}

/// A correlated outage: part of the quota vanishes for a window.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeOutage {
    /// Outage start (seconds of simulated time).
    pub start_secs: f64, // faro-lint: allow(raw-time-arith): legacy public fault-plan API, seconds by contract
    /// Outage duration in seconds.
    pub duration_secs: f64, // faro-lint: allow(raw-time-arith): legacy public fault-plan API, seconds by contract
    /// Fraction of the total quota that disappears, in `(0, 1)`.
    pub quota_fraction: f64,
}

/// A window during which replica cold starts are lognormally inflated.
#[derive(Debug, Clone, PartialEq)]
pub struct ColdStartSpike {
    /// Spike start (seconds of simulated time).
    pub start_secs: f64, // faro-lint: allow(raw-time-arith): legacy public fault-plan API, seconds by contract
    /// Spike duration in seconds.
    pub duration_secs: f64, // faro-lint: allow(raw-time-arith): legacy public fault-plan API, seconds by contract
    /// Median startup multiplier (must be >= 1).
    pub median_multiplier: f64,
    /// Lognormal sigma of the multiplier (0 for a deterministic spike).
    pub sigma: f64,
}

/// How a metric outage corrupts the affected observations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricOutageMode {
    /// The policy keeps receiving the last observation from before the
    /// outage (frozen scrape).
    Stale,
    /// Recent rates, tail latencies, and in-outage history minutes are
    /// reported as NaN (lost scrape).
    Missing,
}

/// A window during which selected jobs' observations are degraded.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricOutage {
    /// Outage start (seconds of simulated time).
    pub start_secs: f64, // faro-lint: allow(raw-time-arith): legacy public fault-plan API, seconds by contract
    /// Outage duration in seconds.
    pub duration_secs: f64, // faro-lint: allow(raw-time-arith): legacy public fault-plan API, seconds by contract
    /// The affected jobs.
    pub jobs: Vec<JobId>,
    /// Stale or missing delivery.
    pub mode: MetricOutageMode,
}

/// A complete fault schedule; every class is independently optional.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Independent replica crashes.
    pub replica_crashes: Option<ReplicaCrashes>,
    /// One correlated node outage.
    pub node_outage: Option<NodeOutage>,
    /// One cold-start spike window.
    pub cold_start_spike: Option<ColdStartSpike>,
    /// One metric outage window.
    pub metric_outage: Option<MetricOutage>,
}

fn window_valid(start: f64, duration: f64) -> bool {
    start.is_finite() && start >= 0.0 && duration.is_finite() && duration > 0.0
}

impl FaultPlan {
    /// The empty plan: injects nothing and leaves the simulation
    /// byte-for-byte identical to a run without a fault layer.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether the plan injects nothing.
    pub fn is_none(&self) -> bool {
        self.replica_crashes.is_none()
            && self.node_outage.is_none()
            && self.cold_start_spike.is_none()
            && self.metric_outage.is_none()
    }

    /// Validates the plan against a simulation with `n_jobs` jobs.
    ///
    /// # Errors
    ///
    /// Fails on non-finite or out-of-domain parameters, empty windows,
    /// or metric-outage job indices beyond `n_jobs`.
    pub fn validate(&self, n_jobs: usize) -> Result<()> {
        if let Some(c) = &self.replica_crashes {
            if !c.mttf_secs.is_finite() || c.mttf_secs <= 0.0 {
                return Err(Error::InvalidSetup(format!(
                    "replica-crash MTTF must be positive and finite, got {}",
                    c.mttf_secs
                )));
            }
        }
        if let Some(o) = &self.node_outage {
            if !window_valid(o.start_secs, o.duration_secs) {
                return Err(Error::InvalidSetup("node outage window invalid".into()));
            }
            if !o.quota_fraction.is_finite() || !(0.0..1.0).contains(&o.quota_fraction) {
                return Err(Error::InvalidSetup(format!(
                    "node outage quota fraction must be in [0, 1), got {}",
                    o.quota_fraction
                )));
            }
        }
        if let Some(s) = &self.cold_start_spike {
            if !window_valid(s.start_secs, s.duration_secs) {
                return Err(Error::InvalidSetup(
                    "cold-start spike window invalid".into(),
                ));
            }
            if !s.median_multiplier.is_finite() || s.median_multiplier < 1.0 {
                return Err(Error::InvalidSetup(format!(
                    "cold-start multiplier must be >= 1, got {}",
                    s.median_multiplier
                )));
            }
            if !s.sigma.is_finite() || s.sigma < 0.0 {
                return Err(Error::InvalidSetup(format!(
                    "cold-start sigma must be non-negative, got {}",
                    s.sigma
                )));
            }
        }
        if let Some(m) = &self.metric_outage {
            if !window_valid(m.start_secs, m.duration_secs) {
                return Err(Error::InvalidSetup("metric outage window invalid".into()));
            }
            if m.jobs.is_empty() {
                return Err(Error::InvalidSetup("metric outage affects no jobs".into()));
            }
            if let Some(&bad) = m.jobs.iter().find(|&&j| j.index() >= n_jobs) {
                return Err(Error::InvalidSetup(format!(
                    "metric outage names {bad} but only {n_jobs} jobs exist"
                )));
            }
        }
        Ok(())
    }
}

/// Stateful sampler for one run of a [`FaultPlan`].
///
/// Owns its own RNG (seeded from the simulation seed with a distinct
/// XOR constant) so that fault sampling never perturbs the workload
/// RNG stream: adding or removing fault classes changes only the fault
/// events themselves.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: StdRng,
    crash_dist: Option<Exp>,
    spike_dist: Option<LogNormal<f64>>,
}

impl FaultInjector {
    /// Builds an injector for a plan that
    /// [`Simulation::with_faults`](crate::Simulation::with_faults), the
    /// only way to attach one, has already validated.
    pub(crate) fn new(plan: FaultPlan, seed: u64) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "invariant: validate() checked the MTTF is positive"
        )]
        let crash_dist = plan.replica_crashes.as_ref().map(|c| {
            Exp::new(1.0 / c.mttf_secs).expect("invariant: validate() checked the MTTF is positive")
        });
        #[expect(
            clippy::expect_used,
            reason = "invariant: validate() checked the spike parameters"
        )]
        let spike_dist = plan.cold_start_spike.as_ref().map(|s| {
            LogNormal::new(s.median_multiplier.ln(), s.sigma.max(1e-12))
                .expect("invariant: validate() checked the spike parameters")
        });
        Self {
            plan,
            rng: StdRng::seed_from_u64(seed ^ 0xfa17_5eed),
            crash_dist,
            spike_dist,
        }
    }

    /// The plan being injected.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Time until a newly created replica crashes, or `None` when
    /// crashes are not scheduled. Call exactly once per replica, at
    /// creation, in creation order (determinism).
    pub fn crash_after(&mut self) -> Option<Micros> {
        let d = self.crash_dist.as_ref()?;
        // At least 1 us in the future so a replica never dies at its
        // own creation instant.
        Some(micros(d.sample(&mut self.rng)).max(1))
    }

    /// Cold-start multiplier for a replica created at `now` (1 outside
    /// the spike window). Draws from the injector RNG only inside the
    /// window.
    pub fn cold_start_multiplier(&mut self, now: Micros) -> f64 {
        let Some(s) = &self.plan.cold_start_spike else {
            return 1.0;
        };
        let start = micros(s.start_secs);
        let end = micros(s.start_secs + s.duration_secs);
        if now < start || now >= end {
            return 1.0;
        }
        #[expect(
            clippy::expect_used,
            reason = "invariant: spike_dist is built whenever the plan has a spike"
        )]
        let d = self
            .spike_dist
            .as_ref()
            .expect("invariant: spike_dist is built whenever the plan has a spike");
        d.sample(&mut self.rng).max(1.0)
    }

    /// The node-outage window as `(start, end, quota_fraction)`.
    pub fn outage_window(&self) -> Option<(Micros, Micros, f64)> {
        self.plan.node_outage.as_ref().map(|o| {
            (
                micros(o.start_secs),
                micros(o.start_secs + o.duration_secs),
                o.quota_fraction,
            )
        })
    }

    /// The metric outage active at `now`, if any.
    pub fn metric_outage_at(&self, now: Micros) -> Option<&MetricOutage> {
        let m = self.plan.metric_outage.as_ref()?;
        let start = micros(m.start_secs);
        let end = micros(m.start_secs + m.duration_secs);
        (now >= start && now < end).then_some(m)
    }

    /// The telemetry event for an injected replica crash landing.
    pub fn crash_event(&self, job: JobId, replica: u64, outcome: CrashOutcome) -> TelemetryEvent {
        TelemetryEvent::ReplicaCrashed {
            job: job.index(),
            replica,
            killed_request: outcome.killed_request,
        }
    }

    /// The telemetry event for the node-outage window opening, with
    /// the quota that survives it.
    pub fn outage_began_event(&self, remaining_quota: u32) -> TelemetryEvent {
        TelemetryEvent::NodeOutageBegan {
            quota: remaining_quota,
        }
    }

    /// The telemetry event for the node-outage window closing, with
    /// the restored quota.
    pub fn outage_ended_event(&self, restored_quota: u32) -> TelemetryEvent {
        TelemetryEvent::NodeOutageEnded {
            quota: restored_quota,
        }
    }

    /// The telemetry event for a metric outage starting, naming its
    /// mode and the affected jobs. `None` when the plan has no metric
    /// outage.
    pub fn metric_outage_began_event(&self) -> Option<TelemetryEvent> {
        let m = self.plan.metric_outage.as_ref()?;
        Some(TelemetryEvent::MetricOutageBegan {
            mode: metric_outage_mode_name(m.mode).to_string(),
            jobs: m.jobs.iter().map(|j| j.index()).collect(),
        })
    }

    /// The telemetry event for a metric outage ending. `None` when the
    /// plan has no metric outage.
    pub fn metric_outage_ended_event(&self) -> Option<TelemetryEvent> {
        let m = self.plan.metric_outage.as_ref()?;
        Some(TelemetryEvent::MetricOutageEnded {
            mode: metric_outage_mode_name(m.mode).to_string(),
        })
    }
}

/// Stable lowercase name for a metric-outage mode, used in telemetry.
fn metric_outage_mode_name(mode: MetricOutageMode) -> &'static str {
    match mode {
        MetricOutageMode::Stale => "stale",
        MetricOutageMode::Missing => "missing",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crash_plan(mttf: f64) -> FaultPlan {
        FaultPlan {
            replica_crashes: Some(ReplicaCrashes { mttf_secs: mttf }),
            ..FaultPlan::none()
        }
    }

    #[test]
    fn none_plan_is_none() {
        assert!(FaultPlan::none().is_none());
        assert!(!crash_plan(100.0).is_none());
        assert!(FaultPlan::none().validate(0).is_ok());
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(crash_plan(0.0).validate(1).is_err());
        assert!(crash_plan(f64::NAN).validate(1).is_err());
        let bad_outage = FaultPlan {
            node_outage: Some(NodeOutage {
                start_secs: 10.0,
                duration_secs: 60.0,
                quota_fraction: 1.0,
            }),
            ..FaultPlan::none()
        };
        assert!(bad_outage.validate(1).is_err());
        let bad_spike = FaultPlan {
            cold_start_spike: Some(ColdStartSpike {
                start_secs: 0.0,
                duration_secs: 60.0,
                median_multiplier: 0.5,
                sigma: 0.1,
            }),
            ..FaultPlan::none()
        };
        assert!(bad_spike.validate(1).is_err());
        let bad_metric = FaultPlan {
            metric_outage: Some(MetricOutage {
                start_secs: 0.0,
                duration_secs: 60.0,
                jobs: vec![JobId::new(3)],
                mode: MetricOutageMode::Missing,
            }),
            ..FaultPlan::none()
        };
        assert!(bad_metric.validate(2).is_err());
        assert!(bad_metric.validate(4).is_ok());
    }

    #[test]
    fn crash_sampling_is_deterministic_and_positive() {
        let draw = |seed| {
            let mut inj = FaultInjector::new(crash_plan(300.0), seed);
            (0..10)
                .map(|_| inj.crash_after().unwrap())
                .collect::<Vec<_>>()
        };
        let a = draw(7);
        let b = draw(7);
        assert_eq!(a, b, "same seed, same crash schedule");
        assert_ne!(a, draw(8), "different seed, different schedule");
        assert!(a.iter().all(|&t| t >= 1));
        // Mean lifetime should be in the right ballpark (300 s).
        let mean = a.iter().sum::<u64>() as f64 / a.len() as f64 / 1e6;
        assert!(mean > 30.0 && mean < 3000.0, "mean lifetime {mean}");
    }

    #[test]
    fn spike_multiplier_only_inside_window() {
        let plan = FaultPlan {
            cold_start_spike: Some(ColdStartSpike {
                start_secs: 100.0,
                duration_secs: 50.0,
                median_multiplier: 4.0,
                sigma: 0.0,
            }),
            ..FaultPlan::none()
        };
        let mut inj = FaultInjector::new(plan, 1);
        assert_eq!(inj.cold_start_multiplier(micros(10.0)), 1.0);
        let inside = inj.cold_start_multiplier(micros(120.0));
        assert!((inside - 4.0).abs() < 1e-9, "sigma 0 gives the median");
        assert_eq!(inj.cold_start_multiplier(micros(200.0)), 1.0);
    }

    #[test]
    fn metric_outage_window_lookup() {
        let plan = FaultPlan {
            metric_outage: Some(MetricOutage {
                start_secs: 60.0,
                duration_secs: 120.0,
                jobs: vec![JobId::new(0)],
                mode: MetricOutageMode::Stale,
            }),
            ..FaultPlan::none()
        };
        let inj = FaultInjector::new(plan, 0);
        assert!(inj.metric_outage_at(micros(30.0)).is_none());
        assert!(inj.metric_outage_at(micros(90.0)).is_some());
        assert!(inj.metric_outage_at(micros(180.0)).is_none());
    }
}
