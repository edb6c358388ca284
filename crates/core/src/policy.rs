//! The autoscaling-policy interface shared by Faro and every baseline,
//! and the per-tick bookkeeping they all repeat.
//!
//! The reconciler (driving a simulated or real control plane) calls
//! [`Policy::decide`] at a fixed tick (Faro's reactive interval, 10 s);
//! each policy applies its own internal cadence on top: a planning
//! round every [`LONG_TERM_INTERVAL`] ([`Cadence`]) and reactive
//! triggers on sustained overload or underload ([`Persistence`]), the
//! paper's timings for Faro and its baselines alike. Quota enforcement
//! is not part of this interface: policies that clamp or admit their
//! own output compose with an [`Admission`] strategy internally
//! ([`emit`]), and the reconciler applies a cluster-level admission on
//! top.

use crate::admission::Admission;
use crate::sharded::{ShardSolveRecord, ShardSpan};
use crate::types::{ClusterSnapshot, DesiredState, JobDecision, JobObservation};
use crate::units::{DurationMs, SimTimeMs};

/// Long-term planning interval in seconds (paper: 5 min): Faro's
/// predictive solve and the proactive baselines' re-planning.
pub const LONG_TERM_INTERVAL: f64 = 300.0;

/// Sustained-overload span in seconds before a reactive upscale (paper:
/// 30 s, for Faro's short-term autoscaler and the baselines alike).
pub const REACTIVE_THRESHOLD: f64 = 30.0;

/// Sustained-underload span in seconds before a baseline scales down
/// (paper: 5 min).
pub const DOWN_THRESHOLD_SECS: f64 = 300.0;

/// Prediction window in minutes (paper: 7, overlapping the next cycle
/// and covering cold start).
pub const PREDICTION_WINDOW_MINUTES: usize = 7;

/// Per-job sustained-overload and sustained-underload clocks.
///
/// A job is overloaded while its recent tail latency exceeds its SLO
/// and underloaded otherwise; each observation restarts the other
/// clock. A NaN tail (a lost scrape) is no evidence of either, so it
/// holds both clocks.
#[derive(Debug, Clone, Default)]
pub struct Persistence {
    overload: Vec<DurationMs>,
    underload: Vec<DurationMs>,
    last_tick: Option<SimTimeMs>,
}

impl Persistence {
    /// Time since the previous call (zero on the first call, and when
    /// time ran backwards).
    pub fn elapsed(&mut self, now: SimTimeMs) -> DurationMs {
        let dt = self.last_tick.map_or(DurationMs::ZERO, |t| {
            let d = now - t;
            if d.is_negative() {
                DurationMs::ZERO
            } else {
                d
            }
        });
        self.last_tick = Some(now);
        dt
    }

    /// Advances every job's clocks by `dt` from the snapshot's tails;
    /// a change in the job count restarts them all.
    pub fn record(&mut self, snapshot: &ClusterSnapshot, dt: DurationMs) {
        let n = snapshot.jobs.len();
        if self.overload.len() != n {
            self.overload = vec![DurationMs::ZERO; n];
            self.underload = vec![DurationMs::ZERO; n];
        }
        for (i, obs) in snapshot.jobs.iter().enumerate() {
            let tail = obs.recent_tail_latency;
            if tail.is_nan() {
                continue;
            }
            if tail > obs.spec.slo.latency {
                self.overload[i] = self.overload[i] + dt;
                self.underload[i] = DurationMs::ZERO;
            } else {
                self.underload[i] = self.underload[i] + dt;
                self.overload[i] = DurationMs::ZERO;
            }
        }
    }

    /// [`Persistence::elapsed`] then [`Persistence::record`]: a tick
    /// that records every snapshot.
    pub fn tick(&mut self, snapshot: &ClusterSnapshot) {
        let dt = self.elapsed(snapshot.now);
        self.record(snapshot, dt);
    }

    /// Whether job `i` has been overloaded for [`REACTIVE_THRESHOLD`].
    pub fn overloaded(&self, i: usize) -> bool {
        self.overload[i].as_secs() >= REACTIVE_THRESHOLD
    }

    /// Whether job `i` has been underloaded for [`DOWN_THRESHOLD_SECS`].
    pub fn underloaded(&self, i: usize) -> bool {
        self.underload[i].as_secs() >= DOWN_THRESHOLD_SECS
    }

    /// Restarts job `i`'s clocks (after acting on them).
    pub fn restart(&mut self, i: usize) {
        self.overload[i] = DurationMs::ZERO;
        self.underload[i] = DurationMs::ZERO;
    }

    /// Restarts every job's clocks.
    pub fn restart_all(&mut self) {
        self.overload.fill(DurationMs::ZERO);
        self.underload.fill(DurationMs::ZERO);
    }
}

/// When a planning round is due: at the first tick, then at the first
/// tick [`LONG_TERM_INTERVAL`] or more after the last planning round.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cadence {
    last: Option<SimTimeMs>,
}

impl Cadence {
    /// Whether a planning round is due at `now`; a due round is
    /// recorded as the last one.
    pub fn due(&mut self, now: SimTimeMs) -> bool {
        let due = self
            .last
            .is_none_or(|t| (now - t).as_secs() >= LONG_TERM_INTERVAL);
        if due {
            self.last = Some(now);
        }
        due
    }
}

/// Carries a policy's decisions across ticks: when the snapshot's job
/// count differs from `current`'s, re-seeds `current` with every job's
/// applied state and returns `true`.
pub fn carry(current: &mut Vec<JobDecision>, snapshot: &ClusterSnapshot) -> bool {
    if current.len() == snapshot.jobs.len() {
        return false;
    }
    *current = snapshot.jobs.iter().map(JobDecision::keep).collect();
    true
}

/// The per-request processing time a policy plans `obs`'s job with:
/// the observed mean where it is finite and positive, the spec's where
/// it is not (a lost scrape, a `null` on the wire, or a zero or
/// negative mean no request can have taken), and never under a
/// microsecond.
pub fn planned_processing_time(obs: &JobObservation) -> f64 {
    let p = obs.mean_processing_time;
    let p = if p.is_finite() && p > 0.0 {
        p
    } else {
        obs.spec.processing_time
    };
    p.max(1e-6)
}

/// The desired state of `current` (in job order), admitted.
pub fn emit(
    snapshot: &ClusterSnapshot,
    current: &[JobDecision],
    admission: &mut impl Admission,
) -> DesiredState {
    let mut out: DesiredState = snapshot.job_ids().zip(current.iter().copied()).collect();
    admission.admit(snapshot, &mut out);
    out
}

/// What a policy's last [`Policy::decide`] round did internally —
/// solver effort and resilience triggers that the telemetry layer
/// records into per-round decision traces.
///
/// The default (all zeros / false / empty) is correct for policies with
/// no solver: the baselines never override [`Policy::introspect`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PolicyIntrospection {
    /// Solver objective evaluations consumed by the round (0 when no
    /// solve ran).
    pub solver_evals: u64,
    /// Whether the round ran a long-term solve.
    pub long_term_solve: bool,
    /// Whether the solve failed or produced junk and the previous
    /// allocation was kept instead.
    pub carried_forward: bool,
    /// Corrupt history samples repaired before forecasting.
    pub sanitized_samples: u64,
    /// What the sharded solve did, when the round ran one (`None` for a
    /// one-shard round, the global plan's, and for reactive rounds).
    pub shard_record: Option<ShardSolveRecord>,
    /// Per-solved-shard spans (ascending shard index) from the round's
    /// sharded solve, empty otherwise.
    pub shard_spans: Vec<ShardSpan>,
}

/// An autoscaling policy.
pub trait Policy: Send {
    /// Display name (matches the paper's policy names).
    fn name(&self) -> &str;

    /// Produces the desired cluster state for this round. Jobs absent
    /// from the returned state keep their current allocation; the
    /// policies shipped here always cover every job in the snapshot.
    fn decide(&mut self, snapshot: &ClusterSnapshot) -> DesiredState;

    /// Introspection for the most recent [`Policy::decide`] round.
    /// Purely observational: the reconciler only feeds it to telemetry
    /// sinks, never back into control decisions.
    fn introspect(&self) -> PolicyIntrospection {
        PolicyIntrospection::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{Aiad, FairShare, MarkCocktailBarista, Oneshot};
    use crate::cilantro::CilantroLike;
    use crate::faro::{FaroAutoscaler, FaroConfig};
    use crate::objective::ClusterObjective;
    use crate::predictor::{FlatPredictor, RatePredictor};
    use crate::types::{JobId, JobObservation, JobSpec, ResourceModel};
    use crate::units::{RatePerMin, ReplicaCount};
    use std::sync::Arc;

    /// One ResNet34 job at 2,400 requests/min (8 replicas' worth under
    /// its 720 ms SLO) holding `target` replicas at `now`, with a
    /// healthy 500 ms tail; `lost` > 0 is a missing-metric outage: that
    /// many trailing history minutes, the recent rate and the tail are
    /// NaN.
    fn snapshot(now: f64, target: u32, lost: usize) -> ClusterSnapshot {
        let rate = 2400.0;
        let mut history = vec![RatePerMin::new(rate); 30];
        history
            .iter_mut()
            .rev()
            .take(lost)
            .for_each(|v| *v = RatePerMin::NAN);
        let scraped = |v: f64| if lost > 0 { f64::NAN } else { v };
        let job = JobObservation {
            spec: Arc::new(JobSpec::resnet34("job")),
            target_replicas: target,
            ready_replicas: target,
            queue_len: 0,
            arrival_rate_history: Arc::new(history),
            recent_arrival_rate: scraped(rate / 60.0),
            mean_processing_time: 0.180,
            recent_tail_latency: scraped(0.5),
            drop_rate: 0.0,
            class_target: None,
            class_ready: None,
        };
        ClusterSnapshot {
            now: SimTimeMs::from_secs(now),
            resources: ResourceModel::replicas(ReplicaCount::new(32)),
            jobs: vec![job],
        }
    }

    fn flat() -> Vec<Box<dyn RatePredictor>> {
        vec![Box::new(FlatPredictor::default())]
    }

    /// Ten healthy minutes from 8 replicas, then ten minutes of lost
    /// scrapes: no policy lowers the job's target below where the
    /// outage found it. A lost scrape is no evidence of low load, so
    /// the underload clock holds and a planning round forecasts from
    /// the repaired history.
    #[test]
    fn a_lost_scrape_lowers_no_policys_target() {
        let mut faro_cfg = FaroConfig::new(ClusterObjective::Sum);
        faro_cfg.samples = 8;
        let policies: Vec<Box<dyn Policy>> = vec![
            Box::new(FaroAutoscaler::new(faro_cfg, flat())),
            Box::new(Oneshot::default()),
            Box::new(Aiad::default()),
            Box::new(MarkCocktailBarista::new(flat())),
            Box::new(FairShare),
            Box::new(CilantroLike::default()),
        ];
        let tick = 10.0;
        for mut policy in policies {
            let mut target = 8;
            for k in 0..60 {
                let d = policy.decide(&snapshot(f64::from(k) * tick, target, 0));
                target = d.get(JobId::new(0)).unwrap().target_replicas;
            }
            let before = target;
            for k in 60..120 {
                let now = f64::from(k) * tick;
                let lost = 1 + (k - 60) as usize / 6;
                let d = policy.decide(&snapshot(now, target, lost));
                target = d.get(JobId::new(0)).unwrap().target_replicas;
                assert!(
                    target >= before,
                    "{} lowered {before} to {target} at {now} s of a lost scrape",
                    policy.name()
                );
            }
        }
    }
}
