//! The benchmark's own in-process backend: a pre-generated rate
//! schedule replayed against whatever the control loop applies.
//!
//! It stands in for a cluster on the workloads whose point is the
//! solver, so it must cost next to nothing itself
//! (`bench.generator_share_pct`, gated under 2%): everything that can
//! be built ahead of the run is. Each job's arrival history is a
//! fixed-length window refreshed once per predictive period — the only
//! rounds that read it — and shared into every snapshot by `Arc`.
//! Replicas are ready the tick after they are applied, and the observed
//! tail follows the same closed-form ramp `faro::cluster::ClusterModel`
//! serves, `p·(1 + 3u/(1−u))`, with a mixed pool scored at its
//! capacity-weighted service time.

use faro::control::{ActuationReport, BackendError, Clock, ClusterBackend};
use faro::core::types::{
    ClassAlloc, ClusterSnapshot, DesiredState, JobObservation, JobSpec, ResourceModel,
    RESOURCE_DIMS,
};
use faro::core::units::{RatePerMin, ReplicaCount, SimTimeMs};
use std::sync::Arc;

/// Logical milliseconds per control round (Faro's reactive tick).
pub const TICK_MS: u64 = 10_000;
/// Rounds per logical minute.
pub const TICKS_PER_MINUTE: u64 = 6;
/// Rounds per predictive period (5 min at the 10 s tick).
pub const TICKS_PER_PERIOD: u64 = 30;
/// Minutes of arrival history every snapshot carries.
pub const HISTORY_MINUTES: usize = 15;

/// One replayed job.
#[derive(Debug, Clone)]
pub struct ReplayJob {
    /// The spec handed to policies verbatim.
    pub spec: JobSpec,
    /// Replicas at time zero.
    pub initial_replicas: u32,
    /// Arrival rate for every logical minute of the run.
    pub rates_per_minute: Vec<f64>,
}

struct JobState {
    spec: Arc<JobSpec>,
    target: u32,
    classes: Option<ClassAlloc>,
    drop_rate: f64,
    rates: Vec<RatePerMin>,
    /// History window per predictive period.
    windows: Vec<Arc<Vec<RatePerMin>>>,
}

/// A [`ClusterBackend`] that replays a rate schedule.
pub struct ReplayBackend {
    resources: ResourceModel,
    /// Service-time multiplier per class (`[1.0]` on a scalar cluster).
    speeds: Vec<f64>,
    jobs: Vec<JobState>,
    round: u64,
    horizon_rounds: u64,
}

impl ReplayBackend {
    /// Builds the backend and every history window for `rounds` rounds.
    ///
    /// # Panics
    ///
    /// Panics when a job's rate schedule is empty: the generator that
    /// built it is this benchmark's own code.
    pub fn new(resources: ResourceModel, jobs: Vec<ReplayJob>, rounds: u64) -> Self {
        let periods = rounds.div_ceil(TICKS_PER_PERIOD) as usize;
        let classed = resources.n_classes() > 1;
        let mut used = [0.0; RESOURCE_DIMS];
        let jobs = jobs
            .into_iter()
            .map(|job| {
                assert!(!job.rates_per_minute.is_empty(), "empty rate schedule");
                let rates: Vec<RatePerMin> = job
                    .rates_per_minute
                    .iter()
                    .map(|&r| RatePerMin::new(r))
                    .collect();
                let windows = (0..periods)
                    .map(|p| Arc::new(history_window(&rates, p)))
                    .collect();
                JobState {
                    spec: Arc::new(job.spec),
                    target: job.initial_replicas,
                    classes: classed.then(|| resources.spill_fill(job.initial_replicas, &mut used)),
                    drop_rate: 0.0,
                    rates,
                    windows,
                }
            })
            .collect();
        let speeds = if classed {
            resources.classes.iter().map(|c| c.speed).collect()
        } else {
            vec![1.0]
        };
        Self {
            resources,
            speeds,
            jobs,
            round: 0,
            horizon_rounds: rounds,
        }
    }
}

/// The `HISTORY_MINUTES` rates ending at the first minute of `period`
/// (inclusive), left-padded with the schedule's first value.
fn history_window(rates: &[RatePerMin], period: usize) -> Vec<RatePerMin> {
    let minutes_per_period = (TICKS_PER_PERIOD / TICKS_PER_MINUTE) as usize;
    let last = (period * minutes_per_period).min(rates.len() - 1);
    (0..HISTORY_MINUTES)
        .map(|k| {
            let back = HISTORY_MINUTES - 1 - k;
            rates[last.saturating_sub(back)]
        })
        .collect()
}

impl Clock for ReplayBackend {
    fn now(&self) -> SimTimeMs {
        SimTimeMs::from_millis((self.round * TICK_MS) as i64)
    }

    fn advance(&mut self) -> Option<SimTimeMs> {
        if self.round >= self.horizon_rounds {
            return None;
        }
        self.round += 1;
        Some(self.now())
    }
}

impl ClusterBackend for ReplayBackend {
    fn observe(&mut self) -> Result<ClusterSnapshot, BackendError> {
        let tick = self.round.saturating_sub(1);
        let minute = (tick / TICKS_PER_MINUTE) as usize;
        let period = (tick / TICKS_PER_PERIOD) as usize;
        let speeds = &self.speeds;
        let jobs = self
            .jobs
            .iter()
            .map(|job| {
                let rate = job.rates[minute.min(job.rates.len() - 1)];
                let per_sec = rate.per_sec();
                let p = job.spec.processing_time;
                // Requests/second the ready pool can serve, and the
                // service time a request sees on it.
                let (capacity, service) = match &job.classes {
                    Some(alloc) => {
                        let capacity: f64 = alloc
                            .as_slice()
                            .iter()
                            .zip(speeds)
                            .map(|(&n, &speed)| f64::from(n) / (p * speed))
                            .sum();
                        let n = f64::from(alloc.total().max(1));
                        (capacity.max(1e-9), n / capacity.max(1e-9))
                    }
                    None => (f64::from(job.target.max(1)) / p, p),
                };
                let u = (per_sec / capacity).min(0.999);
                let tail = service * (1.0 + 3.0 * u / (1.0 - u));
                let queue_len = if u > 0.9 {
                    ((u - 0.9) * 200.0).round() as usize
                } else {
                    0
                };
                JobObservation {
                    spec: Arc::clone(&job.spec),
                    target_replicas: job.target,
                    ready_replicas: job.target,
                    queue_len,
                    arrival_rate_history: Arc::clone(
                        &job.windows[period.min(job.windows.len() - 1)],
                    ),
                    recent_arrival_rate: per_sec,
                    mean_processing_time: p,
                    recent_tail_latency: tail,
                    drop_rate: job.drop_rate,
                    class_target: job.classes,
                    class_ready: job.classes,
                }
            })
            .collect();
        Ok(ClusterSnapshot {
            now: self.now(),
            resources: self.resources.clone(),
            jobs,
        })
    }

    fn apply(&mut self, desired: &DesiredState) -> Result<ActuationReport, BackendError> {
        let classed = self.resources.n_classes() > 1;
        let mut report = ActuationReport::default();
        // Classless decisions on a classed cluster are placed the way
        // the platform places them: spill-fill, in job order, into what
        // the classed decisions of this state leave free.
        let mut used = [0.0; RESOURCE_DIMS];
        if classed {
            for (_, d) in desired.iter() {
                if let Some(alloc) = &d.classes {
                    let usage = self.resources.usage_of(alloc);
                    for (u, k) in used.iter_mut().zip(usage) {
                        *u += k;
                    }
                }
            }
        }
        for (id, d) in desired.iter() {
            let Some(job) = self.jobs.get_mut(id.index()) else {
                report.jobs_failed += 1;
                continue;
            };
            report.replicas_started +=
                ReplicaCount::new(d.target_replicas.saturating_sub(job.target));
            job.target = d.target_replicas;
            job.drop_rate = d.drop_rate;
            job.classes = match (classed, d.classes) {
                (false, _) => None,
                (true, Some(alloc)) => Some(alloc),
                (true, None) => Some(self.resources.spill_fill(d.target_replicas, &mut used)),
            };
            report.jobs_applied += 1;
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faro::core::types::{JobDecision, JobId, ReplicaClass};

    fn job(rate: f64, minutes: usize) -> ReplayJob {
        ReplayJob {
            spec: JobSpec::resnet18("replay"),
            initial_replicas: 2,
            rates_per_minute: (0..minutes).map(|m| rate + m as f64).collect(),
        }
    }

    #[test]
    fn clock_ticks_ten_seconds_and_stops_at_the_horizon() {
        let mut b = ReplayBackend::new(
            ResourceModel::replicas(ReplicaCount::new(8)),
            vec![job(60.0, 10)],
            3,
        );
        assert_eq!(b.advance(), Some(SimTimeMs::from_millis(10_000)));
        assert_eq!(b.advance(), Some(SimTimeMs::from_millis(20_000)));
        assert_eq!(b.advance(), Some(SimTimeMs::from_millis(30_000)));
        assert_eq!(b.advance(), None);
    }

    #[test]
    fn histories_are_fixed_length_shared_and_refresh_per_period() {
        let mut b = ReplayBackend::new(
            ResourceModel::replicas(ReplicaCount::new(8)),
            vec![job(100.0, 20)],
            2 * TICKS_PER_PERIOD,
        );
        b.advance();
        let first = b.observe().unwrap();
        let h0 = Arc::clone(&first.jobs[0].arrival_rate_history);
        assert_eq!(h0.len(), HISTORY_MINUTES);
        assert!(h0.iter().all(|r| r.get() == 100.0), "left-padded at t=0");
        b.advance();
        let second = b.observe().unwrap();
        assert!(Arc::ptr_eq(&h0, &second.jobs[0].arrival_rate_history));
        for _ in 0..TICKS_PER_PERIOD - 1 {
            b.advance();
        }
        let next_period = b.observe().unwrap();
        let h1 = &next_period.jobs[0].arrival_rate_history;
        assert_eq!(h1.len(), HISTORY_MINUTES);
        assert_eq!(h1.last().unwrap().get(), 105.0, "window ends at minute 5");
    }

    #[test]
    fn tail_follows_the_cluster_model_ramp() {
        let mut b = ReplayBackend::new(
            ResourceModel::replicas(ReplicaCount::new(8)),
            vec![ReplayJob {
                spec: JobSpec::resnet18("ramp"),
                initial_replicas: 2,
                rates_per_minute: vec![600.0; 5],
            }],
            4,
        );
        b.advance();
        let obs = &b.observe().unwrap().jobs[0];
        // 10 req/s at 0.1 s on 2 replicas: u = 0.5.
        let expect = 0.1 * (1.0 + 3.0 * 0.5 / 0.5);
        assert!((obs.recent_tail_latency - expect).abs() < 1e-12);
    }

    #[test]
    fn classed_apply_is_observed_back_and_slow_replicas_serve_slower() {
        let resources = ResourceModel::heterogeneous(
            vec![ReplicaClass::gpu("gpu"), ReplicaClass::cpu("cpu", 5.0)],
            12.0,
            4.0,
            40.0,
        );
        let mut b = ReplayBackend::new(resources, vec![job(300.0, 10)], 4);
        b.advance();
        let before = b.observe().unwrap().jobs[0].clone();
        assert_eq!(before.class_target.map(|a| a.total()), Some(2));
        let alloc = ClassAlloc::from_counts(&[0, 2]).unwrap();
        let mut desired = DesiredState::new();
        desired.set(JobId::new(0), JobDecision::classed(alloc));
        let report = b.apply(&desired).unwrap();
        assert_eq!(report.jobs_applied, 1);
        let after = b.observe().unwrap().jobs[0].clone();
        assert_eq!(after.class_target, Some(alloc));
        assert!(after.recent_tail_latency > before.recent_tail_latency);
    }
}
