//! The in-process cluster the actuation server fronts.
//!
//! This is a *wall-clock* pod model, not a discrete-event simulator:
//! replicas started by an apply become ready only after a real
//! cold-start delay has elapsed on the host clock, so a driver polling
//! over HTTP sees the same convergence lag a Kubernetes operator sees
//! after patching a deployment. Service metrics follow the same
//! closed-form latency ramp as `examples/custom_backend.rs` — load
//! `u` inflates the observed tail as `p·(1 + 3u/(1−u))` — so policies
//! get a smooth, monotone signal without running a request-level
//! simulation inside the server.

use crate::wire::ApplyResponse;
use faro_core::rng::SplitMix64;
use faro_core::types::{ClusterSnapshot, DesiredState, JobObservation, JobSpec, ResourceModel};
use faro_core::units::{RatePerMin, SimTimeMs};
use std::sync::Arc;

/// One modeled job: its spec and the synthetic load that drives its
/// observed metrics.
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// The job spec handed to policies verbatim.
    pub spec: JobSpec,
    /// Replicas ready at server start (no cold start for these).
    pub initial_replicas: u32,
    /// Per-minute arrival rates; the schedule advances with the
    /// *logical* timeline (one tick per fresh observe) and holds its
    /// last value when exhausted.
    pub rates_per_minute: Vec<RatePerMin>,
}

/// The server's cluster shape.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Total replica quota reported to policies.
    pub total_replicas: u32,
    /// Logical milliseconds per reconcile tick; the snapshot timeline
    /// advances by this much per fresh observe.
    pub tick_ms: u64,
    /// Wall-clock cold-start delay for a newly started replica.
    pub cold_start_ms: u64,
    /// The jobs this cluster serves.
    pub jobs: Vec<JobConfig>,
}

impl ClusterConfig {
    /// A small two-job demo cluster: one steady job and one with a
    /// mid-run surge, compressed cold starts so live loops converge in
    /// wall milliseconds rather than minutes.
    pub fn demo(cold_start_ms: u64) -> Self {
        Self {
            total_replicas: 16,
            tick_ms: 10_000,
            cold_start_ms,
            jobs: vec![
                JobConfig {
                    spec: JobSpec::resnet34("live-steady"),
                    initial_replicas: 2,
                    rates_per_minute: vec![RatePerMin::new(300.0); 12],
                },
                JobConfig {
                    spec: JobSpec::resnet34("live-surge"),
                    initial_replicas: 2,
                    rates_per_minute: [
                        120.0, 120.0, 120.0, 600.0, 900.0, 900.0, 600.0, 300.0, 120.0, 120.0,
                        120.0, 120.0,
                    ]
                    .map(RatePerMin::new)
                    .to_vec(),
                },
            ],
        }
    }
}

/// One job's mutable pod state.
#[derive(Debug, Clone)]
struct JobState {
    spec: Arc<JobSpec>,
    target: u32,
    ready: u32,
    /// Wall-clock instants (ms since epoch) at which cold-starting
    /// replicas become ready, unordered.
    pending: Vec<u64>,
    drop_rate: f64,
    /// Per-minute arrival rates, shared copy-on-write with the
    /// observations: a snapshot clones the `Arc`, and a new minute
    /// copies the vector only while a snapshot still holds it.
    history: Arc<Vec<RatePerMin>>,
}

/// The cluster-in-a-process: pods, load, and the observation math.
///
/// All methods take the wall clock as an explicit argument so the
/// server passes real time and unit tests pass a hand-rolled one —
/// the model itself never reads `SystemTime`.
#[derive(Debug)]
pub struct ClusterModel {
    config: ClusterConfig,
    jobs: Vec<JobState>,
    /// Fresh observations served so far; the logical timeline is
    /// `seq * tick_ms`.
    seq: u64,
}

impl ClusterModel {
    /// Builds the cluster at its initial replica allocation.
    pub fn new(config: ClusterConfig) -> Self {
        let jobs = config
            .jobs
            .iter()
            .map(|j| JobState {
                spec: Arc::new(j.spec.clone()),
                target: j.initial_replicas,
                ready: j.initial_replicas,
                pending: Vec::new(),
                drop_rate: 0.0,
                history: Arc::new(Vec::new()),
            })
            .collect();
        Self {
            config,
            jobs,
            seq: 0,
        }
    }

    /// Promotes cold-started replicas whose deadline has passed.
    fn settle(&mut self, now_wall_ms: u64) {
        for job in &mut self.jobs {
            let before = job.pending.len();
            job.pending.retain(|&ready_at| ready_at > now_wall_ms);
            job.ready += (before - job.pending.len()) as u32;
        }
    }

    /// The current arrival rate for job `i` at logical minute `minute`
    /// (the schedule holds its last value when exhausted).
    fn rate_per_minute(&self, i: usize, minute: usize) -> RatePerMin {
        let rates = &self.config.jobs[i].rates_per_minute;
        match rates.get(minute) {
            Some(&r) => r,
            None => rates.last().copied().unwrap_or(RatePerMin::ZERO),
        }
    }

    /// Produces a fresh snapshot at the next logical tick and returns
    /// its sequence number.
    pub fn observe(&mut self, now_wall_ms: u64) -> (u64, ClusterSnapshot) {
        self.settle(now_wall_ms);
        let seq = self.seq;
        self.seq += 1;
        let logical_ms = seq.saturating_mul(self.config.tick_ms) as i64;
        let minute = (logical_ms / 60_000) as usize;
        let mut jobs = Vec::with_capacity(self.jobs.len());
        for i in 0..self.jobs.len() {
            let rate = self.rate_per_minute(i, minute);
            {
                let history = &mut self.jobs[i].history;
                if history.len() <= minute {
                    let history = Arc::make_mut(history);
                    for m in history.len()..=minute {
                        let r = self.config.jobs[i].rates_per_minute.get(m).copied();
                        history.push(r.unwrap_or(rate));
                    }
                }
            }
            let job = &self.jobs[i];
            let per_sec = rate.per_sec();
            let processing = job.spec.processing_time;
            // Offered load on the ready replicas; the latency ramp
            // p·(1 + 3u/(1−u)) diverges as u → 1 and the queue grows
            // once utilization crosses 0.9.
            let served = f64::from(job.ready.max(1));
            let u = (per_sec * processing / served).min(0.999);
            let tail = if u < 1.0 {
                processing * (1.0 + 3.0 * u / (1.0 - u))
            } else {
                f64::INFINITY
            };
            let queue_len = if u > 0.9 {
                ((u - 0.9) * 200.0).round() as usize
            } else {
                0
            };
            jobs.push(JobObservation {
                spec: Arc::clone(&job.spec),
                target_replicas: job.target,
                ready_replicas: job.ready,
                queue_len,
                arrival_rate_history: Arc::clone(&job.history),
                recent_arrival_rate: per_sec,
                mean_processing_time: processing,
                recent_tail_latency: tail,
                drop_rate: job.drop_rate,
                class_target: None,
                class_ready: None,
            });
        }
        let snapshot = ClusterSnapshot {
            now: SimTimeMs::from_millis(logical_ms),
            resources: ResourceModel::replicas(faro_core::units::ReplicaCount::new(
                self.config.total_replicas,
            )),
            jobs,
        };
        (seq, snapshot)
    }

    /// Actuates a desired state: retargets each listed job, starting
    /// cold replicas (ready after the configured wall delay) or
    /// killing pending-then-ready ones. Unknown job indices are
    /// counted as failed and skipped; re-applying a satisfied state is
    /// a no-op, which is what makes client-side retry safe.
    pub fn apply(&mut self, desired: &DesiredState, now_wall_ms: u64) -> ApplyResponse {
        self.settle(now_wall_ms);
        let mut resp = ApplyResponse {
            applied: 0,
            failed: 0,
            replicas_started: 0,
        };
        for (id, decision) in desired.iter() {
            let Some(job) = self.jobs.get_mut(id.index()) else {
                resp.failed += 1;
                continue;
            };
            job.target = decision.target_replicas;
            job.drop_rate = decision.drop_rate;
            let current = job.ready + job.pending.len() as u32;
            if decision.target_replicas > current {
                let start = decision.target_replicas - current;
                let ready_at = now_wall_ms + self.config.cold_start_ms;
                job.pending
                    .extend(std::iter::repeat_n(ready_at, start as usize));
                resp.replicas_started += start;
            } else {
                let mut kill = current - decision.target_replicas;
                let from_pending = kill.min(job.pending.len() as u32);
                for _ in 0..from_pending {
                    job.pending.pop();
                }
                kill -= from_pending;
                job.ready -= kill;
            }
            resp.applied += 1;
        }
        resp
    }

    /// The cluster's total replica quota.
    pub fn total_replicas(&self) -> u32 {
        self.config.total_replicas
    }
}

/// One seeded per-fault-class draw stream (mirrors the control-plane
/// chaos wrapper's stream splitting: enabling one class never shifts
/// another's draws).
#[derive(Debug)]
pub struct FaultStreams {
    stale: SplitMix64,
    fail: SplitMix64,
}

impl FaultStreams {
    /// Streams for `seed`, one per fault class.
    pub fn new(seed: u64) -> Self {
        Self {
            stale: SplitMix64::new(seed ^ 0x5A5A_0001),
            fail: SplitMix64::new(seed ^ 0x5A5A_0002),
        }
    }

    /// Draws whether this observe is served stale.
    pub fn draw_stale(&mut self, per_mille: u32) -> bool {
        self.stale.next_u64() % 1000 < u64::from(per_mille)
    }

    /// Draws whether this apply is refused.
    pub fn draw_fail(&mut self, per_mille: u32) -> bool {
        self.fail.next_u64() % 1000 < u64::from(per_mille)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faro_core::types::{JobDecision, JobId};

    fn model(cold_ms: u64) -> ClusterModel {
        ClusterModel::new(ClusterConfig::demo(cold_ms))
    }

    fn targets(list: &[(usize, u32)]) -> DesiredState {
        let mut d = DesiredState::new();
        for &(i, t) in list {
            d.set(
                JobId::new(i),
                JobDecision {
                    target_replicas: t,
                    drop_rate: 0.0,
                    classes: None,
                },
            );
        }
        d
    }

    #[test]
    fn cold_starts_gate_readiness_on_the_wall_clock() {
        let mut m = model(500);
        let desired = targets(&[(0, 6), (1, 2)]);
        let resp = m.apply(&desired, 1_000);
        assert_eq!(resp.applied, 2);
        assert_eq!(resp.replicas_started, 4);
        // Before the deadline the new replicas are visible as a
        // target/ready gap; after it they are ready.
        let (_, early) = m.observe(1_200);
        assert_eq!(early.jobs[0].target_replicas, 6);
        assert_eq!(early.jobs[0].ready_replicas, 2);
        let (_, late) = m.observe(1_600);
        assert_eq!(late.jobs[0].ready_replicas, 6);
    }

    #[test]
    fn scale_down_kills_pending_before_ready() {
        let mut m = model(10_000);
        m.apply(&targets(&[(0, 8)]), 0);
        // Nothing became ready yet; shrinking to 3 must cancel cold
        // starts first and keep all original ready replicas.
        let resp = m.apply(&targets(&[(0, 3)]), 100);
        assert_eq!(resp.replicas_started, 0);
        let (_, snap) = m.observe(200);
        assert_eq!(snap.jobs[0].target_replicas, 3);
        assert_eq!(snap.jobs[0].ready_replicas, 2);
        let (_, settled) = m.observe(20_000);
        assert_eq!(settled.jobs[0].ready_replicas, 3);
    }

    #[test]
    fn unknown_jobs_fail_without_poisoning_the_batch() {
        let mut m = model(100);
        let desired = targets(&[(0, 3), (9, 5)]);
        let resp = m.apply(&desired, 0);
        assert_eq!(resp.applied, 1);
        assert_eq!(resp.failed, 1);
    }

    #[test]
    fn overload_inflates_the_observed_tail() {
        let mut m = model(100);
        // One replica against the surge job's peak rate.
        m.apply(&targets(&[(1, 1)]), 0);
        let (_, snap) = m.observe(200);
        let calm = snap.jobs[0].recent_tail_latency;
        let surged = snap.jobs[1].recent_tail_latency;
        assert!(surged.is_finite());
        assert!(calm > 0.0);
    }

    #[test]
    fn fault_streams_replay_per_seed() {
        let draws = |seed: u64| {
            let mut s = FaultStreams::new(seed);
            (0..64).map(|_| s.draw_fail(300)).collect::<Vec<_>>()
        };
        assert_eq!(draws(7), draws(7));
        assert_ne!(draws(7), draws(8));
    }
}
