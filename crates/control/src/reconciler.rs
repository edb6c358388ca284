//! One Observe → Decide → Admit → Actuate round.

use crate::backend::{ActuationReport, BackendError, ClusterBackend};
use faro_core::admission::{Admission, AdmissionOutcome};
use faro_core::policy::{Policy, PolicyIntrospection};
use faro_core::types::{ClusterSnapshot, DesiredState, JobId};
use faro_telemetry::{
    DecisionRecord, JobRound, NoopSink, Phase, Sample, TelemetryEvent, TelemetrySink,
};

/// Cumulative admission accounting across a run — the reconciler's
/// answer to quota enforcement that used to fail silently: every
/// trimmed or unsatisfiable round is counted here instead of being
/// dropped on the floor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Total replicas requested across all rounds.
    pub requested_replicas: u64,
    /// Total replicas granted across all rounds.
    pub granted_replicas: u64,
    /// Rounds in which admission trimmed at least one request.
    pub clamped_rounds: u64,
    /// Rounds in which the quota was unsatisfiable (every job already
    /// at the 1-replica floor, total still above quota).
    pub unsatisfiable_rounds: u64,
}

impl AdmissionStats {
    fn record(&mut self, outcome: &AdmissionOutcome) {
        self.requested_replicas += u64::from(outcome.requested_replicas);
        self.granted_replicas += u64::from(outcome.granted_replicas);
        if outcome.clamped() {
            self.clamped_rounds += 1;
        }
        if outcome.unsatisfiable() {
            self.unsatisfiable_rounds += 1;
        }
    }

    /// Replicas requested but never granted, across the whole run.
    pub fn shortfall(&self) -> u64 {
        self.requested_replicas
            .saturating_sub(self.granted_replicas)
    }
}

/// The reconciler's run report: how many rounds ran and what admission
/// and actuation did over the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Reconcile rounds executed.
    pub rounds: u64,
    /// Cumulative admission accounting.
    pub admission: AdmissionStats,
    /// Replicas started (entered cold start) across all rounds.
    pub replicas_started: u64,
    /// Jobs whose decision failed to apply across all rounds (unknown
    /// jobs, or partial applies that never completed) — previously
    /// these were silently under-counted as "not applied".
    pub jobs_failed: u64,
}

/// The Decide + Admit half of a round, produced by
/// [`Reconciler::plan_with`] on a caller-provided snapshot and
/// consumed by [`Reconciler::complete_round_with`] once actuation has
/// (or has not) happened. Splitting the round this way lets the retry
/// ladder own the fallible Observe/Actuate edges while the reconciler
/// keeps owning policy, admission, and accounting.
pub(crate) struct PlannedRound {
    /// The admitted desired state — what actuation should apply.
    pub(crate) desired: DesiredState,
    /// What admission granted this round.
    admission: AdmissionOutcome,
    /// The pre-admission request, kept only when a sink is listening
    /// (it exists solely for the decision record).
    requested: Option<DesiredState>,
    intro: PolicyIntrospection,
}

/// One control-loop round: observe the backend, ask the policy for a
/// desired state, admit it against the cluster quota, and actuate the
/// result. [`Driver::run`](crate::Driver::run) runs it once per tick,
/// inside the retry ladder, until the backend's clock ends.
///
/// The reconciler owns the policy and the admission strategy; the
/// backend is borrowed per call so one reconciler can drive simulated
/// and real clusters alike.
pub struct Reconciler {
    policy: Box<dyn Policy>,
    admission: Box<dyn Admission>,
    stats: RunStats,
}

impl Reconciler {
    /// Composes a policy with a cluster-level admission strategy.
    pub fn new(policy: Box<dyn Policy>, admission: Box<dyn Admission>) -> Self {
        Self {
            policy,
            admission,
            stats: RunStats::default(),
        }
    }

    /// The composed policy's display name.
    pub fn policy_name(&self) -> &str {
        self.policy.name()
    }

    /// Accumulated run statistics.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// One untraced Observe → Decide → Admit → Actuate round at the
    /// backend's current time, with no retry: `observe`? → `plan_with`
    /// → `apply_with`? → `complete_round_with`, all on [`NoopSink`].
    /// [`Driver::run`](crate::Driver::run) runs the same halves inside
    /// [`ResilientDriver`](crate::ResilientDriver)'s retry ladder,
    /// which is where a traced round's spans, samples and
    /// [`DecisionRecord`] come from. On a backend that never fails,
    /// stepping this by hand yields the run's [`RunStats`].
    ///
    /// # Errors
    ///
    /// Propagates the first [`BackendError`] from `observe` or `apply`
    /// untouched; the round's stats are not recorded.
    pub fn reconcile<B: ClusterBackend + ?Sized>(
        &mut self,
        backend: &mut B,
    ) -> Result<(), BackendError> {
        let snapshot = backend.observe()?;
        let planned = self.plan_with(&snapshot, &mut NoopSink);
        let actuation = backend.apply_with(&planned.desired, &mut NoopSink)?;
        self.complete_round_with(&snapshot, planned, &actuation, &mut NoopSink);
        Ok(())
    }

    /// The Decide + Admit half of a round on a caller-provided
    /// snapshot: emits the Observe/Decide/Admit spans, runs the policy
    /// and admission, and returns the admitted state plus the context
    /// [`Reconciler::complete_round_with`] needs to finish the round's
    /// accounting. The retry ladder calls the two halves directly so
    /// it can retry the fallible edges in between.
    ///
    /// With [`NoopSink`] every sink call is an empty inlined body and
    /// the requested-state clone is skipped (`sink.enabled()` is
    /// `false`).
    pub(crate) fn plan_with<S: TelemetrySink>(
        &mut self,
        snapshot: &ClusterSnapshot,
        sink: &mut S,
    ) -> PlannedRound {
        let at = snapshot.now;
        sink.span(at, Phase::Observe, snapshot.jobs.len() as u64);
        let mut desired = self.policy.decide(snapshot);
        let intro = self.policy.introspect();
        sink.span(at, Phase::Decide, intro.solver_evals);
        // Sharded decide rounds break the Decide span down per solved
        // shard and summarize the round's cache behavior; the global
        // path emits neither.
        for span in &intro.shard_spans {
            sink.span(at, Phase::ShardSolve, span.evals);
        }
        if sink.enabled() {
            if let Some(rec) = &intro.shard_record {
                sink.event(
                    at,
                    &TelemetryEvent::ShardSolve {
                        shards: rec.shards,
                        solved: rec.solved,
                        skipped: rec.skipped,
                        cache_hit_jobs: rec.cache_hit_jobs,
                        evals: rec.evals,
                        split_evals: rec.split_evals,
                    },
                );
            }
        }
        // The pre-admission request is only needed for the decision
        // record; skip the clone when nobody is listening.
        let requested = sink.enabled().then(|| desired.clone());
        let admission = self.admission.admit(snapshot, &mut desired);
        sink.span(at, Phase::Admit, u64::from(admission.shortfall()));
        PlannedRound {
            desired,
            admission,
            requested,
            intro,
        }
    }

    /// Commits a planned round's actuation outcome: emits the Actuate
    /// span, folds the round into [`RunStats`], and emits the per-job
    /// samples and the [`DecisionRecord`] of requested-vs-granted
    /// allocations when a sink is listening.
    pub(crate) fn complete_round_with<S: TelemetrySink>(
        &mut self,
        snapshot: &ClusterSnapshot,
        planned: PlannedRound,
        actuation: &ActuationReport,
        sink: &mut S,
    ) {
        let at = snapshot.now;
        let PlannedRound {
            desired,
            admission,
            requested,
            intro,
        } = planned;
        sink.span(
            at,
            Phase::Actuate,
            u64::from(actuation.replicas_started.get()),
        );
        self.stats.rounds += 1;
        self.stats.admission.record(&admission);
        self.stats.replicas_started += u64::from(actuation.replicas_started.get());
        self.stats.jobs_failed += u64::from(actuation.jobs_failed);
        if let Some(requested) = requested {
            for (j, obs) in snapshot.jobs.iter().enumerate() {
                sink.sample(at, Sample::QueueDepth, Some(j), obs.queue_len as f64);
            }
            if intro.long_term_solve {
                sink.sample(at, Sample::SolveEvals, None, intro.solver_evals as f64);
            }
            let record = decision_record(
                self.stats.rounds,
                snapshot,
                &requested,
                &desired,
                &admission,
                actuation,
                intro,
            );
            sink.event(at, &TelemetryEvent::Decision { record });
        }
    }
}

/// Assembles the per-round decision record from the observed snapshot,
/// the pre-admission request, and the granted (actuated) state. Jobs
/// absent from a state fall back to their observed targets, matching
/// actuation's "absent means untouched" semantics.
fn decision_record(
    round: u64,
    snapshot: &ClusterSnapshot,
    requested: &DesiredState,
    granted: &DesiredState,
    admission: &AdmissionOutcome,
    actuation: &ActuationReport,
    intro: PolicyIntrospection,
) -> DecisionRecord {
    let jobs = snapshot
        .jobs
        .iter()
        .enumerate()
        .map(|(j, obs)| {
            let id = JobId::new(j);
            let req = requested
                .get(id)
                .map_or(obs.target_replicas, |d| d.target_replicas);
            let grant = granted.get(id);
            JobRound {
                job: j,
                requested_replicas: req,
                granted_replicas: grant.map_or(obs.target_replicas, |d| d.target_replicas),
                ready_replicas: obs.ready_replicas,
                queue_depth: obs.queue_len as u64,
                tail_latency: obs.recent_tail_latency,
                slo_latency: obs.spec.slo.latency,
                slo_attained: obs.recent_tail_latency <= obs.spec.slo.latency,
                drop_rate: grant.map_or(obs.drop_rate, |d| d.drop_rate),
            }
        })
        .collect();
    DecisionRecord {
        round,
        at: snapshot.now,
        quota: snapshot.replica_quota().get(),
        requested_replicas: admission.requested_replicas,
        granted_replicas: admission.granted_replicas,
        clamped: admission.clamped(),
        unsatisfiable: admission.unsatisfiable(),
        replicas_started: actuation.replicas_started.get(),
        jobs_applied: actuation.jobs_applied,
        solver_evals: intro.solver_evals,
        long_term_solve: intro.long_term_solve,
        carried_forward: intro.carried_forward,
        sanitized_samples: intro.sanitized_samples,
        jobs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;
    use faro_core::admission::{OutageClamp, Unlimited};
    use faro_core::types::{
        ClusterSnapshot, DesiredState, JobDecision, JobObservation, JobSpec, ResourceModel,
    };
    use faro_core::units::SimTimeMs;
    use std::sync::Arc;

    /// A minimal in-memory backend: fixed tick, fixed horizon, targets
    /// applied instantly.
    struct MemBackend {
        now: SimTimeMs,
        tick: faro_core::units::DurationMs,
        end: SimTimeMs,
        quota: u32,
        targets: Vec<u32>,
        applies: Vec<Vec<(usize, u32)>>,
    }

    impl MemBackend {
        fn new(quota: u32, jobs: usize) -> Self {
            Self {
                now: SimTimeMs::from_secs(-10.0),
                tick: faro_core::units::DurationMs::from_secs(10.0),
                end: SimTimeMs::from_secs(100.0),
                quota,
                targets: vec![1; jobs],
                applies: Vec::new(),
            }
        }
    }

    impl Clock for MemBackend {
        fn now(&self) -> SimTimeMs {
            self.now
        }

        fn advance(&mut self) -> Option<SimTimeMs> {
            let next = self.now + self.tick;
            if next >= self.end {
                return None;
            }
            self.now = next;
            Some(next)
        }
    }

    impl ClusterBackend for MemBackend {
        fn observe(&mut self) -> Result<ClusterSnapshot, BackendError> {
            let jobs = self
                .targets
                .iter()
                .map(|&t| JobObservation {
                    spec: Arc::new(JobSpec::resnet34("mem")),
                    target_replicas: t,
                    ready_replicas: t,
                    queue_len: 0,
                    arrival_rate_history: Arc::new(vec![
                        faro_core::units::RatePerMin::new(60.0);
                        10
                    ]),
                    recent_arrival_rate: 1.0,
                    mean_processing_time: 0.18,
                    recent_tail_latency: 0.2,
                    drop_rate: 0.0,
                    class_target: None,
                    class_ready: None,
                })
                .collect();
            Ok(ClusterSnapshot {
                now: self.now,
                resources: ResourceModel::replicas(faro_core::units::ReplicaCount::new(self.quota)),
                jobs,
            })
        }

        fn apply(&mut self, desired: &DesiredState) -> Result<ActuationReport, BackendError> {
            let mut report = ActuationReport::default();
            let mut applied = Vec::new();
            for (id, d) in desired.iter() {
                if let Some(t) = self.targets.get_mut(id.index()) {
                    report.replicas_started += d.target_replicas.saturating_sub(*t);
                    *t = d.target_replicas;
                    report.jobs_applied += 1;
                    applied.push((id.index(), d.target_replicas));
                } else {
                    report.jobs_failed += 1;
                }
            }
            self.applies.push(applied);
            Ok(report)
        }
    }

    /// Requests a fixed target for every job, every round.
    struct Want(u32);

    impl Policy for Want {
        fn name(&self) -> &str {
            "want"
        }

        fn decide(&mut self, snapshot: &ClusterSnapshot) -> DesiredState {
            snapshot
                .job_ids()
                .map(|id| (id, JobDecision::replicas(self.0)))
                .collect()
        }
    }

    /// A whole run of `policy` over `backend` through the one
    /// run loop.
    fn drive(
        backend: MemBackend,
        policy: Want,
        admission: Box<dyn Admission>,
    ) -> crate::DriverOutcome<MemBackend> {
        crate::Driver::new(backend, Box::new(policy))
            .admission(admission)
            .run()
    }

    #[test]
    fn runs_until_the_clock_expires_and_accumulates_stats() {
        let out = drive(MemBackend::new(16, 2), Want(4), Box::new(Unlimited));
        let stats = out.stats;
        // Ticks at 0, 10, ..., 90 -> 10 rounds.
        assert_eq!(stats.rounds, 10);
        assert_eq!(out.backend.applies.len(), 10);
        assert_eq!(out.backend.targets, vec![4, 4]);
        // Round 1 started 3 replicas per job; later rounds none.
        assert_eq!(stats.replicas_started, 6);
        assert_eq!(stats.admission.requested_replicas, 80);
        assert_eq!(stats.admission.granted_replicas, 80);
        assert_eq!(stats.admission.shortfall(), 0);
        assert_eq!(out.policy_name, "want");
    }

    #[test]
    fn admission_sits_between_decide_and_apply() {
        // Quota 6 against a request of 2 x 8: the clamp must be what
        // reaches the backend.
        let mut backend = MemBackend::new(6, 2);
        let mut rec = Reconciler::new(Box::new(Want(8)), Box::new(OutageClamp::new(16)));
        backend.advance();
        rec.reconcile(&mut backend).unwrap();
        let admission = rec.stats().admission;
        assert_eq!(admission.clamped_rounds, 1);
        assert_eq!(admission.granted_replicas, 6);
        assert_eq!(backend.targets.iter().sum::<u32>(), 6);
        assert_eq!(backend.applies, vec![vec![(0, 3), (1, 3)]]);
    }

    #[test]
    fn unsatisfiable_rounds_are_reported_not_swallowed() {
        // 3 jobs, quota 2: even the all-ones floor exceeds the quota.
        let stats = drive(
            MemBackend::new(2, 3),
            Want(1),
            Box::new(OutageClamp::new(16)),
        )
        .stats;
        assert_eq!(stats.admission.unsatisfiable_rounds, stats.rounds);
        assert!(stats.admission.shortfall() == 0, "nothing was trimmed");
    }

    #[test]
    fn a_traced_round_records_requested_vs_granted() {
        let mut backend = MemBackend::new(6, 2);
        let mut rec = Reconciler::new(Box::new(Want(8)), Box::new(OutageClamp::new(16)));
        let mut sink = faro_telemetry::TraceSink::new();
        backend.advance();
        crate::ResilientDriver::new(backend, crate::ResilienceConfig::default())
            .round_with(&mut rec, &mut sink);
        assert_eq!(sink.len(), 1);
        let entry = sink.entries().next().unwrap();
        let TelemetryEvent::Decision { record } = &entry.event else {
            panic!("expected a decision record, got {}", entry.event.kind());
        };
        assert_eq!(record.round, 1);
        assert_eq!(record.quota, 6);
        assert_eq!(record.requested_replicas, 16);
        assert_eq!(record.granted_replicas, 6);
        assert!(record.clamped);
        assert!(!record.unsatisfiable);
        assert_eq!(record.jobs.len(), 2);
        for job in &record.jobs {
            assert_eq!(job.requested_replicas, 8);
            assert_eq!(job.granted_replicas, 3);
        }
    }

    #[test]
    fn traced_spans_measure_deterministic_work() {
        let mut sink = faro_telemetry::AggregateSink::new();
        crate::Driver::new(MemBackend::new(16, 3), Box::new(Want(4)))
            .admission(Box::new(Unlimited))
            .telemetry(&mut sink)
            .run();
        let observe = sink.span_stats(Phase::Observe);
        assert_eq!(observe.rounds, 10);
        assert_eq!(observe.max_work, 3, "observe work = jobs observed");
        let actuate = sink.span_stats(Phase::Actuate);
        // Round 1 starts 3 replicas per job; later rounds start none.
        assert_eq!(actuate.total_work, 9);
        assert_eq!(sink.counter_total(faro_telemetry::Counter::Rounds), 10);
    }

    #[test]
    fn noop_sink_path_matches_plain_reconcile() {
        let mut plain = MemBackend::new(6, 2);
        let mut rec = Reconciler::new(Box::new(Want(8)), Box::new(OutageClamp::new(16)));
        while plain.advance().is_some() {
            rec.reconcile(&mut plain).unwrap();
        }
        let driven = drive(
            MemBackend::new(6, 2),
            Want(8),
            Box::new(OutageClamp::new(16)),
        );
        assert_eq!(*rec.stats(), driven.stats);
        assert_eq!(plain.applies, driven.backend.applies);
    }
}
