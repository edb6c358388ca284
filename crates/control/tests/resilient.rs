//! Integration tests for the run loop's retry ladder and the chaos
//! backend: retry recovery, breaker schedules, degraded rounds, drift
//! repair, the no-mutation guarantee for breaker-open rounds, the bound
//! on the one retry loop, and `Driver::run` as the very program a
//! caller stepping rounds by hand runs.

use faro_control::resilient::{
    BASE_BACKOFF, BREAKER_COOLDOWN_ROUNDS, BREAKER_THRESHOLD, CALL_BUDGET, STALENESS_WINDOW,
};
use faro_control::{
    ActuationReport, ApiErrors, BackendError, BreakerState, ChaosBackend, ChaosPlan, Clock,
    ClusterBackend, Driver, DriverOutcome, DriverStats, PartialApplies, Reconciler,
    ResilienceConfig, ResilientDriver, RetryPolicy, StaleSnapshots,
};
use faro_core::admission::ClampToQuota;
use faro_core::types::{
    ClusterSnapshot, DesiredState, JobDecision, JobObservation, JobSpec, ResourceModel,
};
use faro_core::units::{DurationMs, RatePerMin, ReplicaCount, SimTimeMs};
use faro_core::Policy;
use faro_telemetry::{NoopSink, TelemetryEvent, TelemetrySink, TraceSink};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::Arc;

/// An in-memory cluster with a scripted failure schedule: each backend
/// call pops the next planned error (`None` = succeed). Counts calls,
/// in total and per round, and mutations so tests can assert what a
/// round touched.
struct ScriptBackend {
    now: SimTimeMs,
    tick: DurationMs,
    end: SimTimeMs,
    quota: u32,
    targets: Vec<u32>,
    observe_plan: VecDeque<Option<BackendError>>,
    apply_plan: VecDeque<Option<BackendError>>,
    observe_calls: u64,
    apply_calls: u64,
    /// Each round's time and its `[observe, apply]` call counts.
    per_round: Vec<(SimTimeMs, [u64; 2])>,
    mutations: u64,
    /// External interference: after each successful apply, knock this
    /// many replicas off job 0 (drift for the next observe to catch).
    sabotage: u32,
}

impl ScriptBackend {
    fn new(rounds: u32, jobs: usize) -> Self {
        Self {
            now: SimTimeMs::from_secs(-10.0),
            tick: DurationMs::from_secs(10.0),
            end: SimTimeMs::from_secs(10.0 * f64::from(rounds)),
            quota: 16,
            targets: vec![2; jobs],
            observe_plan: VecDeque::new(),
            apply_plan: VecDeque::new(),
            observe_calls: 0,
            apply_calls: 0,
            per_round: Vec::new(),
            mutations: 0,
            sabotage: 0,
        }
    }

    fn unavailable() -> BackendError {
        BackendError::Unavailable {
            reason: "scripted".into(),
        }
    }

    fn count_call(&mut self, phase: usize) {
        if let Some((_, calls)) = self.per_round.last_mut() {
            calls[phase] += 1;
        }
    }
}

impl Clock for ScriptBackend {
    fn now(&self) -> SimTimeMs {
        self.now
    }

    fn advance(&mut self) -> Option<SimTimeMs> {
        let next = self.now + self.tick;
        if next >= self.end {
            return None;
        }
        self.now = next;
        self.per_round.push((next, [0, 0]));
        Some(next)
    }
}

impl ClusterBackend for ScriptBackend {
    fn observe(&mut self) -> Result<ClusterSnapshot, BackendError> {
        self.observe_calls += 1;
        self.count_call(0);
        if let Some(Some(e)) = self.observe_plan.pop_front() {
            return Err(e);
        }
        let jobs = self
            .targets
            .iter()
            .map(|&t| JobObservation {
                spec: Arc::new(JobSpec::resnet34("scripted")),
                target_replicas: t,
                ready_replicas: t,
                queue_len: 0,
                arrival_rate_history: Arc::new(vec![RatePerMin::new(60.0); 10]),
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
            resources: ResourceModel::replicas(ReplicaCount::new(self.quota)),
            jobs,
        })
    }

    fn apply(&mut self, desired: &DesiredState) -> Result<ActuationReport, BackendError> {
        self.apply_calls += 1;
        self.count_call(1);
        if let Some(Some(e)) = self.apply_plan.pop_front() {
            return Err(e);
        }
        let mut report = ActuationReport::default();
        for (id, d) in desired.iter() {
            if let Some(t) = self.targets.get_mut(id.index()) {
                if *t != d.target_replicas {
                    self.mutations += 1;
                }
                report.replicas_started += d.target_replicas.saturating_sub(*t);
                *t = d.target_replicas;
                report.jobs_applied += 1;
            } else {
                report.jobs_failed += 1;
            }
        }
        if self.sabotage > 0 {
            if let Some(t) = self.targets.first_mut() {
                *t = t.saturating_sub(self.sabotage);
            }
        }
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

fn reconciler(target: u32) -> Reconciler {
    Reconciler::new(Box::new(Want(target)), Box::new(ClampToQuota))
}

/// A run of [`Want`] over `backend`, admitted by [`ClampToQuota`] like
/// [`reconciler`].
fn driver<B: ClusterBackend>(backend: B, target: u32) -> Driver<B> {
    Driver::new(backend, Box::new(Want(target)))
}

/// A run to the horizon with this tuning, and its driver accounting.
fn resilient<B: ClusterBackend, S: TelemetrySink>(
    run: Driver<B, S>,
    cfg: ResilienceConfig,
) -> (DriverOutcome<B>, DriverStats) {
    let out = run.resilience(cfg).run();
    let stats = out.driver_stats;
    (out, stats)
}

#[test]
fn clean_backend_matches_the_plain_reconciler() {
    let mut plain = ScriptBackend::new(10, 2);
    let mut rec = reconciler(4);
    while plain.advance().is_some() {
        rec.reconcile(&mut plain).expect("no faults scripted");
    }
    let (out, stats) = resilient(
        driver(ScriptBackend::new(10, 2), 4),
        ResilienceConfig::default(),
    );

    assert_eq!(
        out.stats,
        *rec.stats(),
        "no faults: the driver is transparent"
    );
    assert_eq!(out.backend.targets, plain.targets);
    assert_eq!(
        (out.backend.observe_calls, out.backend.apply_calls),
        (plain.observe_calls, plain.apply_calls)
    );
    assert_eq!(
        stats,
        DriverStats {
            rounds: 10,
            ok_rounds: 10,
            ..DriverStats::default()
        }
    );
    assert_eq!(out.breaker, BreakerState::Closed);
}

#[test]
fn transient_errors_are_retried_within_the_round() {
    let mut backend = ScriptBackend::new(6, 2);
    // First round: observe fails twice then succeeds; apply fails once.
    backend.observe_plan = VecDeque::from(vec![
        Some(ScriptBackend::unavailable()),
        Some(ScriptBackend::unavailable()),
        None,
    ]);
    backend.apply_plan = VecDeque::from(vec![Some(ScriptBackend::unavailable())]);
    let (out, stats) = resilient(driver(backend, 4), ResilienceConfig::default());

    assert_eq!(out.stats.rounds, 6, "every round completed despite faults");
    assert_eq!(stats.ok_rounds, 6);
    assert_eq!(stats.observe_retries, 2);
    assert_eq!(stats.apply_retries, 1);
    assert_eq!(stats.observe_failures + stats.apply_failures, 0);
    assert_eq!(out.backend.targets, vec![4, 4]);
}

#[test]
fn retry_schedules_replay_byte_identically() {
    let run = || {
        let mut backend = ScriptBackend::new(6, 2);
        backend.observe_plan = VecDeque::from(vec![
            Some(ScriptBackend::unavailable()),
            None,
            Some(ScriptBackend::unavailable()),
        ]);
        let mut sink = TraceSink::new();
        resilient(
            driver(backend, 3).telemetry(&mut sink),
            ResilienceConfig::default(),
        );
        sink.to_jsonl()
    };
    let a = run();
    assert!(a.contains("BackendRetry"), "retries were traced");
    assert_eq!(a, run(), "same failures: same trace bytes");
}

#[test]
fn degraded_rounds_plan_on_the_cached_snapshot_then_carry_forward() {
    let mut backend = ScriptBackend::new(9, 2);
    // Round 1 observes fine; every later observe fails (4 attempts per
    // round under the default policy).
    backend.observe_plan = VecDeque::from(
        std::iter::once(None)
            .chain(std::iter::repeat_with(|| Some(ScriptBackend::unavailable())).take(200))
            .collect::<Vec<_>>(),
    );
    // Ticks every 10 s: the rounds at 10..=60 s still plan on round 1's
    // snapshot (the 60 s staleness window); the rounds at 70 and 80 s
    // must carry forward. Stale-tolerated rounds do not count toward
    // the breaker, and two carry-forwards stay under its threshold.
    assert_eq!(STALENESS_WINDOW, DurationMs::from_secs(60.0));
    const { assert!(BREAKER_THRESHOLD > 2) };
    let (out, stats) = resilient(driver(backend, 5), ResilienceConfig::default());
    assert_eq!(stats.ok_rounds, 1);
    assert_eq!(stats.stale_tolerated_rounds, 6);
    assert_eq!(stats.carry_forward_rounds, 2);
    assert_eq!(stats.breaker_opens, 0);
    assert_eq!(stats.skipped_rounds, 0, "always had state to act on");
    assert_eq!(
        out.backend.targets,
        vec![5, 5],
        "carry-forward kept actuating"
    );
}

#[test]
fn breaker_opens_skips_and_probes_on_schedule() {
    let mut backend = ScriptBackend::new(12, 2);
    backend.observe_plan = VecDeque::from(
        std::iter::repeat_with(|| Some(ScriptBackend::unavailable()))
            .take(500)
            .collect::<Vec<_>>(),
    );
    let cfg = ResilienceConfig {
        retry: RetryPolicy::no_retry(),
    };
    let mut sink = TraceSink::new();
    let (out, stats) = resilient(driver(backend, 4).telemetry(&mut sink), cfg);

    // Rounds 1-3 fail (one attempt each, no state to degrade onto) and
    // trip the breaker; rounds 4-7 are cooldown skips with zero backend
    // calls; round 8 is a half-open probe that fails and re-trips, and
    // rounds 9-12 are the next cooldown.
    assert_eq!((BREAKER_THRESHOLD, BREAKER_COOLDOWN_ROUNDS), (3, 5));
    assert_eq!(stats.breaker_opens, 2, "{stats:?}");
    assert_eq!(stats.skipped_rounds, 12, "{stats:?}");
    assert_eq!(out.backend.observe_calls, 4, "three failures and one probe");
    assert_eq!(out.backend.apply_calls, 0);
    assert_eq!(out.backend.mutations, 0);
    let transitions: Vec<String> = sink
        .entries()
        .filter_map(|e| match &e.event {
            TelemetryEvent::BreakerTransition { from, to } => Some(format!("{from}->{to}")),
            _ => None,
        })
        .collect();
    assert_eq!(
        &transitions[..3],
        &[
            "closed->open".to_owned(),
            "open->half-open".to_owned(),
            "half-open->open".to_owned(),
        ],
        "breaker walked the closed → open → half-open → open schedule"
    );
}

/// Asserts the bound on the one retry loop, `with_retry`, which every
/// backend call of `Driver::run` goes through. Each of `observe` and
/// `apply` in turn fails with `Unavailable` on each of its next 1,000
/// calls over a 30-round run: no round makes more than `bound` calls in
/// either phase, and a round with the breaker open makes none. Returns
/// the most calls one round made in each failing phase. The failures
/// are finite, so a loop that ignores its bounds ends (with a round of
/// 1,001 calls) and fails here instead of hanging.
fn most_calls_per_round(cfg: ResilienceConfig, bound: u64) -> [u64; 2] {
    [0, 1].map(|phase| {
        let mut backend = ScriptBackend::new(30, 2);
        let plan = std::iter::repeat_with(|| Some(ScriptBackend::unavailable()))
            .take(1_000)
            .collect();
        if phase == 0 {
            backend.observe_plan = plan;
        } else {
            backend.apply_plan = plan;
        }
        let mut sink = TraceSink::new();
        let (out, stats) = resilient(driver(backend, 4).telemetry(&mut sink), cfg);
        assert!(
            stats.breaker_opens > 0,
            "the breaker never opened: {stats:?}"
        );
        let open: Vec<SimTimeMs> = sink
            .entries()
            .filter(|e| {
                matches!(&e.event, TelemetryEvent::DegradedRound { kind } if kind == "breaker-open")
            })
            .map(|e| e.at)
            .collect();
        for (at, calls) in &out.backend.per_round {
            let limit = if open.contains(at) { 0 } else { bound };
            assert!(
                calls.iter().all(|&c| c <= limit),
                "phase {phase}, round at {at:?}: {calls:?} calls, limit {limit}"
            );
        }
        out.backend
            .per_round
            .iter()
            .map(|(_, calls)| calls[phase])
            .max()
            .unwrap_or(0)
    })
}

#[test]
fn no_round_makes_more_than_max_attempts_calls_per_phase() {
    let cfg = ResilienceConfig::default();
    let max = u64::from(cfg.retry.max_attempts);
    assert_eq!(
        most_calls_per_round(cfg, max),
        [max, max],
        "failures were retried"
    );
}

/// With no attempt limit, [`CALL_BUDGET`] alone ends the loop: every
/// backoff is at least half of [`BASE_BACKOFF`], so a round makes at
/// most one call plus one per such delay the budget holds.
#[test]
fn the_call_budget_alone_bounds_an_unlimited_retry_policy() {
    let cfg = ResilienceConfig {
        retry: RetryPolicy {
            max_attempts: u32::MAX,
        },
    };
    let bound = 1 + (CALL_BUDGET.as_millis() / (BASE_BACKOFF.as_millis() / 2)) as u64;
    let most = most_calls_per_round(cfg, bound);
    let default = u64::from(RetryPolicy::default().max_attempts);
    assert!(
        most.iter().all(|&m| m > default),
        "the budget, not an attempt limit, ended the retries: {most:?}"
    );
}

#[test]
fn drift_is_detected_and_repaired() {
    let mut backend = ScriptBackend::new(6, 2);
    backend.sabotage = 1; // every apply is undone by one replica on job 0
    let (_, stats) = resilient(driver(backend, 4), ResilienceConfig::default());
    assert!(
        stats.drift_repairs >= 4,
        "sabotaged rounds were flagged: {stats:?}"
    );
}

#[test]
fn chaos_plan_rejects_bad_rates() {
    let plan = ChaosPlan {
        api_errors: Some(ApiErrors {
            observe_rate: 1.5,
            apply_rate: 0.0,
        }),
        ..ChaosPlan::none()
    };
    assert!(ChaosBackend::new(ScriptBackend::new(2, 1), plan, 1).is_err());
    assert!(ChaosPlan::none().validate().is_ok());
}

#[test]
fn chaos_injection_is_deterministic_per_seed() {
    let run = |seed: u64| {
        let plan = ChaosPlan {
            api_errors: Some(ApiErrors {
                observe_rate: 0.3,
                apply_rate: 0.3,
            }),
            partial_applies: Some(PartialApplies { rate: 0.3 }),
            ..ChaosPlan::none()
        };
        let chaos = ChaosBackend::new(ScriptBackend::new(20, 3), plan, seed).unwrap();
        let (out, _) = resilient(driver(chaos, 4), ResilienceConfig::default());
        let chaos_stats = *out.backend.stats();
        (out.stats, chaos_stats, out.backend.into_inner().targets)
    };
    let (stats_a, chaos_a, targets_a) = run(9);
    let (stats_b, chaos_b, targets_b) = run(9);
    assert_eq!(stats_a, stats_b);
    assert_eq!(chaos_a, chaos_b);
    assert_eq!(targets_a, targets_b);
    assert!(
        chaos_a.observe_errors + chaos_a.apply_errors + chaos_a.partial_applies > 0,
        "the plan actually injected something: {chaos_a:?}"
    );
}

/// Every API fault class `Driver::run`'s retry ladder absorbs:
/// refused calls, stale snapshots, and partial applies.
fn api_chaos() -> ChaosPlan {
    ChaosPlan {
        api_errors: Some(ApiErrors {
            observe_rate: 0.2,
            apply_rate: 0.2,
        }),
        stale_snapshots: Some(StaleSnapshots { rate: 0.2 }),
        partial_applies: Some(PartialApplies { rate: 0.2 }),
        ..ChaosPlan::none()
    }
}

/// The resilient `Driver::run` is the program a caller stepping
/// `advance_with` and `ResilientDriver::round_with` by hand runs (the
/// benchmark steps rounds that way to time each one): same counters,
/// same breaker, same cluster, same trace bytes, seed for seed.
#[test]
fn resilient_driver_run_is_round_with_stepped_by_hand() {
    for seed in 1..=3 {
        let chaos = || ChaosBackend::new(ScriptBackend::new(30, 3), api_chaos(), seed).unwrap();
        let cfg = ResilienceConfig::default();
        let mut run_sink = TraceSink::new();
        let (run, run_stats) = resilient(driver(chaos(), 4).telemetry(&mut run_sink), cfg);

        let mut step_sink = TraceSink::new();
        let mut rec = reconciler(4);
        let mut stepped = ResilientDriver::new(chaos(), cfg);
        while stepped.backend_mut().advance_with(&mut step_sink).is_some() {
            stepped.round_with(&mut rec, &mut step_sink);
        }
        // The benchmark's own stepping: `advance`, untraced rounds.
        let mut bench_rec = reconciler(4);
        let mut bench = ResilientDriver::new(chaos(), cfg);
        while bench.backend_mut().advance().is_some() {
            bench.round_with(&mut bench_rec, &mut NoopSink);
        }

        for (stats, driven, breaker, backend) in [
            (
                rec.stats(),
                stepped.stats(),
                stepped.breaker_state(),
                stepped.backend(),
            ),
            (
                bench_rec.stats(),
                bench.stats(),
                bench.breaker_state(),
                bench.backend(),
            ),
        ] {
            assert_eq!(&run.stats, stats, "seed {seed}");
            assert_eq!(&run_stats, driven, "seed {seed}");
            assert_eq!(run.breaker, breaker, "seed {seed}");
            assert_eq!(run.backend.stats(), backend.stats(), "seed {seed}");
            assert_eq!(run.backend.inner().targets, backend.inner().targets);
        }
        assert_eq!(run.policy_name, rec.policy_name());
        assert_eq!(run_sink.to_jsonl(), step_sink.to_jsonl(), "seed {seed}");
        let injected = run.backend.stats();
        assert!(
            injected.observe_errors > 0
                && injected.stale_serves > 0
                && injected.partial_applies > 0,
            "seed {seed} injected every fault class: {injected:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A round skipped with the breaker open performs zero backend
    /// calls and zero cluster mutations, for any failure script.
    #[test]
    fn breaker_open_rounds_never_touch_the_cluster(
        seed in 0u64..50,
        fail_frac in 0.5f64..1.0,
    ) {
        let mut backend = ScriptBackend::new(20, 2);
        // A guaranteed failure run trips the breaker early (so the
        // property is never vacuous), then a dense pseudo-random tail.
        let mut s = seed.wrapping_mul(0x9e37_79b9).wrapping_add(1);
        backend.observe_plan = (0..=BREAKER_THRESHOLD as usize)
            .map(|_| Some(ScriptBackend::unavailable()))
            .chain((0..400).map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s as f64 / u64::MAX as f64) < fail_frac)
                    .then(ScriptBackend::unavailable)
            }))
            .collect();
        let cfg = ResilienceConfig {
            retry: RetryPolicy::no_retry(),
        };
        let mut rec = reconciler(4);
        let mut driver = ResilientDriver::new(backend, cfg);
        let mut sink = TraceSink::new();
        let mut seen_events = 0usize;
        let mut open_skips = 0u64;
        while driver.backend_mut().advance().is_some() {
            let calls_before =
                (driver.backend().observe_calls, driver.backend().apply_calls);
            let targets_before = driver.backend().targets.clone();
            driver.round_with(&mut rec, &mut sink);
            // Only the cooldown skip rounds carry the "breaker-open"
            // marker; a half-open probe round is allowed to touch the
            // backend again.
            let open_skip = sink.entries().skip(seen_events).any(|e| {
                matches!(&e.event, TelemetryEvent::DegradedRound { kind } if kind == "breaker-open")
            });
            seen_events = sink.entries().count();
            if open_skip {
                open_skips += 1;
                prop_assert_eq!(
                    (driver.backend().observe_calls, driver.backend().apply_calls),
                    calls_before,
                    "an open-breaker skip round made a backend call"
                );
                prop_assert_eq!(&driver.backend().targets, &targets_before);
            }
        }
        // With mostly-failing observes from the first round the breaker
        // does open, so the property is not vacuous.
        prop_assert!(open_skips > 0, "breaker never opened: {:?}", driver.stats());
    }
}
