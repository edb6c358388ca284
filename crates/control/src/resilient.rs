//! A resilient driver for fallible backends: bounded retry with
//! deterministic backoff, a circuit breaker, degraded-mode rounds, and
//! desired-vs-observed drift detection.
//!
//! The plain [`Reconciler`] stops at the first [`BackendError`]; that
//! is correct for the in-process simulator (which never fails) but not
//! for a live backend, whose API *will* time out, refuse calls, and
//! serve stale snapshots. The [`ResilientDriver`] is the resilient arm
//! of [`Driver::run`](crate::Driver::run): it wraps any
//! [`ClusterBackend`] and keeps each round alive through those
//! failures without ever touching a wall clock:
//!
//! * **Bounded retry with backoff.** Each `observe`/`apply` is retried
//!   up to [`RetryPolicy::max_attempts`] times. Backoff delays double
//!   from [`RetryPolicy::base_backoff`] up to
//!   [`RetryPolicy::max_backoff`], jittered into `[d/2, d)` by a
//!   seeded splitmix64 stream, and are *virtual*: expressed in
//!   [`DurationMs`], charged against a per-phase budget, never slept.
//!   Two runs with the same seed retry identically.
//! * **Circuit breaker.** After [`ResilienceConfig::breaker_threshold`]
//!   consecutive failed rounds the breaker opens: whole rounds are
//!   skipped (no backend call at all — an open round provably cannot
//!   mutate cluster state) for
//!   [`ResilienceConfig::breaker_cooldown_rounds`] rounds, then a
//!   half-open probe round tests the water.
//! * **Degraded-mode ladder.** When `observe` gives up, the driver
//!   extends PR 1's solve carry-forward to the API layer: it first
//!   re-plans on the last good snapshot if that is younger than
//!   [`ResilienceConfig::staleness_window`]; failing that it
//!   re-applies the last desired state verbatim (carry-forward);
//!   failing that it skips the round and reports it.
//! * **Drift detection.** A fresh snapshot whose per-job targets
//!   disagree with the last applied desired state (external
//!   interference, an earlier partial apply) is flagged; the round's
//!   apply is the repair and is counted as one.
//!
//! Every retry attempt, breaker transition, degraded round, and drift
//! repair is emitted as a [`TelemetryEvent`] and counted once in
//! [`DriverStats`], so chaos runs are as auditable as clean ones.

use crate::backend::{ActuationReport, BackendError, ClusterBackend};
use crate::reconciler::Reconciler;
use faro_core::types::{ClusterSnapshot, DesiredState};
use faro_core::units::{DurationMs, SimTimeMs};
use faro_telemetry::{TelemetryEvent, TelemetrySink};

/// Bounded-retry parameters for one backend call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per call, including the first (1 = no retry).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base_backoff: DurationMs,
    /// Ceiling on a single backoff delay.
    pub max_backoff: DurationMs,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_backoff: DurationMs::from_millis(100),
            max_backoff: DurationMs::from_secs(2.0),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (first failure is final).
    pub fn no_retry() -> Self {
        Self {
            max_attempts: 1,
            ..Self::default()
        }
    }
}

/// Tuning for the [`ResilientDriver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilienceConfig {
    /// Retry policy shared by `observe` and `apply`.
    pub retry: RetryPolicy,
    /// Cumulative virtual backoff budget per round for `observe`;
    /// retries stop once the next delay would exceed it.
    pub observe_budget: DurationMs,
    /// Cumulative virtual backoff budget per round for `apply`.
    pub apply_budget: DurationMs,
    /// How old a snapshot (cached or served) may be and still be
    /// planned on; beyond this the round degrades to carry-forward.
    pub staleness_window: DurationMs,
    /// Consecutive failed rounds before the breaker opens.
    pub breaker_threshold: u32,
    /// Open rounds (fully skipped) before a half-open probe.
    pub breaker_cooldown_rounds: u32,
    /// Seed for the backoff jitter stream. Runs with equal seeds and
    /// equal failure patterns produce byte-identical retry schedules.
    pub jitter_seed: u64,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            retry: RetryPolicy::default(),
            observe_budget: DurationMs::from_secs(5.0),
            apply_budget: DurationMs::from_secs(5.0),
            staleness_window: DurationMs::from_secs(60.0),
            breaker_threshold: 3,
            breaker_cooldown_rounds: 5,
            jitter_seed: 0,
        }
    }
}

/// Circuit-breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation.
    Closed,
    /// Tripped: rounds are skipped without touching the backend.
    Open,
    /// Cooldown elapsed: the next round is a single-attempt probe.
    HalfOpen,
}

impl BreakerState {
    fn as_str(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// What the driver did across a run, beyond the reconciler's
/// [`RunStats`](crate::RunStats) (which only counts fully completed
/// rounds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriverStats {
    /// Rounds the driver saw (ticks), including skipped ones.
    pub rounds: u64,
    /// Rounds that completed the full observe→apply loop cleanly.
    pub ok_rounds: u64,
    /// Rounds planned on a stale (tolerated) snapshot.
    pub stale_tolerated_rounds: u64,
    /// Degraded rounds that re-applied the last desired state.
    pub carry_forward_rounds: u64,
    /// Rounds skipped entirely (breaker open, or nothing to act on).
    pub skipped_rounds: u64,
    /// `observe` retry attempts beyond the first, summed.
    pub observe_retries: u64,
    /// `apply` retry attempts beyond the first, summed.
    pub apply_retries: u64,
    /// Rounds in which `observe` exhausted its attempts/budget.
    pub observe_failures: u64,
    /// Rounds in which `apply` exhausted its attempts/budget.
    pub apply_failures: u64,
    /// Times the breaker transitioned Closed/HalfOpen → Open.
    pub breaker_opens: u64,
    /// Fresh snapshots whose targets disagreed with the last applied
    /// desired state; the round's apply repaired them.
    pub drift_repairs: u64,
}

/// Deterministic jitter: the workspace splitmix64 stream
/// ([`faro_core::rng::SplitMix64`]), advanced once per backoff draw.
/// No external RNG dependency, no global state — the stream is part of
/// the driver and therefore of the run's seed, and its draws are
/// bit-identical to the private stream this module carried before the
/// generator moved to `faro-core`.
type JitterStream = faro_core::rng::SplitMix64;

/// Outcome of one retried call: the value, plus how many retries and
/// how much virtual delay it took.
struct Retried<T> {
    value: Result<T, BackendError>,
    retries: u64,
}

/// Wraps a fallible [`ClusterBackend`] and carries each
/// Observe → Decide → Admit → Actuate round through failures.
///
/// The driver owns the backend; [`ResilientDriver::into_inner`] hands
/// it back (e.g. for `SimBackend::finish`). The reconciler stays
/// outside and is borrowed per round; the loop around the rounds is
/// [`Driver::run`](crate::Driver::run).
pub struct ResilientDriver<B: ClusterBackend> {
    backend: B,
    cfg: ResilienceConfig,
    jitter: JitterStream,
    breaker: BreakerState,
    consecutive_failures: u32,
    cooldown_left: u32,
    last_snapshot: Option<ClusterSnapshot>,
    last_desired: Option<DesiredState>,
    stats: DriverStats,
}

impl<B: ClusterBackend> ResilientDriver<B> {
    /// Wraps `backend` with the given resilience tuning.
    pub fn new(backend: B, cfg: ResilienceConfig) -> Self {
        Self {
            backend,
            cfg,
            jitter: JitterStream::new(cfg.jitter_seed ^ 0xd81f_7e77),
            breaker: BreakerState::Closed,
            consecutive_failures: 0,
            cooldown_left: 0,
            last_snapshot: None,
            last_desired: None,
            stats: DriverStats::default(),
        }
    }

    /// The wrapped backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// The wrapped backend, mutably.
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// Unwraps the driver, returning the backend.
    pub fn into_inner(self) -> B {
        self.backend
    }

    /// Driver-level accounting for the run so far.
    pub fn stats(&self) -> &DriverStats {
        &self.stats
    }

    /// Current breaker state.
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker
    }

    /// One driver round at the backend's current time: breaker
    /// bookkeeping, then the observe/plan/apply ladder. Unlike
    /// [`Reconciler::reconcile`] this never fails: every backend error
    /// is retried, degraded around, or skipped and counted. Retries,
    /// breaker transitions, and degraded rounds stream into `sink`.
    pub fn round_with<S: TelemetrySink>(&mut self, reconciler: &mut Reconciler, sink: &mut S) {
        self.stats.rounds += 1;
        let at = self.backend.now();
        match self.breaker {
            BreakerState::Open => {
                if self.cooldown_left > 1 {
                    self.cooldown_left -= 1;
                    self.skip_round(at, "breaker-open", sink);
                    return;
                }
                // Cooldown over: probe this round with a single
                // attempt instead of skipping it.
                self.cooldown_left = 0;
                self.transition(at, BreakerState::HalfOpen, sink);
            }
            BreakerState::Closed | BreakerState::HalfOpen => {}
        }
        let attempts = if self.breaker == BreakerState::HalfOpen {
            1
        } else {
            self.cfg.retry.max_attempts
        };
        let observed = self.observe_with_retry(at, attempts, sink);
        self.stats.observe_retries += observed.retries;
        match observed.value {
            Ok(snapshot) => {
                self.detect_drift(&snapshot, sink);
                self.plan_and_apply(snapshot, reconciler, attempts, false, sink);
            }
            Err(_) => {
                self.stats.observe_failures += 1;
                self.degraded_round(at, reconciler, attempts, sink);
            }
        }
    }

    /// Plan on the snapshot and apply with retry. A non-degraded round
    /// that fully succeeds resets the failure streak and closes the
    /// breaker; a degraded (stale-tolerated) round leaves the streak
    /// alone on success — the API is still refusing observes, and the
    /// staleness window, not the breaker, bounds how long the loop may
    /// steer on the cache.
    fn plan_and_apply<S: TelemetrySink>(
        &mut self,
        snapshot: ClusterSnapshot,
        reconciler: &mut Reconciler,
        attempts: u32,
        degraded: bool,
        sink: &mut S,
    ) {
        let at = self.backend.now();
        if !degraded {
            self.last_snapshot = Some(snapshot.clone());
        }
        let planned = reconciler.plan_with(&snapshot, sink);
        let desired = planned.desired.clone();
        let applied = self.apply_with_retry(at, &desired, attempts, sink);
        self.stats.apply_retries += applied.retries;
        match applied.value {
            Ok(actuation) => {
                reconciler.complete_round_with(&snapshot, planned, &actuation, sink);
                self.last_desired = Some(desired);
                if !degraded {
                    self.stats.ok_rounds += 1;
                    self.round_succeeded(at, sink);
                }
            }
            Err(e) => {
                self.stats.apply_failures += 1;
                // Record the round with what (if anything) landed, so
                // jobs_failed surfaces in RunStats instead of the
                // round silently vanishing.
                let landed = match e {
                    BackendError::PartialApply { applied } => applied,
                    // Spelled out (not `_`) so a new BackendError
                    // variant forces a decision here about what, if
                    // anything, landed before the failure.
                    BackendError::Timeout { .. }
                    | BackendError::Unavailable { .. }
                    | BackendError::StaleSnapshot { .. } => 0,
                };
                let actuation = ActuationReport {
                    jobs_applied: landed,
                    jobs_failed: (desired.len() as u32).saturating_sub(landed),
                    replicas_started: faro_core::units::ReplicaCount::ZERO,
                };
                reconciler.complete_round_with(&snapshot, planned, &actuation, sink);
                // A partial apply did land a prefix; remember the
                // intent so drift detection re-checks it next round.
                self.last_desired = Some(desired);
                self.round_failed(at, sink);
            }
        }
    }

    /// Observe gave up: tolerate a stale cached snapshot, else
    /// carry-forward the last desired state, else skip-and-report.
    fn degraded_round<S: TelemetrySink>(
        &mut self,
        at: SimTimeMs,
        reconciler: &mut Reconciler,
        attempts: u32,
        sink: &mut S,
    ) {
        let tolerable = self.last_snapshot.as_ref().and_then(|cached| {
            let age = at.saturating_duration_since(cached.now);
            (age <= self.cfg.staleness_window).then(|| cached.clone())
        });
        if let Some(snapshot) = tolerable {
            self.stats.stale_tolerated_rounds += 1;
            if sink.enabled() {
                sink.event(
                    at,
                    &TelemetryEvent::DegradedRound {
                        kind: "stale-snapshot".to_owned(),
                    },
                );
            }
            self.plan_and_apply(snapshot, reconciler, attempts, true, sink);
            return;
        }
        if let Some(desired) = self.last_desired.clone() {
            self.stats.carry_forward_rounds += 1;
            if sink.enabled() {
                sink.event(
                    at,
                    &TelemetryEvent::DegradedRound {
                        kind: "carry-forward".to_owned(),
                    },
                );
            }
            let applied = self.apply_with_retry(at, &desired, attempts, sink);
            self.stats.apply_retries += applied.retries;
            if applied.value.is_err() {
                self.stats.apply_failures += 1;
            }
            self.round_failed(at, sink);
            return;
        }
        self.skip_round(at, "skipped", sink);
        self.round_failed(at, sink);
    }

    fn skip_round<S: TelemetrySink>(&mut self, at: SimTimeMs, kind: &str, sink: &mut S) {
        self.stats.skipped_rounds += 1;
        if sink.enabled() {
            sink.event(
                at,
                &TelemetryEvent::DegradedRound {
                    kind: kind.to_owned(),
                },
            );
        }
    }

    /// Compares a fresh snapshot against the last applied desired
    /// state; targets that drifted (external interference, a partial
    /// apply that lost jobs) are reported. The round's apply is the
    /// repair.
    fn detect_drift<S: TelemetrySink>(&mut self, snapshot: &ClusterSnapshot, sink: &mut S) {
        let Some(desired) = &self.last_desired else {
            return;
        };
        let mut drifted = Vec::new();
        for (id, d) in desired.iter() {
            let Some(obs) = snapshot.jobs.get(id.index()) else {
                continue;
            };
            if obs.target_replicas != d.target_replicas {
                drifted.push(id.index());
            }
        }
        if drifted.is_empty() {
            return;
        }
        self.stats.drift_repairs += 1;
        if sink.enabled() {
            sink.event(
                snapshot.now,
                &TelemetryEvent::DriftDetected { jobs: drifted },
            );
        }
    }

    fn round_succeeded<S: TelemetrySink>(&mut self, at: SimTimeMs, sink: &mut S) {
        self.consecutive_failures = 0;
        if self.breaker != BreakerState::Closed {
            self.transition(at, BreakerState::Closed, sink);
        }
    }

    fn round_failed<S: TelemetrySink>(&mut self, at: SimTimeMs, sink: &mut S) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        let trip = match self.breaker {
            BreakerState::HalfOpen => true,
            BreakerState::Closed => self.consecutive_failures >= self.cfg.breaker_threshold,
            BreakerState::Open => false,
        };
        if trip {
            self.stats.breaker_opens += 1;
            self.cooldown_left = self.cfg.breaker_cooldown_rounds.max(1);
            self.transition(at, BreakerState::Open, sink);
        }
    }

    fn transition<S: TelemetrySink>(&mut self, at: SimTimeMs, to: BreakerState, sink: &mut S) {
        let from = self.breaker;
        self.breaker = to;
        if sink.enabled() && from != to {
            sink.event(
                at,
                &TelemetryEvent::BreakerTransition {
                    from: from.as_str().to_owned(),
                    to: to.as_str().to_owned(),
                },
            );
        }
    }

    fn observe_with_retry<S: TelemetrySink>(
        &mut self,
        at: SimTimeMs,
        max_attempts: u32,
        sink: &mut S,
    ) -> Retried<ClusterSnapshot> {
        let budget = self.cfg.observe_budget;
        let mut spent = DurationMs::ZERO;
        let mut attempt = 0u32;
        let mut retries = 0u64;
        loop {
            attempt += 1;
            let value = self.backend.observe().and_then(|snapshot| {
                // A served snapshot can itself be stale (a chaos or
                // live backend replaying a cache); past the window it
                // counts as a failure and is retried like one.
                let age = at.saturating_duration_since(snapshot.now);
                if age > self.cfg.staleness_window {
                    Err(BackendError::StaleSnapshot { age })
                } else {
                    Ok(snapshot)
                }
            });
            let err = match value {
                Ok(snapshot) => {
                    return Retried {
                        value: Ok(snapshot),
                        retries,
                    }
                }
                Err(e) => e,
            };
            let Some(delay) = self.next_backoff(attempt, max_attempts, spent, budget, &err) else {
                return Retried {
                    value: Err(err),
                    retries,
                };
            };
            spent = spent + delay;
            retries += 1;
            if sink.enabled() {
                sink.event(
                    at,
                    &TelemetryEvent::BackendRetry {
                        phase: "observe".to_owned(),
                        attempt,
                        backoff_ms: delay.as_millis(),
                        error: err.to_string(),
                    },
                );
            }
        }
    }

    fn apply_with_retry<S: TelemetrySink>(
        &mut self,
        at: SimTimeMs,
        desired: &DesiredState,
        max_attempts: u32,
        sink: &mut S,
    ) -> Retried<ActuationReport> {
        let budget = self.cfg.apply_budget;
        let mut spent = DurationMs::ZERO;
        let mut attempt = 0u32;
        let mut retries = 0u64;
        // Replicas started by a failed partial attempt did start (and
        // emitted their ColdStartBegan events); the report of the
        // eventually-successful attempt covers only its own starts, so
        // replica accounting can undercount under chaos. Acceptable:
        // the events stream is the source of truth for lifecycle.
        loop {
            attempt += 1;
            let value = self.backend.apply_with(desired, dyn_sink(sink));
            let err = match value {
                Ok(report) => {
                    return Retried {
                        value: Ok(report),
                        retries,
                    };
                }
                Err(e) => e,
            };
            let Some(delay) = self.next_backoff(attempt, max_attempts, spent, budget, &err) else {
                return Retried {
                    value: Err(err),
                    retries,
                };
            };
            spent = spent + delay;
            retries += 1;
            if sink.enabled() {
                sink.event(
                    at,
                    &TelemetryEvent::BackendRetry {
                        phase: "apply".to_owned(),
                        attempt,
                        backoff_ms: delay.as_millis(),
                        error: err.to_string(),
                    },
                );
            }
        }
    }

    /// The next virtual backoff delay, or `None` when retrying must
    /// stop (attempts exhausted, budget exhausted, or the error is not
    /// retryable). Exponential from `base`, capped at `max`, jittered
    /// into `[d/2, d)` by the seeded stream.
    fn next_backoff(
        &mut self,
        attempt: u32,
        max_attempts: u32,
        spent: DurationMs,
        budget: DurationMs,
        err: &BackendError,
    ) -> Option<DurationMs> {
        if !err.is_retryable() || attempt >= max_attempts {
            return None;
        }
        let base = self.cfg.retry.base_backoff.as_millis().max(1);
        let cap = self.cfg.retry.max_backoff.as_millis().max(base);
        let exp = base.saturating_mul(1i64.checked_shl(attempt - 1).unwrap_or(i64::MAX));
        let d = exp.min(cap);
        let half = (d / 2).max(1);
        let jittered = half + (self.jitter.next_u64() % (half as u64).max(1)) as i64;
        let delay = DurationMs::from_millis(jittered.min(d));
        if spent + delay > budget {
            return None;
        }
        Some(delay)
    }
}

/// Reborrows a generic sink as the `&mut dyn` the object-safe
/// `apply_with` entry point takes.
fn dyn_sink<S: TelemetrySink>(sink: &mut S) -> &mut dyn TelemetrySink {
    sink
}
