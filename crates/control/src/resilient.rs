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
//! failures without ever touching a wall clock. Its tuning is
//! [`ResilienceConfig`] (the retry policy); every other knob is a
//! constant of this module:
//!
//! * **Bounded retry with backoff.** Each `observe`/`apply` is tried
//!   up to [`RetryPolicy::max_attempts`] times. Backoff delays double
//!   from [`BASE_BACKOFF`] up to [`MAX_BACKOFF`], jittered into
//!   `[d/2, d)` by a fixed-seed splitmix64 stream, and are *virtual*:
//!   expressed in [`DurationMs`], charged against [`CALL_BUDGET`] per
//!   call, never slept. Two runs with the same failures retry
//!   identically. An error that is not
//!   [retryable](BackendError::is_retryable) ends the call at once.
//! * **Circuit breaker.** After [`BREAKER_THRESHOLD`] consecutive
//!   failed rounds the breaker opens: whole rounds are skipped (no
//!   backend call at all — an open round provably cannot mutate
//!   cluster state) for [`BREAKER_COOLDOWN_ROUNDS`] rounds, then a
//!   half-open probe round tests the water.
//! * **Degraded-mode ladder.** When `observe` gives up, the driver
//!   extends the solver's carry-forward to the API layer: it first
//!   re-plans on the last good snapshot if that is no older than
//!   [`STALENESS_WINDOW`]; failing that it re-applies the last desired
//!   state verbatim (carry-forward); failing that it skips the round
//!   and reports it.
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

/// Backoff before the first retry; doubles per subsequent retry.
pub const BASE_BACKOFF: DurationMs = DurationMs::from_millis(100);
/// Ceiling on a single backoff delay.
pub const MAX_BACKOFF: DurationMs = DurationMs::from_millis(2_000);
/// Cumulative virtual backoff budget per call and round, for `observe`
/// and `apply` alike; retries stop once the next delay would exceed it.
pub const CALL_BUDGET: DurationMs = DurationMs::from_millis(5_000);
/// How old a snapshot (cached or served) may be and still be planned
/// on; beyond this the round degrades to carry-forward.
pub const STALENESS_WINDOW: DurationMs = DurationMs::from_millis(60_000);
/// Consecutive failed rounds before the breaker opens.
pub const BREAKER_THRESHOLD: u32 = 3;
/// Open rounds (fully skipped) before a half-open probe.
pub const BREAKER_COOLDOWN_ROUNDS: u32 = 5;
/// Seed of the backoff jitter stream: runs with equal failure patterns
/// produce byte-identical retry schedules.
const JITTER_SEED: u64 = 0xd81f_7e77;

/// Bounded-retry parameters for one backend call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per call, including the first (1 = no retry).
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_attempts: 4 }
    }
}

impl RetryPolicy {
    /// A policy that never retries (first failure is final).
    pub fn no_retry() -> Self {
        Self { max_attempts: 1 }
    }
}

/// Tuning for the [`ResilientDriver`]: everything else on the ladder is
/// a constant of this module.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceConfig {
    /// Retry policy shared by `observe` and `apply`.
    pub retry: RetryPolicy,
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
/// ([`faro_core::rng::SplitMix64`]) seeded with [`JITTER_SEED`],
/// advanced once per backoff draw. No external RNG dependency, no
/// global state: the stream is part of the driver.
type JitterStream = faro_core::rng::SplitMix64;

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
            jitter: JitterStream::new(JITTER_SEED),
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
    /// On a backend that never fails it is `observe` → `plan_with` →
    /// `apply_with` → `complete_round_with` plus the drift check, which
    /// still reports any observed target that disagrees with the last
    /// applied one.
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
        let (observed, retries) = self.with_retry(at, "observe", attempts, sink, |backend, _| {
            backend.observe().and_then(|snapshot| {
                // A served snapshot can itself be stale (a chaos or
                // live backend replaying a cache); past the window it
                // counts as a failure and is retried like one.
                let age = at.saturating_duration_since(snapshot.now);
                if age > STALENESS_WINDOW {
                    Err(BackendError::StaleSnapshot { age })
                } else {
                    Ok(snapshot)
                }
            })
        });
        self.stats.observe_retries += retries;
        match observed {
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
        let (applied, retries) = self.apply(at, &desired, attempts, sink);
        self.stats.apply_retries += retries;
        match applied {
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
                    | BackendError::Rejected { .. }
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
            (age <= STALENESS_WINDOW).then(|| cached.clone())
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
            let (applied, retries) = self.apply(at, &desired, attempts, sink);
            self.stats.apply_retries += retries;
            if applied.is_err() {
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
            BreakerState::Closed => self.consecutive_failures >= BREAKER_THRESHOLD,
            BreakerState::Open => false,
        };
        if trip {
            self.stats.breaker_opens += 1;
            self.cooldown_left = BREAKER_COOLDOWN_ROUNDS;
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

    /// `apply` with retry. Replicas started by a failed partial attempt
    /// did start (and emitted their `ColdStartBegan` events); the report
    /// of the eventually-successful attempt covers only its own starts,
    /// so replica accounting can undercount under chaos. Acceptable:
    /// the event stream is the source of truth for lifecycle.
    fn apply<S: TelemetrySink>(
        &mut self,
        at: SimTimeMs,
        desired: &DesiredState,
        attempts: u32,
        sink: &mut S,
    ) -> (Result<ActuationReport, BackendError>, u64) {
        self.with_retry(at, "apply", attempts, sink, |backend, sink| {
            backend.apply_with(desired, sink)
        })
    }

    /// Runs one backend `call` up to `max_attempts` times within
    /// [`CALL_BUDGET`] of virtual backoff, emitting a `BackendRetry`
    /// event tagged `phase` per retry. Returns the last result and the
    /// number of retries beyond the first attempt.
    fn with_retry<T, S: TelemetrySink>(
        &mut self,
        at: SimTimeMs,
        phase: &str,
        max_attempts: u32,
        sink: &mut S,
        mut call: impl FnMut(&mut B, &mut S) -> Result<T, BackendError>,
    ) -> (Result<T, BackendError>, u64) {
        let mut spent = DurationMs::ZERO;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let err = match call(&mut self.backend, sink) {
                Ok(value) => return (Ok(value), u64::from(attempt - 1)),
                Err(e) => e,
            };
            let Some(delay) = self.next_backoff(attempt, max_attempts, spent, &err) else {
                return (Err(err), u64::from(attempt - 1));
            };
            spent = spent + delay;
            if sink.enabled() {
                sink.event(
                    at,
                    &TelemetryEvent::BackendRetry {
                        phase: phase.to_owned(),
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
    /// retryable). Exponential from [`BASE_BACKOFF`], capped at
    /// [`MAX_BACKOFF`], jittered into `[d/2, d)` by the seeded stream.
    fn next_backoff(
        &mut self,
        attempt: u32,
        max_attempts: u32,
        spent: DurationMs,
        err: &BackendError,
    ) -> Option<DurationMs> {
        if !err.is_retryable() || attempt >= max_attempts {
            return None;
        }
        let base = BASE_BACKOFF.as_millis();
        let exp = base.saturating_mul(1i64.checked_shl(attempt - 1).unwrap_or(i64::MAX));
        let d = exp.min(MAX_BACKOFF.as_millis());
        let half = d / 2;
        let delay = DurationMs::from_millis(half + (self.jitter.next_u64() % half as u64) as i64);
        if spent + delay > CALL_BUDGET {
            return None;
        }
        Some(delay)
    }
}
