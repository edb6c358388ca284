//! Deterministic API-level fault injection: a composable
//! [`ChaosBackend`] wrapper that makes any [`ClusterBackend`] fail the
//! way a live control-plane API does.
//!
//! PR 1's in-sim fault plan perturbs the *world* (crashes, outages,
//! cold-start spikes); this module perturbs the *API boundary*:
//! injected call errors, added observe/apply latency that can cross a
//! timeout threshold, stale snapshots replayed from a cache, and
//! partial applies that actuate only a prefix of the desired state.
//! The plan follows the [`FaultPlan`] style — one optional class per
//! fault type, `none()` injects nothing, `validate()` rejects
//! malformed plans — and each class draws from its own seeded
//! splitmix64 stream (`seed ^` a per-class constant), so enabling one
//! class never shifts another's draws and two runs with the same plan
//! replay byte-identically.
//!
//! The wrapper never touches the clock or the workload: `Clock` calls
//! delegate untouched, so a chaos run and a clean run see the same
//! world and differ only at the API surface.
//!
//! [`FaultPlan`]: ../faro_sim/faults/struct.FaultPlan.html

use crate::backend::{ActuationReport, BackendError, ClusterBackend};
use crate::clock::Clock;
use faro_core::types::{ClusterSnapshot, DesiredState};
use faro_core::units::{DurationMs, SimTimeMs};
use faro_core::FaroError;
use faro_telemetry::TelemetrySink;

/// Probability per call that the API refuses outright
/// ([`BackendError::Unavailable`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApiErrors {
    /// Failure probability per `observe` call, in `[0, 1]`.
    pub observe_rate: f64,
    /// Failure probability per `apply` call, in `[0, 1]`.
    pub apply_rate: f64,
}

/// Synthetic call latency, exponentially distributed; a draw past the
/// deadline fails the call with [`BackendError::Timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedLatency {
    /// Mean of the exponential latency distribution.
    pub mean: DurationMs,
    /// Calls whose drawn latency exceeds this fail with `Timeout`.
    pub timeout_after: DurationMs,
}

/// Probability per `observe` that the call serves the previously
/// cached snapshot instead of a fresh one (its `now` lags the clock;
/// whether that is tolerable is the caller's staleness policy). Before
/// anything is cached the call falls through to the real backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaleSnapshots {
    /// Replay probability per call, in `[0, 1]`.
    pub rate: f64,
}

/// Probability per `apply` that only a prefix of the desired state is
/// actuated before the call fails with [`BackendError::PartialApply`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartialApplies {
    /// Partial-apply probability per call, in `[0, 1]`.
    pub rate: f64,
}

/// A deterministic API-chaos schedule: every class optional, every
/// class drawing from its own seeded stream.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChaosPlan {
    /// Injected `Unavailable` errors.
    pub api_errors: Option<ApiErrors>,
    /// Injected call latency with a timeout threshold.
    pub latency: Option<InjectedLatency>,
    /// Stale-snapshot replays on `observe`.
    pub stale_snapshots: Option<StaleSnapshots>,
    /// Partial applies on `apply`.
    pub partial_applies: Option<PartialApplies>,
}

impl ChaosPlan {
    /// The empty plan: injects nothing; a [`ChaosBackend`] carrying it
    /// is a transparent pass-through.
    pub fn none() -> Self {
        Self::default()
    }

    /// Validates rates and durations.
    ///
    /// # Errors
    ///
    /// [`FaroError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), FaroError> {
        let unit = |name: &str, v: f64| -> Result<(), FaroError> {
            if (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(FaroError::InvalidConfig(format!(
                    "chaos plan: {name} must be in [0, 1], got {v}"
                )))
            }
        };
        if let Some(e) = &self.api_errors {
            unit("api_errors.observe_rate", e.observe_rate)?;
            unit("api_errors.apply_rate", e.apply_rate)?;
        }
        if let Some(l) = &self.latency {
            if l.mean <= DurationMs::ZERO || l.timeout_after <= DurationMs::ZERO {
                return Err(FaroError::InvalidConfig(
                    "chaos plan: latency mean and timeout_after must be positive".into(),
                ));
            }
        }
        if let Some(s) = &self.stale_snapshots {
            unit("stale_snapshots.rate", s.rate)?;
        }
        if let Some(p) = &self.partial_applies {
            unit("partial_applies.rate", p.rate)?;
        }
        Ok(())
    }
}

/// What the wrapper injected across a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// `observe` calls failed with `Unavailable`.
    pub observe_errors: u64,
    /// `apply` calls failed with `Unavailable`.
    pub apply_errors: u64,
    /// Calls failed with `Timeout` (latency past the deadline).
    pub timeouts: u64,
    /// `observe` calls served from the stale cache.
    pub stale_serves: u64,
    /// `apply` calls that actuated only a prefix.
    pub partial_applies: u64,
    /// Total injected latency, timeouts included.
    pub injected_latency: DurationMs,
}

/// One per-fault-type stream of the workspace splitmix64 generator
/// ([`faro_core::rng::SplitMix64`]): cheap, seedable, free of external
/// dependencies, and bit-identical to the private stream this module
/// carried before the generator moved to `faro-core`.
type FaultStream = faro_core::rng::SplitMix64;

/// Wraps a [`ClusterBackend`] and injects API faults per a seeded
/// [`ChaosPlan`]. Composes with the resilient arm of the run loop:
/// `Driver::new(ChaosBackend::new(backend, plan, seed)?, policy)
/// .resilience(cfg).run()` is the deterministic testbed for every
/// retry/breaker/degraded path.
pub struct ChaosBackend<B: ClusterBackend> {
    inner: B,
    plan: ChaosPlan,
    err_stream: FaultStream,
    latency_stream: FaultStream,
    stale_stream: FaultStream,
    partial_stream: FaultStream,
    cached: Option<ClusterSnapshot>,
    stats: ChaosStats,
}

impl<B: ClusterBackend> ChaosBackend<B> {
    /// Wraps `inner`, drawing each fault class from its own stream
    /// derived from `seed`.
    ///
    /// # Errors
    ///
    /// [`FaroError::InvalidConfig`] when the plan is malformed.
    pub fn new(inner: B, plan: ChaosPlan, seed: u64) -> Result<Self, FaroError> {
        plan.validate()?;
        Ok(Self {
            inner,
            plan,
            err_stream: FaultStream::new(seed ^ 0xc4a0_5e11),
            latency_stream: FaultStream::new(seed ^ 0x1a7e_9c55),
            stale_stream: FaultStream::new(seed ^ 0x57a1_e000),
            partial_stream: FaultStream::new(seed ^ 0x9a47_11aa),
            cached: None,
            stats: ChaosStats::default(),
        })
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Unwraps the chaos layer, returning the backend.
    pub fn into_inner(self) -> B {
        self.inner
    }

    /// What was injected so far.
    pub fn stats(&self) -> &ChaosStats {
        &self.stats
    }

    /// Draws this call's injected latency; `Err(Timeout)` when it
    /// crosses the plan's deadline. One draw per call when the class
    /// is enabled, zero when it is not.
    fn draw_latency(&mut self) -> Result<(), BackendError> {
        let Some(lat) = self.plan.latency else {
            return Ok(());
        };
        let u = self.latency_stream.fraction();
        // Exponential with the configured mean; 1 - u keeps ln() off
        // zero. Millisecond math stays in DurationMs.
        let drawn_ms = (-(1.0 - u).ln() * lat.mean.as_millis() as f64).round() as i64;
        let drawn = DurationMs::from_millis(drawn_ms);
        self.stats.injected_latency = self.stats.injected_latency + drawn;
        if drawn > lat.timeout_after {
            self.stats.timeouts += 1;
            return Err(BackendError::Timeout { elapsed: drawn });
        }
        Ok(())
    }
}

impl<B: ClusterBackend> Clock for ChaosBackend<B> {
    fn now(&self) -> SimTimeMs {
        self.inner.now()
    }

    fn advance(&mut self) -> Option<SimTimeMs> {
        self.inner.advance()
    }

    fn advance_with(&mut self, sink: &mut dyn TelemetrySink) -> Option<SimTimeMs> {
        self.inner.advance_with(sink)
    }
}

impl<B: ClusterBackend> ClusterBackend for ChaosBackend<B> {
    fn observe(&mut self) -> Result<ClusterSnapshot, BackendError> {
        self.draw_latency()?;
        if let Some(e) = self.plan.api_errors {
            if e.observe_rate > 0.0 && self.err_stream.fraction() < e.observe_rate {
                self.stats.observe_errors += 1;
                return Err(BackendError::Unavailable {
                    reason: "injected observe outage".into(),
                });
            }
        }
        if let Some(s) = self.plan.stale_snapshots {
            if s.rate > 0.0 && self.stale_stream.fraction() < s.rate {
                // Replay the cache when there is one; the first calls
                // of a run have nothing to be stale about.
                if let Some(cached) = &self.cached {
                    self.stats.stale_serves += 1;
                    return Ok(cached.clone());
                }
            }
        }
        let snapshot = self.inner.observe()?;
        self.cached = Some(snapshot.clone());
        Ok(snapshot)
    }

    fn apply(&mut self, desired: &DesiredState) -> Result<ActuationReport, BackendError> {
        self.apply_with(desired, &mut faro_telemetry::NoopSink)
    }

    fn apply_with(
        &mut self,
        desired: &DesiredState,
        sink: &mut dyn TelemetrySink,
    ) -> Result<ActuationReport, BackendError> {
        self.draw_latency()?;
        if let Some(e) = self.plan.api_errors {
            if e.apply_rate > 0.0 && self.err_stream.fraction() < e.apply_rate {
                self.stats.apply_errors += 1;
                return Err(BackendError::Unavailable {
                    reason: "injected apply outage".into(),
                });
            }
        }
        if let Some(p) = self.plan.partial_applies {
            if p.rate > 0.0 && desired.len() > 1 && self.partial_stream.fraction() < p.rate {
                // Actuate a strict prefix (ascending JobId, matching a
                // full apply's ordering) of 1..len-1 jobs, then fail.
                let k = 1 + (self.partial_stream.next_u64() % (desired.len() as u64 - 1)) as usize;
                let prefix: DesiredState = desired.iter().take(k).collect();
                let report = self.inner.apply_with(&prefix, sink)?;
                self.stats.partial_applies += 1;
                return Err(BackendError::PartialApply {
                    applied: report.jobs_applied,
                });
            }
        }
        self.inner.apply_with(desired, sink)
    }
}
