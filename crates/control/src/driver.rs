//! The backend-generic run builder: one entry point for simulated
//! and live control loops.
//!
//! Driving a [`ClusterBackend`] — the simulator, a chaos-wrapped sim,
//! the in-process HTTP cluster, eventually a real apiserver — would
//! otherwise mean hand-composing a [`Reconciler`], an optional
//! [`ResilientDriver`], and the run loop. [`Driver`] is that
//! composition as a builder on the control plane: it works on any
//! backend, optionally wraps it in resilience, streams into any
//! telemetry sink, and can bound the run by rounds (a live loop has
//! no horizon of its own). `Simulation::driver()` in `faro-sim` and
//! the live loop in `faro-cluster` are both thin layers over this
//! type.

use crate::backend::ClusterBackend;
use crate::reconciler::{Reconciler, RunStats};
use crate::report::RunReport;
use crate::resilient::{BreakerState, DriverStats, ResilienceConfig, ResilientDriver};
use crate::BackendError;
use core::fmt;
use faro_core::admission::{Admission, ClampToQuota};
use faro_core::policy::Policy;
use faro_telemetry::{NoopSink, TelemetrySink};

/// Why a [`Driver`] run could not produce an outcome.
#[derive(Debug)]
pub enum DriverError {
    /// No policy was attached; call [`Driver::policy`] first.
    NoPolicy,
    /// A plain (non-resilient) run hit a backend error and stopped.
    /// Resilient runs absorb backend errors into their
    /// [`RunReport`] instead.
    Backend(BackendError),
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::NoPolicy => {
                write!(f, "no policy attached; call Driver::policy first")
            }
            DriverError::Backend(e) => write!(f, "backend error: {e}"),
        }
    }
}

impl std::error::Error for DriverError {}

impl From<BackendError> for DriverError {
    fn from(e: BackendError) -> Self {
        DriverError::Backend(e)
    }
}

/// Builder for one control-loop run over any [`ClusterBackend`].
///
/// Obtained from [`Driver::new`]; consumed by [`Driver::run`] or
/// [`Driver::run_rounds`]. The sink type parameter defaults to
/// [`NoopSink`], which compiles the instrumentation out entirely —
/// attach a real sink with [`Driver::telemetry`] (pass `&mut sink` to
/// keep it; sinks are implemented for mutable references too).
pub struct Driver<B: ClusterBackend, S: TelemetrySink = NoopSink> {
    backend: B,
    policy: Option<Box<dyn Policy>>,
    admission: Option<Box<dyn Admission>>,
    resilience: Option<ResilienceConfig>,
    max_rounds: Option<u64>,
    sink: S,
}

impl<B: ClusterBackend> Driver<B> {
    /// Starts configuring a run over `backend`.
    pub fn new(backend: B) -> Self {
        Self {
            backend,
            policy: None,
            admission: None,
            resilience: None,
            max_rounds: None,
            sink: NoopSink,
        }
    }
}

impl<B: ClusterBackend, S: TelemetrySink> Driver<B, S> {
    /// The policy under test (required).
    pub fn policy(mut self, policy: Box<dyn Policy>) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Overrides the admission controller (default: [`ClampToQuota`],
    /// which trims requests to the snapshot's replica quota).
    pub fn admission(mut self, admission: Box<dyn Admission>) -> Self {
        self.admission = Some(admission);
        self
    }

    /// Wraps the backend in a [`ResilientDriver`] with this tuning:
    /// backend errors are retried/degraded per the config instead of
    /// aborting the run, and the outcome carries [`DriverStats`].
    pub fn resilience(mut self, cfg: ResilienceConfig) -> Self {
        self.resilience = Some(cfg);
        self
    }

    /// Bounds the run to at most `n` reconcile rounds. Without a
    /// bound the run continues until the backend's clock is exhausted
    /// — which a wall-clock backend may never be.
    pub fn max_rounds(mut self, n: u64) -> Self {
        self.max_rounds = Some(n);
        self
    }

    /// Attaches a telemetry sink, replacing the current one. The run
    /// streams phase spans, decision records, and backend events into
    /// it.
    pub fn telemetry<T: TelemetrySink>(self, sink: T) -> Driver<B, T> {
        Driver {
            backend: self.backend,
            policy: self.policy,
            admission: self.admission,
            resilience: self.resilience,
            max_rounds: self.max_rounds,
            sink,
        }
    }

    /// Runs the control loop until the backend's clock is exhausted
    /// (or the round bound set by [`Driver::max_rounds`] is reached).
    ///
    /// # Errors
    ///
    /// [`DriverError::NoPolicy`] when no policy was attached;
    /// [`DriverError::Backend`] when a plain run hits a backend error
    /// (resilient runs absorb backend errors and keep going).
    pub fn run(self) -> Result<DriverOutcome<B>, DriverError> {
        let Driver {
            backend,
            policy,
            admission,
            resilience,
            max_rounds,
            mut sink,
        } = self;
        let policy = policy.ok_or(DriverError::NoPolicy)?;
        let admission = admission.unwrap_or_else(|| Box::new(ClampToQuota) as Box<dyn Admission>);
        let mut reconciler = Reconciler::new(policy, admission);
        let budget = max_rounds.unwrap_or(u64::MAX);
        match resilience {
            None => {
                let mut backend = backend;
                let mut rounds = 0u64;
                while rounds < budget && backend.advance_with(&mut sink).is_some() {
                    reconciler.reconcile_with(&mut backend, &mut sink)?;
                    rounds += 1;
                }
                let stats = *reconciler.stats();
                Ok(DriverOutcome {
                    policy_name: reconciler.policy_name().to_string(),
                    report: RunReport::from_stats(&stats),
                    stats,
                    driver_stats: None,
                    breaker: None,
                    backend,
                })
            }
            Some(cfg) => {
                let mut driver = ResilientDriver::new(backend, cfg);
                let mut rounds = 0u64;
                while rounds < budget && driver.backend_mut().advance_with(&mut sink).is_some() {
                    driver.round_with(&mut reconciler, &mut sink);
                    rounds += 1;
                }
                let stats = *reconciler.stats();
                let driver_stats = *driver.stats();
                Ok(DriverOutcome {
                    policy_name: reconciler.policy_name().to_string(),
                    report: RunReport::compose(&stats, &driver_stats),
                    stats,
                    driver_stats: Some(driver_stats),
                    breaker: Some(driver.breaker_state()),
                    backend: driver.into_inner(),
                })
            }
        }
    }

    /// [`Driver::max_rounds`] + [`Driver::run`] in one call — the
    /// natural shape for live loops, which tick until told to stop.
    ///
    /// # Errors
    ///
    /// Same contract as [`Driver::run`].
    pub fn run_rounds(self, n: u64) -> Result<DriverOutcome<B>, DriverError> {
        self.max_rounds(n).run()
    }
}

/// Everything one [`Driver`] run produced.
///
/// The backend is handed back for backend-specific harvesting (e.g.
/// `SimBackend::finish` builds the cluster report); the stats come in
/// both the unified [`RunReport`] form and the layer-level
/// [`RunStats`] / [`DriverStats`] forms until the latter shims are
/// dropped.
#[derive(Debug)]
pub struct DriverOutcome<B> {
    /// The backend, handed back after the run.
    pub backend: B,
    /// The composed policy's display name.
    pub policy_name: String,
    /// The unified run report.
    pub report: RunReport,
    /// The reconciler's own accounting (legacy view; every field is
    /// mirrored in [`DriverOutcome::report`]).
    pub stats: RunStats,
    /// The resilient driver's accounting when [`Driver::resilience`]
    /// was configured (legacy view; mirrored in the report).
    pub driver_stats: Option<DriverStats>,
    /// Final circuit-breaker state of a resilient run.
    pub breaker: Option<BreakerState>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ActuationReport;
    use crate::clock::Clock;
    use crate::ResilienceConfig;
    use faro_core::admission::Unlimited;
    use faro_core::baselines::Aiad;
    use faro_core::types::{ClusterSnapshot, JobObservation, JobSpec, ResourceModel};
    use faro_core::units::{DurationMs, RatePerMin, ReplicaCount, SimTimeMs};
    use faro_telemetry::TraceSink;
    use std::sync::Arc;

    /// A minimal in-memory backend: fixed horizon, instant actuation,
    /// fixed arrival rate.
    struct MemBackend {
        now: SimTimeMs,
        rounds_left: u32,
        target: u32,
        applies: u32,
    }

    impl MemBackend {
        fn new(rounds: u32) -> Self {
            Self {
                now: SimTimeMs::ZERO,
                rounds_left: rounds,
                target: 1,
                applies: 0,
            }
        }
    }

    impl Clock for MemBackend {
        fn now(&self) -> SimTimeMs {
            self.now
        }

        fn advance(&mut self) -> Option<SimTimeMs> {
            if self.rounds_left == 0 {
                return None;
            }
            self.rounds_left -= 1;
            self.now += DurationMs::from_secs(10.0);
            Some(self.now)
        }
    }

    impl ClusterBackend for MemBackend {
        fn observe(&mut self) -> Result<ClusterSnapshot, BackendError> {
            let spec = Arc::new(JobSpec::resnet34("m"));
            let processing = spec.processing_time;
            Ok(ClusterSnapshot {
                now: self.now,
                resources: ResourceModel::replicas(ReplicaCount::new(8)),
                jobs: vec![JobObservation {
                    spec,
                    target_replicas: self.target,
                    ready_replicas: self.target,
                    queue_len: 4,
                    arrival_rate_history: Arc::new(vec![RatePerMin::new(600.0)]),
                    recent_arrival_rate: 10.0,
                    mean_processing_time: processing,
                    recent_tail_latency: 0.9,
                    drop_rate: 0.0,
                    class_target: None,
                    class_ready: None,
                }],
            })
        }

        fn apply(
            &mut self,
            desired: &faro_core::types::DesiredState,
        ) -> Result<ActuationReport, BackendError> {
            let mut report = ActuationReport::default();
            for (_, d) in desired.iter() {
                report.replicas_started += d.target_replicas.saturating_sub(self.target);
                self.target = d.target_replicas;
                report.jobs_applied += 1;
            }
            self.applies += 1;
            Ok(report)
        }
    }

    #[test]
    fn run_requires_a_policy() {
        let err = Driver::new(MemBackend::new(3)).run().err();
        assert!(matches!(err, Some(DriverError::NoPolicy)));
        assert!(format!("{}", DriverError::NoPolicy).contains("policy"));
    }

    #[test]
    fn plain_run_drives_to_the_horizon() {
        let out = Driver::new(MemBackend::new(5))
            .policy(Box::new(Aiad::default()))
            .admission(Box::new(Unlimited))
            .run()
            .expect("mem backend never fails");
        assert_eq!(out.stats.rounds, 5);
        assert_eq!(out.report.total_rounds, 5);
        assert_eq!(out.report.ok_rounds, 5);
        assert_eq!(out.backend.applies, 5);
        assert_eq!(out.policy_name, "AIAD");
        assert!(out.driver_stats.is_none());
        assert!(out.breaker.is_none());
    }

    #[test]
    fn run_rounds_bounds_an_unbounded_clock() {
        // 100-round horizon, bounded to 4: the driver must stop at
        // the bound, not the horizon.
        let out = Driver::new(MemBackend::new(100))
            .policy(Box::new(Aiad::default()))
            .run_rounds(4)
            .expect("mem backend never fails");
        assert_eq!(out.stats.rounds, 4);
        assert_eq!(out.backend.rounds_left, 96);
    }

    #[test]
    fn resilient_run_reports_composed_stats() {
        let mut sink = TraceSink::new();
        let out = Driver::new(MemBackend::new(6))
            .policy(Box::new(Aiad::default()))
            .resilience(ResilienceConfig::default())
            .telemetry(&mut sink)
            .run()
            .expect("mem backend never fails");
        let driver_stats = out
            .driver_stats
            .expect("resilient run records driver stats");
        assert_eq!(driver_stats.rounds, 6);
        assert_eq!(driver_stats.ok_rounds, 6);
        assert_eq!(out.report, RunReport::compose(&out.stats, &driver_stats));
        assert_eq!(out.breaker, Some(BreakerState::Closed));
        assert!(!sink.is_empty(), "telemetry streamed through the driver");
    }
}
