//! The one run loop: [`Driver`] drives a policy over any
//! [`ClusterBackend`] until the backend's clock ends.
//!
//! Each round is `Clock::advance_with`, then
//! [`ResilientDriver::round_with`]: the retry ladder, which retries,
//! degrades and never stops, so a run cannot fail. The run ends when
//! the backend's [`Clock`](crate::Clock) does: the simulator at the end
//! of its trace, `faro-cluster`'s `HttpBackend` after
//! `LiveConfig::horizon_rounds`. A caller that has to act between
//! rounds (inject drift, time one round) steps those two calls itself.

use crate::backend::ClusterBackend;
use crate::reconciler::{Reconciler, RunStats};
use crate::resilient::{BreakerState, DriverStats, ResilienceConfig, ResilientDriver};
use faro_core::admission::{Admission, ClampToQuota};
use faro_core::policy::Policy;
use faro_telemetry::{NoopSink, TelemetrySink};

/// One control-loop run of a policy over a [`ClusterBackend`].
///
/// Built by [`Driver::new`], consumed by [`Driver::run`]. The sink type
/// parameter defaults to [`NoopSink`], which compiles the
/// instrumentation out entirely — attach a real sink with
/// [`Driver::telemetry`] (pass `&mut sink` to keep it; sinks are
/// implemented for mutable references too).
pub struct Driver<B: ClusterBackend, S: TelemetrySink = NoopSink> {
    backend: B,
    policy: Box<dyn Policy>,
    admission: Box<dyn Admission>,
    resilience: ResilienceConfig,
    sink: S,
}

impl<B: ClusterBackend> Driver<B> {
    /// A run of `policy` over `backend`, admitted by [`ClampToQuota`],
    /// with the default [`ResilienceConfig`] and untraced.
    pub fn new(backend: B, policy: Box<dyn Policy>) -> Self {
        Self {
            backend,
            policy,
            admission: Box::new(ClampToQuota),
            resilience: ResilienceConfig::default(),
            sink: NoopSink,
        }
    }
}

impl<B: ClusterBackend, S: TelemetrySink> Driver<B, S> {
    /// Overrides the admission controller (default: [`ClampToQuota`],
    /// which trims requests to the snapshot's replica quota).
    pub fn admission(mut self, admission: Box<dyn Admission>) -> Self {
        self.admission = admission;
        self
    }

    /// Overrides the retry ladder's tuning (default:
    /// [`ResilienceConfig::default`]).
    pub fn resilience(mut self, cfg: ResilienceConfig) -> Self {
        self.resilience = cfg;
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
            sink,
        }
    }

    /// Runs the control loop until the backend's clock ends. Backend
    /// errors are retried, degraded around or skipped, and counted in
    /// [`DriverOutcome::driver_stats`]; none ends the run.
    pub fn run(self) -> DriverOutcome<B> {
        let Driver {
            backend,
            policy,
            admission,
            resilience,
            mut sink,
        } = self;
        let mut reconciler = Reconciler::new(policy, admission);
        let mut driver = ResilientDriver::new(backend, resilience);
        while driver.backend_mut().advance_with(&mut sink).is_some() {
            driver.round_with(&mut reconciler, &mut sink);
        }
        DriverOutcome {
            policy_name: reconciler.policy_name().to_string(),
            stats: *reconciler.stats(),
            driver_stats: *driver.stats(),
            breaker: driver.breaker_state(),
            backend: driver.into_inner(),
        }
    }
}

/// Everything one [`Driver`] run produced.
///
/// The backend is handed back for backend-specific harvesting (e.g.
/// `SimBackend::finish` builds the cluster report).
#[derive(Debug)]
pub struct DriverOutcome<B> {
    /// The backend, handed back after the run.
    pub backend: B,
    /// The composed policy's display name.
    pub policy_name: String,
    /// The reconciler's accounting: completed rounds, admission, and
    /// actuation.
    pub stats: RunStats,
    /// The retry ladder's accounting: every round seen, retries,
    /// degraded and skipped rounds, breaker opens, drift repairs.
    pub driver_stats: DriverStats,
    /// Final circuit-breaker state.
    pub breaker: BreakerState,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ActuationReport, BackendError};
    use crate::clock::Clock;
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
    fn resilient_run_reports_composed_stats() {
        let mut sink = TraceSink::new();
        let out = Driver::new(MemBackend::new(6), Box::new(Aiad::default()))
            .admission(Box::new(Unlimited))
            .resilience(ResilienceConfig::default())
            .telemetry(&mut sink)
            .run();
        assert_eq!(out.driver_stats.rounds, 6);
        assert_eq!(out.driver_stats.ok_rounds, 6);
        assert_eq!(out.stats.rounds, 6);
        assert_eq!(out.backend.applies, 6);
        assert_eq!(out.backend.rounds_left, 0, "ran to the horizon");
        assert_eq!(out.policy_name, "AIAD");
        assert_eq!(out.breaker, BreakerState::Closed);
        assert!(!sink.is_empty(), "telemetry streamed through the driver");
    }
}
