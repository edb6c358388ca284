//! The control loop as the benchmark drives it: one client, closed
//! loop, flat out. Every round is `Clock::advance`, then one
//! observe → decide → admit → apply pass through the repo's own
//! `Reconciler` (or `ResilientDriver`), timed from outside.

use crate::audit::{Audit, AuditLog, PolicyWatch, Watched};
use crate::replay::ReplayBackend;
use crate::timed::{TimedAdmission, TimedBackend, TimedPolicy, TimedPredictor};
use crate::trace::Tracer;
use faro::cluster::HttpBackend;
use faro::control::{
    Clock, ClusterBackend, DriverStats, Reconciler, ResilienceConfig, ResilientDriver,
};
use faro::core::admission::Admission;
use faro::core::faro::{FaroAutoscaler, FaroConfig};
use faro::core::policy::Policy;
use faro::core::predictor::RatePredictor;
use faro::core::types::{ClusterSnapshot, ResourceModel};
use faro::sim::{ClusterReport, SimBackend};
use faro::telemetry::NoopSink;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A round's decision may take at most one reactive tick.
pub const TICK_DEADLINE: Duration = Duration::from_millis(crate::replay::TICK_MS);

/// Predictive-round snapshots a traced run keeps for the layer probes
/// (the cold round and the warm rounds after it).
const CAPTURED_SNAPSHOTS: usize = 6;

/// What a run is instrumented with. `tracer` is `None` on every run
/// whose numbers are reported as end-to-end metrics.
#[derive(Clone, Default)]
pub struct Instruments {
    /// Span recorder of the traced run.
    pub tracer: Option<Arc<Tracer>>,
    /// Published by [`Watched`] after every round.
    pub watch: Arc<PolicyWatch>,
    /// Snapshots of the traced run's first predictive rounds.
    pub captured: Arc<Mutex<Vec<ClusterSnapshot>>>,
}

impl Instruments {
    /// Instruments for a traced (`true`) or untraced run.
    pub fn new(traced: bool) -> Self {
        Self {
            tracer: traced.then(Tracer::new),
            ..Self::default()
        }
    }

    /// Faro with one predictor per job, wrapped for this run: timing
    /// wrappers only when traced, the [`Watched`] check always.
    pub fn faro(
        &self,
        config: FaroConfig,
        predictors: Vec<Box<dyn RatePredictor>>,
    ) -> Box<dyn Policy> {
        let Some(tracer) = &self.tracer else {
            let policy = Box::new(FaroAutoscaler::new(config, predictors));
            return Box::new(Watched::new(policy, Arc::clone(&self.watch)));
        };
        let predictors = predictors
            .into_iter()
            .map(|p| Box::new(TimedPredictor::new(p, Arc::clone(tracer))) as Box<dyn RatePredictor>)
            .collect();
        let policy = Box::new(FaroAutoscaler::new(config, predictors));
        let capturing = Box::new(Capturing {
            inner: Box::new(TimedPolicy::new(policy, Arc::clone(tracer))),
            captured: Arc::clone(&self.captured),
        });
        Box::new(Watched::new(capturing, Arc::clone(&self.watch)))
    }

    /// The admission strategy, span-wrapped when traced.
    pub fn admission(&self, inner: Box<dyn Admission>) -> Box<dyn Admission> {
        match &self.tracer {
            Some(tracer) => Box::new(TimedAdmission::new(inner, Arc::clone(tracer))),
            None => inner,
        }
    }
}

/// Keeps the snapshots of the first predictive rounds for the probes.
struct Capturing {
    inner: Box<dyn Policy>,
    captured: Arc<Mutex<Vec<ClusterSnapshot>>>,
}

impl Policy for Capturing {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, snapshot: &ClusterSnapshot) -> faro::core::types::DesiredState {
        let desired = self.inner.decide(snapshot);
        if self.inner.introspect().long_term_solve {
            let mut captured = self.captured.lock().expect("capture list poisoned");
            if captured.len() < CAPTURED_SNAPSHOTS {
                captured.push(snapshot.clone());
            }
        }
        desired
    }

    fn introspect(&self) -> faro::core::policy::PolicyIntrospection {
        self.inner.introspect()
    }
}

/// What a backend leaves behind once its run has ended.
pub trait Harvest: ClusterBackend + Sized {
    /// The simulator's cluster report; `None` for every other backend.
    fn harvest(self, _policy: &str) -> Option<ClusterReport> {
        None
    }
}

impl Harvest for SimBackend {
    fn harvest(self, policy: &str) -> Option<ClusterReport> {
        Some(self.finish(policy))
    }
}

impl Harvest for ReplayBackend {}

impl Harvest for HttpBackend {}

impl<B: Harvest> Harvest for TimedBackend<B> {
    fn harvest(self, policy: &str) -> Option<ClusterReport> {
        self.into_inner().harvest(policy)
    }
}

/// What one finished run of a control loop hands back.
pub struct Finished {
    /// Everything [`Audit`] saw.
    pub audit: AuditLog,
    /// The simulator's report (`paper10-sim` only).
    pub report: Option<ClusterReport>,
    /// The resilient driver's accounting (`live10-loopback` only).
    pub driver: Option<DriverStats>,
}

/// One control loop the benchmark can step.
pub trait ControlLoop {
    /// `Clock::advance`; `false` once the horizon is reached.
    fn advance(&mut self) -> bool;
    /// One observe → decide → admit → apply round at the current time;
    /// `false` when the driver errored on it or skipped it.
    fn round(&mut self) -> bool;
    /// What the audit has seen so far.
    fn audit(&self) -> &AuditLog;
    /// Ends the run.
    fn finish(self: Box<Self>) -> Finished;
}

/// The plain reconciler over an infallible in-process backend.
pub struct Plain<B: Harvest> {
    backend: Audit<B>,
    reconciler: Reconciler,
}

impl<B: Harvest> Plain<B> {
    /// Audits `backend` against `resources` and reconciles over it.
    pub fn new(backend: B, resources: ResourceModel, reconciler: Reconciler) -> Self {
        Self {
            backend: Audit::new(backend, resources),
            reconciler,
        }
    }
}

impl<B: Harvest> ControlLoop for Plain<B> {
    fn advance(&mut self) -> bool {
        self.backend.advance().is_some()
    }

    fn round(&mut self) -> bool {
        self.reconciler.reconcile(&mut self.backend).is_ok()
    }

    fn audit(&self) -> &AuditLog {
        self.backend.log()
    }

    fn finish(self: Box<Self>) -> Finished {
        let (backend, audit) = self.backend.into_parts();
        Finished {
            audit,
            report: backend.harvest(self.reconciler.policy_name()),
            driver: None,
        }
    }
}

/// The resilient driver over a fallible backend.
pub struct Resilient<B: Harvest> {
    driver: ResilientDriver<Audit<B>>,
    reconciler: Reconciler,
}

impl<B: Harvest> Resilient<B> {
    /// Audits `backend` against `resources` and drives it with the
    /// default resilience tuning.
    pub fn new(backend: B, resources: ResourceModel, reconciler: Reconciler) -> Self {
        Self {
            driver: ResilientDriver::new(
                Audit::new(backend, resources),
                ResilienceConfig::default(),
            ),
            reconciler,
        }
    }
}

impl<B: Harvest> ControlLoop for Resilient<B> {
    fn advance(&mut self) -> bool {
        self.driver.backend_mut().advance().is_some()
    }

    fn round(&mut self) -> bool {
        let before = *self.driver.stats();
        self.driver.round_with(&mut self.reconciler, &mut NoopSink);
        let after = self.driver.stats();
        after.skipped_rounds == before.skipped_rounds
            && after.observe_failures == before.observe_failures
            && after.apply_failures == before.apply_failures
    }

    fn audit(&self) -> &AuditLog {
        self.driver.backend().log()
    }

    fn finish(self: Box<Self>) -> Finished {
        let driver_stats = *self.driver.stats();
        let (backend, audit) = self.driver.into_inner().into_parts();
        Finished {
            audit,
            report: backend.harvest(self.reconciler.policy_name()),
            driver: Some(driver_stats),
        }
    }
}

/// Per-round samples of one run.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// observe → decide → admit → apply, ns (`advance` excluded).
    pub decision_ns: Vec<u64>,
    /// `advance` plus the decision, ns.
    pub round_ns: Vec<u64>,
    /// Whether the round ran a long-term solve.
    pub long_term: Vec<bool>,
    /// Rounds that failed: driver error or skip, a floor or quota
    /// break, or a decision slower than the tick.
    pub failed: u64,
}

impl Samples {
    /// Rounds stepped.
    pub fn rounds(&self) -> u64 {
        self.decision_ns.len() as u64
    }

    /// Keeps, round by round, the faster of this run's and `other`'s
    /// execution of the same round.
    pub fn keep_fastest(&mut self, other: &Samples) {
        for (mine, theirs) in self.decision_ns.iter_mut().zip(&other.decision_ns) {
            *mine = (*mine).min(*theirs);
        }
        for (mine, theirs) in self.round_ns.iter_mut().zip(&other.round_ns) {
            *mine = (*mine).min(*theirs);
        }
    }
}

/// Steps `control` for up to `rounds` rounds, appending to `out`.
/// Spans are stamped with round ids counting on from `round_base`.
pub fn drive(
    control: &mut dyn ControlLoop,
    instr: &Instruments,
    rounds: u64,
    round_base: u32,
    out: &mut Samples,
) {
    let tracer = instr.tracer.as_deref();
    for _ in 0..rounds {
        if let Some(t) = tracer {
            t.set_round(round_base + out.decision_ns.len() as u32 + 1);
        }
        let t0 = Instant::now();
        if !control.advance() {
            break;
        }
        let violations = control.audit().violations;
        instr.watch.reset();
        let span = tracer.map(|t| t.begin("round"));
        let t1 = Instant::now();
        let completed = control.round();
        let decision = t1.elapsed();
        if let (Some(t), Some(id)) = (tracer, span) {
            t.end(id);
        }
        let total = t0.elapsed();
        let sound =
            completed && control.audit().violations == violations && decision <= TICK_DEADLINE;
        out.failed += u64::from(!sound);
        out.decision_ns.push(decision.as_nanos() as u64);
        out.round_ns.push(total.as_nanos() as u64);
        out.long_term.push(instr.watch.last_was_long_term());
    }
    if let Some(t) = tracer {
        t.set_round(0);
    }
}
