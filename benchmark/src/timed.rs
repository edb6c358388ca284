//! Transparent timing wrappers, one per public layer boundary.
//!
//! Each wrapper forwards every call unchanged and records a span around
//! it, so a traced run makes the same decisions as an untraced one (the
//! transparency test pins that). They exist only in the traced run:
//! end-to-end metrics are always taken without them.

use crate::trace::Tracer;
use faro::control::{ActuationReport, BackendError, Clock, ClusterBackend};
use faro::core::admission::{Admission, AdmissionOutcome};
use faro::core::policy::{Policy, PolicyIntrospection};
use faro::core::predictor::RatePredictor;
use faro::core::types::{ClusterSnapshot, DesiredState};
use faro::core::units::{RatePerMin, SimTimeMs};
use faro::forecast::GaussianForecast;
use faro::solver::{Problem, Solution, Solver};
use faro::telemetry::TelemetrySink;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Spans around `Clock::advance` and `ClusterBackend::{observe, apply}`.
pub struct TimedBackend<B> {
    inner: B,
    tracer: Arc<Tracer>,
}

impl<B> TimedBackend<B> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: B, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }

    /// The wrapped backend.
    pub fn into_inner(self) -> B {
        self.inner
    }

    fn note<T>(&self, result: &Result<T, BackendError>) {
        // Injected 503s come back as `Unavailable { "server refused" }`;
        // only socket-level failures count as connect errors.
        match result {
            Err(BackendError::Timeout { .. }) => self.tracer.count("connect_errors", 1.0),
            Err(BackendError::Unavailable { reason }) if reason.starts_with("transport") => {
                self.tracer.count("connect_errors", 1.0);
            }
            _ => {}
        }
    }
}

impl<B: Clock> Clock for TimedBackend<B> {
    fn now(&self) -> SimTimeMs {
        self.inner.now()
    }

    fn advance(&mut self) -> Option<SimTimeMs> {
        let (inner, tracer) = (&mut self.inner, &self.tracer);
        tracer.span("advance", || inner.advance())
    }

    fn advance_with(&mut self, sink: &mut dyn TelemetrySink) -> Option<SimTimeMs> {
        let (inner, tracer) = (&mut self.inner, &self.tracer);
        tracer.span("advance", || inner.advance_with(sink))
    }
}

impl<B: ClusterBackend> ClusterBackend for TimedBackend<B> {
    fn observe(&mut self) -> Result<ClusterSnapshot, BackendError> {
        let (inner, tracer) = (&mut self.inner, &self.tracer);
        let out = tracer.span("observe", || inner.observe());
        self.note(&out);
        out
    }

    fn apply(&mut self, desired: &DesiredState) -> Result<ActuationReport, BackendError> {
        let (inner, tracer) = (&mut self.inner, &self.tracer);
        let out = tracer.span("apply", || inner.apply(desired));
        self.note(&out);
        out
    }

    fn apply_with(
        &mut self,
        desired: &DesiredState,
        sink: &mut dyn TelemetrySink,
    ) -> Result<ActuationReport, BackendError> {
        let (inner, tracer) = (&mut self.inner, &self.tracer);
        let out = tracer.span("apply", || inner.apply_with(desired, sink));
        self.note(&out);
        out
    }
}

/// A span around `Policy::decide`, named by what the round turned out
/// to be, plus the round's introspection counts.
pub struct TimedPolicy {
    inner: Box<dyn Policy>,
    tracer: Arc<Tracer>,
}

impl TimedPolicy {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: Box<dyn Policy>, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }
}

impl Policy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, snapshot: &ClusterSnapshot) -> DesiredState {
        let id = self.tracer.begin("decide");
        let desired = self.inner.decide(snapshot);
        self.tracer.end(id);
        let intro = self.inner.introspect();
        if !intro.long_term_solve {
            self.tracer.rename(id, "decide.reactive");
            return desired;
        }
        self.tracer.rename(id, "decide.predictive");
        self.tracer.count("long_term_rounds", 1.0);
        if intro.carried_forward {
            self.tracer.count("carried_forward_rounds", 1.0);
        }
        if let Some(rec) = intro.shard_record {
            let jobs = snapshot.jobs.len().max(1) as f64;
            self.tracer.count("sharded_rounds", 1.0);
            self.tracer.count("shards_solved", f64::from(rec.solved));
            self.tracer.count("split_evals", rec.split_evals as f64);
            self.tracer.count("shard_evals", rec.evals as f64);
            self.tracer.count(
                "dirty_share",
                f64::from(rec.solved) / f64::from(rec.shards.max(1)),
            );
            self.tracer
                .count("cache_hit_share", f64::from(rec.cache_hit_jobs) / jobs);
        }
        desired
    }

    fn introspect(&self) -> PolicyIntrospection {
        self.inner.introspect()
    }
}

/// A span around `RatePredictor::predict`.
pub struct TimedPredictor {
    inner: Box<dyn RatePredictor>,
    tracer: Arc<Tracer>,
}

impl TimedPredictor {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: Box<dyn RatePredictor>, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }
}

impl RatePredictor for TimedPredictor {
    fn predict(&mut self, history: &[RatePerMin], horizon: usize) -> GaussianForecast {
        let (inner, tracer) = (&mut self.inner, &self.tracer);
        tracer.span("predict", || inner.predict(history, horizon))
    }
}

/// A span around `Admission::admit`, counting clamped rounds.
pub struct TimedAdmission {
    inner: Box<dyn Admission>,
    tracer: Arc<Tracer>,
}

impl TimedAdmission {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: Box<dyn Admission>, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }
}

impl Admission for TimedAdmission {
    fn admit(
        &mut self,
        snapshot: &ClusterSnapshot,
        desired: &mut DesiredState,
    ) -> AdmissionOutcome {
        let (inner, tracer) = (&mut self.inner, &self.tracer);
        let outcome = tracer.span("admit", || inner.admit(snapshot, desired));
        if outcome.clamped() {
            self.tracer.count("clamped_rounds", 1.0);
        }
        outcome
    }
}

/// What one `Solver::solve` call did, as seen from outside the solver.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolveCall {
    /// Start of the call, ns since the [`TimedSolver`] was built.
    pub start_ns: u64,
    /// End of the call, ns since the [`TimedSolver`] was built.
    pub end_ns: u64,
    /// Time inside `Problem::objective`, ns.
    pub objective_ns: u64,
    /// `Problem::objective` calls.
    pub objective_calls: u64,
    /// Time inside `Problem::constraints`, ns.
    pub constraints_ns: u64,
    /// Evaluations the solver reported.
    pub evals: u64,
    /// Outer iterations the solver reported.
    pub iterations: u64,
}

impl SolveCall {
    /// Wall time of the call, ns.
    pub fn wall_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Time the solver spent on its own work: the call minus the
    /// problem's objective and constraint evaluations.
    pub fn self_ns(&self) -> u64 {
        self.wall_ns()
            .saturating_sub(self.objective_ns + self.constraints_ns)
    }
}

/// A [`Solver`] that hands the real solver a [`TimedProblem`] and logs
/// every call. `FaroAutoscaler` owns its solver privately, so this is
/// only usable from the layer probes, which call the layers' public
/// functions directly.
pub struct TimedSolver<S> {
    inner: S,
    epoch: Instant,
    calls: Mutex<Vec<SolveCall>>,
}

impl<S: Solver> TimedSolver<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            epoch: Instant::now(),
            calls: Mutex::new(Vec::new()),
        }
    }

    /// Takes the calls logged so far, in completion order.
    pub fn take_calls(&self) -> Vec<SolveCall> {
        std::mem::take(&mut *self.calls.lock().expect("solver log poisoned"))
    }
}

impl<S: Solver> Solver for TimedSolver<S> {
    fn solve(&self, problem: &(dyn Problem + Sync), x0: &[f64]) -> faro::solver::Result<Solution> {
        let timed = TimedProblem {
            inner: problem,
            objective_ns: AtomicU64::new(0),
            objective_calls: AtomicU64::new(0),
            constraints_ns: AtomicU64::new(0),
        };
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = self.inner.solve(&timed, x0);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        if let Ok(solution) = &out {
            self.calls
                .lock()
                .expect("solver log poisoned")
                .push(SolveCall {
                    start_ns,
                    end_ns,
                    // Statistics only: nothing is published through them.
                    objective_ns: timed.objective_ns.load(Ordering::Relaxed),
                    objective_calls: timed.objective_calls.load(Ordering::Relaxed),
                    constraints_ns: timed.constraints_ns.load(Ordering::Relaxed),
                    evals: solution.evals as u64,
                    iterations: solution.iterations as u64,
                });
        }
        out
    }
}

/// Counts and times `objective` / `constraints`; everything else is
/// forwarded untouched so the solver sees the same problem.
struct TimedProblem<'a> {
    inner: &'a (dyn Problem + Sync),
    objective_ns: AtomicU64,
    objective_calls: AtomicU64,
    constraints_ns: AtomicU64,
}

impl Problem for TimedProblem<'_> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn objective(&self, x: &[f64]) -> f64 {
        let start = Instant::now();
        let value = self.inner.objective(x);
        self.objective_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.objective_calls.fetch_add(1, Ordering::Relaxed);
        value
    }

    fn num_constraints(&self) -> usize {
        self.inner.num_constraints()
    }

    fn constraints(&self, x: &[f64], out: &mut [f64]) {
        let start = Instant::now();
        self.inner.constraints(x, out);
        self.constraints_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    fn bounds(&self) -> Vec<(f64, f64)> {
        self.inner.bounds()
    }

    fn validate(&self, x0: &[f64]) -> faro::solver::Result<()> {
        self.inner.validate(x0)
    }
}
