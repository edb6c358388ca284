//! Deterministic, sim-time-keyed telemetry for the Faro control plane.
//!
//! The paper's whole argument is made through observations of the
//! control loop — per-round allocations, SLO attainment, solve effort
//! (Secs. 6.2–6.4) — and this crate is the layer that records them.
//! A [`TelemetrySink`] receives phase spans, counters, distribution
//! samples, and discrete [`TelemetryEvent`]s from the reconciler and
//! the simulator's event loop; three sinks ship:
//!
//! * [`NoopSink`] — the default. Every method is an empty `#[inline]`
//!   body and [`TelemetrySink::enabled`] returns `false`, so generic
//!   instrumentation monomorphizes to nothing: golden reports stay
//!   byte-identical and the hot path stays at baseline speed.
//! * [`TraceSink`] — a bounded ring buffer of events with JSONL
//!   export, for decision-trace archaeology.
//! * [`AggregateSink`] — counters, phase-work stats, fixed-bucket
//!   histograms, per-job SLO-attainment timelines, and a Prometheus
//!   text-format snapshot.
//!
//! [`Tee`] fans one stream out to two sinks.
//!
//! # Determinism contract
//!
//! Every datum is stamped with [`SimTimeMs`] *by the emitter*; sinks
//! never read a clock (wall clocks are banned from the determinism
//! scope by `clippy::disallowed_types`, per-crate `clippy.toml`). Sinks
//! hold state only in ordered containers (`Vec`, `VecDeque`, `BTreeMap`),
//! draw no randomness, and never feed anything back into the control
//! loop — attaching a sink cannot perturb a run. Two runs of the same
//! seeded simulation therefore produce byte-identical JSONL traces
//! and snapshots, and a [`NoopSink`] run produces a byte-identical
//! [`ClusterReport`] to a run with no telemetry at all (both are
//! locked by tests in `faro-sim`).
//!
//! Phase "timers" follow the same contract: spans measure
//! deterministic work units (jobs observed, solver evaluations,
//! replicas started) rather than wall-clock durations, which keeps
//! replays exact. Wall-clock latency stays the job of the
//! `benchmark/` package.
//!
//! [`ClusterReport`]: ../faro_sim/report/struct.ClusterReport.html

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod event;
pub mod trace;

pub use aggregate::{AggregateSink, MinuteAttainment, SpanStats};
pub use event::{Counter, DecisionRecord, JobRound, Phase, Sample, TelemetryEvent};
pub use trace::{TraceEntry, TraceSink, DEFAULT_TRACE_CAPACITY};

use faro_core::units::SimTimeMs;

/// A consumer of the control plane's telemetry stream.
///
/// All methods default to no-ops so a sink implements only what it
/// needs; [`enabled`](TelemetrySink::enabled) lets emitters skip
/// payload construction (cloning a requested state, formatting an
/// event) when nobody is listening. The trait is object-safe: the
/// actuation surface takes `&mut dyn TelemetrySink` while generic
/// drivers monomorphize (a [`NoopSink`]-typed loop compiles the
/// instrumentation away entirely).
pub trait TelemetrySink {
    /// Whether this sink records anything. Emitters may skip building
    /// expensive payloads when `false`; they still must not change
    /// any *simulation-visible* behavior based on it.
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    /// One reconcile phase's deterministic work span (see [`Phase`]
    /// for the unit each phase reports).
    #[inline]
    fn span(&mut self, at: SimTimeMs, phase: Phase, work: u64) {
        let _ = (at, phase, work);
    }

    /// Increments a monotone counter.
    #[inline]
    fn counter(&mut self, at: SimTimeMs, counter: Counter, delta: u64) {
        let _ = (at, counter, delta);
    }

    /// Records one distribution observation, optionally attributed to
    /// a job.
    #[inline]
    fn sample(&mut self, at: SimTimeMs, sample: Sample, job: Option<usize>, value: f64) {
        let _ = (at, sample, job, value);
    }

    /// Records one discrete event.
    #[inline]
    fn event(&mut self, at: SimTimeMs, event: &TelemetryEvent) {
        let _ = (at, event);
    }
}

/// Forwarding impl so `&mut S` is itself a sink (lets generic drivers
/// hand the same sink to nested emitters without re-borrowing
/// gymnastics, and lets `&mut dyn TelemetrySink` satisfy a generic
/// `S: TelemetrySink` bound).
impl<S: TelemetrySink + ?Sized> TelemetrySink for &mut S {
    #[inline]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    #[inline]
    fn span(&mut self, at: SimTimeMs, phase: Phase, work: u64) {
        (**self).span(at, phase, work);
    }

    #[inline]
    fn counter(&mut self, at: SimTimeMs, counter: Counter, delta: u64) {
        (**self).counter(at, counter, delta);
    }

    #[inline]
    fn sample(&mut self, at: SimTimeMs, sample: Sample, job: Option<usize>, value: f64) {
        (**self).sample(at, sample, job, value);
    }

    #[inline]
    fn event(&mut self, at: SimTimeMs, event: &TelemetryEvent) {
        (**self).event(at, event);
    }
}

/// The zero-cost default sink: records nothing, reports
/// [`enabled`](TelemetrySink::enabled)` == false`, and monomorphizes
/// every instrumentation site to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopSink;

impl TelemetrySink for NoopSink {
    #[inline]
    fn enabled(&self) -> bool {
        false
    }
}

/// Fans the telemetry stream out to two sinks (nest for more).
///
/// `enabled` is the OR of the halves, so payload construction happens
/// when either half listens.
#[derive(Debug, Clone, Default)]
pub struct Tee<A: TelemetrySink, B: TelemetrySink>(pub A, pub B);

impl<A: TelemetrySink, B: TelemetrySink> Tee<A, B> {
    /// Combines two sinks.
    pub fn new(a: A, b: B) -> Self {
        Self(a, b)
    }

    /// Splits back into the halves.
    pub fn into_parts(self) -> (A, B) {
        (self.0, self.1)
    }
}

impl<A: TelemetrySink, B: TelemetrySink> TelemetrySink for Tee<A, B> {
    #[inline]
    fn enabled(&self) -> bool {
        self.0.enabled() || self.1.enabled()
    }

    #[inline]
    fn span(&mut self, at: SimTimeMs, phase: Phase, work: u64) {
        self.0.span(at, phase, work);
        self.1.span(at, phase, work);
    }

    #[inline]
    fn counter(&mut self, at: SimTimeMs, counter: Counter, delta: u64) {
        self.0.counter(at, counter, delta);
        self.1.counter(at, counter, delta);
    }

    #[inline]
    fn sample(&mut self, at: SimTimeMs, sample: Sample, job: Option<usize>, value: f64) {
        self.0.sample(at, sample, job, value);
        self.1.sample(at, sample, job, value);
    }

    #[inline]
    fn event(&mut self, at: SimTimeMs, event: &TelemetryEvent) {
        self.0.event(at, event);
        self.1.event(at, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled_and_records_nothing() {
        let mut sink = NoopSink;
        assert!(!sink.enabled());
        sink.counter(SimTimeMs::ZERO, Counter::TailDrops, 1);
        sink.span(SimTimeMs::ZERO, Phase::Observe, 3);
    }

    #[test]
    fn tee_forwards_to_both_halves() {
        let mut tee = Tee::new(TraceSink::default(), AggregateSink::new());
        assert!(tee.enabled());
        tee.counter(SimTimeMs::ZERO, Counter::TailDrops, 2);
        tee.event(
            SimTimeMs::from_secs(1.0),
            &TelemetryEvent::ReplicaReady { job: 0, replica: 1 },
        );
        let (trace, agg) = tee.into_parts();
        assert_eq!(trace.counter_total(Counter::TailDrops), 2);
        assert_eq!(trace.len(), 1);
        assert_eq!(agg.counter_total(Counter::TailDrops), 2);
        assert_eq!(agg.counter_total(Counter::ReplicasReady), 1);
    }

    #[test]
    fn mut_ref_is_a_sink() {
        fn drive<S: TelemetrySink>(mut s: S) -> bool {
            s.counter(SimTimeMs::ZERO, Counter::Rounds, 1);
            s.enabled()
        }
        let mut trace = TraceSink::default();
        assert!(drive(&mut trace));
        assert_eq!(trace.counter_total(Counter::Rounds), 1);
        let dyn_sink: &mut dyn TelemetrySink = &mut trace;
        assert!(drive(dyn_sink));
    }

    #[test]
    fn tee_disabled_only_when_both_halves_are() {
        assert!(!Tee::new(NoopSink, NoopSink).enabled());
        assert!(Tee::new(NoopSink, TraceSink::default()).enabled());
    }
}
