//! The actuation surface a control plane drives.

use crate::clock::Clock;
use faro_core::types::{ClusterSnapshot, DesiredState};
use faro_core::units::ReplicaCount;
use faro_telemetry::TelemetrySink;

pub use faro_core::error::BackendError;

/// What one actuation round did to the cluster.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ActuationReport {
    /// Jobs whose decision was applied (absent jobs are untouched).
    pub jobs_applied: u32,
    /// Jobs whose decision could not be applied (unknown job, or —
    /// under a resilient driver — jobs still unactuated when the
    /// retry budget ran out). `jobs_applied + jobs_failed` accounts
    /// for every job in the desired state.
    pub jobs_failed: u32,
    /// New replicas that started cold-starting this round.
    pub replicas_started: ReplicaCount,
}

/// A cluster that can be observed and actuated — the boundary between
/// the control plane and the world.
///
/// The discrete-event simulator implements this (`SimBackend` in
/// `faro-sim`); a kube-rs backend would implement the same surface
/// against a real cluster, leaving the reconciler and every policy
/// unchanged. The [`Clock`] supertrait paces the loop: `advance()`
/// brings the backend to the next reconcile round.
///
/// Both calls are fallible: a live backend can time out, be
/// unreachable, actuate only part of a desired state, or serve a
/// snapshot too old to act on — the [`BackendError`] taxonomy covers
/// exactly these. In-process backends (the simulator, test mocks)
/// simply never return `Err`. [`Driver::run`] runs every round through
/// the [`ResilientDriver`]'s bounded retry, circuit breaking, and
/// degraded-mode rounds, so no error ends a run.
///
/// [`Driver::run`]: crate::Driver::run
/// [`ResilientDriver`]: crate::ResilientDriver
pub trait ClusterBackend: Clock {
    /// A consistent snapshot of the cluster at the current time.
    ///
    /// # Errors
    ///
    /// [`BackendError`] when the snapshot could not be produced
    /// (timeout, API unavailable) or is unusably old
    /// ([`BackendError::StaleSnapshot`]).
    fn observe(&mut self) -> Result<ClusterSnapshot, BackendError>;

    /// Actuates the desired state: scales each listed job toward its
    /// target and sets its drop rate. Jobs absent from `desired` are
    /// left untouched. Applying the same state twice is a no-op on
    /// cluster state — which is what makes retrying a
    /// [`BackendError::PartialApply`] safe: re-applying the full
    /// desired state converges to the same cluster state as one
    /// successful apply.
    ///
    /// # Errors
    ///
    /// [`BackendError`] when actuation failed outright (timeout,
    /// unavailable) or only a prefix of the desired state landed
    /// ([`BackendError::PartialApply`]).
    fn apply(&mut self, desired: &DesiredState) -> Result<ActuationReport, BackendError>;

    /// Like [`ClusterBackend::apply`], additionally streaming
    /// actuation detail (cold starts begun, their delays) into `sink`.
    /// The default ignores the sink; implementations overriding this
    /// must keep the cluster-state transition identical to `apply`.
    ///
    /// # Errors
    ///
    /// Same contract as [`ClusterBackend::apply`].
    fn apply_with(
        &mut self,
        desired: &DesiredState,
        sink: &mut dyn TelemetrySink,
    ) -> Result<ActuationReport, BackendError> {
        let _ = sink;
        self.apply(desired)
    }
}
