//! The backend-agnostic control plane (paper Sec. 4.1).
//!
//! The paper deploys Faro as a Kubernetes control loop — observe the
//! cluster, solve for a desired allocation, actuate it through the
//! resource quota — layered over Ray Serve. This crate is that loop
//! with the cluster abstracted away:
//!
//! ```text
//!            +------------------------------- Reconciler ----+
//!            |                                               |
//!            |  observe()   decide()     admit()    apply()  |
//!            |  Snapshot -> Desired  -> Admitted -> Report   |
//!            |     ^          |            |          |      |
//!            +-----|----------|------------|----------|------+
//!                  |       Policy      Admission       v
//!            +----------------- ClusterBackend ---------------+
//!            |  faro-sim SimBackend | mock | kube-rs (future) |
//!            +-----------------------------------------------+
//! ```
//!
//! * [`Clock`] paces reconcile rounds: a simulated clock drains a
//!   discrete-event queue until the next policy tick, a wall clock
//!   sleeps until the next interval.
//! * [`ClusterBackend`] is the actuation surface: `observe()` returns a
//!   typed [`faro_core::ClusterSnapshot`], `apply()` actuates a
//!   [`faro_core::DesiredState`] keyed by [`faro_core::JobId`].
//! * [`Reconciler`] composes a [`faro_core::Policy`] with an
//!   [`faro_core::Admission`] strategy and runs
//!   Observe → Decide → Admit → Actuate until the clock runs out,
//!   accumulating [`RunStats`] (including the granted-vs-requested
//!   admission accounting that quota enforcement used to swallow).
//!
//! Both backend calls are fallible ([`backend::BackendError`]): a live
//! API times out, refuses calls, serves stale snapshots, and actuates
//! partially. The plain [`Reconciler`] propagates the first error;
//! [`resilient::ResilientDriver`] wraps any backend with bounded
//! deterministic retry, a circuit breaker, degraded-mode rounds, and
//! drift repair, and [`chaos::ChaosBackend`] injects exactly those
//! failures from a seeded plan so every resilience path is exercised
//! reproducibly.
//!
//! [`driver::Driver`] is the one run entry point over all of this: a
//! builder that composes a policy, admission, optional resilience,
//! and a telemetry sink over any backend and drives the loop to the
//! clock's horizon or a round bound — the simulator's run path and
//! the live HTTP loop (`faro-cluster`) are both thin layers over it,
//! and [`report::RunReport`] is its unified accounting view.
//!
//! Time is split across two traits: [`Clock`] is the run's logical
//! timeline ([`faro_core::units::SimTimeMs`]), and [`clock::WallClock`]
//! is the host's physical clock ([`faro_core::units::WallTimeMs`]) —
//! separate types with no conversion, so wall-clock millis cannot
//! leak into sim-time arithmetic.
//!
//! The discrete-event simulator (`faro-sim`) provides the first
//! backend; `examples/custom_backend.rs` in the workspace root drives
//! the same reconciler against a mock with no simulator dependency.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A `_` arm over an error enum is how a new failure mode ships unhandled.
#![deny(clippy::wildcard_enum_match_arm)]

pub mod backend;
pub mod chaos;
pub mod clock;
pub mod driver;
pub mod reconciler;
pub mod report;
pub mod resilient;

pub use backend::{ActuationReport, BackendError, ClusterBackend};
pub use chaos::{
    ApiErrors, ChaosBackend, ChaosPlan, ChaosStats, InjectedLatency, PartialApplies, StaleSnapshots,
};
pub use clock::{Clock, WallClock};
pub use driver::{Driver, DriverError, DriverOutcome};
pub use reconciler::{AdmissionStats, PlannedRound, ReconcileOutcome, Reconciler, RunStats};
pub use report::RunReport;
pub use resilient::{BreakerState, DriverStats, ResilienceConfig, ResilientDriver, RetryPolicy};
