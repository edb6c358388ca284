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
//!   [`faro_core::Admission`] strategy and runs one
//!   Observe → Decide → Admit → Actuate round, accumulating
//!   [`RunStats`] (including the granted-vs-requested admission
//!   accounting that quota enforcement used to swallow).
//!
//! Both backend calls are fallible ([`backend::BackendError`]): a live
//! API times out, refuses calls, serves stale snapshots, and actuates
//! partially. [`resilient::ResilientDriver`] runs each round over any
//! backend with bounded deterministic retry, a circuit breaker,
//! degraded-mode rounds, and drift repair, counted in
//! [`DriverStats`]; and [`chaos::ChaosBackend`] injects exactly those
//! failures from a seeded plan so every resilience path is exercised
//! reproducibly.
//!
//! [`Driver::run`] is the one run loop over all of this: it advances
//! the backend's clock and runs one retry-ladder round per tick until
//! the clock ends, for the simulator, a mock, and the live HTTP
//! backend (`faro-cluster`) alike. It cannot fail: on a backend that
//! never fails a call its [`RunStats`] are those of
//! [`Reconciler::reconcile`] stepped by hand.
//!
//! [`Clock`] is the run's logical timeline
//! ([`faro_core::units::SimTimeMs`]). A live backend's host clock reads
//! [`faro_core::units::WallTimeMs`], a separate type with no
//! conversion, so wall-clock millis cannot leak into sim-time
//! arithmetic.
//!
//! The discrete-event simulator (`faro-sim`) provides the first
//! backend; `examples/custom_backend.rs` in the workspace root runs
//! the same [`Driver`] over a mock with no simulator dependency.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code of this crate runs unattended inside long sweeps and
// against live clusters: a panic is a typed error not yet written. An
// `expect` that cannot fire carries `#[expect(clippy::expect_used,
// reason = "invariant: …")]`; test code is exempt through clippy.toml.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable
)]
// A `_` arm over an error enum is how a new failure mode ships unhandled.
#![deny(clippy::wildcard_enum_match_arm)]

pub mod backend;
pub mod chaos;
pub mod clock;
pub mod driver;
pub mod reconciler;
pub mod resilient;

pub use backend::{ActuationReport, BackendError, ClusterBackend};
pub use chaos::{
    ApiErrors, ChaosBackend, ChaosPlan, ChaosStats, InjectedLatency, PartialApplies, StaleSnapshots,
};
pub use clock::Clock;
pub use driver::{Driver, DriverOutcome};
pub use reconciler::{AdmissionStats, Reconciler, RunStats};
pub use resilient::{BreakerState, DriverStats, ResilienceConfig, ResilientDriver, RetryPolicy};
