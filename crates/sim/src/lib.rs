//! A deployment-matched discrete-event simulator of Ray Serve atop
//! Kubernetes.
//!
//! The paper validates a custom simulator against its cluster
//! deployments (Sec. 6.4, Table 7) and uses it to extrapolate to larger
//! and smaller clusters (Fig. 15, Table 8). This crate reproduces that
//! simulator: per-job subclusters with a router (FIFO queue, tail drop
//! at a threshold of 50, explicit drop rates) and single-request
//! replicas with near-deterministic service times, replica cold starts,
//! a cluster-wide replica quota, and periodic policy ticks that feed
//! any [`faro_core::Policy`] the same metrics the modified Ray router
//! exports (arrival rates, mean processing time, recent tail latency).
//!
//! The simulator is the first [`faro_control::ClusterBackend`]: the
//! event loop lives in [`SimBackend`], whose `advance()` drains events
//! up to the next policy tick while the `faro-control` reconciler runs
//! Observe → Decide → Admit → Actuate on top. [`Simulation::driver`]
//! wires the two together through the backend-generic
//! [`faro_control::Driver`] builder; [`Simulation::into_backend`]
//! hands the primed backend to external control loops.
//!
//! # Examples
//!
//! ```
//! use faro_core::baselines::FairShare;
//! use faro_core::types::JobSpec;
//! use faro_sim::{JobSetup, SimConfig, SimRun, Simulation};
//!
//! let jobs = vec![JobSetup {
//!     spec: JobSpec::resnet34("demo"),
//!     rates_per_minute: vec![300.0; 10], // 10 minutes at 5 req/s.
//!     initial_replicas: 2,
//! }];
//! let config = SimConfig { seed: 1, ..Default::default() };
//! let outcome = Simulation::new(config, jobs)
//!     .unwrap()
//!     .driver(Box::new(FairShare))
//!     .run()
//!     .into_outcome();
//! assert!(outcome.report.jobs[0].total_requests > 0);
//! ```

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

pub mod backend;
pub mod events;
pub mod faults;
pub mod report;
pub mod runtime;
pub mod simulator;

pub use backend::SimBackend;
pub use faults::{
    ColdStartSpike, FaultPlan, MetricOutage, MetricOutageMode, NodeOutage, ReplicaCrashes,
};
pub use report::{ClusterReport, JobReport};
pub use simulator::{JobSetup, RunOutcome, SimConfig, SimRun, Simulation};

/// Result alias for this crate.
pub type Result<T> = core::result::Result<T, Error>;

/// Simulator errors.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The simulation setup was invalid.
    InvalidSetup(String),
}

impl core::fmt::Display for Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Error::InvalidSetup(m) => write!(f, "invalid simulation setup: {m}"),
        }
    }
}

impl std::error::Error for Error {}

// The simulator sits above the core, so its error type cannot appear
// structurally inside `FaroError`; setup failures convert into the
// shared `Backend` variant instead (one error type at every run entry
// point, no ad-hoc stringification at call sites).
impl From<Error> for faro_core::FaroError {
    fn from(e: Error) -> Self {
        faro_core::FaroError::Backend(e.to_string())
    }
}
