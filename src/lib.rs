//! Faro: SLO-aware autoscaling for on-premises containerized ML
//! inference clusters.
//!
//! This is the facade crate of the workspace, re-exporting the full
//! stack behind one dependency. It reproduces the EuroSys '25 paper
//! *"A House United Within Itself: SLO-Awareness for On-Premises
//! Containerized ML Inference Clusters via Faro"*:
//!
//! - [`core`]: the Faro autoscaler — utilities, cluster objectives,
//!   relaxed optimization, hierarchical solving, the hybrid
//!   predictive/reactive loop, admission strategies, and every
//!   baseline policy.
//! - [`control`]: the backend-agnostic control plane — the
//!   `ClusterBackend` and `Clock` traits, the
//!   Observe → Decide → Admit → Actuate reconciler, and `Driver`, the
//!   one run loop over them.
//! - [`telemetry`]: the deterministic, sim-time-keyed tracing and
//!   metrics layer — `TelemetrySink`, the zero-cost `NoopSink`, the
//!   ring-buffer `TraceSink` (JSONL), and the `AggregateSink`
//!   (Prometheus snapshots, per-job SLO-attainment timelines).
//! - [`queueing`]: M/M/c / M/D/c latency estimation and the relaxed
//!   plateau-free estimator.
//! - [`solver`]: COBYLA-style, Nelder-Mead, and Differential Evolution
//!   constrained optimizers.
//! - [`nn`] and [`forecast`]: the neural substrate and the N-HiTS /
//!   AR / naive arrival-rate forecasters.
//! - [`trace`]: synthetic Azure/Twitter-like workload generation.
//! - [`sim`]: the deployment-matched discrete-event simulator of Ray
//!   Serve atop Kubernetes.
//! - [`metrics`]: percentiles, windows, SLO accounting, Kendall-Tau.
//! - [`cluster`]: the live actuation layer — a cluster-in-a-process
//!   HTTP/JSON server (`ClusterServer`) and the wall-clock
//!   `HttpBackend` that drives the same control plane over real TCP
//!   with the versioned v1 wire schema.
//! - [`bench`](mod@bench): the experiment harness regenerating the
//!   paper's tables and figures.
//!
//! # Quickstart
//!
//! ```
//! use faro::prelude::*;
//!
//! // Two small jobs, ten minutes of trace, Faro-Sum vs the quota.
//! let set = WorkloadSet::n_jobs(2, 7, 400.0).truncated_eval(10);
//! let policy = PolicyKind::faro(ClusterObjective::Sum).build(&set, None, 0);
//! let config = SimConfig { total_replicas: 8, seed: 1, ..Default::default() };
//! let outcome = Simulation::new(config, set.setups(1))
//!     .unwrap()
//!     .driver(policy)
//!     .run()
//!     .into_outcome();
//! assert!(outcome.report.cluster_violation_rate < 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use faro_bench as bench;
pub use faro_cluster as cluster;
pub use faro_control as control;
pub use faro_core as core;
pub use faro_forecast as forecast;
pub use faro_metrics as metrics;
pub use faro_nn as nn;
pub use faro_queueing as queueing;
pub use faro_sim as sim;
pub use faro_solver as solver;
pub use faro_telemetry as telemetry;
pub use faro_trace as trace;

/// The types almost every Faro program touches, importable in one
/// line: `use faro::prelude::*;`.
///
/// Covers configuring and running a simulation
/// ([`Simulation`](prelude::Simulation), [`SimConfig`](prelude::SimConfig),
/// [`JobSetup`](prelude::JobSetup), [`RunOutcome`](prelude::RunOutcome),
/// [`FaultPlan`](prelude::FaultPlan)), choosing a policy
/// ([`PolicyKind`](prelude::PolicyKind), [`Policy`](prelude::Policy),
/// [`ClusterObjective`](prelude::ClusterObjective), the
/// [`Aiad`](prelude::Aiad)/[`FairShare`](prelude::FairShare) baselines),
/// workload generation ([`WorkloadSet`](prelude::WorkloadSet)), observing
/// a run ([`TelemetrySink`](prelude::TelemetrySink),
/// [`NoopSink`](prelude::NoopSink), [`TraceSink`](prelude::TraceSink),
/// [`AggregateSink`](prelude::AggregateSink)), and driving a custom
/// backend ([`ClusterBackend`](prelude::ClusterBackend),
/// [`Clock`](prelude::Clock), [`Driver`](prelude::Driver),
/// [`Reconciler`](prelude::Reconciler)).
pub mod prelude {
    pub use faro_bench::{PolicyKind, WorkloadSet};
    pub use faro_control::{
        Clock, ClusterBackend, Driver, DriverOutcome, Reconciler, ResilienceConfig,
        ResilientDriver, RunStats,
    };
    pub use faro_core::admission::ClampToQuota;
    pub use faro_core::baselines::{Aiad, FairShare};
    pub use faro_core::policy::Policy;
    pub use faro_core::types::{ClusterSnapshot, DesiredState, JobSpec};
    pub use faro_core::units::{RatePerMin, ReplicaCount, SimTimeMs, WallTimeMs};
    pub use faro_core::{ClusterObjective, FaroAutoscaler, FaroConfig, FaroError};
    pub use faro_sim::{
        ClusterReport, FaultPlan, JobSetup, RunOutcome, SimConfig, SimRun, Simulation,
    };
    pub use faro_telemetry::{AggregateSink, NoopSink, Tee, TelemetrySink, TraceSink};
}
