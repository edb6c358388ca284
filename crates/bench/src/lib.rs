//! Experiment harness reproducing the Faro paper's evaluation.
//!
//! The `repro` binary (`src/bin/repro/`) regenerates every table and
//! figure of the paper from one registry and checks its claims (see
//! `DESIGN.md` for the index); this library holds the shared machinery:
//!
//! - [`workloads`]: the paper's 10-job workload set (9 Azure-like + 1
//!   Twitter-like traces, days 1-10 train / day 11 eval, 4-minute
//!   compression), plus mixed and large-scale variants.
//! - [`policies`]: constructors for every policy under test, including
//!   Faro variants with trained N-HiTS predictors and ablations.
//! - [`harness`]: the trial runner (policy x cluster size x seed ->
//!   [`faro_sim::ClusterReport`]) with thread-parallel execution and
//!   table formatting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod policies;
pub mod workloads;

pub use harness::{run_matrix, summarize, ExperimentSpec, PolicyResult};
pub use policies::PolicyKind;
pub use workloads::WorkloadSet;

/// The imports nearly every experiment starts with, in one line:
/// `use faro_bench::prelude::*;`.
///
/// Covers the trial runner ([`ExperimentSpec`], [`run_matrix`],
/// [`summarize`]), policy and workload construction ([`PolicyKind`],
/// [`Ablation`](crate::policies::Ablation), [`WorkloadSet`],
/// [`ClusterObjective`](prelude::ClusterObjective),
/// [`FairShare`](prelude::FairShare)), simulation entry points
/// ([`Simulation`](prelude::Simulation), [`SimConfig`](prelude::SimConfig),
/// [`FaultPlan`](prelude::FaultPlan),
/// [`RunOutcome`](faro_sim::RunOutcome)), and telemetry sinks.
pub mod prelude {
    pub use crate::harness::{run_matrix, summarize, ExperimentSpec, PolicyResult};
    pub use crate::policies::{Ablation, PolicyKind};
    pub use crate::workloads::WorkloadSet;
    pub use faro_core::baselines::FairShare;
    pub use faro_core::ClusterObjective;
    pub use faro_sim::{FaultPlan, RunOutcome, SimConfig, SimRun, Simulation};
    pub use faro_telemetry::{AggregateSink, NoopSink, TelemetrySink, TraceSink};
}
