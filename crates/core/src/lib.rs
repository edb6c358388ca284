//! Faro: SLO-aware autoscaling for multi-tenant ML inference clusters.
//!
//! This crate implements the primary contribution of *"A House United
//! Within Itself: SLO-Awareness for On-Premises Containerized ML
//! Inference Clusters via Faro"* (EuroSys '25):
//!
//! - [`utility`]: per-job utility functions distilled from latency SLOs,
//!   and their plateau-free relaxation (Sec. 3.1).
//! - [`penalty`]: AWS-SLA-style drop penalties and their piecewise-linear
//!   relaxation (Sec. 3.2, Table 5).
//! - [`objective`]: the Faro-Sum / Fair / FairSum / PenaltySum /
//!   PenaltyFairSum family of cluster objectives (Sec. 3.2).
//! - [`opt`]: the precise and relaxed multi-tenant optimization with
//!   integerization and Stage-3 shrinking (Sec. 3.4, 4.2, 4.3).
//! - [`hierarchical`]: the grouped solve for large job counts (Sec. 3.4).
//! - [`sharded`]: the one organization of a long-term solve — the whole
//!   problem on one shard, else deterministic partitioning, a quota
//!   split, concurrent shard solves merged in shard order and dirty
//!   tracking.
//! - [`predictor`]: arrival-rate predictor adapters over
//!   [`faro_forecast`] (Sec. 3.5).
//! - [`faro`]: the staged hybrid autoscaler (Sec. 4).
//! - [`baselines`] and [`cilantro`]: every comparison policy of the
//!   paper's evaluation (Table 6, Figure 2).
//! - [`admission`]: pluggable quota-admission strategies composed with
//!   any policy by the `faro-control` reconciler (Sec. 4.1).
//!
//! # Examples
//!
//! ```
//! use faro_core::baselines::FairShare;
//! use faro_core::policy::Policy;
//! use faro_core::types::{ClusterSnapshot, JobId, JobObservation, JobSpec, ResourceModel};
//! use faro_core::units::{RatePerMin, ReplicaCount, SimTimeMs};
//!
//! let job = JobObservation {
//!     spec: std::sync::Arc::new(JobSpec::resnet34("demo")),
//!     target_replicas: 1,
//!     ready_replicas: 1,
//!     queue_len: 0,
//!     arrival_rate_history: std::sync::Arc::new(vec![RatePerMin::new(600.0); 15]),
//!     recent_arrival_rate: 10.0,
//!     mean_processing_time: 0.180,
//!     recent_tail_latency: 0.2,
//!     drop_rate: 0.0,
//!     class_target: None,
//!     class_ready: None,
//! };
//! let snapshot = ClusterSnapshot {
//!     now: SimTimeMs::ZERO,
//!     resources: ResourceModel::replicas(ReplicaCount::new(8)),
//!     jobs: vec![job],
//! };
//! let desired = FairShare.decide(&snapshot);
//! assert_eq!(desired.get(JobId::new(0)).unwrap().target_replicas, 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod baselines;
pub mod cilantro;
pub mod error;
mod evaluate;
pub mod faro;
pub mod hetero;
pub mod hierarchical;
pub mod objective;
pub mod opt;
pub mod penalty;
pub mod policy;
pub mod predictor;
pub mod rng;
pub mod sharded;
pub mod types;
pub mod units;
pub mod utility;

pub use admission::{Admission, AdmissionOutcome, ClampToQuota, OutageClamp, RotatingQuota};
pub use error::{BackendError, Error, FaroError, Result};
pub use faro::{FaroAutoscaler, FaroConfig};
pub use objective::ClusterObjective;
pub use policy::{Policy, PolicyIntrospection};
pub use rng::SplitMix64;
pub use sharded::{ShardConfig, ShardSolveRecord, ShardSpan, ShardedSolver, SolvePlan};
pub use types::{
    ClusterSnapshot, DesiredState, JobDecision, JobId, JobObservation, JobSpec, ResourceModel, Slo,
};
pub use units::{DurationMs, RatePerMin, ReplicaCount, SimTimeMs};
