//! Metric collection and accounting primitives shared by the Faro
//! autoscaler, simulator, and experiment harness.
//!
//! - [`percentile`]: exact nearest-rank percentiles.
//! - [`slo`]: per-job SLO violation accounting and per-minute tail-latency
//!   series (the paper's main experimental metrics, Sec. 6).
//! - [`rank`]: the Kendall-Tau rank distance used to compare simulator
//!   and cluster policy rankings (paper Table 7).
//! - [`availability`]: capacity availability and time-to-recover
//!   accounting for the fault-injection experiments.
//!
//! # Examples
//!
//! ```
//! use faro_metrics::slo::SloAccounting;
//!
//! let mut acc = SloAccounting::new(0.720);
//! acc.record_latency(0.300); // Within SLO.
//! acc.record_latency(0.900); // Violation.
//! acc.record_drop();         // Drops count as violations.
//! assert!((acc.violation_rate() - 2.0 / 3.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod availability;
pub mod percentile;
pub mod rank;
pub mod slo;

pub use availability::AvailabilityTracker;
pub use percentile::{percentile_by_selection, percentile_of_sorted};
pub use rank::kendall_tau_distance;
pub use slo::{MinuteSeries, SloAccounting};
