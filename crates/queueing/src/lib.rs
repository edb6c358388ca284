//! Queueing-theoretic latency estimation for ML inference autoscaling.
//!
//! This crate implements the latency estimators of Faro (Sec. 3.3 of the
//! paper) and their relaxed variants (Sec. 3.4):
//!
//! - [`upper_bound`]: the pessimistic completion-time bound for a burst of
//!   simultaneous arrivals.
//! - [`mmc`]: the classical M/M/c queue (Poisson arrivals, exponential
//!   service) including Erlang-C and closed-form waiting-time percentiles.
//! - [`mdc`]: the M/D/c queue (Poisson arrivals, deterministic service)
//!   approximated by Tijms' engineering rule "M/D/c waiting time is about
//!   half the M/M/c waiting time". Every M/D/c estimate — one count, a
//!   table row, a bracket, a replica need — is one walk up the server
//!   counts along a single Erlang-B recurrence; the closed form in
//!   [`mmc`] is its definition, held to it bit for bit by the tests. A
//!   row is written only as far as it waits: every count past its first
//!   zero-wait count is exactly the service time.
//! - [`relaxed`]: the plateau-free estimator used inside Faro's relaxed
//!   cluster optimization, which replaces the infinite latency of an
//!   unstable queue with a penalty proportional to the queue growth rate.
//!   [`RelaxedLatency::row_into`] builds its one kind of table row.
//! - [`mixed`]: a pool of replica classes of different speeds, reduced to
//!   one effective M/D/c queue.
//!
//! ML inference workloads show Poisson arrival patterns and low-variance
//! processing times, which is why the M/D/c model fits (paper Sec. 3.3).
//!
//! # Examples
//!
//! ```
//! use faro_queueing::{mdc, relaxed, ReplicaCount};
//!
//! // p = 150 ms, lambda = 40 req/s, N replicas; 99.99th percentile.
//! // The paper reports the M/D/c model needs 8 replicas where the
//! // upper-bound model needs 10, for a 600 ms SLO.
//! let needed = mdc::replicas_for_slo(0.9999, 0.150, 40.0, 0.600, ReplicaCount::new(64)).unwrap();
//! assert!(needed.get() <= 10);
//!
//! // The relaxed estimator stays finite (and increasing) past saturation.
//! let est = relaxed::RelaxedLatency::new(0.95).unwrap();
//! let l1 = est.latency(0.99, 0.150, 100.0, ReplicaCount::new(4)).unwrap();
//! let l2 = est.latency(0.99, 0.150, 200.0, ReplicaCount::new(4)).unwrap();
//! assert!(l2 > l1 && l2.is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod count;
pub mod erlang;
pub mod error;
pub mod mdc;
pub mod mixed;
pub mod mmc;
pub mod relaxed;
pub mod upper_bound;

pub use count::ReplicaCount;
pub use error::{Error, Result};
pub use relaxed::RelaxedLatency;
