//! Synthetic production-like workload traces for ML inference
//! autoscaling experiments.
//!
//! The paper drives its evaluation with the Azure Functions 2019 trace
//! (top-9 functions by invocation count) and a Twitter stream trace
//! (Sec. 6, "Workloads"), rescaled to 1-1600 requests/minute over 11
//! days: days 1-10 train the predictor, day 11 is evaluated. Those exact
//! traces are not redistributable here, so this crate generates *seeded
//! synthetic traces with the published characteristics*: strong diurnal
//! periodicity, bursts and spikes, heavy-tailed level shifts, and
//! multiplicative noise (see `DESIGN.md` substitutions).
//!
//! - [`generator`]: Azure-like and Twitter-like per-minute rate series.
//! - [`scale`]: range rescaling, the paper's 4-minute window compression,
//!   and train/eval day splitting.
//!
//! # Examples
//!
//! ```
//! use faro_trace::generator::{TraceKind, TraceSpec};
//!
//! let spec = TraceSpec { kind: TraceKind::AzureLike, seed: 7, days: 11, ..Default::default() };
//! let trace = spec.generate();
//! assert_eq!(trace.rates_per_minute.len(), 11 * 24 * 60);
//! let (train, eval) = trace.split_days(10);
//! assert_eq!(eval.rates_per_minute.len(), 24 * 60);
//! assert_eq!(train.rates_per_minute.len(), 10 * 24 * 60);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generator;
pub mod scale;

pub use generator::{Trace, TraceKind, TraceSpec};
