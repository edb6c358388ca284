//! The control-loop benchmark: four workloads, seven end-to-end
//! metrics, per-layer spans timed at the public API.
//!
//! See `README.md` beside this crate for what is measured and why.
//! Nothing here is used by the repo itself; the package is a workspace
//! of its own that path-depends on the `faro` facade.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod bench;
pub mod names;
pub mod probes;
pub mod replay;
pub mod run;
pub mod timed;
pub mod trace;
pub mod workloads;

/// The median of `values` by `faro::metrics`' percentile rule (0 when
/// there are none).
pub(crate) fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    faro::metrics::percentile_of_sorted(&values, 0.5).unwrap_or(0.0)
}
