//! Derivative-free constrained optimization for Faro's cluster objective.
//!
//! The paper (Sec. 3.4) solves its relaxed cluster optimization with the
//! local solver COBYLA, and uses SLSQP and Differential Evolution as
//! comparison points (Figure 5). This crate provides from-scratch Rust
//! implementations with a shared [`Problem`] trait:
//!
//! - [`cobyla`]: a COBYLA-style method — linear models of objective and
//!   constraints built from derivative-free probes at the trust-region
//!   scale, a linearized merit subproblem, and Powell-style trust-region
//!   updates. Like the original, it sees *no slope* inside a plateau, so
//!   it faithfully reproduces the paper's "local solvers stall on the
//!   precise objective" behaviour.
//! - [`neldermead`]: penalized Nelder-Mead simplex search; the stand-in
//!   for the paper's second local solver (SLSQP) — both are local methods
//!   that stall on plateaus (see `DESIGN.md` substitutions).
//! - [`de`]: Differential Evolution (Storn & Price), the evolutionary
//!   global method that escapes plateaus at much higher cost.
//!
//! Convention: **minimize** [`Problem::objective`] subject to every
//! inequality constraint value being `>= 0` and the box [`Problem::bounds`].
//!
//! # Examples
//!
//! ```
//! use faro_solver::{cobyla::Cobyla, BoxedProblem, Solver};
//!
//! // Minimize x + y subject to x^2 + y^2 <= 1.
//! let problem = BoxedProblem::new(
//!     vec![(-2.0, 2.0); 2],
//!     |x| x[0] + x[1],
//!     vec![|x: &[f64]| 1.0 - x[0] * x[0] - x[1] * x[1]],
//! );
//! let sol = Cobyla::default().solve(&problem, &[0.0, 0.0]).unwrap();
//! let expect = -(2.0f64).sqrt();
//! assert!((sol.objective - expect).abs() < 1e-2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cobyla;
pub mod de;
pub mod error;
pub mod neldermead;
pub mod problem;

pub use cobyla::Cobyla;
pub use de::DifferentialEvolution;
pub use error::{Error, Result};
pub use neldermead::NelderMead;
pub use problem::{BoxedProblem, Problem, Solution};

/// A constrained minimizer.
///
/// Problems must be `Sync`: population-based solvers evaluate many
/// candidates concurrently from borrowed scoped threads. Objective
/// evaluation takes `&self`, so any interior caching a problem does
/// must already be thread-safe. Solvers must be `Sync` too: one solver
/// serves independent solves on several threads at once (a sharded
/// round's shards), so any state it keeps across calls must be
/// thread-safe as well.
pub trait Solver: Sync {
    /// Minimizes `problem` starting from `x0`.
    ///
    /// # Errors
    ///
    /// Fails when `x0` has the wrong dimension or the problem is
    /// malformed (empty bounds, inverted bounds).
    fn solve(&self, problem: &(dyn Problem + Sync), x0: &[f64]) -> Result<Solution>;
}
