//! Error type for the Faro autoscaler core.
//!
//! [`Error`] (aliased [`FaroError`] workspace-wide) is the shared
//! conversion target for every backend crate's error type: queueing,
//! solver, and forecast errors convert in *typed* (`source()` walks to
//! the original, no stringification), and crates the core cannot
//! depend on (the simulator) convert their setup errors into
//! [`Error::Backend`].

use crate::units::DurationMs;
use core::fmt;

/// Result alias for this crate.
pub type Result<T> = core::result::Result<T, Error>;

/// A failure at the control-plane/world boundary: what a
/// `ClusterBackend` call (`observe`/`apply`) can report instead of a
/// value.
///
/// The taxonomy is deliberately small and *actionable* — each variant
/// maps to a distinct recovery strategy in the resilient driver
/// (`faro-control`): timeouts and unavailability are retried with
/// backoff, a partial apply is retried to convergence (apply is
/// idempotent), a stale snapshot is tolerated up to a staleness
/// window before the round degrades, and a rejected call is not
/// retried at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// The call did not complete within its deadline.
    Timeout {
        /// How long the call ran before the deadline cut it off.
        elapsed: DurationMs,
    },
    /// The backend API was unreachable or refused the call.
    Unavailable {
        /// Backend-specific detail (transport error, HTTP status, ...).
        reason: String,
    },
    /// `apply` actuated only a prefix of the desired state before
    /// failing. Because apply is idempotent ("absent means untouched",
    /// re-applying a satisfied state is a no-op), retrying the full
    /// desired state converges to the same cluster state as one
    /// successful apply.
    PartialApply {
        /// Jobs whose decision was applied before the failure.
        applied: u32,
    },
    /// `observe` produced a snapshot older than the caller can use.
    StaleSnapshot {
        /// Age of the snapshot relative to the backend clock.
        age: DurationMs,
    },
    /// The backend refused the call and says the same call can never
    /// succeed (an invalid desired state, an unknown route): retrying
    /// it only spends the round's budget.
    Rejected {
        /// Backend-specific detail (HTTP status and the server's
        /// message, ...).
        reason: String,
    },
}

impl BackendError {
    /// Whether retrying the same call can possibly succeed: every
    /// variant but [`BackendError::Rejected`] is transient.
    pub fn is_retryable(&self) -> bool {
        match self {
            BackendError::Timeout { .. }
            | BackendError::Unavailable { .. }
            | BackendError::PartialApply { .. }
            | BackendError::StaleSnapshot { .. } => true,
            BackendError::Rejected { .. } => false,
        }
    }
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Timeout { elapsed } => {
                write!(f, "backend call timed out after {elapsed}")
            }
            BackendError::Unavailable { reason } => {
                write!(f, "backend unavailable: {reason}")
            }
            BackendError::PartialApply { applied } => {
                write!(f, "apply actuated only {applied} job(s) before failing")
            }
            BackendError::StaleSnapshot { age } => {
                write!(f, "snapshot is stale by {age}")
            }
            BackendError::Rejected { reason } => {
                write!(f, "backend rejected the call: {reason}")
            }
        }
    }
}

impl std::error::Error for BackendError {}

/// Workspace-wide alias: the one error type control loops and run
/// entry points surface.
pub type FaroError = Error;

/// Errors surfaced by the autoscaler and its building blocks.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A configuration value was invalid.
    InvalidConfig(String),
    /// A snapshot was structurally invalid (e.g. no jobs, zero quota).
    InvalidSnapshot(String),
    /// An underlying queueing estimate failed.
    Queueing(faro_queueing::Error),
    /// An underlying solver failed.
    Solver(faro_solver::Error),
    /// An underlying forecaster failed.
    Forecast(faro_forecast::Error),
    /// A cluster backend failed to build or actuate (e.g. an invalid
    /// simulation setup or fault plan). Carries the backend's rendered
    /// message: backend crates sit above the core, so their error
    /// types cannot appear here structurally.
    Backend(String),
    /// A cluster backend API call failed at the control-plane/world
    /// boundary. Unlike [`Error::Backend`] (setup/build failures,
    /// stringified), this is the *typed* runtime failure surface:
    /// `source()` walks to the structured [`BackendError`].
    BackendApi(BackendError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            Error::InvalidSnapshot(m) => write!(f, "invalid snapshot: {m}"),
            Error::Queueing(e) => write!(f, "queueing estimation failed: {e}"),
            Error::Solver(e) => write!(f, "optimization failed: {e}"),
            Error::Forecast(e) => write!(f, "forecasting failed: {e}"),
            Error::Backend(m) => write!(f, "cluster backend failed: {m}"),
            Error::BackendApi(e) => write!(f, "cluster backend API call failed: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Queueing(e) => Some(e),
            Error::Solver(e) => Some(e),
            Error::Forecast(e) => Some(e),
            Error::BackendApi(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BackendError> for Error {
    fn from(e: BackendError) -> Self {
        Error::BackendApi(e)
    }
}

impl From<faro_queueing::Error> for Error {
    fn from(e: faro_queueing::Error) -> Self {
        Error::Queueing(e)
    }
}

impl From<faro_solver::Error> for Error {
    fn from(e: faro_solver::Error) -> Self {
        Error::Solver(e)
    }
}

impl From<faro_forecast::Error> for Error {
    fn from(e: faro_forecast::Error) -> Self {
        Error::Forecast(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: Error = faro_queueing::Error::ZeroReplicas.into();
        assert!(e.to_string().contains("queueing"));
        let e: Error = faro_solver::Error::EmptyProblem.into();
        assert!(e.to_string().contains("optimization"));
        let e: Error = faro_forecast::Error::NotFitted.into();
        assert!(e.to_string().contains("forecasting"));
        assert!(Error::InvalidConfig("x".into()).to_string().contains('x'));
        assert!(Error::Backend("boom".into()).to_string().contains("boom"));
    }

    #[test]
    fn forecast_errors_convert_typed_not_stringified() {
        use std::error::Error as _;
        let e: FaroError = faro_forecast::Error::SeriesTooShort { got: 3, need: 10 }.into();
        assert_eq!(
            e,
            Error::Forecast(faro_forecast::Error::SeriesTooShort { got: 3, need: 10 })
        );
        // The chain walks to the structured source; nothing was
        // flattened into a message string.
        assert!(e.source().is_some());
    }

    #[test]
    fn backend_errors_convert_typed_and_display() {
        use std::error::Error as _;
        let api = BackendError::PartialApply { applied: 3 };
        assert!(api.is_retryable());
        assert!(api.to_string().contains("3 job(s)"));
        let e: FaroError = api.clone().into();
        assert_eq!(e, Error::BackendApi(api));
        assert!(e.source().is_some());
        let t = BackendError::Timeout {
            elapsed: DurationMs::from_millis(1500),
        };
        assert!(t.to_string().contains("1.5s"), "{t}");
        let s = BackendError::StaleSnapshot {
            age: DurationMs::from_secs(40.0),
        };
        assert!(s.to_string().contains("stale"), "{s}");
        assert!(BackendError::Unavailable {
            reason: "conn refused".into()
        }
        .to_string()
        .contains("conn refused"));
        let r = BackendError::Rejected {
            reason: "bad target".into(),
        };
        assert!(!r.is_retryable());
        assert!(r.to_string().contains("bad target"), "{r}");
    }
}
