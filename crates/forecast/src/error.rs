//! Forecasting error type.

use core::fmt;

/// Result alias for this crate.
pub type Result<T> = core::result::Result<T, Error>;

/// Errors returned by forecasters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// `predict` was called before `fit`.
    NotFitted,
    /// The training series is too short for even one window.
    SeriesTooShort {
        /// Observations supplied.
        got: usize,
        /// Minimum required (input length + horizon).
        need: usize,
    },
    /// The prediction context has the wrong length.
    BadContextLength {
        /// Context length supplied.
        got: usize,
        /// Model input length.
        need: usize,
    },
    /// The training series holds a NaN or an infinite value.
    NonFinite {
        /// Position of the first such value.
        index: usize,
    },
    /// A structural configuration parameter was invalid (zero sizes,
    /// empty stacks, and similar).
    InvalidConfig(&'static str),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::NotFitted => write!(f, "model has not been fitted"),
            Error::SeriesTooShort { got, need } => {
                write!(f, "series has {got} observations, need at least {need}")
            }
            Error::BadContextLength { got, need } => {
                write!(f, "context has {got} observations, model expects {need}")
            }
            Error::NonFinite { index } => {
                write!(f, "series value at index {index} is not finite")
            }
            Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages() {
        assert!(Error::NotFitted.to_string().contains("fitted"));
        let e = Error::SeriesTooShort { got: 3, need: 10 };
        assert!(e.to_string().contains('3') && e.to_string().contains("10"));
        let e = Error::NonFinite { index: 7 };
        assert!(e.to_string().contains("index 7") && e.to_string().contains("finite"));
    }
}
