use std::fmt;

/// Error type of the release-policy model.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A configuration value is invalid (zero period, `Ns = 0`, …).
    InvalidConfig(String),
    /// A trace invariant was violated (indicates a bug upstream).
    Invariant(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Error::Invariant(msg) => write!(f, "trace invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for Error {}
