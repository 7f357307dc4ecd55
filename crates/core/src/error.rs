use std::fmt;

/// Error type for the adaptive control layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// Invalid model or design parameter.
    InvalidConfig(String),
    /// A linear-algebra kernel failed.
    Linalg(overrun_linalg::Error),
    /// The JSR stability machinery failed.
    Jsr(overrun_jsr::Error),
    /// The real-time simulator failed.
    Rtsim(overrun_rtsim::Error),
    /// A controller design step failed (e.g. no stabilising gains found).
    Design(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Error::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            Error::Jsr(e) => write!(f, "stability analysis failure: {e}"),
            Error::Rtsim(e) => write!(f, "timing simulation failure: {e}"),
            Error::Design(msg) => write!(f, "controller design failed: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Linalg(e) => Some(e),
            Error::Jsr(e) => Some(e),
            Error::Rtsim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<overrun_linalg::Error> for Error {
    fn from(e: overrun_linalg::Error) -> Self {
        Error::Linalg(e)
    }
}

impl From<overrun_jsr::Error> for Error {
    fn from(e: overrun_jsr::Error) -> Self {
        Error::Jsr(e)
    }
}

impl From<overrun_rtsim::Error> for Error {
    fn from(e: overrun_rtsim::Error) -> Self {
        Error::Rtsim(e)
    }
}
