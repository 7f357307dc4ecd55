//! Errors of a memoised certification.

use std::fmt;
use std::path::PathBuf;

use crate::hash::ContentHash;

/// Why one memoised certification returned no report.
#[derive(Debug)]
#[non_exhaustive]
pub enum SweepError {
    /// A filesystem operation on the cache failed.
    Io {
        /// File or directory the operation targeted.
        path: PathBuf,
        /// Short verb describing the operation ("create", "read", ...).
        op: &'static str,
        /// Underlying error message.
        msg: String,
    },
    /// A cache record does not parse.
    Parse {
        /// File that failed to parse.
        path: PathBuf,
        /// 1-based line number of the offending line (0 = whole file).
        line: usize,
        /// What was expected.
        msg: String,
    },
    /// The certification faulted, and so did its tightened-budget retry.
    /// Never cached, so a rerun retries it.
    Fault {
        /// Content key of the certification (its would-be cache address).
        key: ContentHash,
        /// Human label of the certification.
        label: String,
        /// Certification attempts made.
        attempts: u32,
        /// The fault of the last attempt.
        fault: ScenarioFault,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Io { path, op, msg } => {
                write!(f, "cache i/o: {op} {}: {msg}", path.display())
            }
            SweepError::Parse { path, line, msg } => {
                write!(f, "corrupt record {}:{line}: {msg}", path.display())
            }
            SweepError::Fault {
                key,
                label,
                attempts,
                fault,
            } => write!(
                f,
                "certification {key} ({label}) after {attempts} attempt(s): {fault}"
            ),
        }
    }
}

impl std::error::Error for SweepError {}

impl SweepError {
    pub(crate) fn io(path: &std::path::Path, op: &'static str, e: std::io::Error) -> Self {
        SweepError::Io {
            path: path.to_path_buf(),
            op,
            msg: e.to_string(),
        }
    }
}

/// Hands the failure to an experiment driver through its
/// [`overrun_control::scenarios::CertifyFn`] hook.
impl From<SweepError> for overrun_control::Error {
    fn from(e: SweepError) -> Self {
        overrun_control::Error::Certifier(e.to_string())
    }
}

/// How a single certification attempt failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioFault {
    /// The certification returned an error.
    Failed(String),
    /// The certification panicked — in practice the `sanitize` feature
    /// poisoning a NaN/Inf at the producing kernel, or an internal
    /// invariant breach.
    Panicked(String),
}

impl fmt::Display for ScenarioFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioFault::Failed(msg) => write!(f, "failed: {msg}"),
            ScenarioFault::Panicked(msg) => write!(f, "panicked: {msg}"),
        }
    }
}
