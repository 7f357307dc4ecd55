use std::fmt;

/// Error type for all fallible operations in this crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// Matrix dimensions are incompatible with the requested operation.
    DimensionMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Dimensions of the left / first operand.
        lhs: (usize, usize),
        /// Dimensions of the right / second operand.
        rhs: (usize, usize),
    },
    /// The operation requires a square matrix.
    NotSquare {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Actual dimensions.
        dims: (usize, usize),
    },
    /// The matrix is singular (or numerically singular) to working precision.
    Singular,
    /// The matrix is not (numerically) symmetric positive definite.
    NotPositiveDefinite,
    /// An iterative algorithm failed to converge.
    NoConvergence {
        /// Name of the algorithm.
        algorithm: &'static str,
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
    /// Construction from raw parts received inconsistent data.
    InvalidData(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::DimensionMismatch { op, lhs, rhs } => write!(
                f,
                "dimension mismatch in {op}: {}x{} vs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            Error::NotSquare { op, dims } => {
                write!(
                    f,
                    "{op} requires a square matrix, got {}x{}",
                    dims.0, dims.1
                )
            }
            Error::Singular => write!(f, "matrix is singular to working precision"),
            Error::NotPositiveDefinite => {
                write!(f, "matrix is not symmetric positive definite")
            }
            Error::NoConvergence {
                algorithm,
                iterations,
            } => write!(
                f,
                "{algorithm} did not converge after {iterations} iterations"
            ),
            Error::InvalidData(msg) => write!(f, "invalid data: {msg}"),
        }
    }
}

impl std::error::Error for Error {}
