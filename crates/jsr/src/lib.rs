//! Joint spectral radius (JSR) bounds for switching linear systems.
//!
//! The stability test of *"Adaptive Design of Real-Time Control Systems
//! subject to Sporadic Overruns"* (Pazzaglia et al., DATE 2021, Sec. V)
//! reduces to deciding whether the JSR of the set of lifted closed-loop
//! matrices `{Ω(h) : h ∈ H}` is below one. This crate implements:
//!
//! * [`bruteforce_bounds`] — the Gel'fand–Berger–Wang sandwich of paper
//!   Eq. (12): `max_{ℓ≤m} ρ̂_ℓ ≤ ρ(A) ≤ min_{ℓ≤m} ρ_ℓ`, evaluated by
//!   depth-first enumeration of all products up to a given length;
//! * [`gripenberg`] — Gripenberg's branch-and-bound algorithm, which prunes
//!   the product tree with a user-chosen gap `δ` and returns a certified
//!   interval `[LB, UB]` with `UB − LB ≤ δ` on termination;
//! * [`decide_stability`] — an early-exit wrapper answering the only
//!   question the control designer cares about: is `ρ < 1`?
//!
//! All bounds are invariant under a common similarity transform; a cheap
//! diagonal [`precondition`] based on joint balancing is applied internally
//! to tighten norm-based upper bounds, after [`deflate`] has removed every
//! coordinate that all members repeat (which leaves the JSR unchanged).
//!
//! # Example
//!
//! ```
//! use overrun_jsr::{MatrixSet, gripenberg, GripenbergOptions};
//! use overrun_linalg::Matrix;
//!
//! # fn main() -> Result<(), overrun_jsr::Error> {
//! // A singleton set: the JSR equals the spectral radius.
//! let a = Matrix::from_rows(&[&[0.0, 1.0], &[-0.25, 0.0]])?;
//! let set = MatrixSet::new(vec![a])?;
//! let bounds = gripenberg(&set, &GripenbergOptions::default())?;
//! assert!(bounds.lower <= 0.5 + 1e-9 && 0.5 <= bounds.upper + 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod bruteforce;
mod deflate;
pub mod ellipsoid;
mod error;
mod gripenberg;
mod precondition;
mod refine;
mod screen;
mod set;

pub use bruteforce::{bruteforce_bounds, bruteforce_bounds_with_stats, BruteforceOptions};
pub use deflate::{deflate, repeated_rows};
pub use ellipsoid::{optimize_ellipsoid, Ellipsoid, EllipsoidOptions};
pub use error::Error;
pub use gripenberg::{gripenberg, gripenberg_with_stats, GripenbergOptions};
pub use precondition::precondition;
pub use refine::{refined_bounds, refined_bounds_with_stats, RefineOptions};
pub use screen::ScreenStats;
pub use set::MatrixSet;

/// Convenience alias for `Result<T, overrun_jsr::Error>`.
pub type Result<T> = std::result::Result<T, Error>;

/// A certified two-sided bound on the joint spectral radius.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JsrBounds {
    /// Certified lower bound (`ρ ≥ lower`).
    pub lower: f64,
    /// Certified upper bound (`ρ ≤ upper`).
    pub upper: f64,
}

impl JsrBounds {
    /// Width of the bounding interval.
    pub fn gap(&self) -> f64 {
        self.upper - self.lower
    }

    /// Returns `true` when the bound certifies asymptotic stability
    /// (`ρ < 1`, i.e. `upper < 1`).
    pub fn certifies_stable(&self) -> bool {
        self.upper < 1.0
    }

    /// Returns `true` when the bound certifies instability (`lower ≥ 1`).
    pub fn certifies_unstable(&self) -> bool {
        self.lower >= 1.0
    }
}

impl std::fmt::Display for JsrBounds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:.6}, {:.6}]", self.lower, self.upper)
    }
}

/// Verdict of the early-exit stability decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StabilityVerdict {
    /// `ρ < 1` certified: every switching sequence converges.
    Stable,
    /// `ρ ≥ 1` certified: some switching sequence does not converge.
    Unstable,
    /// The bounds did not separate from 1 within the iteration budget.
    Unknown,
}

impl std::fmt::Display for StabilityVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StabilityVerdict::Stable => write!(f, "stable"),
            StabilityVerdict::Unstable => write!(f, "unstable"),
            StabilityVerdict::Unknown => write!(f, "unknown"),
        }
    }
}

/// Decides asymptotic stability of the switching system defined by `set`,
/// using Gripenberg bounds with the budget in `opts`.
///
/// # Errors
///
/// Propagates numerical errors from the underlying eigenvalue and norm
/// computations.
pub fn decide_stability(set: &MatrixSet, opts: &GripenbergOptions) -> Result<StabilityVerdict> {
    let bounds = gripenberg(set, opts)?;
    if bounds.certifies_stable() {
        Ok(StabilityVerdict::Stable)
    } else if bounds.certifies_unstable() {
        Ok(StabilityVerdict::Unstable)
    } else {
        Ok(StabilityVerdict::Unknown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overrun_linalg::Matrix;

    #[test]
    fn bounds_display_and_gap() {
        let b = JsrBounds {
            lower: 0.5,
            upper: 0.75,
        };
        assert!((b.gap() - 0.25).abs() < 1e-15);
        assert!(format!("{b}").contains("0.5"));
        assert!(b.certifies_stable());
        assert!(!b.certifies_unstable());
    }

    #[test]
    fn decide_stability_stable_singleton() {
        let set = MatrixSet::new(vec![Matrix::diag(&[0.5, 0.25])]).unwrap();
        let verdict = decide_stability(&set, &GripenbergOptions::default()).unwrap();
        assert_eq!(verdict, StabilityVerdict::Stable);
    }

    #[test]
    fn decide_stability_unstable_singleton() {
        let set = MatrixSet::new(vec![Matrix::diag(&[1.5, 0.25])]).unwrap();
        let verdict = decide_stability(&set, &GripenbergOptions::default()).unwrap();
        assert_eq!(verdict, StabilityVerdict::Unstable);
    }

    #[test]
    fn verdict_display() {
        assert_eq!(StabilityVerdict::Stable.to_string(), "stable");
        assert_eq!(StabilityVerdict::Unstable.to_string(), "unstable");
        assert_eq!(StabilityVerdict::Unknown.to_string(), "unknown");
    }
}
