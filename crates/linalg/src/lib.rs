//! Dense linear algebra kernels for the `overrun` control stack.
//!
//! This crate implements, from scratch, every numerical kernel needed to
//! reproduce *"Adaptive Design of Real-Time Control Systems subject to
//! Sporadic Overruns"* (Pazzaglia et al., DATE 2021):
//!
//! * a dense row-major [`Matrix`] of `f64` with the usual arithmetic,
//! * [`Lu`] factorisation with partial pivoting (solve / det / inverse),
//! * [`Cholesky`] factorisation,
//! * Hessenberg reduction and a Francis double-shift QR iteration giving
//!   real-matrix [`eigenvalues`] and the [`spectral_radius`],
//! * the matrix exponential [`expm`] (Padé-13 scaling and squaring) and the
//!   zero-order-hold pair [`expm_integral`] `(e^{Ah}, ∫₀ʰ e^{As} ds · B)`,
//! * the discrete algebraic Riccati equation ([`solve_dare`]) via the
//!   structure-preserving doubling algorithm, and the LQR gain
//!   [`dlqr_solution`].
//!
//! # Example
//!
//! ```
//! use overrun_linalg::{Matrix, expm, spectral_radius};
//!
//! # fn main() -> Result<(), overrun_linalg::Error> {
//! let a = Matrix::from_rows(&[&[0.0, 1.0], &[-1.0, 0.0]])?;
//! // exp of a rotation generator is a rotation matrix
//! let r = expm(&a)?;
//! assert!((r[(0, 0)] - 1.0_f64.cos()).abs() < 1e-12);
//! assert!((spectral_radius(&r)? - 1.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod cholesky;
mod error;
mod expm;
mod lu;
mod matrix;
mod norms;
pub mod optimize;
mod riccati;
#[cfg(feature = "sanitize")]
pub mod sanitize;
mod schur;
pub mod small;

pub use cholesky::{
    cholesky_in_place, cholesky_log_det, cholesky_solve_in_place, is_spd, Cholesky,
};
pub use error::Error;
pub use expm::{expm, expm_integral};
pub use lu::Lu;
pub use matrix::Matrix;
pub use norms::{
    balance, cheap_spectral_bounds, norm_1, norm_2, norm_fro, norm_inf, spectral_radius_upper,
    CheapSpectralBounds,
};
pub use riccati::{dlqr_solution, solve_dare, DareSolution};
pub use schur::{eigenvalues, hessenberg, spectral_radius, Eigenvalue};

/// Convenience alias for `Result<T, overrun_linalg::Error>`.
pub type Result<T> = std::result::Result<T, Error>;
