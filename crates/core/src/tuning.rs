//! Derivative-free optimisation for gain tuning.
//!
//! The paper tunes PI gains per interval "following standard heuristic
//! procedures" (Sec. IV-B). The actual Nelder–Mead implementation lives in
//! [`overrun_linalg::optimize`]; this module re-exports it with thin
//! error-type adaptation for the control layer.

pub use overrun_linalg::optimize::{NelderMeadOptions, OptimResult};

use crate::Result;

/// Minimises `f` starting from `x0` — see
/// [`overrun_linalg::optimize::nelder_mead`] for the algorithm details.
///
/// # Errors
///
/// Returns [`crate::Error::Linalg`] for an empty starting point.
///
/// # Example
///
/// ```
/// use overrun_control::tuning::{nelder_mead, NelderMeadOptions};
///
/// # fn main() -> Result<(), overrun_control::Error> {
/// let sphere = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
/// let res = nelder_mead(sphere, &[1.0, -2.0], &NelderMeadOptions::default())?;
/// assert!(res.f < 1e-8);
/// # Ok(())
/// # }
/// ```
pub fn nelder_mead<F: FnMut(&[f64]) -> f64>(
    f: F,
    x0: &[f64],
    opts: &NelderMeadOptions,
) -> Result<OptimResult> {
    Ok(overrun_linalg::optimize::nelder_mead(f, x0, opts)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn re_export_minimises_quadratic() {
        let res = nelder_mead(
            |x| (x[0] - 3.0).powi(2),
            &[0.0],
            &NelderMeadOptions::default(),
        )
        .unwrap();
        assert!((res.x[0] - 3.0).abs() < 1e-4);
    }

    #[test]
    fn error_adaptation() {
        assert!(nelder_mead(|_| 0.0, &[], &NelderMeadOptions::default()).is_err());
    }
}
