//! Power-lifted bound refinement.
//!
//! For any `ℓ ≥ 1`, the set of all products of length exactly `ℓ` satisfies
//! `ρ({A_w : |w| = ℓ}) = ρ(A)^ℓ`. Running the (ellipsoid-preconditioned)
//! Gripenberg search on the lifted set and taking `ℓ`-th roots therefore
//! yields valid bounds that tighten as `ℓ` grows — the ellipsoidal norm of
//! the lifted set approximates the extremal norm of the original set far
//! better than any single-step ellipsoid can.

use overrun_linalg::Matrix;

use crate::screen::ScreenStats;
use crate::{gripenberg_with_stats, Error, GripenbergOptions, JsrBounds, MatrixSet, Result};

/// Options for [`refined_bounds`].
#[derive(Debug, Clone)]
pub struct RefineOptions {
    /// Base Gripenberg options applied at every lift level.
    pub base: GripenbergOptions,
    /// Largest product length lifted to. Default: 4.
    pub max_power: usize,
    /// Hard cap on the lifted alphabet size (`q^ℓ`). Default: 1024.
    pub max_alphabet: usize,
    /// Stop as soon as the bounds separate from this threshold (set to 1.0
    /// for stability certification; `None` runs all levels). Default:
    /// `Some(1.0)`.
    pub decision_threshold: Option<f64>,
}

impl Default for RefineOptions {
    fn default() -> Self {
        RefineOptions {
            base: GripenbergOptions {
                // The lifted alphabets are large; keep the per-level tree
                // shallow and lean on the ellipsoid bound.
                max_depth: 6,
                max_products: 60_000,
                ..GripenbergOptions::default()
            },
            max_power: 4,
            max_alphabet: 1024,
            decision_threshold: Some(1.0),
        }
    }
}

/// Computes JSR bounds with progressive power lifting: level `ℓ` runs the
/// Gripenberg search (with ellipsoidal preconditioning) on all `q^ℓ`
/// products of length `ℓ` and contributes `[LB^{1/ℓ}, UB^{1/ℓ}]`; the
/// intersection over levels is returned.
///
/// # Errors
///
/// * [`Error::InvalidOptions`] when `max_power == 0`.
/// * Propagates Gripenberg / numerical failures.
///
/// # Example
///
/// ```
/// use overrun_jsr::{refined_bounds, MatrixSet, RefineOptions};
/// use overrun_linalg::Matrix;
///
/// # fn main() -> Result<(), overrun_jsr::Error> {
/// let a1 = Matrix::from_rows(&[&[0.6, 0.4], &[-0.2, 0.7]])?;
/// let a2 = Matrix::from_rows(&[&[0.5, -0.3], &[0.4, 0.6]])?;
/// let set = MatrixSet::new(vec![a1, a2])?;
/// let b = refined_bounds(&set, &RefineOptions::default())?;
/// assert!(b.certifies_stable());
/// # Ok(())
/// # }
/// ```
pub fn refined_bounds(set: &MatrixSet, opts: &RefineOptions) -> Result<JsrBounds> {
    Ok(refined_bounds_with_stats(set, opts)?.0)
}

/// Like [`refined_bounds`], additionally returning the screening statistics
/// accumulated over every lift level. `lb_depth` reports the *unlifted*
/// product length behind the final lower bound (`level · lb_depth` of the
/// level that last improved it).
///
/// # Errors
///
/// Same as [`refined_bounds`].
pub fn refined_bounds_with_stats(
    set: &MatrixSet,
    opts: &RefineOptions,
) -> Result<(JsrBounds, ScreenStats)> {
    if opts.max_power == 0 {
        return Err(Error::InvalidOptions("max_power must be >= 1".into()));
    }
    let mut best = JsrBounds {
        lower: 0.0,
        upper: f64::INFINITY,
    };
    let mut stats = ScreenStats::default();
    // Length-ℓ products, built incrementally.
    let mut current: Vec<Matrix> = set.matrices().to_vec();
    for level in 1..=opts.max_power {
        if current.len() > opts.max_alphabet {
            break;
        }
        let _sp_level =
            overrun_trace::span!("jsr.refine_level", level = level, alphabet = current.len());
        let lifted = MatrixSet::new(current.clone())?;
        let (b, s) = gripenberg_with_stats(&lifted, &opts.base)?;
        stats.absorb(&s);
        let root = 1.0 / level as f64;
        let cand = b.lower.max(0.0).powf(root);
        if cand > best.lower {
            best.lower = cand;
            stats.lb_depth = level * s.lb_depth;
        }
        best.upper = best.upper.min(b.upper.max(0.0).powf(root));
        if let Some(threshold) = opts.decision_threshold {
            if best.upper < threshold || best.lower >= threshold {
                break;
            }
        }
        if level < opts.max_power {
            if current.len().saturating_mul(set.len()) > opts.max_alphabet {
                break;
            }
            let mut next = Vec::with_capacity(current.len() * set.len());
            for p in &current {
                for a in set {
                    next.push(a.matmul(p)?);
                }
            }
            current = next;
        }
    }
    Ok((best, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gripenberg;

    // Tests return `Result` and use `?` instead of `unwrap()`, so a
    // failure reports the error that caused it.
    type TestResult = Result<()>;

    #[test]
    fn refinement_never_looser_than_level_one() -> TestResult {
        let a1 = Matrix::from_rows(&[&[0.7, 0.5], &[-0.3, 0.8]])?;
        let a2 = Matrix::from_rows(&[&[0.6, -0.4], &[0.5, 0.7]])?;
        let set = MatrixSet::new(vec![a1, a2])?;
        let opts = RefineOptions {
            decision_threshold: None,
            ..RefineOptions::default()
        };
        let level1 = gripenberg(&set, &opts.base)?;
        let refined = refined_bounds(&set, &opts)?;
        assert!(refined.upper <= level1.upper + 1e-9);
        assert!(refined.lower <= refined.upper + 1e-9);
        // Both must contain the true JSR: intervals overlap.
        assert!(refined.lower <= level1.upper + 1e-9);
        assert!(level1.lower <= refined.upper + 1e-9);
        Ok(())
    }

    #[test]
    fn certifies_marginally_contractive_pair() -> TestResult {
        // Two rotation-like contractions whose one-step common ellipsoid is
        // marginal; power lifting closes the gap.
        let mk = |th: f64, s: f64| {
            Matrix::from_rows(&[
                &[s * th.cos(), -s * th.sin() * 3.0],
                &[s * th.sin() / 3.0, s * th.cos()],
            ])
        };
        let set = MatrixSet::new(vec![mk(0.6, 0.97)?, mk(1.1, 0.98)?])?;
        let b = refined_bounds(&set, &RefineOptions::default())?;
        assert!(b.certifies_stable(), "bounds {b}");
        Ok(())
    }

    #[test]
    fn detects_unstable_pair() -> TestResult {
        let set = MatrixSet::new(vec![Matrix::diag(&[1.05, 0.2]), Matrix::diag(&[0.3, 0.9])])?;
        let b = refined_bounds(&set, &RefineOptions::default())?;
        assert!(b.certifies_unstable(), "bounds {b}");
        Ok(())
    }

    #[test]
    fn zero_power_rejected() -> TestResult {
        let set = MatrixSet::new(vec![Matrix::identity(2)])?;
        assert!(refined_bounds(
            &set,
            &RefineOptions {
                max_power: 0,
                ..RefineOptions::default()
            }
        )
        .is_err());
        Ok(())
    }

    #[test]
    fn alphabet_cap_respected() -> TestResult {
        // 3 matrices, cap 10: only levels 1 (3) and 2 (9) run; must still
        // return valid bounds.
        let set = MatrixSet::new(vec![
            Matrix::diag(&[0.5, 0.1]),
            Matrix::diag(&[0.2, 0.4]),
            Matrix::diag(&[0.3, 0.3]),
        ])?;
        let b = refined_bounds(
            &set,
            &RefineOptions {
                max_alphabet: 10,
                decision_threshold: None,
                ..RefineOptions::default()
            },
        )?;
        assert!(b.lower <= 0.5 + 1e-9);
        assert!(b.upper >= 0.5 - 1e-9);
        Ok(())
    }
}
