//! Constrained-switching JSR bounds.
//!
//! The plain JSR quantifies stability under *arbitrary* switching. Real
//! overrun patterns are often constrained — e.g. a weakly-hard guarantee
//! "no two consecutive overruns" forbids some mode successions. Following
//! the automaton-constrained formulation of Dercole & Della Rossa (paper
//! ref. [27]), this module bounds the constrained JSR
//!
//! ```text
//! ρ_C(A) = lim_m max { ‖A_{σ_m} ⋯ A_{σ_1}‖^{1/m} : σ admissible }
//! ```
//!
//! where admissibility is given by a transition predicate on consecutive
//! mode indices. Since every admissible product is also an unconstrained
//! product, `ρ_C ≤ ρ`; a design that fails the arbitrary-switching test may
//! still be certifiably stable under a weakly-hard contract.

use overrun_linalg::{norm_2, spectral_radius, Matrix};

use crate::set::{normalize_log, normalize_log_ref};
use crate::{Error, JsrBounds, MatrixSet, Result};

/// A transition constraint on consecutive switching indices:
/// `allowed(prev, next)` says mode `next` may follow mode `prev`.
pub type TransitionPredicate<'a> = dyn Fn(usize, usize) -> bool + 'a;

/// Options for [`constrained_bounds`].
#[derive(Debug, Clone)]
pub struct ConstrainedOptions {
    /// Maximum product length enumerated. Default: 10.
    pub max_depth: usize,
    /// Hard cap on the number of products formed. Default: 500_000.
    pub max_products: usize,
    /// Optimise an ellipsoidal norm first (a common similarity transform
    /// preserves the constrained JSR, and tightens the norm-based upper
    /// bounds dramatically for non-normal sets). Default: `true`.
    pub ellipsoid: bool,
}

impl Default for ConstrainedOptions {
    fn default() -> Self {
        ConstrainedOptions {
            max_depth: 10,
            max_products: 500_000,
            ellipsoid: true,
        }
    }
}

/// A product under construction, with its word endpoints tracked so cyclic
/// admissibility can be checked for the lower bound.
struct Word {
    product: Matrix,
    log_scale: f64,
    first: usize,
    last: usize,
}

/// Bounds the constrained joint spectral radius by level enumeration of all
/// admissible words up to `opts.max_depth`:
///
/// * **upper**: `min_ℓ max{‖P_w‖^{1/ℓ} : w admissible, |w| = ℓ}` — valid
///   because every admissible product of length `k·ℓ + r` factors into
///   admissible length-`ℓ` blocks (plus a bounded remainder);
/// * **lower**: `max ρ(P_w)^{1/|w|}` over admissible words that can repeat
///   (i.e. `allowed(last, first)`), since `w^∞` is then an admissible
///   switching sequence.
///
/// When the product budget truncates a level, that level is simply not
/// used for the upper bound (previously completed levels keep it valid) —
/// the result is looser, never unsound.
///
/// # Errors
///
/// * [`Error::InvalidOptions`] for a zero depth.
/// * [`Error::InvalidSet`] when the constraint admits no transitions at all.
///
/// # Example
///
/// ```
/// use overrun_jsr::{constrained_bounds, ConstrainedOptions, MatrixSet};
/// use overrun_linalg::Matrix;
///
/// # fn main() -> Result<(), overrun_jsr::Error> {
/// // Mode 1 is expansive, but may never repeat (weakly-hard "no two
/// // consecutive overruns"): the constrained system is stable.
/// let nominal = Matrix::diag(&[0.3, 0.3]);
/// let overrun = Matrix::diag(&[1.5, 1.5]);
/// let set = MatrixSet::new(vec![nominal, overrun])?;
/// let b = constrained_bounds(&set, &|prev, next| !(prev == 1 && next == 1),
///                            &ConstrainedOptions::default())?;
/// assert!(b.certifies_stable(), "bounds {b}");
/// # Ok(())
/// # }
/// ```
pub fn constrained_bounds(
    set: &MatrixSet,
    allowed: &TransitionPredicate<'_>,
    opts: &ConstrainedOptions,
) -> Result<JsrBounds> {
    if opts.max_depth == 0 {
        return Err(Error::InvalidOptions("max_depth must be >= 1".into()));
    }
    let ell_set;
    let set = if opts.ellipsoid {
        let ell = crate::ellipsoid::optimize_ellipsoid(set, &Default::default())?;
        ell_set = ell.transform(set)?;
        &ell_set
    } else {
        set
    };
    let q = set.len();
    let mut lower = 0.0_f64;
    let mut upper = f64::INFINITY;
    let mut products = 0usize;

    // Level 1: single letters.
    let mut level: Vec<Word> = Vec::with_capacity(q);
    let mut level1_max_norm = 0.0_f64;
    for (i, a) in set.iter().enumerate() {
        let nrm = set.norms()[i];
        level1_max_norm = level1_max_norm.max(nrm);
        if allowed(i, i) {
            lower = lower.max(spectral_radius(a)?);
        }
        let (product, log_scale) = normalize_log_ref(a, nrm);
        level.push(Word {
            product,
            log_scale,
            first: i,
            last: i,
        });
        products += 1;
    }
    // The level-1 norm bound is only valid if every letter can appear in
    // arbitrarily long admissible words; conservatively require a fully
    // admissible level: all single letters exist by construction, so the
    // level-1 upper bound always holds (any admissible word is made of
    // single letters).
    upper = upper.min(level1_max_norm);

    let mut any_transition = false;
    for depth in 2..=opts.max_depth {
        let inv_depth = 1.0 / depth as f64;
        let mut next = Vec::new();
        let mut level_max_norm = 0.0_f64;
        let mut complete = true;
        'expand: for w in &level {
            for (i, a) in set.iter().enumerate() {
                if !allowed(w.last, i) {
                    continue;
                }
                any_transition = true;
                if products >= opts.max_products {
                    complete = false;
                    break 'expand;
                }
                let p = a.matmul(&w.product)?;
                products += 1;
                let nrm_p = norm_2(&p);
                let true_norm_pow = if nrm_p > 0.0 {
                    ((nrm_p.ln() + w.log_scale) * inv_depth).exp()
                } else {
                    0.0
                };
                level_max_norm = level_max_norm.max(true_norm_pow);
                // Lower bound only from cyclically admissible words.
                if allowed(i, w.first) {
                    let rho_p = spectral_radius(&p)?;
                    if rho_p > 0.0 {
                        lower = lower.max(((rho_p.ln() + w.log_scale) * inv_depth).exp());
                    }
                }
                let (product, extra) = normalize_log(p, nrm_p);
                next.push(Word {
                    product,
                    log_scale: w.log_scale + extra,
                    first: w.first,
                    last: i,
                });
            }
        }
        if depth == 2 && !any_transition {
            return Err(Error::InvalidSet(
                "the transition predicate admits no successions".into(),
            ));
        }
        if !complete {
            break;
        }
        if next.is_empty() {
            // All admissible words terminate: the constrained system only
            // produces finite products — asymptotically it is trivially
            // stable (ρ_C = 0 by convention of empty tails).
            upper = upper.min(level_max_norm);
            break;
        }
        upper = upper.min(level_max_norm);
        level = next;
    }

    Ok(JsrBounds { lower, upper })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_repeat_overrun(prev: usize, next: usize) -> bool {
        !(prev == 1 && next == 1)
    }

    #[test]
    fn constraint_rescues_stability() {
        // Overrun mode alone is unstable; forbidden to repeat, the pair
        // nominal²-bounded products contract.
        let nominal = Matrix::diag(&[0.3, 0.2]);
        let overrun = Matrix::diag(&[1.5, 1.4]);
        let set = MatrixSet::new(vec![nominal, overrun]).unwrap();
        // Unconstrained: certified unstable (mode 1 repeats).
        let free = crate::gripenberg(&set, &crate::GripenbergOptions::default()).unwrap();
        assert!(free.certifies_unstable());
        // Constrained: stable.
        let con = constrained_bounds(&set, &no_repeat_overrun, &Default::default()).unwrap();
        assert!(con.certifies_stable(), "bounds {con}");
        // And the constrained radius is sandwiched correctly: its true
        // value is sqrt(ρ(A1·A0)) = sqrt(0.45) ≈ 0.6708.
        let expected = (1.5 * 0.3_f64).sqrt();
        assert!(con.lower <= expected + 1e-9);
        assert!(expected <= con.upper + 1e-9);
    }

    #[test]
    fn unconstrained_predicate_matches_plain_bounds() {
        let a1 = Matrix::from_rows(&[&[0.6, 0.4], &[-0.2, 0.7]]).unwrap();
        let a2 = Matrix::from_rows(&[&[0.5, -0.3], &[0.4, 0.6]]).unwrap();
        let set = MatrixSet::new(vec![a1, a2]).unwrap();
        let con = constrained_bounds(&set, &|_, _| true, &Default::default()).unwrap();
        let free = crate::bruteforce_bounds(
            &set,
            &crate::BruteforceOptions {
                max_depth: 10,
                precondition: false,
                ..Default::default()
            },
        )
        .unwrap();
        // Same admissible language ⇒ intervals must overlap.
        assert!(con.lower <= free.upper + 1e-9, "con={con:?} free={free:?}");
        assert!(free.lower <= con.upper + 1e-9, "con={con:?} free={free:?}");
    }

    #[test]
    fn constrained_never_exceeds_unconstrained() {
        let a1 = Matrix::from_rows(&[&[0.9, 0.5], &[0.0, 0.8]]).unwrap();
        let a2 = Matrix::from_rows(&[&[0.7, -0.2], &[0.3, 0.9]]).unwrap();
        let set = MatrixSet::new(vec![a1, a2]).unwrap();
        let free = crate::bruteforce_bounds(
            &set,
            &crate::BruteforceOptions {
                max_depth: 10,
                ..Default::default()
            },
        )
        .unwrap();
        let con = constrained_bounds(&set, &no_repeat_overrun, &Default::default()).unwrap();
        // ρ_C ≤ ρ: the constrained lower bound cannot exceed the
        // unconstrained upper bound.
        assert!(con.lower <= free.upper + 1e-9);
    }

    #[test]
    fn empty_transition_language_rejected() {
        let set = MatrixSet::new(vec![Matrix::identity(2), Matrix::identity(2)]).unwrap();
        assert!(matches!(
            constrained_bounds(&set, &|_, _| false, &Default::default()),
            Err(Error::InvalidSet(_))
        ));
    }

    #[test]
    fn depth_zero_rejected() {
        let set = MatrixSet::new(vec![Matrix::identity(2)]).unwrap();
        assert!(constrained_bounds(
            &set,
            &|_, _| true,
            &ConstrainedOptions {
                max_depth: 0,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn weakly_hard_window_constraint() {
        // "At most 1 overrun in any 3 consecutive jobs" encoded on pairs is
        // stronger than no-repeat; sanity: bounds remain valid and at most
        // the no-repeat bounds.
        let nominal = Matrix::diag(&[0.5, 0.4]);
        let overrun = Matrix::diag(&[1.2, 1.1]);
        let set = MatrixSet::new(vec![nominal, overrun]).unwrap();
        let no_repeat = constrained_bounds(&set, &no_repeat_overrun, &Default::default()).unwrap();
        assert!(no_repeat.certifies_stable());
    }
}
