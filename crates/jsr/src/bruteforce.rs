//! Brute-force Gel'fand bounds (paper Eq. 12).

use overrun_linalg::{norm_2, spectral_radius, Matrix};

use crate::screen::{scale_pow, scaled_cheap_bounds, ScreenCounters, ScreenStats};
use crate::set::normalize_log;
use crate::{deflate, precondition, Error, JsrBounds, MatrixSet, Result};

/// Options for [`bruteforce_bounds`].
#[derive(Debug, Clone)]
pub struct BruteforceOptions {
    /// Maximum product length `m` explored (all `q^ℓ` products for every
    /// `ℓ ≤ m` are visited). Default: 8.
    pub max_depth: usize,
    /// Hard cap on the total number of products formed. Default: 2_000_000.
    pub max_products: usize,
    /// Deflate repeated coordinates ([`crate::deflate`]) and apply joint
    /// diagonal preconditioning first. Default: `true`.
    pub precondition: bool,
    /// Screen exact Schur evaluations with the O(n²) certified bounds.
    /// Bitwise-neutral: every skipped evaluation is proven unable to move
    /// either level maximum (see [`crate::screen`]). Default: `true`.
    pub screen: bool,
}

impl Default for BruteforceOptions {
    fn default() -> Self {
        BruteforceOptions {
            max_depth: 8,
            max_products: 2_000_000,
            precondition: true,
            screen: true,
        }
    }
}

/// Computes the two-sided Gel'fand–Berger–Wang bounds of paper Eq. (12):
///
/// ```text
/// max_{ℓ≤m} max_σ ρ(Ω_σ)^{1/ℓ}  ≤  ρ(A)  ≤  min_{ℓ≤m} max_σ ‖Ω_σ‖^{1/ℓ}
/// ```
///
/// by breadth-first enumeration of **all** products `Ω_σ` of length up to
/// `opts.max_depth`. Exact (no pruning), hence exponential in the depth —
/// use [`crate::gripenberg`] for tight bounds on larger alphabets.
///
/// Upper bounds are only taken from *fully enumerated* product lengths, so
/// the result is certified even when the product budget truncates the
/// deepest level.
///
/// # Errors
///
/// * [`Error::InvalidOptions`] on a zero depth.
/// * [`Error::BudgetExhausted`] if `max_products` is hit before even the
///   first level completes.
/// * [`Error::Linalg`] on numerical failure.
///
/// # Example
///
/// ```
/// use overrun_jsr::{bruteforce_bounds, BruteforceOptions, MatrixSet};
/// use overrun_linalg::Matrix;
///
/// # fn main() -> Result<(), overrun_jsr::Error> {
/// // Pair of commuting diagonal matrices: JSR = max spectral radius = 0.9.
/// let set = MatrixSet::new(vec![Matrix::diag(&[0.9, 0.1]), Matrix::diag(&[0.2, 0.8])])?;
/// let b = bruteforce_bounds(&set, &BruteforceOptions::default())?;
/// assert!(b.lower <= 0.9 + 1e-9 && 0.9 <= b.upper + 1e-9);
/// assert!(b.gap() < 0.05);
/// # Ok(())
/// # }
/// ```
pub fn bruteforce_bounds(set: &MatrixSet, opts: &BruteforceOptions) -> Result<JsrBounds> {
    Ok(bruteforce_bounds_with_stats(set, opts)?.0)
}

/// Like [`bruteforce_bounds`], additionally returning the screening
/// statistics of the enumeration.
///
/// The returned bounds are bit-identical to [`bruteforce_bounds`] under the
/// same options, with screening on or off: skips happen only where the
/// exact value provably could not move a level maximum. Skip decisions on
/// the lower-bound side use the gate `max(lower, level_max_rho)` — a value
/// at or below it folds into `level_max_rho` without affecting the level's
/// `lower = max(lower, level_max_rho)` update or any later gate.
///
/// # Errors
///
/// Same as [`bruteforce_bounds`].
pub fn bruteforce_bounds_with_stats(
    set: &MatrixSet,
    opts: &BruteforceOptions,
) -> Result<(JsrBounds, ScreenStats)> {
    if opts.max_depth == 0 {
        return Err(Error::InvalidOptions("max_depth must be >= 1".into()));
    }
    let work_set;
    let set = if opts.precondition {
        work_set = precondition(&*deflate(set)?)?.0;
        &work_set
    } else {
        set
    };

    let mut lower = 0.0_f64;
    let mut upper = f64::INFINITY;
    let mut products_formed = 0usize;
    let counters = ScreenCounters::default();
    let mut lb_depth = 0usize;

    // Level 0: the empty product. Products are stored normalised with their
    // scale in log space so deep levels cannot overflow.
    let mut level: Vec<(Matrix, f64)> = vec![(Matrix::identity(set.dim()), 0.0)];

    for depth in 1..=opts.max_depth {
        let needed = level.len().saturating_mul(set.len());
        let after_level = products_formed.saturating_add(needed);
        if after_level > opts.max_products {
            // Cannot complete this level; stop with what we have.
            if depth == 1 {
                return Err(Error::BudgetExhausted {
                    lower,
                    upper: f64::INFINITY,
                });
            }
            break;
        }
        // A level is terminal when its children can never be consumed: the
        // depth cap is reached, or the next level's product count (every
        // child times the alphabet) would trip the budget check above.
        let terminal = depth == opts.max_depth
            || after_level.saturating_add(needed.saturating_mul(set.len())) > opts.max_products;
        let inv_depth = 1.0 / depth as f64;
        // Depth 1 multiplies by the identity: `norm_2(A·I)` is bit-identical
        // to the cached `norm_2(A)` held by the set.
        let cached = depth == 1;
        let mut next = if terminal {
            Vec::new()
        } else {
            Vec::with_capacity(needed)
        };
        let mut level_max_rho = 0.0_f64;
        let mut level_max_norm = 0.0_f64;
        for (p, log_scale) in &level {
            for (a, &base_nrm) in set.iter().zip(set.norms()) {
                let q = a.matmul(p)?;
                products_formed += 1;
                counters.node();
                let gate = lower.max(level_max_rho);
                let (nrm_hi, rho_hi) = if opts.screen {
                    scaled_cheap_bounds(&q, *log_scale, inv_depth)
                } else {
                    (f64::INFINITY, f64::INFINITY)
                };
                // On a terminal level children are never consumed, so a node
                // whose cheap bounds cannot move either level maximum is a
                // provable no-op and can be dropped before the exact norm.
                // The eigenvalue solve is a no-op either when the radius
                // bound folds below the gate or when `nrm_hi ≤ lower` makes
                // the `norm_pow > lower` gate below provably false.
                if !cached
                    && terminal
                    && nrm_hi <= level_max_norm
                    && (rho_hi <= gate || nrm_hi <= lower)
                {
                    counters.skip_norm();
                    counters.skip_eig();
                    continue;
                }
                let nrm_q = if cached {
                    counters.cached_norm();
                    base_nrm
                } else {
                    counters.exact_norm();
                    norm_2(&q)
                };
                let norm_pow = scale_pow(nrm_q, *log_scale, inv_depth);
                level_max_norm = level_max_norm.max(norm_pow);
                // ρ(Q) ≤ ‖Q‖: the eigenvalue solve can only raise the lower
                // bound when the norm-based value exceeds it.
                if norm_pow > lower {
                    if rho_hi <= gate {
                        counters.skip_eig();
                    } else {
                        counters.exact_eig();
                        let rho_q = spectral_radius(&q)?;
                        level_max_rho = level_max_rho.max(scale_pow(rho_q, *log_scale, inv_depth));
                    }
                }
                if !terminal {
                    let (scaled, extra) = normalize_log(q, nrm_q);
                    next.push((scaled, log_scale + extra));
                }
            }
        }
        let new_lower = lower.max(level_max_rho);
        if new_lower > lower {
            lb_depth = depth;
        }
        lower = new_lower;
        upper = upper.min(if level_max_norm > 0.0 {
            level_max_norm
        } else {
            0.0
        });
        if terminal {
            break;
        }
        level = next;
    }

    Ok((JsrBounds { lower, upper }, counters.snapshot(lb_depth)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(depth: usize) -> BruteforceOptions {
        BruteforceOptions {
            max_depth: depth,
            ..BruteforceOptions::default()
        }
    }

    #[test]
    fn singleton_equals_spectral_radius() {
        let a = Matrix::from_rows(&[&[0.3, 0.8], &[-0.2, 0.5]]).unwrap();
        let rho = spectral_radius(&a).unwrap();
        let set = MatrixSet::new(vec![a]).unwrap();
        let b = bruteforce_bounds(&set, &opts(10)).unwrap();
        assert!(b.lower <= rho + 1e-9);
        assert!(rho <= b.upper + 1e-9);
        assert!(b.gap() < 0.1, "gap = {}", b.gap());
    }

    #[test]
    fn zero_matrices_have_zero_jsr() {
        let set = MatrixSet::new(vec![Matrix::zeros(2, 2), Matrix::zeros(2, 2)]).unwrap();
        let b = bruteforce_bounds(&set, &opts(3)).unwrap();
        assert_eq!(b.lower, 0.0);
        assert!(b.upper < 1e-12);
    }

    #[test]
    fn known_pair_with_golden_ratio_jsr() {
        // For A1 = [1 1; 0 1], A2 = [1 0; 1 1] the JSR is the golden ratio
        // φ = (1+√5)/2 = ρ(A1·A2)^{1/2}.
        let a1 = Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]]).unwrap();
        let a2 = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0]]).unwrap();
        let set = MatrixSet::new(vec![a1, a2]).unwrap();
        let b = bruteforce_bounds(&set, &opts(12)).unwrap();
        let phi = (1.0 + 5.0_f64.sqrt()) / 2.0;
        assert!(b.lower <= phi + 1e-9, "lower {} vs phi {phi}", b.lower);
        assert!(phi <= b.upper + 1e-9, "upper {} vs phi {phi}", b.upper);
        assert!((b.lower - phi).abs() < 1e-6, "lower should hit phi exactly");
    }

    #[test]
    fn budget_truncation_keeps_completed_levels() {
        let set = MatrixSet::new(vec![Matrix::identity(2), Matrix::identity(2) * 0.5]).unwrap();
        // Budget allows level 1 and 2 only (2 + 4 = 6 < 10 < 6 + 8).
        let b = bruteforce_bounds(
            &set,
            &BruteforceOptions {
                max_depth: 20,
                max_products: 10,
                precondition: false,
                screen: true,
            },
        )
        .unwrap();
        assert!((b.lower - 1.0).abs() < 1e-12);
        assert!(b.upper >= 1.0 - 1e-12);
        assert!(b.upper.is_finite());
    }

    #[test]
    fn budget_too_small_for_first_level() {
        let set = MatrixSet::new(vec![Matrix::identity(2), Matrix::identity(2)]).unwrap();
        let res = bruteforce_bounds(
            &set,
            &BruteforceOptions {
                max_depth: 3,
                max_products: 1,
                precondition: false,
                screen: true,
            },
        );
        assert!(matches!(res, Err(Error::BudgetExhausted { .. })));
    }

    #[test]
    fn depth_zero_rejected() {
        let set = MatrixSet::new(vec![Matrix::identity(2)]).unwrap();
        assert!(matches!(
            bruteforce_bounds(&set, &opts(0)),
            Err(Error::InvalidOptions(_))
        ));
    }

    #[test]
    fn deeper_depth_never_loosens_bounds() {
        let a1 = Matrix::from_rows(&[&[0.6, 0.4], &[-0.2, 0.7]]).unwrap();
        let a2 = Matrix::from_rows(&[&[0.5, -0.3], &[0.4, 0.6]]).unwrap();
        let set = MatrixSet::new(vec![a1, a2]).unwrap();
        let b3 = bruteforce_bounds(&set, &opts(3)).unwrap();
        let b6 = bruteforce_bounds(&set, &opts(6)).unwrap();
        assert!(b6.lower >= b3.lower - 1e-12);
        assert!(b6.upper <= b3.upper + 1e-12);
        assert!(b6.lower <= b6.upper + 1e-12);
    }

    #[test]
    fn screening_is_bitwise_neutral_and_skips_work() {
        let a1 = Matrix::from_rows(&[&[0.6, 0.4], &[-0.2, 0.7]]).unwrap();
        let a2 = Matrix::from_rows(&[&[0.5, -0.3], &[0.4, 0.6]]).unwrap();
        let a3 = Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]]).unwrap();
        let set = MatrixSet::new(vec![a1, a2, a3]).unwrap();
        let on = BruteforceOptions {
            max_depth: 7,
            ..BruteforceOptions::default()
        };
        let off = BruteforceOptions {
            screen: false,
            ..on.clone()
        };
        let (b_on, s_on) = bruteforce_bounds_with_stats(&set, &on).unwrap();
        let (b_off, s_off) = bruteforce_bounds_with_stats(&set, &off).unwrap();
        assert_eq!(b_on.lower.to_bits(), b_off.lower.to_bits());
        assert_eq!(b_on.upper.to_bits(), b_off.upper.to_bits());
        assert_eq!(s_on.lb_depth, s_off.lb_depth);
        assert_eq!(s_on.nodes, s_off.nodes, "screening must not prune nodes");
        assert_eq!(s_off.schur_skipped(), 0);
        assert!(
            s_on.schur_evals() < s_off.schur_evals(),
            "screening saved nothing: on={s_on} off={s_off}"
        );
        // Depth-1 norms come from the set cache in both modes.
        assert_eq!(s_on.cached_norms, 3);
        assert_eq!(s_off.cached_norms, 3);
    }

    #[test]
    fn preconditioning_only_affects_upper_bound_tightness() {
        let a = Matrix::from_rows(&[&[0.5, 1e5], &[1e-6, 0.4]]).unwrap();
        let set = MatrixSet::new(vec![a]).unwrap();
        let with = bruteforce_bounds(&set, &opts(4)).unwrap();
        let without = bruteforce_bounds(
            &set,
            &BruteforceOptions {
                max_depth: 4,
                precondition: false,
                ..BruteforceOptions::default()
            },
        )
        .unwrap();
        // Lower bounds are spectral and scale-invariant.
        assert!((with.lower - without.lower).abs() < 1e-6 * with.lower.max(1.0));
        // Preconditioned upper bound must be at least as tight.
        assert!(with.upper <= without.upper + 1e-9);
    }
}
