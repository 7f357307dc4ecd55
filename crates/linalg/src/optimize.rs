//! Derivative-free optimisation (Nelder–Mead simplex search).
//!
//! Used for small black-box minimisation problems: per-interval PI gain
//! tuning in `overrun-control`.

use crate::{Error, Result};

/// Options for [`nelder_mead`].
#[derive(Debug, Clone)]
pub struct NelderMeadOptions {
    /// Maximum number of objective evaluations. Default: 2000.
    pub max_evals: usize,
    /// Terminate when the simplex spread (max−min objective) falls below
    /// this value. Default: `1e-10`.
    pub f_tol: f64,
    /// Initial simplex step per coordinate. Default: 0.5.
    pub initial_step: f64,
}

impl Default for NelderMeadOptions {
    fn default() -> Self {
        NelderMeadOptions {
            max_evals: 2000,
            f_tol: 1e-10,
            initial_step: 0.5,
        }
    }
}

/// Result of a Nelder–Mead run.
#[derive(Debug, Clone)]
pub struct OptimResult {
    /// Best point found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub f: f64,
    /// Number of objective evaluations used.
    pub evals: usize,
}

/// Minimises `f` starting from `x0` with the Nelder–Mead simplex method
/// (reflection / expansion / contraction / shrink with the standard
/// coefficients 1, 2, ½, ½).
///
/// The objective may return non-finite values (e.g. a divergence penalty);
/// they are treated as `+∞`.
///
/// # Errors
///
/// Returns [`Error::InvalidData`] for an empty starting point.
///
/// # Example
///
/// ```
/// use overrun_linalg::optimize::{nelder_mead, NelderMeadOptions};
///
/// # fn main() -> Result<(), overrun_linalg::Error> {
/// let sphere = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
/// let res = nelder_mead(sphere, &[1.0, -2.0], &NelderMeadOptions::default())?;
/// assert!(res.f < 1e-8);
/// # Ok(())
/// # }
/// ```
pub fn nelder_mead<F: FnMut(&[f64]) -> f64>(
    mut f: F,
    x0: &[f64],
    opts: &NelderMeadOptions,
) -> Result<OptimResult> {
    let n = x0.len();
    if n == 0 {
        return Err(Error::InvalidData("empty starting point".into()));
    }
    let mut evals = 0usize;
    let mut eval = |x: &[f64], evals: &mut usize| -> f64 {
        *evals += 1;
        let v = f(x);
        if v.is_finite() {
            v
        } else {
            f64::INFINITY
        }
    };

    // Initial simplex: x0 plus a perturbation along each axis.
    let mut simplex: Vec<(Vec<f64>, f64)> = Vec::with_capacity(n + 1);
    let fx0 = eval(x0, &mut evals);
    simplex.push((x0.to_vec(), fx0));
    for i in 0..n {
        let mut xi = x0.to_vec();
        let step = if xi[i].abs() > 1e-12 {
            opts.initial_step * xi[i].abs()
        } else {
            opts.initial_step
        };
        xi[i] += step;
        let fv = eval(&xi, &mut evals);
        simplex.push((xi, fv));
    }

    while evals < opts.max_evals {
        simplex.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        let best = simplex[0].1;
        let worst = simplex[n].1;
        if (worst - best).abs() <= opts.f_tol * (1.0 + best.abs()) {
            break;
        }

        // Centroid of all but the worst vertex.
        let mut centroid = vec![0.0; n];
        for (x, _) in simplex.iter().take(n) {
            for (c, v) in centroid.iter_mut().zip(x) {
                *c += v / n as f64;
            }
        }
        let xw = simplex[n].0.clone();
        let second_worst = simplex[n - 1].1;

        let combine = |alpha: f64| -> Vec<f64> {
            centroid
                .iter()
                .zip(&xw)
                .map(|(c, w)| c + alpha * (c - w))
                .collect()
        };

        // Reflection.
        let xr = combine(1.0);
        let fr = eval(&xr, &mut evals);
        if fr < simplex[0].1 {
            // Expansion.
            let xe = combine(2.0);
            let fe = eval(&xe, &mut evals);
            if fe < fr {
                simplex[n] = (xe, fe);
            } else {
                simplex[n] = (xr, fr);
            }
        } else if fr < second_worst {
            simplex[n] = (xr, fr);
        } else {
            // Contraction (outside if reflected improved on the worst,
            // inside otherwise).
            let (xc, fc) = if fr < simplex[n].1 {
                let xc = combine(0.5);
                let fc = eval(&xc, &mut evals);
                (xc, fc)
            } else {
                let xc = combine(-0.5);
                let fc = eval(&xc, &mut evals);
                (xc, fc)
            };
            if fc < simplex[n].1.min(fr) {
                simplex[n] = (xc, fc);
            } else {
                // Shrink toward the best vertex.
                let x_best = simplex[0].0.clone();
                for vertex in simplex.iter_mut().skip(1) {
                    for (v, b) in vertex.0.iter_mut().zip(&x_best) {
                        *v = b + 0.5 * (*v - b);
                    }
                    vertex.1 = eval(&vertex.0.clone(), &mut evals);
                }
            }
        }
    }

    simplex.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    let (x, f_best) = simplex.swap_remove(0);
    Ok(OptimResult {
        x,
        f: f_best,
        evals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimises_quadratic() {
        let res = nelder_mead(
            |x| (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2),
            &[0.0, 0.0],
            &NelderMeadOptions::default(),
        )
        .unwrap();
        assert!((res.x[0] - 3.0).abs() < 1e-4, "{:?}", res.x);
        assert!((res.x[1] + 1.0).abs() < 1e-4, "{:?}", res.x);
    }

    #[test]
    fn minimises_rosenbrock() {
        let rosen = |x: &[f64]| 100.0 * (x[1] - x[0] * x[0]).powi(2) + (1.0 - x[0]).powi(2);
        let res = nelder_mead(
            rosen,
            &[-1.2, 1.0],
            &NelderMeadOptions {
                max_evals: 5000,
                ..NelderMeadOptions::default()
            },
        )
        .unwrap();
        assert!(res.f < 1e-6, "f = {}", res.f);
    }

    #[test]
    fn handles_infinite_regions() {
        // Objective undefined (−∞ barrier) for x < 0: optimiser must stay
        // out and still find the minimum at x = 1.
        let res = nelder_mead(
            |x| {
                if x[0] < 0.0 {
                    f64::NAN
                } else {
                    (x[0] - 1.0).powi(2)
                }
            },
            &[4.0],
            &NelderMeadOptions::default(),
        )
        .unwrap();
        assert!((res.x[0] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn respects_eval_budget() {
        let mut count = 0usize;
        let _ = nelder_mead(
            |x| {
                count += 1;
                x[0] * x[0]
            },
            &[10.0],
            &NelderMeadOptions {
                max_evals: 25,
                ..NelderMeadOptions::default()
            },
        )
        .unwrap();
        // A couple of extra evals can occur within the final iteration.
        assert!(count <= 30, "count = {count}");
    }

    #[test]
    fn empty_input_rejected() {
        assert!(nelder_mead(|_| 0.0, &[], &NelderMeadOptions::default()).is_err());
    }

    #[test]
    fn one_dimensional() {
        let res = nelder_mead(
            |x| (x[0] - 0.5).powi(2) + 2.0,
            &[-3.0],
            &NelderMeadOptions::default(),
        )
        .unwrap();
        assert!((res.x[0] - 0.5).abs() < 1e-4);
        assert!((res.f - 2.0).abs() < 1e-8);
    }
}
