//! Discrete algebraic Riccati equation (DARE) and LQR gains.

use crate::{Error, Matrix, Result};

/// Result of solving a discrete algebraic Riccati equation.
#[derive(Debug, Clone)]
pub struct DareSolution {
    /// The stabilising solution `X = Xᵀ ≥ 0`.
    pub x: Matrix,
    /// Number of doubling iterations used.
    pub iterations: usize,
}

/// Solves the discrete algebraic Riccati equation
///
/// ```text
/// AᵀXA − X − AᵀXB (R + BᵀXB)⁻¹ BᵀXA + Q = 0
/// ```
///
/// with the **structure-preserving doubling algorithm** (SDA). Convergence
/// is quadratic under the standard assumptions (`(A, B)` stabilisable,
/// `(A, Q^{1/2})` detectable, `R ≻ 0`).
///
/// # Errors
///
/// * [`Error::NotSquare`] / [`Error::DimensionMismatch`] on bad shapes.
/// * [`Error::Singular`] when `R` or an inner `(I + G H)` factor is
///   singular.
/// * [`Error::NoConvergence`] when the iteration stalls (typically a
///   non-stabilisable pair).
///
/// # Example
///
/// ```
/// use overrun_linalg::{solve_dare, Matrix};
///
/// # fn main() -> Result<(), overrun_linalg::Error> {
/// // Scalar DARE with a=b=q=r=1 has the golden ratio as solution.
/// let one = Matrix::identity(1);
/// let sol = solve_dare(&one, &one, &one, &one)?;
/// assert!((sol.x[(0, 0)] - (1.0 + 5.0_f64.sqrt()) / 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn solve_dare(a: &Matrix, b: &Matrix, q: &Matrix, r: &Matrix) -> Result<DareSolution> {
    let n = a.rows();
    if !a.is_square() {
        return Err(Error::NotSquare {
            op: "dare",
            dims: a.shape(),
        });
    }
    if b.rows() != n {
        return Err(Error::DimensionMismatch {
            op: "dare(B)",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    if q.shape() != (n, n) {
        return Err(Error::DimensionMismatch {
            op: "dare(Q)",
            lhs: a.shape(),
            rhs: q.shape(),
        });
    }
    let m = b.cols();
    if r.shape() != (m, m) {
        return Err(Error::DimensionMismatch {
            op: "dare(R)",
            lhs: (m, m),
            rhs: r.shape(),
        });
    }

    // G = B R⁻¹ Bᵀ
    let r_inv_bt = r.solve(&b.transpose())?;
    let mut g = b.matmul(&r_inv_bt)?;
    g.symmetrize();
    let mut h = q.clone();
    h.symmetrize();
    let mut a_k = a.clone();

    let eye = Matrix::identity(n);
    let mut iterations = 0;
    let mut converged = false;
    for it in 0..100 {
        iterations = it + 1;
        // W = I + G H; all three updates share W⁻¹.
        let w = eye.add_mat(&g.matmul(&h)?)?;
        let lu = crate::Lu::new(&w)?;
        let w_inv_a = lu.solve(&a_k)?; // W⁻¹ A_k
        let w_inv_g = lu.solve(&g)?; // W⁻¹ G_k

        let a_next = a_k.matmul(&w_inv_a)?;
        let mut g_next = g.add_mat(&a_k.matmul(&w_inv_g)?.matmul(&a_k.transpose())?)?;
        let mut h_next = h.add_mat(&a_k.transpose().matmul(&h.matmul(&w_inv_a)?)?)?;
        g_next.symmetrize();
        h_next.symmetrize();

        let delta = h_next.sub_mat(&h)?.max_abs();
        let scale = h_next.max_abs().max(1.0);
        a_k = a_next;
        g = g_next;
        h = h_next;
        if !h.is_finite() {
            return Err(Error::NoConvergence {
                algorithm: "sda_dare",
                iterations,
            });
        }
        if delta <= 1e-14 * scale {
            converged = true;
            break;
        }
    }
    if !converged {
        return Err(Error::NoConvergence {
            algorithm: "sda_dare",
            iterations,
        });
    }

    Ok(DareSolution { x: h, iterations })
}

/// Discrete-time LQR: returns the gain `K` minimising
/// `Σ xᵀQx + uᵀRu` for `x[k+1] = A x[k] + B u[k]`, `u = −K x`, with the
/// full [`DareSolution`] (whose `x` is the cost matrix `X`) so callers can
/// surface the doubling iteration count without re-solving.
///
/// # Errors
///
/// Propagates [`solve_dare`] errors; additionally [`Error::Singular`] if
/// `R + BᵀXB` is singular.
///
/// # Example
///
/// ```
/// use overrun_linalg::{dlqr_solution, spectral_radius, Matrix};
///
/// # fn main() -> Result<(), overrun_linalg::Error> {
/// let a = Matrix::from_rows(&[&[1.0, 0.1], &[0.0, 1.0]])?;
/// let b = Matrix::col_vec(&[0.005, 0.1]);
/// let (k, _sol) = dlqr_solution(&a, &b, &Matrix::identity(2), &Matrix::identity(1))?;
/// let closed = &a - &b * &k;
/// assert!(spectral_radius(&closed)? < 1.0);
/// # Ok(())
/// # }
/// ```
pub fn dlqr_solution(
    a: &Matrix,
    b: &Matrix,
    q: &Matrix,
    r: &Matrix,
) -> Result<(Matrix, DareSolution)> {
    let sol = solve_dare(a, b, q, r)?;
    let x = &sol.x;
    let btxb = b.transpose().matmul(&x.matmul(b)?)?;
    let btxa = b.transpose().matmul(&x.matmul(a)?)?;
    let k = r.add_mat(&btxb)?.solve(&btxa)?;
    Ok((k, sol))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spectral_radius;

    // Tests return `Result` and use `?` instead of `unwrap()`, so a
    // failure reports the error that caused it.
    type TestResult = std::result::Result<(), Error>;

    /// Max-abs residual of the DARE at a candidate solution `x`.
    fn dare_residual(a: &Matrix, b: &Matrix, q: &Matrix, r: &Matrix, x: &Matrix) -> Result<f64> {
        let atxa = a.transpose().matmul(&x.matmul(a)?)?;
        let btxb = b.transpose().matmul(&x.matmul(b)?)?;
        let btxa = b.transpose().matmul(&x.matmul(a)?)?;
        let inner = r.add_mat(&btxb)?;
        let term = btxa.transpose().matmul(&inner.solve(&btxa)?)?;
        Ok(atxa.sub_mat(x)?.sub_mat(&term)?.add_mat(q)?.max_abs())
    }

    #[test]
    fn scalar_golden_ratio() -> TestResult {
        let one = Matrix::identity(1);
        let sol = solve_dare(&one, &one, &one, &one)?;
        let golden = (1.0 + 5.0_f64.sqrt()) / 2.0;
        assert!((sol.x[(0, 0)] - golden).abs() < 1e-12);
        assert!(dare_residual(&one, &one, &one, &one, &sol.x)? < 1e-12);
        Ok(())
    }

    #[test]
    fn scalar_closed_form_general() -> TestResult {
        // b²x² + x(r − a²r − qb²) − qr = 0 with positive root taken.
        let (a, b, q, r) = (1.4_f64, 0.7, 2.0, 0.5);
        let am = Matrix::from_rows(&[&[a]])?;
        let bm = Matrix::from_rows(&[&[b]])?;
        let qm = Matrix::from_rows(&[&[q]])?;
        let rm = Matrix::from_rows(&[&[r]])?;
        let sol = solve_dare(&am, &bm, &qm, &rm)?;
        let bb = b * b;
        let coeff = r - a * a * r - q * bb;
        let x_expected = (-coeff + (coeff * coeff + 4.0 * bb * q * r).sqrt()) / (2.0 * bb);
        assert!((sol.x[(0, 0)] - x_expected).abs() < 1e-10 * x_expected);
        Ok(())
    }

    #[test]
    fn dlqr_stabilizes_double_integrator() -> TestResult {
        let h = 0.1;
        let a = Matrix::from_rows(&[&[1.0, h], &[0.0, 1.0]])?;
        let b = Matrix::col_vec(&[h * h / 2.0, h]);
        let (k, sol) = dlqr_solution(&a, &b, &Matrix::identity(2), &Matrix::identity(1))?;
        let closed = &a - &b * &k;
        assert!(spectral_radius(&closed)? < 1.0);
        assert!(crate::cholesky::is_spd(&sol.x));
        Ok(())
    }

    #[test]
    fn dlqr_stabilizes_unstable_plant() -> TestResult {
        let a = Matrix::from_rows(&[&[1.2, 0.3], &[0.0, 1.5]])?;
        let b = Matrix::col_vec(&[0.0, 1.0]);
        let (k, _) = dlqr_solution(&a, &b, &Matrix::identity(2), &(Matrix::identity(1) * 0.1))?;
        let closed = &a - &b * &k;
        assert!(spectral_radius(&closed)? < 1.0);
        Ok(())
    }

    #[test]
    fn dare_residual_small_on_mimo() -> TestResult {
        let a = Matrix::from_rows(&[&[0.9, 0.2, 0.0], &[0.0, 1.1, 0.1], &[0.1, 0.0, 0.8]])?;
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[0.5, 0.5]])?;
        let q = Matrix::diag(&[1.0, 2.0, 0.5]);
        let r = Matrix::diag(&[1.0, 0.5]);
        let sol = solve_dare(&a, &b, &q, &r)?;
        let residual = dare_residual(&a, &b, &q, &r, &sol.x)?;
        assert!(residual < 1e-9, "residual = {residual}");
        Ok(())
    }

    #[test]
    fn dare_cost_interpretation() -> TestResult {
        // For u = −Kx the achieved cost xᵀX x accumulates the stage costs
        // along the closed loop: X solves the Lyapunov equation
        // A_clᵀ X A_cl + Q + KᵀRK = X, whose solution is unique because
        // A_cl is Schur stable.
        let a = Matrix::from_rows(&[&[1.0, 0.1], &[0.0, 1.0]])?;
        let b = Matrix::col_vec(&[0.005, 0.1]);
        let q = Matrix::identity(2);
        let r = Matrix::identity(1);
        let (k, sol) = dlqr_solution(&a, &b, &q, &r)?;
        let (acl, x) = (&a - &b * &k, &sol.x);
        assert!(spectral_radius(&acl)? < 1.0);
        let stage = &q + &k.transpose() * &r * &k;
        let residual = acl.transpose() * x * &acl + stage - x;
        assert!(
            residual.max_abs() <= 1e-8,
            "residual {}",
            residual.max_abs()
        );
        Ok(())
    }

    #[test]
    fn dare_shape_validation() {
        let a = Matrix::identity(2);
        let b = Matrix::col_vec(&[1.0, 0.0]);
        let q = Matrix::identity(2);
        let r = Matrix::identity(1);
        assert!(solve_dare(&Matrix::zeros(2, 3), &b, &q, &r).is_err());
        assert!(solve_dare(&a, &Matrix::col_vec(&[1.0]), &q, &r).is_err());
        assert!(solve_dare(&a, &b, &Matrix::identity(3), &r).is_err());
        assert!(solve_dare(&a, &b, &q, &Matrix::identity(2)).is_err());
    }

    #[test]
    // This test drives a deliberate overflow to assert the graceful
    // NoConvergence error; under `sanitize` that overflow is (correctly)
    // a poison panic at the producing op, so the test does not apply.
    #[cfg_attr(
        feature = "sanitize",
        ignore = "deliberate overflow panics under sanitize"
    )]
    fn dare_unstabilizable_fails() {
        // Unstable mode not reachable from B: no stabilising solution.
        let a = Matrix::diag(&[2.0, 0.5]);
        let b = Matrix::col_vec(&[0.0, 1.0]);
        let (q, r) = (Matrix::identity(2), Matrix::identity(1));
        let res = solve_dare(&a, &b, &q, &r);
        assert!(
            res.is_err()
                || res.is_ok_and(
                    |sol| dare_residual(&a, &b, &q, &r, &sol.x).map_or(true, |e| e > 1e-6)
                )
        );
    }
}
