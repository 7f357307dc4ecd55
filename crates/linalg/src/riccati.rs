//! Discrete algebraic Riccati equation (DARE), LQR and Kalman gains.

use crate::{Error, Matrix, Result};

/// Result of solving a discrete algebraic Riccati equation.
#[derive(Debug, Clone)]
pub struct DareSolution {
    /// The stabilising solution `X = Xᵀ ≥ 0`.
    pub x: Matrix,
    /// Number of doubling iterations used.
    pub iterations: usize,
    /// Max-abs residual of `AᵀXA − X − AᵀXB(R+BᵀXB)⁻¹BᵀXA + Q`.
    pub residual: f64,
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

    let residual = dare_residual(a, b, q, r, &h)?;
    Ok(DareSolution {
        x: h,
        iterations,
        residual,
    })
}

/// Max-abs residual of the DARE at a candidate solution `x`.
fn dare_residual(a: &Matrix, b: &Matrix, q: &Matrix, r: &Matrix, x: &Matrix) -> Result<f64> {
    let atxa = a.transpose().matmul(&x.matmul(a)?)?;
    let btxb = b.transpose().matmul(&x.matmul(b)?)?;
    let btxa = b.transpose().matmul(&x.matmul(a)?)?;
    let inner = r.add_mat(&btxb)?;
    let term = btxa.transpose().matmul(&inner.solve(&btxa)?)?;
    Ok(atxa.sub_mat(x)?.sub_mat(&term)?.add_mat(q)?.max_abs())
}

/// Discrete-time LQR: returns the gain `K` minimising
/// `Σ xᵀQx + uᵀRu` for `x[k+1] = A x[k] + B u[k]`, `u = −K x`.
///
/// # Errors
///
/// Propagates [`solve_dare`] errors; additionally [`Error::Singular`] if
/// `R + BᵀXB` is singular.
///
/// # Example
///
/// ```
/// use overrun_linalg::{dlqr, spectral_radius, Matrix};
///
/// # fn main() -> Result<(), overrun_linalg::Error> {
/// let a = Matrix::from_rows(&[&[1.0, 0.1], &[0.0, 1.0]])?;
/// let b = Matrix::col_vec(&[0.005, 0.1]);
/// let (k, _x) = dlqr(&a, &b, &Matrix::identity(2), &Matrix::identity(1))?;
/// let closed = &a - &b * &k;
/// assert!(spectral_radius(&closed)? < 1.0);
/// # Ok(())
/// # }
/// ```
pub fn dlqr(a: &Matrix, b: &Matrix, q: &Matrix, r: &Matrix) -> Result<(Matrix, Matrix)> {
    let (k, sol) = dlqr_solution(a, b, q, r)?;
    Ok((k, sol.x))
}

/// Like [`dlqr`], but returning the full [`DareSolution`] alongside the
/// gain so callers can surface solver diagnostics (doubling iterations,
/// final residual) without re-solving. `dlqr(a, b, q, r)` is exactly
/// `dlqr_solution(a, b, q, r)` with the solution reduced to `X` — the
/// numerical path is shared, so the results are bit-identical.
///
/// # Errors
///
/// Same as [`dlqr`].
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

/// Steady-state discrete Kalman gains for
/// `x[k+1] = A x[k] + w`, `y[k] = C x[k] + v` with `cov(w) = W`,
/// `cov(v) = V`.
///
/// Returns `(L, M, P)`:
/// * `L = A P Cᵀ (C P Cᵀ + V)⁻¹` — predictor gain,
/// * `M = P Cᵀ (C P Cᵀ + V)⁻¹` — filter (measurement-update) gain,
/// * `P` — steady-state a-priori error covariance.
///
/// # Errors
///
/// Propagates [`solve_dare`] errors from the dual Riccati equation.
pub fn dkalman(a: &Matrix, c: &Matrix, w: &Matrix, v: &Matrix) -> Result<(Matrix, Matrix, Matrix)> {
    let (l, m, sol) = dkalman_solution(a, c, w, v)?;
    Ok((l, m, sol.x))
}

/// Like [`dkalman`], but returning the full [`DareSolution`] of the dual
/// Riccati equation (whose `x` is the steady-state covariance `P`) so
/// callers can surface solver diagnostics. The numerical path is shared
/// with [`dkalman`], so the gains are bit-identical.
///
/// # Errors
///
/// Same as [`dkalman`].
pub fn dkalman_solution(
    a: &Matrix,
    c: &Matrix,
    w: &Matrix,
    v: &Matrix,
) -> Result<(Matrix, Matrix, DareSolution)> {
    // Dual: DARE with (Aᵀ, Cᵀ, W, V).
    let sol = solve_dare(&a.transpose(), &c.transpose(), w, v)?;
    let p = &sol.x;
    let cpct = c.matmul(&p.matmul(&c.transpose())?)?;
    let s = cpct.add_mat(v)?;
    // M = P Cᵀ S⁻¹ computed as solving Sᵀ Mᵀ = C Pᵀ.
    let m = s.transpose().solve(&c.matmul(&p.transpose())?)?.transpose();
    let l = a.matmul(&m)?;
    Ok((l, m, sol))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spectral_radius;

    // Tests return `Result` and use `?` instead of `unwrap()`, so a
    // failure reports the error that caused it.
    type TestResult = std::result::Result<(), Error>;

    #[test]
    fn scalar_golden_ratio() -> TestResult {
        let one = Matrix::identity(1);
        let sol = solve_dare(&one, &one, &one, &one)?;
        let golden = (1.0 + 5.0_f64.sqrt()) / 2.0;
        assert!((sol.x[(0, 0)] - golden).abs() < 1e-12);
        assert!(sol.residual < 1e-12);
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
        let (k, x) = dlqr(&a, &b, &Matrix::identity(2), &Matrix::identity(1))?;
        let closed = &a - &b * &k;
        assert!(spectral_radius(&closed)? < 1.0);
        assert!(crate::cholesky::is_spd(&x));
        Ok(())
    }

    #[test]
    fn dlqr_stabilizes_unstable_plant() -> TestResult {
        let a = Matrix::from_rows(&[&[1.2, 0.3], &[0.0, 1.5]])?;
        let b = Matrix::col_vec(&[0.0, 1.0]);
        let (k, _) = dlqr(&a, &b, &Matrix::identity(2), &(Matrix::identity(1) * 0.1))?;
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
        assert!(sol.residual < 1e-9, "residual = {}", sol.residual);
        Ok(())
    }

    #[test]
    fn dare_cost_interpretation() -> TestResult {
        // For u = -Kx the achieved cost xᵀX x must equal the Lyapunov
        // accumulation of stage costs along the closed loop.
        let a = Matrix::from_rows(&[&[1.0, 0.1], &[0.0, 1.0]])?;
        let b = Matrix::col_vec(&[0.005, 0.1]);
        let q = Matrix::identity(2);
        let r = Matrix::identity(1);
        let (k, x) = dlqr(&a, &b, &q, &r)?;
        let acl = &a - &b * &k;
        let stage = &q + &k.transpose() * &r * &k;
        let x_lyap = crate::solve_discrete_lyapunov(&acl, &stage)?;
        assert!(x.approx_eq(&x_lyap, 1e-8, 1e-8));
        Ok(())
    }

    #[test]
    fn kalman_gains_consistent() -> TestResult {
        let a = Matrix::from_rows(&[&[0.95, 0.1], &[0.0, 0.9]])?;
        let c = Matrix::row_vec(&[1.0, 0.0]);
        let w = Matrix::diag(&[0.01, 0.02]);
        let v = Matrix::identity(1) * 0.1;
        let (l, m, p) = dkalman(&a, &c, &w, &v)?;
        // L = A M
        assert!(l.approx_eq(&(&a * &m), 1e-12, 1e-12));
        // P solves the filter Riccati equation: P = A P Aᵀ − L(CPCᵀ+V)Lᵀ + W
        let s = &c * &p * c.transpose() + &v;
        let res = &a * &p * a.transpose() - &l * &s * l.transpose() + &w - &p;
        assert!(res.max_abs() < 1e-10, "residual {}", res.max_abs());
        // Estimator A − LC must be stable.
        assert!(spectral_radius(&(&a - &l * &c))? < 1.0);
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
        let res = solve_dare(&a, &b, &Matrix::identity(2), &Matrix::identity(1));
        assert!(res.is_err() || res.is_ok_and(|sol| sol.residual > 1e-6));
    }
}
