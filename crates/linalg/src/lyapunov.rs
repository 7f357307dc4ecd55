//! Discrete-time Lyapunov equation solvers.

use crate::schur::spectral_radius;
use crate::{Error, Matrix, Result};

/// Solves the discrete Lyapunov equation `Aᵀ X A − X + Q = 0` by the
/// squared Smith (doubling) iteration.
///
/// Requires `ρ(A) < 1`; the iteration
/// `X_{k+1} = X_k + A_kᵀ X_k A_k`, `A_{k+1} = A_k²` converges quadratically
/// under that assumption. The result is symmetrised before returning.
///
/// # Errors
///
/// * [`Error::NotSquare`] / [`Error::DimensionMismatch`] on bad shapes.
/// * [`Error::NoConvergence`] when `ρ(A) ≥ 1` (the iterates diverge).
///
/// # Example
///
/// ```
/// use overrun_linalg::{solve_discrete_lyapunov, Matrix};
///
/// # fn main() -> Result<(), overrun_linalg::Error> {
/// let a = Matrix::diag(&[0.5, -0.3]);
/// let q = Matrix::identity(2);
/// let x = solve_discrete_lyapunov(&a, &q)?;
/// // residual AᵀXA − X + Q ≈ 0
/// let res = a.transpose() * &x * &a - &x + &q;
/// assert!(res.max_abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn solve_discrete_lyapunov(a: &Matrix, q: &Matrix) -> Result<Matrix> {
    check_lyap_shapes(a, q)?;
    let mut x = q.clone();
    let mut ak = a.clone();
    let tol = 1e-15 * q.max_abs().max(1.0);
    for _ in 0..120 {
        let step = ak.transpose().matmul(&x)?.matmul(&ak)?;
        let step_norm = step.max_abs();
        x = x.add_mat(&step)?;
        if !x.is_finite() {
            return Err(Error::NoConvergence {
                algorithm: "smith_lyapunov",
                iterations: 120,
            });
        }
        ak = ak.matmul(&ak)?;
        if step_norm <= tol {
            x.symmetrize();
            return Ok(x);
        }
    }
    Err(Error::NoConvergence {
        algorithm: "smith_lyapunov",
        iterations: 120,
    })
}

/// Solves `Aᵀ X A − X + Q = 0` directly via the Kronecker vectorisation
/// `(I − Aᵀ ⊗ Aᵀ) vec(X) = vec(Q)`.
///
/// Exact (up to the linear solve) for any `A` with no reciprocal eigenvalue
/// pairs, but costs `O(n⁶)` — intended for small matrices and as an oracle
/// to cross-check the Smith iteration in tests.
///
/// # Errors
///
/// * [`Error::NotSquare`] / [`Error::DimensionMismatch`] on bad shapes.
/// * [`Error::Singular`] when `λᵢ λⱼ = 1` for some eigenvalue pair.
pub fn solve_discrete_lyapunov_direct(a: &Matrix, q: &Matrix) -> Result<Matrix> {
    check_lyap_shapes(a, q)?;
    let n = a.rows();
    let at = a.transpose();
    // vec(Aᵀ X A) = (Aᵀ ⊗ Aᵀ) vec(X).
    let kron = at.kron(&at);
    let sys = Matrix::identity(n * n).sub_mat(&kron)?;
    let x_vec = sys.solve(&q.vectorize())?;
    let mut x = Matrix::from_vectorized(&x_vec, n, n)?;
    x.symmetrize();
    Ok(x)
}

fn check_lyap_shapes(a: &Matrix, q: &Matrix) -> Result<()> {
    if !a.is_square() {
        return Err(Error::NotSquare {
            op: "lyapunov",
            dims: a.shape(),
        });
    }
    if q.shape() != a.shape() {
        return Err(Error::DimensionMismatch {
            op: "lyapunov",
            lhs: a.shape(),
            rhs: q.shape(),
        });
    }
    Ok(())
}

/// Returns `true` when `a` is Schur stable (`ρ(A) < 1`).
///
/// # Errors
///
/// Propagates eigenvalue-computation errors.
pub fn is_schur_stable(a: &Matrix) -> Result<bool> {
    Ok(spectral_radius(a)? < 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual(a: &Matrix, q: &Matrix, x: &Matrix) -> f64 {
        (a.transpose() * x * a - x + q).max_abs()
    }

    #[test]
    fn smith_scalar_closed_form() {
        // aᵀxa − x + q = 0 ⇒ x = q / (1 − a²)
        let a = Matrix::from_rows(&[&[0.8]]).unwrap();
        let q = Matrix::from_rows(&[&[1.0]]).unwrap();
        let x = solve_discrete_lyapunov(&a, &q).unwrap();
        assert!((x[(0, 0)] - 1.0 / (1.0 - 0.64)).abs() < 1e-12);
    }

    #[test]
    fn smith_matches_direct() {
        let a =
            Matrix::from_rows(&[&[0.5, 0.2, 0.0], &[-0.1, 0.4, 0.3], &[0.0, -0.2, 0.6]]).unwrap();
        let q = Matrix::identity(3);
        let x1 = solve_discrete_lyapunov(&a, &q).unwrap();
        let x2 = solve_discrete_lyapunov_direct(&a, &q).unwrap();
        assert!(x1.approx_eq(&x2, 1e-10, 1e-10));
        assert!(residual(&a, &q, &x1) < 1e-11);
    }

    #[test]
    // This test drives a deliberate overflow to assert the graceful
    // NoConvergence error; under `sanitize` that overflow is (correctly)
    // a poison panic at the producing op, so the test does not apply.
    #[cfg_attr(
        feature = "sanitize",
        ignore = "deliberate overflow panics under sanitize"
    )]
    fn smith_diverges_for_unstable() {
        let a = Matrix::diag(&[1.5, 0.5]);
        assert!(matches!(
            solve_discrete_lyapunov(&a, &Matrix::identity(2)),
            Err(Error::NoConvergence { .. })
        ));
    }

    #[test]
    fn direct_solver_singular_case() {
        // a has eigenvalues 2 and 0.5 ⇒ λ₁λ₂ = 1 ⇒ singular Lyapunov operator
        let a = Matrix::diag(&[2.0, 0.5]);
        assert!(matches!(
            solve_discrete_lyapunov_direct(&a, &Matrix::identity(2)),
            Err(Error::Singular)
        ));
    }

    #[test]
    fn solution_is_spd_for_spd_q() {
        let a = Matrix::from_rows(&[&[0.3, 0.5], &[-0.5, 0.3]]).unwrap();
        let q = Matrix::identity(2);
        let x = solve_discrete_lyapunov(&a, &q).unwrap();
        assert!(crate::cholesky::is_spd(&x));
        // Lyapunov solution dominates Q for a stable A: X ≥ Q
        assert!(crate::cholesky::is_spd(
            &(&x - &q + Matrix::identity(2) * 1e-12)
        ));
    }

    #[test]
    fn shape_validation() {
        let a = Matrix::identity(2);
        assert!(solve_discrete_lyapunov(&a, &Matrix::identity(3)).is_err());
        assert!(solve_discrete_lyapunov(&Matrix::zeros(2, 3), &a).is_err());
        assert!(solve_discrete_lyapunov_direct(&Matrix::zeros(2, 3), &a).is_err());
    }

    #[test]
    fn is_schur_stable_works() {
        assert!(is_schur_stable(&Matrix::diag(&[0.9, -0.9])).unwrap());
        assert!(!is_schur_stable(&Matrix::diag(&[1.1, 0.0])).unwrap());
    }
}
