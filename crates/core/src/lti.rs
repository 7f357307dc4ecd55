//! Linear time-invariant plant models (paper Eq. 1 and Eq. 4/5).

use overrun_linalg::{expm_integral, is_spd, Matrix};

use crate::{Error, Result};

/// A continuous-time LTI plant
///
/// ```text
/// ẋ(t) = A x(t) + B u(t)
/// y(t) = C x(t)
/// ```
///
/// (paper Eq. 1). `A ∈ ℝⁿˣⁿ`, `B ∈ ℝⁿˣʳ`, `C ∈ ℝ^{q×n}`.
///
/// # Example
///
/// ```
/// use overrun_control::ContinuousSs;
/// use overrun_linalg::Matrix;
///
/// # fn main() -> Result<(), overrun_control::Error> {
/// let sys = ContinuousSs::new(
///     Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]])?,
///     Matrix::col_vec(&[0.0, 1.0]),
///     Matrix::row_vec(&[1.0, 0.0]),
/// )?;
/// let d = sys.discretize(0.01)?;
/// assert_eq!(d.phi.shape(), (2, 2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ContinuousSs {
    /// State matrix `A`.
    pub a: Matrix,
    /// Input matrix `B`.
    pub b: Matrix,
    /// Output matrix `C`.
    pub c: Matrix,
}

impl ContinuousSs {
    /// Creates and validates a continuous state-space model.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] on shape mismatches.
    pub fn new(a: Matrix, b: Matrix, c: Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(Error::InvalidConfig(format!(
                "A must be square, got {}x{}",
                a.rows(),
                a.cols()
            )));
        }
        if b.rows() != a.rows() {
            return Err(Error::InvalidConfig(format!(
                "B has {} rows but A is {}x{}",
                b.rows(),
                a.rows(),
                a.cols()
            )));
        }
        if c.cols() != a.rows() {
            return Err(Error::InvalidConfig(format!(
                "C has {} cols but A is {}x{}",
                c.cols(),
                a.rows(),
                a.cols()
            )));
        }
        Ok(ContinuousSs { a, b, c })
    }

    /// Number of states `n`.
    pub fn state_dim(&self) -> usize {
        self.a.rows()
    }

    /// Number of inputs `r`.
    pub fn input_dim(&self) -> usize {
        self.b.cols()
    }

    /// Number of outputs `q`.
    pub fn output_dim(&self) -> usize {
        self.c.rows()
    }

    /// Zero-order-hold discretisation over an interval of `h` seconds
    /// (paper Eq. 5): `Φ(h) = e^{Ah}`, `Γ(h) = ∫₀ʰ e^{As} ds · B`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for non-positive or non-finite `h`,
    /// or propagates numerical failures.
    pub fn discretize(&self, h: f64) -> Result<DiscreteSs> {
        if !(h.is_finite() && h > 0.0) {
            return Err(Error::InvalidConfig(format!(
                "sampling interval must be positive and finite, got {h}"
            )));
        }
        let (phi, gamma) = expm_integral(&self.a, &self.b, h)?;
        Ok(DiscreteSs {
            phi,
            gamma,
            c: self.c.clone(),
            h,
        })
    }

    /// `true` when `(A, B)` is controllable: the controllability matrix
    /// `𝒞 = [B, AB, …, A^{n−1}B]` has full row rank. The test is a
    /// Cholesky of its Gram matrix `W = 𝒞𝒞ᵀ` shifted by `τ = n·ε·tr(W)`.
    /// The shift sits far below the smallest eigenvalue of `W` for every
    /// plant in [`crate::plants`] (`λ_min/λ_max ≥ 1e-6`), and an exactly
    /// singular `W` fails at its zero pivot.
    ///
    /// # Errors
    ///
    /// Propagates numerical failures.
    pub fn is_controllable(&self) -> Result<bool> {
        let n = self.state_dim();
        let mut blocks = Vec::with_capacity(n);
        let mut cur = self.b.clone();
        for _ in 0..n {
            blocks.push(cur.clone());
            cur = self.a.matmul(&cur)?;
        }
        let refs: Vec<&Matrix> = blocks.iter().collect();
        let ctrb = Matrix::hstack(&refs)?;
        let gram = ctrb.matmul(&ctrb.transpose())?;
        let tau = n as f64 * f64::EPSILON * gram.trace();
        Ok(is_spd(&gram.sub_mat(&Matrix::identity(n).scale(tau))?))
    }

    /// `true` when `(A, C)` is observable, i.e. when the dual pair
    /// `(Aᵀ, Cᵀ)` is controllable (its Gram matrix is `𝒪ᵀ𝒪` for the
    /// observability matrix `𝒪 = [C; CA; …; CA^{n−1}]`).
    ///
    /// # Errors
    ///
    /// Propagates numerical failures.
    pub fn is_observable(&self) -> Result<bool> {
        ContinuousSs::new(self.a.transpose(), self.c.transpose(), self.b.transpose())?
            .is_controllable()
    }

    /// `true` when all continuous-time eigenvalues have negative real part.
    ///
    /// # Errors
    ///
    /// Propagates eigenvalue-computation failures.
    pub fn is_hurwitz(&self) -> Result<bool> {
        Ok(overrun_linalg::eigenvalues(&self.a)?
            .iter()
            .all(|e| e.re < 0.0))
    }
}

/// A ZOH-discretised plant `x[k+1] = Φ x[k] + Γ u[k]`, `y[k] = C x[k]`
/// (paper Eq. 4).
#[derive(Debug, Clone, PartialEq)]
pub struct DiscreteSs {
    /// State transition matrix `Φ(h)`.
    pub phi: Matrix,
    /// Input matrix `Γ(h)`.
    pub gamma: Matrix,
    /// Output matrix `C` (unchanged by sampling).
    pub c: Matrix,
    /// The sampling interval `h` in seconds.
    pub h: f64,
}

impl DiscreteSs {
    /// Number of states.
    pub fn state_dim(&self) -> usize {
        self.phi.rows()
    }

    /// Number of inputs.
    pub fn input_dim(&self) -> usize {
        self.gamma.cols()
    }

    /// Number of outputs.
    pub fn output_dim(&self) -> usize {
        self.c.rows()
    }

    /// One simulation step: returns `x[k+1]` for given `x[k]`, `u[k]`.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches.
    pub fn step(&self, x: &Matrix, u: &Matrix) -> Result<Matrix> {
        Ok(self.phi.matmul(x)?.add_mat(&self.gamma.matmul(u)?)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn double_integrator() -> ContinuousSs {
        ContinuousSs::new(
            Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]).unwrap(),
            Matrix::col_vec(&[0.0, 1.0]),
            Matrix::row_vec(&[1.0, 0.0]),
        )
        .unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(ContinuousSs::new(
            Matrix::zeros(2, 3),
            Matrix::zeros(2, 1),
            Matrix::zeros(1, 2)
        )
        .is_err());
        assert!(ContinuousSs::new(
            Matrix::zeros(2, 2),
            Matrix::zeros(3, 1),
            Matrix::zeros(1, 2)
        )
        .is_err());
        assert!(ContinuousSs::new(
            Matrix::zeros(2, 2),
            Matrix::zeros(2, 1),
            Matrix::zeros(1, 3)
        )
        .is_err());
    }

    #[test]
    fn dims() {
        let s = double_integrator();
        assert_eq!(s.state_dim(), 2);
        assert_eq!(s.input_dim(), 1);
        assert_eq!(s.output_dim(), 1);
    }

    #[test]
    fn discretize_double_integrator_closed_form() {
        let s = double_integrator();
        let d = s.discretize(0.1).unwrap();
        assert!((d.phi[(0, 1)] - 0.1).abs() < 1e-15);
        assert!((d.gamma[(0, 0)] - 0.005).abs() < 1e-15);
        assert!((d.gamma[(1, 0)] - 0.1).abs() < 1e-15);
        assert_eq!(d.h, 0.1);
        assert_eq!(d.state_dim(), 2);
        assert_eq!(d.input_dim(), 1);
        assert_eq!(d.output_dim(), 1);
    }

    #[test]
    fn discretize_rejects_bad_h() {
        let s = double_integrator();
        assert!(s.discretize(0.0).is_err());
        assert!(s.discretize(-0.1).is_err());
        assert!(s.discretize(f64::NAN).is_err());
    }

    #[test]
    fn step_advances_state() {
        let d = double_integrator().discretize(0.1).unwrap();
        let x = Matrix::col_vec(&[1.0, 0.0]);
        let u = Matrix::col_vec(&[0.0]);
        let x1 = d.step(&x, &u).unwrap();
        assert!((x1[(0, 0)] - 1.0).abs() < 1e-15);
        let u = Matrix::col_vec(&[1.0]);
        let x2 = d.step(&x, &u).unwrap();
        assert!((x2[(1, 0)] - 0.1).abs() < 1e-15);
    }

    #[test]
    fn controllability_and_observability() {
        let s = double_integrator();
        assert!(s.is_controllable().unwrap());
        assert!(s.is_observable().unwrap());
        // Uncontrollable: input does not reach the second state.
        let s2 = ContinuousSs::new(
            Matrix::diag(&[-1.0, -2.0]),
            Matrix::col_vec(&[1.0, 0.0]),
            Matrix::row_vec(&[1.0, 1.0]),
        )
        .unwrap();
        assert!(!s2.is_controllable().unwrap());
        // Unobservable: output sees only the first state of a decoupled pair.
        let s3 = ContinuousSs::new(
            Matrix::diag(&[-1.0, -2.0]),
            Matrix::col_vec(&[1.0, 1.0]),
            Matrix::row_vec(&[1.0, 0.0]),
        )
        .unwrap();
        assert!(!s3.is_observable().unwrap());
    }

    #[test]
    fn hurwitz_detection() {
        let stable = ContinuousSs::new(
            Matrix::diag(&[-1.0, -0.5]),
            Matrix::col_vec(&[1.0, 1.0]),
            Matrix::row_vec(&[1.0, 0.0]),
        )
        .unwrap();
        assert!(stable.is_hurwitz().unwrap());
        assert!(!double_integrator().is_hurwitz().unwrap());
    }

    #[test]
    fn semigroup_of_discretizations() {
        let s = double_integrator();
        let d1 = s.discretize(0.004).unwrap();
        let d2 = s.discretize(0.006).unwrap();
        let d3 = s.discretize(0.010).unwrap();
        let lhs = d2.phi.matmul(&d1.phi).unwrap();
        assert!(lhs.approx_eq(&d3.phi, 1e-12, 1e-12));
    }
}
