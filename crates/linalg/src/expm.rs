//! Matrix exponential and its integral (zero-order-hold discretisation).

use crate::norms::norm_1;
use crate::{Error, Matrix, Result};

/// Padé-13 coefficients for the matrix exponential (Higham 2005).
const PADE13: [f64; 14] = [
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
];

/// θ₁₃ from Higham's scaling-and-squaring analysis: if `‖A‖₁ ≤ θ₁₃` the
/// Padé-13 approximant is accurate to double precision without scaling.
const THETA13: f64 = 5.371920351148152;

/// Computes the matrix exponential `e^A` using the scaling-and-squaring
/// method with a degree-13 Padé approximant (Higham, *SIAM J. Matrix Anal.
/// Appl.* 2005).
///
/// This is the workhorse of the plant discretisation `Φ(h) = e^{Ah}`
/// (paper Eq. 5).
///
/// # Errors
///
/// Returns [`Error::NotSquare`] for rectangular input,
/// [`Error::InvalidData`] for non-finite entries, and [`Error::Singular`]
/// in the (theoretically impossible for finite input) case that the Padé
/// denominator is singular.
///
/// # Example
///
/// ```
/// use overrun_linalg::{expm, Matrix};
///
/// # fn main() -> Result<(), overrun_linalg::Error> {
/// let a = Matrix::diag(&[0.0, 1.0]);
/// let e = expm(&a)?;
/// assert!((e[(1, 1)] - 1.0_f64.exp()).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn expm(a: &Matrix) -> Result<Matrix> {
    if !a.is_square() {
        return Err(Error::NotSquare {
            op: "expm",
            dims: a.shape(),
        });
    }
    if !a.is_finite() {
        return Err(Error::InvalidData(
            "expm of a matrix with non-finite entries".into(),
        ));
    }
    let n = a.rows();
    if n == 0 {
        return Ok(Matrix::zeros(0, 0));
    }
    let norm = norm_1(a);
    // Number of squarings so that ‖A / 2^s‖₁ ≤ θ₁₃.
    let s = if norm > THETA13 {
        (norm / THETA13).log2().ceil() as u32
    } else {
        0
    };
    let a_scaled = a.scale(0.5_f64.powi(s as i32));

    let eye = Matrix::identity(n);
    let a2 = a_scaled.matmul(&a_scaled)?;
    let a4 = a2.matmul(&a2)?;
    let a6 = a2.matmul(&a4)?;

    let b = &PADE13;
    // U = A * (A6*(b13*A6 + b11*A4 + b9*A2) + b7*A6 + b5*A4 + b3*A2 + b1*I)
    let u_inner1 = &a6 * b[13] + &a4 * b[11] + &a2 * b[9];
    let u_inner = a6.matmul(&u_inner1)? + &a6 * b[7] + &a4 * b[5] + &a2 * b[3] + &eye * b[1];
    let u = a_scaled.matmul(&u_inner)?;
    // V = A6*(b12*A6 + b10*A4 + b8*A2) + b6*A6 + b4*A4 + b2*A2 + b0*I
    let v_inner = &a6 * b[12] + &a4 * b[10] + &a2 * b[8];
    let v = a6.matmul(&v_inner)? + &a6 * b[6] + &a4 * b[4] + &a2 * b[2] + &eye * b[0];

    // Solve (V - U) X = (V + U).
    let vmu = v.sub_mat(&u)?;
    let vpu = v.add_mat(&u)?;
    let mut x = vmu.solve(&vpu)?;

    for _ in 0..s {
        x = x.matmul(&x)?;
    }
    Ok(x)
}

/// Computes the zero-order-hold discretisation pair
/// `(Φ, Γ) = (e^{A h}, ∫₀ʰ e^{A s} ds · B)` in one shot via the augmented
/// exponential
///
/// ```text
/// exp( [A B; 0 0] · h ) = [Φ Γ; 0 I].
/// ```
///
/// This is exactly paper Eq. (5) and avoids a separate quadrature.
///
/// # Errors
///
/// Returns [`Error::NotSquare`] when `a` is not square,
/// [`Error::DimensionMismatch`] when `b.rows() != a.rows()`, and
/// [`Error::InvalidData`] for negative or non-finite `h`.
///
/// # Example
///
/// ```
/// use overrun_linalg::{expm_integral, Matrix};
///
/// # fn main() -> Result<(), overrun_linalg::Error> {
/// // Double integrator: A = [0 1; 0 0], B = [0; 1]
/// let a = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]])?;
/// let b = Matrix::col_vec(&[0.0, 1.0]);
/// let (phi, gamma) = expm_integral(&a, &b, 0.1)?;
/// assert!((phi[(0, 1)] - 0.1).abs() < 1e-14);
/// assert!((gamma[(0, 0)] - 0.005).abs() < 1e-14); // h²/2
/// # Ok(())
/// # }
/// ```
pub fn expm_integral(a: &Matrix, b: &Matrix, h: f64) -> Result<(Matrix, Matrix)> {
    if !a.is_square() {
        return Err(Error::NotSquare {
            op: "expm_integral",
            dims: a.shape(),
        });
    }
    if b.rows() != a.rows() {
        return Err(Error::DimensionMismatch {
            op: "expm_integral",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    if !(h.is_finite() && h >= 0.0) {
        return Err(Error::InvalidData(format!(
            "discretisation interval must be finite and non-negative, got {h}"
        )));
    }
    let n = a.rows();
    let r = b.cols();
    let mut aug = Matrix::zeros(n + r, n + r);
    aug.set_block(0, 0, &a.scale(h))?;
    aug.set_block(0, n, &b.scale(h))?;
    let e = expm(&aug)?;
    let phi = e.submatrix(0, 0, n, n)?;
    let gamma = e.submatrix(0, n, n, r)?;
    Ok((phi, gamma))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spectral_radius;

    #[test]
    fn expm_zero_is_identity() {
        let e = expm(&Matrix::zeros(3, 3)).unwrap();
        assert!(e.approx_eq(&Matrix::identity(3), 1e-14, 0.0));
    }

    #[test]
    fn expm_diagonal() {
        let e = expm(&Matrix::diag(&[1.0, -2.0, 0.5])).unwrap();
        assert!((e[(0, 0)] - 1.0_f64.exp()).abs() < 1e-13);
        assert!((e[(1, 1)] - (-2.0_f64).exp()).abs() < 1e-14);
        assert!((e[(2, 2)] - 0.5_f64.exp()).abs() < 1e-14);
        assert_eq!(e[(0, 1)], 0.0);
    }

    #[test]
    fn expm_nilpotent_closed_form() {
        // A = [0 1; 0 0] ⇒ e^A = I + A exactly.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]).unwrap();
        let e = expm(&a).unwrap();
        assert!(e.approx_eq(&(Matrix::identity(2) + &a), 1e-15, 0.0));
    }

    #[test]
    fn expm_rotation() {
        let th = 1.3_f64;
        let a = Matrix::from_rows(&[&[0.0, -th], &[th, 0.0]]).unwrap();
        let e = expm(&a).unwrap();
        assert!((e[(0, 0)] - th.cos()).abs() < 1e-13);
        assert!((e[(1, 0)] - th.sin()).abs() < 1e-13);
    }

    #[test]
    fn expm_inverse_property() {
        let a =
            Matrix::from_rows(&[&[0.3, 1.2, -0.5], &[0.1, -0.7, 0.4], &[-0.2, 0.0, 0.9]]).unwrap();
        let e = expm(&a).unwrap();
        let em = expm(&a.scale(-1.0)).unwrap();
        assert!((&e * &em).approx_eq(&Matrix::identity(3), 1e-12, 1e-12));
    }

    #[test]
    fn expm_semigroup_property() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[-2.0, -0.5]]).unwrap();
        let e1 = expm(&a.scale(0.3)).unwrap();
        let e2 = expm(&a.scale(0.7)).unwrap();
        let e3 = expm(&a).unwrap();
        assert!((&e1 * &e2).approx_eq(&e3, 1e-12, 1e-12));
    }

    #[test]
    fn expm_large_norm_triggers_squaring() {
        let a = Matrix::diag(&[10.0, -10.0]);
        let e = expm(&a).unwrap();
        assert!((e[(0, 0)] - 10.0_f64.exp()).abs() < 1e-8 * 10.0_f64.exp());
        assert!((e[(1, 1)] - (-10.0_f64).exp()).abs() < 1e-16);
    }

    #[test]
    fn expm_det_is_exp_trace() {
        let a = Matrix::from_rows(&[&[0.2, 0.5], &[-0.3, -0.1]]).unwrap();
        let e = expm(&a).unwrap();
        assert!((e.det().unwrap() - a.trace().exp()).abs() < 1e-13);
    }

    #[test]
    fn expm_rejects_rectangular() {
        assert!(expm(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn zoh_double_integrator() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]).unwrap();
        let b = Matrix::col_vec(&[0.0, 1.0]);
        let h = 0.25;
        let (phi, gamma) = expm_integral(&a, &b, h).unwrap();
        // Closed form: Φ = [1 h; 0 1], Γ = [h²/2; h]
        assert!((phi[(0, 1)] - h).abs() < 1e-15);
        assert!((gamma[(0, 0)] - h * h / 2.0).abs() < 1e-15);
        assert!((gamma[(1, 0)] - h).abs() < 1e-15);
    }

    #[test]
    fn zoh_scalar_closed_form() {
        // ẋ = a x + b u ⇒ Φ = e^{ah}, Γ = (e^{ah} − 1) b / a
        let (a_val, b_val, h) = (-1.5, 2.0, 0.4);
        let a = Matrix::from_rows(&[&[a_val]]).unwrap();
        let b = Matrix::from_rows(&[&[b_val]]).unwrap();
        let (phi, gamma) = expm_integral(&a, &b, h).unwrap();
        assert!((phi[(0, 0)] - (a_val * h).exp()).abs() < 1e-14);
        let expected = ((a_val * h).exp() - 1.0) * b_val / a_val;
        assert!((gamma[(0, 0)] - expected).abs() < 1e-14);
    }

    #[test]
    fn zoh_zero_interval() {
        let a = Matrix::from_rows(&[&[1.0, 0.2], &[0.0, -1.0]]).unwrap();
        let b = Matrix::col_vec(&[1.0, 1.0]);
        let (phi, gamma) = expm_integral(&a, &b, 0.0).unwrap();
        assert!(phi.approx_eq(&Matrix::identity(2), 1e-15, 0.0));
        assert_eq!(gamma.max_abs(), 0.0);
    }

    #[test]
    fn zoh_interval_additivity() {
        // Φ(h1+h2) = Φ(h2) Φ(h1); Γ(h1+h2) = Φ(h2) Γ(h1) + Γ(h2)
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[-4.0, -0.8]]).unwrap();
        let b = Matrix::col_vec(&[0.0, 1.0]);
        let (h1, h2) = (0.13, 0.29);
        let (phi1, g1) = expm_integral(&a, &b, h1).unwrap();
        let (phi2, g2) = expm_integral(&a, &b, h2).unwrap();
        let (phi12, g12) = expm_integral(&a, &b, h1 + h2).unwrap();
        assert!((&phi2 * &phi1).approx_eq(&phi12, 1e-12, 1e-12));
        assert!((&phi2 * &g1 + &g2).approx_eq(&g12, 1e-12, 1e-12));
    }

    #[test]
    fn zoh_rejects_bad_input() {
        let a = Matrix::identity(2);
        let b = Matrix::col_vec(&[1.0, 1.0]);
        assert!(expm_integral(&a, &Matrix::col_vec(&[1.0]), 0.1).is_err());
        assert!(expm_integral(&a, &b, -1.0).is_err());
        assert!(expm_integral(&a, &b, f64::NAN).is_err());
        assert!(expm_integral(&Matrix::zeros(2, 3), &b, 0.1).is_err());
    }

    #[test]
    fn hurwitz_discretization_is_schur_stable() {
        let a = Matrix::from_rows(&[&[-0.5, 2.0], &[-2.0, -0.5]]).unwrap();
        let phi = expm(&a.scale(0.7)).unwrap();
        assert!(spectral_radius(&phi).unwrap() < 1.0);
    }
}

#[cfg(test)]
mod nonfinite_tests {
    use super::*;

    #[test]
    fn nan_and_inf_inputs_rejected() {
        let mut m = Matrix::identity(2);
        m[(0, 0)] = f64::NAN;
        assert!(expm(&m).is_err());
        m[(0, 0)] = f64::INFINITY;
        assert!(expm(&m).is_err());
        let b = Matrix::col_vec(&[1.0, 1.0]);
        assert!(expm_integral(&m, &b, 0.1).is_err());
    }
}
