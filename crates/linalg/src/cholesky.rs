//! Cholesky factorisation of symmetric positive-definite matrices.

use crate::{Error, Matrix, Result};

/// Cholesky factorisation `A = L Lᵀ` with lower-triangular `L`.
///
/// Used for covariance manipulation in the Kalman design path and for
/// validating that Riccati solutions are positive (semi-)definite.
///
/// # Example
///
/// ```
/// use overrun_linalg::{Cholesky, Matrix};
///
/// # fn main() -> Result<(), overrun_linalg::Error> {
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])?;
/// let chol = Cholesky::new(&a)?;
/// let back = chol.l() * chol.l().transpose();
/// assert!(back.approx_eq(&a, 1e-12, 1e-12));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factors a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; symmetry of the input is the
    /// caller's responsibility (use [`Matrix::symmetrize`] if unsure).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotSquare`] for rectangular input and
    /// [`Error::NotPositiveDefinite`] when a pivot is not positive and
    /// finite.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(Error::NotSquare {
                op: "cholesky",
                dims: a.shape(),
            });
        }
        let n = a.rows();
        let mut l = a.clone();
        if !cholesky_in_place(l.as_mut_slice(), n) {
            return Err(Error::NotPositiveDefinite);
        }
        for i in 0..n {
            for j in i + 1..n {
                l[(i, j)] = 0.0;
            }
        }
        Ok(Cholesky { l })
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A x = b` using the factorisation (`L Lᵀ x = b`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if `b` has the wrong row count.
    pub fn solve(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.l.rows();
        if b.rows() != n {
            return Err(Error::DimensionMismatch {
                op: "cholesky_solve",
                lhs: self.l.shape(),
                rhs: b.shape(),
            });
        }
        let mut x = b.clone();
        cholesky_solve_in_place(self.l.as_slice(), x.as_mut_slice(), n, b.cols());
        Ok(x)
    }

    /// Log-determinant of `A` (`2 Σ log L_ii`), numerically safer than
    /// computing `det` for large well-conditioned SPD matrices.
    pub fn log_det(&self) -> f64 {
        cholesky_log_det(self.l.as_slice(), self.l.rows())
    }
}

/// Cholesky factorisation of the `n×n` row-major matrix in `a`, in place
/// and without allocating: the lower triangle is overwritten by the factor
/// `L`, the strict upper triangle is neither read nor written. Returns
/// `false` when `a` holds fewer than `n²` entries or a pivot is not
/// positive and finite (`a` is then partly overwritten). [`Cholesky::new`]
/// runs this on a copy of its input.
pub fn cholesky_in_place(a: &mut [f64], n: usize) -> bool {
    if n.checked_mul(n).is_none_or(|nn| a.len() < nn) {
        return false;
    }
    for j in 0..n {
        let mut d = a[j * n + j];
        for k in 0..j {
            d -= a[j * n + k] * a[j * n + k];
        }
        if !(d > 0.0 && d.is_finite()) {
            return false;
        }
        let d = d.sqrt();
        a[j * n + j] = d;
        for i in j + 1..n {
            let mut s = a[i * n + j];
            for k in 0..j {
                s -= a[i * n + k] * a[j * n + k];
            }
            a[i * n + j] = s / d;
        }
    }
    true
}

/// Solves `L Lᵀ X = B` in place for the lower factor `L` (row-major `n×n`,
/// as left by [`cholesky_in_place`]; its strict upper triangle is not
/// read) and the row-major `n×m` right-hand side `B`, which is overwritten
/// by `X`. Forward then backward substitution, column by column, without
/// allocating; [`Cholesky::solve`] runs this on a copy of its right-hand
/// side.
///
/// # Panics
///
/// Panics when `l` holds fewer than `n²` or `b` fewer than `n·m` entries.
pub fn cholesky_solve_in_place(l: &[f64], b: &mut [f64], n: usize, m: usize) {
    for j in 0..m {
        for i in 0..n {
            let mut s = b[i * m + j];
            for k in 0..i {
                s -= l[i * n + k] * b[k * m + j];
            }
            b[i * m + j] = s / l[i * n + i];
        }
        for i in (0..n).rev() {
            let mut s = b[i * m + j];
            for k in (i + 1)..n {
                s -= l[k * n + i] * b[k * m + j];
            }
            b[i * m + j] = s / l[i * n + i];
        }
    }
}

/// `log det(L Lᵀ) = 2 Σ log Lᵢᵢ` for the row-major `n×n` lower factor `L`
/// of [`cholesky_in_place`]. [`Cholesky::log_det`] evaluates this.
///
/// # Panics
///
/// Panics when `l` holds fewer than `n²` entries.
pub fn cholesky_log_det(l: &[f64], n: usize) -> f64 {
    (0..n).map(|i| l[i * n + i].ln()).sum::<f64>() * 2.0
}

/// Returns `true` when `a` is symmetric positive definite to working
/// precision (i.e. its Cholesky factorisation succeeds).
pub fn is_spd(a: &Matrix) -> bool {
    a.is_square() && Cholesky::new(a).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_and_solve() {
        let a = Matrix::from_rows(&[&[25.0, 15.0, -5.0], &[15.0, 18.0, 0.0], &[-5.0, 0.0, 11.0]])
            .unwrap();
        let ch = Cholesky::new(&a).unwrap();
        let back = ch.l() * ch.l().transpose();
        assert!(back.approx_eq(&a, 1e-12, 1e-12));
        let b = Matrix::col_vec(&[1.0, 2.0, 3.0]);
        let x = ch.solve(&b).unwrap();
        assert!((&a * &x).approx_eq(&b, 1e-10, 1e-10));
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(matches!(
            Cholesky::new(&a),
            Err(Error::NotPositiveDefinite)
        ));
    }

    #[test]
    fn rejects_rectangular() {
        assert!(matches!(
            Cholesky::new(&Matrix::zeros(2, 3)),
            Err(Error::NotSquare { .. })
        ));
    }

    #[test]
    fn log_det_matches_lu_det() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]).unwrap();
        let ch = Cholesky::new(&a).unwrap();
        let det = a.det().unwrap();
        assert!((ch.log_det() - det.ln()).abs() < 1e-12);
    }

    #[test]
    fn in_place_factor_rejects_non_finite_pivots() {
        let mut nan = vec![f64::NAN, 0.0, 0.0, 1.0];
        assert!(!cholesky_in_place(&mut nan, 2));
        assert!(matches!(
            Cholesky::new(&Matrix::diag(&[f64::INFINITY, 1.0])),
            Err(Error::NotPositiveDefinite)
        ));
    }

    #[test]
    fn in_place_factor_rejects_short_slices() {
        let mut short = vec![4.0, 2.0, 2.0];
        assert!(!cholesky_in_place(&mut short, 2));
        assert!(!cholesky_in_place(&mut [], usize::MAX));
        assert!(cholesky_in_place(&mut [], 0));
    }

    #[test]
    fn slice_solve_and_log_det_match_struct() -> Result<()> {
        let a = Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, -0.2], &[0.5, -0.2, 2.0]])?;
        let ch = Cholesky::new(&a)?;
        let mut factor = a.as_slice().to_vec();
        assert!(cholesky_in_place(&mut factor, 3));
        assert_eq!(
            cholesky_log_det(&factor, 3).to_bits(),
            ch.log_det().to_bits()
        );
        // Identity right-hand side: the solve yields the inverse.
        let mut inv = Matrix::identity(3);
        cholesky_solve_in_place(&factor, inv.as_mut_slice(), 3, 3);
        assert!((&a * &inv).approx_eq(&Matrix::identity(3), 1e-12, 1e-12));
        let mut x = vec![1.0, 2.0, 3.0];
        cholesky_solve_in_place(&factor, &mut x, 3, 1);
        assert!((&a * &Matrix::col_vec(&x)).approx_eq(
            &Matrix::col_vec(&[1.0, 2.0, 3.0]),
            1e-12,
            1e-12
        ));
        Ok(())
    }

    #[test]
    fn is_spd_helper() {
        assert!(is_spd(&Matrix::identity(3)));
        assert!(!is_spd(&Matrix::zeros(2, 2)));
        assert!(!is_spd(&Matrix::zeros(2, 3)));
    }

    #[test]
    fn solve_shape_mismatch() {
        let ch = Cholesky::new(&Matrix::identity(2)).unwrap();
        assert!(ch.solve(&Matrix::zeros(3, 1)).is_err());
    }
}
