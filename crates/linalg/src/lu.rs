//! LU factorisation with partial pivoting.

use crate::{Error, Matrix, Result};

/// LU factorisation `P A = L U` with partial (row) pivoting.
///
/// The factorisation is computed once and can then solve any number of
/// right-hand sides, compute the determinant or the explicit inverse.
///
/// # Example
///
/// ```
/// use overrun_linalg::{Lu, Matrix};
///
/// # fn main() -> Result<(), overrun_linalg::Error> {
/// let a = Matrix::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]])?;
/// let lu = Lu::new(&a)?;
/// let b = Matrix::col_vec(&[10.0, 12.0]);
/// let x = lu.solve(&b)?;
/// // A x = b
/// assert!((&a * &x).approx_eq(&b, 1e-12, 1e-12));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    /// Combined storage: strictly-lower part holds L (unit diagonal
    /// implicit), upper triangle holds U.
    lu: Matrix,
    /// Row permutation: `perm[i]` is the source row of factored row `i`.
    perm: Vec<usize>,
    /// Sign of the permutation (`+1.0` or `-1.0`), used for determinants.
    perm_sign: f64,
    /// `true` if a pivot collapsed below the singularity threshold.
    singular: bool,
}

impl Lu {
    /// Factors a square matrix.
    ///
    /// Singularity is *not* an error at factorisation time — it is reported
    /// lazily by [`Lu::solve`] / [`Lu::inverse`] and eagerly by
    /// [`Lu::is_singular`], so that [`Lu::det`] can still return `0.0`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotSquare`] for rectangular input.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(Error::NotSquare {
                op: "lu",
                dims: a.shape(),
            });
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut perm_sign = 1.0;
        let mut singular = false;
        let scale = lu.max_abs();
        let tiny = f64::EPSILON * scale.max(f64::MIN_POSITIVE) * n as f64;

        for k in 0..n {
            // Find pivot.
            let mut p = k;
            let mut best = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if p != k {
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(p, j)];
                    lu[(p, j)] = tmp;
                }
                perm.swap(k, p);
                perm_sign = -perm_sign;
            }
            let pivot = lu[(k, k)];
            if pivot.abs() <= tiny {
                singular = true;
                continue;
            }
            for i in (k + 1)..n {
                let m = lu[(i, k)] / pivot;
                lu[(i, k)] = m;
                if m != 0.0 {
                    for j in (k + 1)..n {
                        let v = lu[(i, j)] - m * lu[(k, j)];
                        lu[(i, j)] = v;
                    }
                }
            }
        }
        Ok(Lu {
            lu,
            perm,
            perm_sign,
            singular,
        })
    }

    /// Returns `true` if a zero (or negligible) pivot was encountered.
    pub fn is_singular(&self) -> bool {
        self.singular
    }

    /// Determinant of the original matrix.
    pub fn det(&self) -> f64 {
        if self.singular {
            return 0.0;
        }
        let n = self.lu.rows();
        let mut d = self.perm_sign;
        for i in 0..n {
            d *= self.lu[(i, i)];
        }
        d
    }

    /// Solves `A X = B` for (possibly multi-column) `B`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Singular`] if the matrix was singular, or
    /// [`Error::DimensionMismatch`] if `B` has the wrong row count.
    pub fn solve(&self, b: &Matrix) -> Result<Matrix> {
        if self.singular {
            return Err(Error::Singular);
        }
        let n = self.lu.rows();
        if b.rows() != n {
            return Err(Error::DimensionMismatch {
                op: "lu_solve",
                lhs: self.lu.shape(),
                rhs: b.shape(),
            });
        }
        let m = b.cols();
        let mut x = Matrix::zeros(n, m);
        // Apply permutation: x = P b.
        for i in 0..n {
            for j in 0..m {
                x[(i, j)] = b[(self.perm[i], j)];
            }
        }
        // Forward substitution with unit-lower L.
        for k in 0..n {
            for i in (k + 1)..n {
                let l_ik = self.lu[(i, k)];
                if l_ik != 0.0 {
                    for j in 0..m {
                        let v = x[(i, j)] - l_ik * x[(k, j)];
                        x[(i, j)] = v;
                    }
                }
            }
        }
        // Back substitution with U.
        for k in (0..n).rev() {
            let pivot = self.lu[(k, k)];
            for j in 0..m {
                x[(k, j)] /= pivot;
            }
            for i in 0..k {
                let u_ik = self.lu[(i, k)];
                if u_ik != 0.0 {
                    for j in 0..m {
                        let v = x[(i, j)] - u_ik * x[(k, j)];
                        x[(i, j)] = v;
                    }
                }
            }
        }
        Ok(x)
    }

    /// Explicit inverse `A⁻¹`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Singular`] if the matrix was singular.
    pub fn inverse(&self) -> Result<Matrix> {
        self.solve(&Matrix::identity(self.lu.rows()))
    }
}

impl Matrix {
    /// Solves `self * X = B` via LU with partial pivoting.
    ///
    /// # Errors
    ///
    /// Propagates [`Error::NotSquare`], [`Error::Singular`] and
    /// [`Error::DimensionMismatch`] from the factorisation.
    pub fn solve(&self, b: &Matrix) -> Result<Matrix> {
        Lu::new(self)?.solve(b)
    }

    /// Explicit inverse via LU.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Singular`] when not invertible, or
    /// [`Error::NotSquare`] for rectangular input.
    pub fn inverse(&self) -> Result<Matrix> {
        Lu::new(self)?.inverse()
    }

    /// Determinant via LU.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotSquare`] for rectangular input.
    pub fn det(&self) -> Result<f64> {
        Ok(Lu::new(self)?.det())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_2x2() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        let b = Matrix::col_vec(&[3.0, 5.0]);
        let x = a.solve(&b).unwrap();
        assert!((&a * &x).approx_eq(&b, 1e-12, 1e-12));
    }

    #[test]
    fn det_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert!((a.det().unwrap() + 2.0).abs() < 1e-12);
        assert!((Matrix::identity(5).det().unwrap() - 1.0).abs() < 1e-12);
        // permutation matrix with one swap: det = -1
        let p = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        assert!((p.det().unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn singular_detection() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        let lu = Lu::new(&a).unwrap();
        assert!(lu.is_singular());
        assert_eq!(lu.det(), 0.0);
        assert!(matches!(
            lu.solve(&Matrix::identity(2)),
            Err(Error::Singular)
        ));
    }

    #[test]
    fn inverse_roundtrip() {
        let a =
            Matrix::from_rows(&[&[4.0, -2.0, 1.0], &[3.0, 6.0, -4.0], &[2.0, 1.0, 8.0]]).unwrap();
        let inv = a.inverse().unwrap();
        let eye = &a * &inv;
        assert!(eye.approx_eq(&Matrix::identity(3), 1e-12, 1e-12));
    }

    #[test]
    fn rejects_rectangular() {
        assert!(matches!(
            Lu::new(&Matrix::zeros(2, 3)),
            Err(Error::NotSquare { .. })
        ));
    }

    #[test]
    fn multi_rhs() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[&[9.0, 1.0], &[8.0, 0.0]]).unwrap();
        let x = a.solve(&b).unwrap();
        assert!((&a * &x).approx_eq(&b, 1e-12, 1e-12));
    }

    #[test]
    fn rhs_shape_mismatch() {
        let a = Matrix::identity(2);
        let b = Matrix::zeros(3, 1);
        assert!(matches!(a.solve(&b), Err(Error::DimensionMismatch { .. })));
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let b = Matrix::col_vec(&[2.0, 3.0]);
        let x = a.solve(&b).unwrap();
        assert!((x[(0, 0)] - 3.0).abs() < 1e-14);
        assert!((x[(1, 0)] - 2.0).abs() < 1e-14);
    }

    #[test]
    fn hilbert_4x4_solve_accuracy() {
        // Mildly ill-conditioned: Hilbert 4x4, residual should still be tiny.
        let h = Matrix::from_fn(4, 4, |i, j| 1.0 / ((i + j + 1) as f64));
        let ones = Matrix::col_vec(&[1.0; 4]);
        let b = &h * &ones;
        let x = h.solve(&b).unwrap();
        assert!(x.approx_eq(&ones, 1e-8, 1e-8));
    }
}
