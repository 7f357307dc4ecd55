use overrun_linalg::{norm_2, Matrix};

use crate::{Error, Result};

/// A validated, non-empty set of equally-sized square matrices — the input
/// alphabet of the switching system `ξ(k+1) = A_{σ(k)} ξ(k)`.
///
/// # Example
///
/// ```
/// use overrun_jsr::MatrixSet;
/// use overrun_linalg::Matrix;
///
/// # fn main() -> Result<(), overrun_jsr::Error> {
/// let set = MatrixSet::new(vec![Matrix::identity(2), Matrix::zeros(2, 2)])?;
/// assert_eq!(set.len(), 2);
/// assert_eq!(set.dim(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixSet {
    matrices: Vec<Matrix>,
    dim: usize,
    /// Spectral (2-)norms of the matrices, cached at construction — every
    /// product-tree search seeds from them, and sets are built once but
    /// searched many times.
    norms: Vec<f64>,
}

impl MatrixSet {
    /// Validates and wraps a set of matrices.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidSet`] if the vector is empty, any matrix is
    /// non-square or non-finite, or the sizes disagree.
    pub fn new(matrices: Vec<Matrix>) -> Result<Self> {
        let first = matrices
            .first()
            .ok_or_else(|| Error::InvalidSet("empty set".into()))?;
        if !first.is_square() {
            return Err(Error::InvalidSet(format!(
                "matrix 0 is {}x{}, not square",
                first.rows(),
                first.cols()
            )));
        }
        let dim = first.rows();
        for (i, m) in matrices.iter().enumerate() {
            if m.shape() != (dim, dim) {
                return Err(Error::InvalidSet(format!(
                    "matrix {i} is {}x{}, expected {dim}x{dim}",
                    m.rows(),
                    m.cols()
                )));
            }
            if !m.is_finite() {
                return Err(Error::InvalidSet(format!(
                    "matrix {i} has non-finite entries"
                )));
            }
        }
        let norms = matrices.iter().map(norm_2).collect();
        Ok(MatrixSet {
            matrices,
            dim,
            norms,
        })
    }

    /// Number of matrices in the set.
    pub fn len(&self) -> usize {
        self.matrices.len()
    }

    /// Always `false` — construction rejects empty sets.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Common dimension of the (square) matrices.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The matrices, in insertion order.
    pub fn matrices(&self) -> &[Matrix] {
        &self.matrices
    }

    /// Cached spectral (2-)norms of the matrices, in insertion order
    /// (`norms()[i] == norm_2(&matrices()[i])`).
    pub fn norms(&self) -> &[f64] {
        &self.norms
    }

    /// Iterator over the matrices.
    pub fn iter(&self) -> std::slice::Iter<'_, Matrix> {
        self.matrices.iter()
    }

    /// Applies a common similarity transform `Aᵢ → D⁻¹ Aᵢ D` (which leaves
    /// the JSR unchanged) given the diagonal of `D`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidOptions`] if `diag` has the wrong length or a
    /// zero / non-finite entry.
    pub fn similarity_scaled(&self, diag: &[f64]) -> Result<MatrixSet> {
        if diag.len() != self.dim {
            return Err(Error::InvalidOptions(format!(
                "scaling vector has length {}, expected {}",
                diag.len(),
                self.dim
            )));
        }
        if diag.iter().any(|d| *d == 0.0 || !d.is_finite()) {
            return Err(Error::InvalidOptions(
                "scaling vector entries must be finite and non-zero".into(),
            ));
        }
        let scaled = self
            .matrices
            .iter()
            .map(|m| Matrix::from_fn(self.dim, self.dim, |i, j| m[(i, j)] * diag[j] / diag[i]))
            .collect();
        MatrixSet::new(scaled)
    }
}

impl<'a> IntoIterator for &'a MatrixSet {
    type Item = &'a Matrix;
    type IntoIter = std::slice::Iter<'a, Matrix>;

    fn into_iter(self) -> Self::IntoIter {
        self.matrices.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty_and_mixed() {
        assert!(MatrixSet::new(vec![]).is_err());
        assert!(MatrixSet::new(vec![Matrix::zeros(2, 3)]).is_err());
        assert!(MatrixSet::new(vec![Matrix::identity(2), Matrix::identity(3)]).is_err());
    }

    #[test]
    fn rejects_non_finite() {
        let mut m = Matrix::identity(2);
        m[(0, 0)] = f64::NAN;
        assert!(MatrixSet::new(vec![m]).is_err());
    }

    #[test]
    fn accessors() {
        let set = MatrixSet::new(vec![Matrix::identity(3), Matrix::zeros(3, 3)]).unwrap();
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
        assert_eq!(set.dim(), 3);
        assert_eq!(set.matrices().len(), 2);
        assert_eq!(set.iter().count(), 2);
        assert_eq!((&set).into_iter().count(), 2);
    }

    #[test]
    fn norms_cached_at_construction() {
        let a = Matrix::from_rows(&[&[1.0, 100.0], &[0.0001, 2.0]]).unwrap();
        let b = Matrix::diag(&[3.0, 0.5]);
        let set = MatrixSet::new(vec![a.clone(), b.clone()]).unwrap();
        assert_eq!(set.norms().len(), 2);
        assert_eq!(set.norms()[0], norm_2(&a));
        assert_eq!(set.norms()[1], norm_2(&b));
    }

    #[test]
    fn similarity_scaling_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, 100.0], &[0.0001, 2.0]]).unwrap();
        let set = MatrixSet::new(vec![a.clone()]).unwrap();
        let scaled = set.similarity_scaled(&[10.0, 0.1]).unwrap();
        let back = scaled.similarity_scaled(&[0.1, 10.0]).unwrap();
        assert!(back.matrices()[0].approx_eq(&a, 1e-12, 1e-12));
        // spectral radius invariant
        let r0 = overrun_linalg::spectral_radius(&a).unwrap();
        let r1 = overrun_linalg::spectral_radius(&scaled.matrices()[0]).unwrap();
        assert!((r0 - r1).abs() < 1e-9 * r0.max(1.0));
    }

    #[test]
    fn similarity_scaling_validation() {
        let set = MatrixSet::new(vec![Matrix::identity(2)]).unwrap();
        assert!(set.similarity_scaled(&[1.0]).is_err());
        assert!(set.similarity_scaled(&[1.0, 0.0]).is_err());
        assert!(set.similarity_scaled(&[1.0, f64::NAN]).is_err());
    }
}

/// Scales a matrix to unit norm, returning the matrix and the log of the
/// factored-out scale (zero or non-finite norms pass through unscaled).
/// Shared by the product-tree searches so deep products never overflow.
pub(crate) fn normalize_log(m: Matrix, nrm: f64) -> (Matrix, f64) {
    if nrm > 0.0 && nrm.is_finite() {
        (m.scale(1.0 / nrm), nrm.ln())
    } else {
        (m, 0.0)
    }
}

/// Borrowing variant of [`normalize_log`] for call sites that only hold a
/// reference (scratch buffers, set members) — avoids a clone on the common
/// positive-norm path.
pub(crate) fn normalize_log_ref(m: &Matrix, nrm: f64) -> (Matrix, f64) {
    if nrm > 0.0 && nrm.is_finite() {
        (m.scale(1.0 / nrm), nrm.ln())
    } else {
        (m.clone(), 0.0)
    }
}

#[cfg(test)]
mod normalize_tests {
    use super::*;

    #[test]
    fn normalize_log_roundtrip() {
        let m = Matrix::diag(&[4.0, 2.0]);
        let (scaled, log) = normalize_log(m.clone(), 4.0);
        assert!((scaled[(0, 0)] - 1.0).abs() < 1e-15);
        assert!((log - 4.0_f64.ln()).abs() < 1e-15);
        let (same, zero) = normalize_log(m.clone(), 0.0);
        assert_eq!(same, m);
        assert_eq!(zero, 0.0);
    }
}
