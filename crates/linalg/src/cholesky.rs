//! Cholesky factorisation of symmetric positive-definite matrices.

use crate::{Error, Matrix, Result};

/// Cholesky factorisation `A = L Lᵀ` with lower-triangular `L`.
///
/// [`is_spd`] runs it for the controllability test of `overrun-control`;
/// the ellipsoid optimisation of `overrun-jsr` runs the allocation-free
/// slice kernels below.
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
        let mut x = b.clone();
        if b.rows() != n
            || !cholesky_solve_in_place(self.l.as_slice(), x.as_mut_slice(), n, b.cols())
        {
            return Err(Error::DimensionMismatch {
                op: "cholesky_solve",
                lhs: self.l.shape(),
                rhs: b.shape(),
            });
        }
        Ok(x)
    }
}

/// Cholesky factorisation of the `n×n` row-major matrix in `a`, in place
/// and without allocating: the lower triangle is overwritten by the factor
/// `L`, the strict upper triangle is neither read nor written. Returns
/// `false` when `a` holds fewer than `n²` entries or a pivot is not
/// positive and finite (`a` is then partly overwritten). [`Cholesky::new`]
/// runs this on a copy of its input.
///
/// Column by column (left-looking): every entry receives `L_ik·L_jk` in
/// increasing `k`, then its division (or square root). The rows below a
/// pivot are formed in pairs, two running differences side by side over
/// contiguous row segments, which halves the latency-bound chains without
/// changing any sum.
pub fn cholesky_in_place(a: &mut [f64], n: usize) -> bool {
    if n.checked_mul(n).is_none_or(|nn| a.len() < nn) {
        return false;
    }
    for j in 0..n {
        let (done, below) = a.split_at_mut((j + 1) * n);
        let row_j = &mut done[j * n..];
        let mut d = row_j[j];
        for &ljk in &row_j[..j] {
            d -= ljk * ljk;
        }
        if !(d > 0.0 && d.is_finite()) {
            return false;
        }
        let d = d.sqrt();
        row_j[j] = d;
        let lj = &row_j[..j];
        let mut pairs = below[..(n - j - 1) * n].chunks_exact_mut(2 * n);
        for rows in &mut pairs {
            factor_rows::<2>(rows, lj, d, n);
        }
        for row in pairs.into_remainder().chunks_exact_mut(n) {
            factor_rows::<1>(row, lj, d, n);
        }
    }
    true
}

/// Column `j = lj.len()` of the `R` consecutive rows in `rows`:
/// `L_ij = (A_ij − Σ_k L_ik·L_jk) / d`, the `R` sums interleaved.
#[inline(always)]
fn factor_rows<const R: usize>(rows: &mut [f64], lj: &[f64], d: f64, n: usize) {
    let (rows, j) = (&mut rows[..R * n], lj.len());
    let mut s: [f64; R] = std::array::from_fn(|r| rows[r * n + j]);
    for (k, &ljk) in lj.iter().enumerate() {
        for (r, s) in s.iter_mut().enumerate() {
            *s -= rows[r * n + k] * ljk;
        }
    }
    for (r, s) in s.into_iter().enumerate() {
        rows[r * n + j] = s / d;
    }
}

/// Solves `L Lᵀ X = B` in place for the lower factor `L` (row-major `n×n`,
/// as left by [`cholesky_in_place`]; its strict upper triangle is not
/// read) and the row-major `n×m` right-hand side `B`, which is overwritten
/// by `X`. Forward then backward substitution without allocating;
/// [`Cholesky::solve`] runs this on a copy of its right-hand side. Returns
/// `false`, leaving `b` untouched, when `l` holds fewer than `n²` or `b`
/// fewer than `n·m` entries.
///
/// Columns are solved in groups of up to four whose running sums stay in
/// registers, so their substitutions proceed side by side. Each column
/// still sees the textbook order: `L_ik·x_k` (forward) or `L_ki·x_k`
/// (backward) subtracted in increasing `k`, then the division, so `X` is
/// bit-identical to solving the columns one after another.
pub fn cholesky_solve_in_place(l: &[f64], b: &mut [f64], n: usize, m: usize) -> bool {
    let (Some(nn), Some(nm)) = (n.checked_mul(n), n.checked_mul(m)) else {
        return false;
    };
    if l.len() < nn || b.len() < nm {
        return false;
    }
    let b = &mut b[..nm];
    let mut j = 0;
    while j < m {
        j += match m - j {
            1 => solve_columns::<1>(l, b, n, m, j),
            2 => solve_columns::<2>(l, b, n, m, j),
            3 => solve_columns::<3>(l, b, n, m, j),
            _ => solve_columns::<4>(l, b, n, m, j),
        };
    }
    true
}

/// Columns `j..j + W` of [`cholesky_solve_in_place`]; returns `W`.
#[inline(always)]
fn solve_columns<const W: usize>(l: &[f64], b: &mut [f64], n: usize, m: usize, j: usize) -> usize {
    let at = |i: usize| i * m + j..i * m + j + W;
    for i in 0..n {
        let mut acc: [f64; W] = std::array::from_fn(|t| b[i * m + j + t]);
        for (k, &lik) in l[i * n..i * n + i].iter().enumerate() {
            for (s, &x) in acc.iter_mut().zip(&b[at(k)]) {
                *s -= lik * x;
            }
        }
        for (x, s) in b[at(i)].iter_mut().zip(acc) {
            *x = s / l[i * n + i];
        }
    }
    for i in (0..n).rev() {
        let mut acc: [f64; W] = std::array::from_fn(|t| b[i * m + j + t]);
        for k in i + 1..n {
            let lki = l[k * n + i];
            for (s, &x) in acc.iter_mut().zip(&b[at(k)]) {
                *s -= lki * x;
            }
        }
        for (x, s) in b[at(i)].iter_mut().zip(acc) {
            *x = s / l[i * n + i];
        }
    }
    W
}

/// `log det(L Lᵀ) = 2 Σ log Lᵢᵢ` for the row-major `n×n` lower factor `L`
/// of [`cholesky_in_place`].
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
    use proptest::prelude::*;

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
        assert!(matches!(Cholesky::new(&a), Err(Error::NotPositiveDefinite)));
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
        let mut factor = a.as_slice().to_vec();
        assert!(cholesky_in_place(&mut factor, 2));
        let det = a.det().unwrap();
        assert!((cholesky_log_det(&factor, 2) - det.ln()).abs() < 1e-12);
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
        // Identity right-hand side: the solve yields the inverse.
        let mut inv = Matrix::identity(3);
        assert!(cholesky_solve_in_place(&factor, inv.as_mut_slice(), 3, 3));
        assert!((&a * &inv).approx_eq(&Matrix::identity(3), 1e-12, 1e-12));
        let mut x = vec![1.0, 2.0, 3.0];
        assert!(cholesky_solve_in_place(&factor, &mut x, 3, 1));
        assert_eq!(ch.solve(&Matrix::col_vec(&[1.0, 2.0, 3.0]))?.as_slice(), x);
        assert!((&a * &Matrix::col_vec(&x)).approx_eq(
            &Matrix::col_vec(&[1.0, 2.0, 3.0]),
            1e-12,
            1e-12
        ));
        Ok(())
    }

    #[test]
    fn slice_solve_rejects_short_slices() {
        let factor = [2.0, 0.0, 1.0, 3.0];
        let mut b = [1.0, 2.0, 3.0];
        assert!(!cholesky_solve_in_place(&factor[..3], &mut b, 2, 1));
        assert!(!cholesky_solve_in_place(&factor, &mut b, 2, 2));
        assert!(!cholesky_solve_in_place(&factor, &mut b, usize::MAX, 1));
        assert!(!cholesky_solve_in_place(&factor, &mut b, 1, usize::MAX));
        assert_eq!(b, [1.0, 2.0, 3.0], "a rejected solve leaves b untouched");
        assert!(cholesky_solve_in_place(&[], &mut [], 0, 3));
    }

    /// The textbook left-looking factor: column `j` is formed from the
    /// finished columns `0..j`, each entry as one running difference.
    fn reference_factor(a: &mut [f64], n: usize) -> bool {
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

    /// The textbook solve: forward then backward substitution, one
    /// right-hand-side column after another.
    fn reference_solve(l: &[f64], b: &mut [f64], n: usize, m: usize) {
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

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The paired-row factor and the batched solve agree with the
        /// textbook loops bit for bit on SPD, near-singular and
        /// indefinite inputs: the same verdict, the same factor and
        /// solution, and the strict upper triangle never touched.
        #[test]
        fn factor_and_solve_match_textbook_loops(
            n in 1usize..=45,
            m in 1usize..=9,
            kind in 0u8..4,
            entries in prop::collection::vec(-1.0..1.0f64, 45 * 45),
            rhs in prop::collection::vec(-10.0..10.0f64, 45 * 9),
        ) {
            // M·Mᵀ over a full or rank-deficient M, shifted by a diagonal
            // that is comfortably positive, zero (trailing pivots at
            // rounding level, of either sign), barely positive or negative.
            let rank = if kind == 1 || kind == 2 { n.div_ceil(2) } else { n };
            let shift = [1.0, 0.0, 1e-13, -0.05][usize::from(kind)];
            let row = |i: usize| &entries[i * 45..i * 45 + rank];
            let mut a = vec![0.0; n * n];
            for i in 0..n {
                for j in 0..n {
                    let dot: f64 = row(i).iter().zip(row(j)).map(|(x, y)| x * y).sum();
                    a[i * n + j] = if i == j { dot + shift } else { dot };
                }
            }
            // Poison the strict upper triangle: neither loop may read it.
            for i in 0..n {
                for j in i + 1..n {
                    a[i * n + j] = f64::NAN;
                }
            }
            let mut fast = a.clone();
            let mut slow = a.clone();
            let ok = cholesky_in_place(&mut fast, n);
            prop_assert_eq!(ok, reference_factor(&mut slow, n));
            for i in 0..n {
                for j in i + 1..n {
                    prop_assert_eq!(fast[i * n + j].to_bits(), a[i * n + j].to_bits());
                }
            }
            if ok {
                prop_assert_eq!(bits(&fast), bits(&slow));
                let mut x = rhs[..n * m].to_vec();
                let mut y = x.clone();
                prop_assert!(cholesky_solve_in_place(&fast, &mut x, n, m));
                reference_solve(&slow, &mut y, n, m);
                prop_assert_eq!(bits(&x), bits(&y));
            }
        }
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
