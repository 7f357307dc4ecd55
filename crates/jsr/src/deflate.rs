//! Deflation of coordinates that every member of a set repeats.
//!
//! When rows `j` and `k` are equal in every `Aᵢ`, each `Aᵢ` maps into the
//! subspace `V = {ξ : ξ_j = ξ_k}`. With `E` the embedding that copies
//! coordinate `k` into `j` and `S` the deletion of row `j` (`S·E = I`),
//! `Aᵢ·E = E·Bᵢ` for `Bᵢ = S·Aᵢ·E`, so in coordinates split along `V` every
//! member reads `[[Bᵢ, *], [0, 0]]` and the JSR of `{Bᵢ}` equals that of
//! `{Aᵢ}` (block-triangular reduction; Jungers, *The Joint Spectral
//! Radius*, 2009). Products `A_w` and `B_w` share their nonzero
//! eigenvalues, so lower bounds carry over as well.
//!
//! The lifted closed loop of a controller whose state is its own delayed
//! output (the delayed LQR, `z[k] = u[k]`) holds that state twice, and
//! certification then works on matrices two or more dimensions too large.
//! [`repeated_rows`] is the row test behind [`deflate`]; the closed-loop
//! simulator of the control crate applies it to its own `Ω(h)` as well.

use std::borrow::Cow;
use std::ops::Range;

use overrun_linalg::Matrix;

use crate::{MatrixSet, Result};

/// Removes every coordinate whose row repeats an earlier row in every
/// member, exactly: `Bᵢ = S·Aᵢ·E` deletes row `j`, adds column `j` into
/// column `k` and deletes column `j`, repeated until no row repeats. The
/// JSR is unchanged.
///
/// A set without repeated rows comes back borrowed, untouched. Products of
/// members keep their repeated rows bit for bit (every row of a product is
/// formed by the same sums), so power-lifted alphabets deflate too.
///
/// # Errors
///
/// Propagates validation errors from [`MatrixSet::new`].
///
/// # Example
///
/// ```
/// use overrun_jsr::{deflate, MatrixSet};
/// use overrun_linalg::Matrix;
///
/// # fn main() -> Result<(), overrun_jsr::Error> {
/// // Rows 0 and 2 agree: the set maps into {ξ₀ = ξ₂}.
/// let a = Matrix::from_rows(&[&[0.5, 0.1, 0.0], &[0.2, 0.3, 0.4], &[0.5, 0.1, 0.0]])?;
/// let set = MatrixSet::new(vec![a])?;
/// assert_eq!(deflate(&set)?.dim(), 2);
/// # Ok(())
/// # }
/// ```
pub fn deflate(set: &MatrixSet) -> Result<Cow<'_, MatrixSet>> {
    let first = |m: &[Matrix]| repeated_rows(m, 0..m.first().map_or(0, Matrix::rows)).next();
    let Some(mut pair) = first(set.matrices()) else {
        return Ok(Cow::Borrowed(set));
    };
    let mut matrices = set.matrices().to_vec();
    loop {
        matrices = matrices.iter().map(|a| merge(a, pair)).collect();
        match first(&matrices) {
            Some(next) => pair = next,
            None => return MatrixSet::new(matrices).map(Cow::Owned),
        }
    }
}

/// Every row `j` of `rows` that is equal, in every matrix, to an earlier
/// row `k` of `rows`: `(j, k)` with the smallest such `k`, in increasing
/// `j`. Each `k` found is the first of its rows, so it never repeats
/// another. The matrices need the same number of rows, not of columns; an
/// empty slice repeats nothing.
///
/// # Panics
///
/// Panics if `rows` reaches past a matrix's last row.
pub fn repeated_rows(
    matrices: &[Matrix],
    rows: Range<usize>,
) -> impl Iterator<Item = (usize, usize)> + '_ {
    let start = rows.start;
    let rows = if matrices.is_empty() { 0..0 } else { rows };
    rows.filter_map(move |j| {
        (start..j)
            .find(|&k| matrices.iter().all(|a| a.row(j) == a.row(k)))
            .map(|k| (j, k))
    })
}

/// `S·A·E` for the repeated pair `(j, k)`, `k < j`.
fn merge(a: &Matrix, (j, k): (usize, usize)) -> Matrix {
    let n = a.rows() - 1;
    let old = |i: usize| if i < j { i } else { i + 1 };
    Matrix::from_fn(n, n, |r, c| {
        let r = old(r);
        if c == k {
            a[(r, k)] + a[(r, j)]
        } else {
            a[(r, old(c))]
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use overrun_linalg::spectral_radius;

    /// `ρ(A_w)` for every word of length 1..=`len`, in a fixed order.
    fn product_radii(set: &MatrixSet, len: usize) -> Vec<f64> {
        let mut radii = Vec::new();
        let mut level = vec![Matrix::identity(set.dim())];
        for _ in 0..len {
            level = level
                .iter()
                .flat_map(|p| set.iter().map(move |a| a.matmul(p).unwrap()))
                .collect();
            radii.extend(level.iter().map(|p| spectral_radius(p).unwrap()));
        }
        radii
    }

    /// Three 6×6 members with row 1 repeated at 3 and row 2 at 4 and 5
    /// (a chain of three), so three coordinates go.
    fn planted() -> MatrixSet {
        let rows = |seed: f64| {
            let base = [
                [0.30, -0.20, 0.10, 0.05, 0.00, 0.12],
                [0.10, 0.40, -0.30, 0.20, 0.10, -0.05],
                [-0.25, 0.15, 0.20, 0.00, 0.30, 0.10],
                [0.10, 0.40, -0.30, 0.20, 0.10, -0.05],
                [-0.25, 0.15, 0.20, 0.00, 0.30, 0.10],
                [-0.25, 0.15, 0.20, 0.00, 0.30, 0.10],
            ];
            Matrix::from_fn(6, 6, |i, j| {
                let dup = [0, 1, 2, 1, 2, 2][i];
                base[i][j] + seed * (dup as f64 + 1.0) * (j as f64 - 2.5) / 10.0
            })
        };
        MatrixSet::new(vec![rows(0.0), rows(0.7), rows(-0.4)]).unwrap()
    }

    #[test]
    fn planted_repeats_deflate_and_keep_every_product_radius() {
        let set = planted();
        let reduced = deflate(&set).unwrap();
        assert_eq!(reduced.dim(), 3);
        assert_eq!(reduced.len(), set.len());
        let (full, small) = (product_radii(&set, 6), product_radii(&reduced, 6));
        assert_eq!(full.len(), 3 + 9 + 27 + 81 + 243 + 729);
        for (a, b) in full.iter().zip(&small) {
            assert!((a - b).abs() <= 1e-12 * a.max(1e-300), "{a} vs {b}");
        }
        // The length-2 products keep the repeats, as power lifting needs.
        let squares = set
            .iter()
            .flat_map(|a| set.iter().map(move |b| a.matmul(b).unwrap()))
            .collect();
        let lifted = MatrixSet::new(squares).unwrap();
        assert_eq!(deflate(&lifted).unwrap().dim(), 3);
    }

    #[test]
    fn merges_exposing_a_new_repeat_are_deflated_too() {
        // Rows 0 and 1 differ only in columns 2 and 3, which rows 2 and 3
        // repeat; merging column 3 into 2 makes rows 0 and 1 equal.
        let a = Matrix::from_rows(&[
            &[0.1, 0.2, 0.3, 0.0],
            &[0.1, 0.2, 0.0, 0.3],
            &[0.4, -0.1, 0.2, 0.1],
            &[0.4, -0.1, 0.2, 0.1],
        ])
        .unwrap();
        let set = MatrixSet::new(vec![a]).unwrap();
        assert_eq!(deflate(&set).unwrap().dim(), 2);
    }

    #[test]
    fn set_without_repeats_is_returned_untouched() {
        let a = Matrix::from_rows(&[&[0.5, 0.5], &[0.5, 0.4]]).unwrap();
        let b = Matrix::from_rows(&[&[0.1, 0.0], &[0.0, 0.1]]).unwrap();
        let set = MatrixSet::new(vec![a, b]).unwrap();
        let out = deflate(&set).unwrap();
        assert!(matches!(out, Cow::Borrowed(_)));
        assert_eq!(out.dim(), 2);
        for (x, y) in set.iter().zip(out.iter()) {
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(x), bits(y));
        }
    }

    #[test]
    fn repeated_rows_stay_in_range_and_point_at_the_first_row() {
        let set = planted();
        let all: Vec<_> = repeated_rows(set.matrices(), 0..6).collect();
        assert_eq!(all, [(3, 1), (4, 2), (5, 2)]);
        assert_eq!(
            repeated_rows(set.matrices(), 2..6).collect::<Vec<_>>(),
            [(4, 2), (5, 2)]
        );
        // Row 1 is outside the range, so row 3 has nothing to repeat.
        assert_eq!(
            repeated_rows(set.matrices(), 3..6).collect::<Vec<_>>(),
            [(5, 4)]
        );
        assert_eq!(repeated_rows(&[], 0..6).count(), 0);
    }

    #[test]
    fn rows_equal_in_one_member_only_are_kept() {
        let a = Matrix::from_rows(&[&[0.5, 0.1], &[0.5, 0.1]]).unwrap();
        let b = Matrix::from_rows(&[&[0.5, 0.1], &[0.2, 0.1]]).unwrap();
        let set = MatrixSet::new(vec![a, b]).unwrap();
        assert_eq!(deflate(&set).unwrap().dim(), 2);
    }
}
