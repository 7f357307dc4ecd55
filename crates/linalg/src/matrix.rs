use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::{Error, Result};

/// A dense, row-major matrix of `f64`.
///
/// `Matrix` is the workhorse of the whole stack: plants, controllers and
/// lifted closed-loop dynamics are all plain matrices. The type favours
/// explicitness over cleverness — shape errors are reported through
/// [`Error`] by the named methods ([`Matrix::matmul`], [`Matrix::add_mat`],
/// …). Two ergonomic surfaces panic instead, mirroring the standard
/// library: indexing (`m[(i, j)]`) panics on out-of-bounds access like
/// slices do, and the arithmetic operators (`+`, `-`, `*`, `+=`, `-=`)
/// panic on shape mismatch — use the fallible methods when shapes are not
/// statically known.
///
/// # Example
///
/// ```
/// use overrun_linalg::Matrix;
///
/// # fn main() -> Result<(), overrun_linalg::Error> {
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b)?;
/// assert_eq!(c, a);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidData`] if the rows have inconsistent lengths
    /// or the input is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(Error::InvalidData("empty row set".into()));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(Error::InvalidData(format!(
                    "row {i} has length {} but row 0 has length {cols}",
                    r.len()
                )));
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidData`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(Error::InvalidData(format!(
                "buffer of length {} cannot fill a {rows}x{cols} matrix",
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix whose `(i, j)` entry is `f(i, j)`.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn diag(entries: &[f64]) -> Self {
        let n = entries.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &v) in entries.iter().enumerate() {
            m.data[i * n + i] = v;
        }
        m
    }

    /// Creates an `n × 1` column vector from a slice.
    pub fn col_vec(entries: &[f64]) -> Self {
        Matrix {
            rows: entries.len(),
            cols: 1,
            data: entries.to_vec(),
        }
    }

    /// Creates a `1 × n` row vector from a slice.
    pub fn row_vec(entries: &[f64]) -> Self {
        Matrix {
            rows: 1,
            cols: entries.len(),
            data: entries.to_vec(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns the underlying row-major buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Returns the entry at `(i, j)`, or `None` when out of bounds.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> Option<f64> {
        if i < self.rows && j < self.cols {
            Some(self.data[i * self.cols + j])
        } else {
            None
        }
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new `Vec`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "column index {j} out of bounds");
        (0..self.rows)
            .map(|i| self.data[i * self.cols + j])
            .collect()
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        t
    }

    /// Applies `f` entry-wise, returning a new matrix.
    pub fn map<F: FnMut(f64) -> f64>(&self, mut f: F) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(Error::DimensionMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_add_into(rhs, &mut out)?;
        Ok(out)
    }

    /// Matrix product `self * rhs` written into `out`, without allocating.
    ///
    /// `out` is fully overwritten; it must already have shape
    /// `self.rows() × rhs.cols()`. The accumulation order is identical to
    /// [`Matrix::matmul`], so results are bit-identical to the allocating
    /// version.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if `self.cols() != rhs.rows()`
    /// or `out` has the wrong shape.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<()> {
        if out.rows != self.rows || out.cols != rhs.cols {
            return Err(Error::DimensionMismatch {
                op: "matmul_into(out)",
                lhs: (self.rows, rhs.cols),
                rhs: out.shape(),
            });
        }
        out.data.fill(0.0);
        self.matmul_add_into(rhs, out)
    }

    /// Accumulating product: `out += self * rhs`, without allocating.
    ///
    /// Same shape requirements and accumulation order as
    /// [`Matrix::matmul_into`], but the prior contents of `out` are kept.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] on inner-dimension or output
    /// shape disagreement.
    pub fn matmul_add_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.cols != rhs.rows {
            return Err(Error::DimensionMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        if out.rows != self.rows || out.cols != rhs.cols {
            return Err(Error::DimensionMismatch {
                op: "matmul_into(out)",
                lhs: (self.rows, rhs.cols),
                rhs: out.shape(),
            });
        }
        #[cfg(feature = "sanitize")]
        {
            crate::sanitize::check_input("matmul_add_into", "lhs", &self.data);
            crate::sanitize::check_input("matmul_add_into", "rhs", &rhs.data);
            crate::sanitize::check_input("matmul_add_into", "accumulator", &out.data);
        }
        // Square matrices up to `small::MAX_DIM` take the fixed-size kernel
        // (bit-identical accumulation order, see `small`).
        if self.rows == self.cols
            && rhs.rows == rhs.cols
            && crate::small::matmul_acc_dispatch(self.rows, &self.data, &rhs.data, &mut out.data)
        {
            #[cfg(feature = "sanitize")]
            crate::sanitize::check_output("matmul_add_into", &out.data);
            return Ok(());
        }
        // i-k-j loop order: streams through rhs rows, cache-friendly for
        // row-major storage.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a_ik = self.data[i * self.cols + k];
                if a_ik == 0.0 {
                    continue;
                }
                let rrow = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                let orow = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &r) in orow.iter_mut().zip(rrow) {
                    *o += a_ik * r;
                }
            }
        }
        #[cfg(feature = "sanitize")]
        crate::sanitize::check_output("matmul_add_into", &out.data);
        Ok(())
    }

    /// Matrix–vector product `self * x` written into `out`, without
    /// allocating. Slice-based so simulation hot loops can keep state in
    /// plain buffers. Accumulation order matches [`Matrix::matmul`] applied
    /// to an `n × 1` column.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if `x.len() != self.cols()` or
    /// `out.len() != self.rows()`.
    pub fn mul_vec_into(&self, x: &[f64], out: &mut [f64]) -> Result<()> {
        if out.len() != self.rows {
            return Err(Error::DimensionMismatch {
                op: "mul_vec_into(out)",
                lhs: (self.rows, 1),
                rhs: (out.len(), 1),
            });
        }
        out.fill(0.0);
        self.mul_vec_acc_into(x, out)
    }

    /// Accumulating matrix–vector product: `out += self * x`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] on length disagreement.
    pub fn mul_vec_acc_into(&self, x: &[f64], out: &mut [f64]) -> Result<()> {
        if x.len() != self.cols {
            return Err(Error::DimensionMismatch {
                op: "mul_vec",
                lhs: self.shape(),
                rhs: (x.len(), 1),
            });
        }
        if out.len() != self.rows {
            return Err(Error::DimensionMismatch {
                op: "mul_vec_into(out)",
                lhs: (self.rows, 1),
                rhs: (out.len(), 1),
            });
        }
        #[cfg(feature = "sanitize")]
        {
            crate::sanitize::check_input("mul_vec_acc_into", "lhs", &self.data);
            crate::sanitize::check_input("mul_vec_acc_into", "x", x);
            crate::sanitize::check_input("mul_vec_acc_into", "accumulator", out);
        }
        if self.rows == self.cols
            && crate::small::mul_vec_acc_dispatch(self.rows, &self.data, x, out)
        {
            #[cfg(feature = "sanitize")]
            crate::sanitize::check_output("mul_vec_acc_into", out);
            return Ok(());
        }
        for (i, o) in out.iter_mut().enumerate() {
            let arow = &self.data[i * self.cols..(i + 1) * self.cols];
            let mut acc = *o;
            // Zero-skip as in `matmul`, so results (including non-finite
            // propagation) are bit-identical to the allocating path.
            for (&a, &xv) in arow.iter().zip(x) {
                if a == 0.0 {
                    continue;
                }
                acc += a * xv;
            }
            *o = acc;
        }
        #[cfg(feature = "sanitize")]
        crate::sanitize::check_output("mul_vec_acc_into", out);
        Ok(())
    }

    /// Scales every entry by `s` in place (no allocation).
    pub fn scale_in_place(&mut self, s: f64) {
        #[cfg(feature = "sanitize")]
        {
            crate::sanitize::check_scalar("scale_in_place", "scale factor", s);
            crate::sanitize::check_input("scale_in_place", "self", &self.data);
        }
        for a in &mut self.data {
            *a *= s;
        }
        #[cfg(feature = "sanitize")]
        crate::sanitize::check_output("scale_in_place", &self.data);
    }

    /// Entry-wise sum `self + rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] on shape disagreement.
    pub fn add_mat(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Entry-wise difference `self - rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] on shape disagreement.
    pub fn sub_mat(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    fn zip_with<F: Fn(f64, f64) -> f64>(
        &self,
        rhs: &Matrix,
        op: &'static str,
        f: F,
    ) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(Error::DimensionMismatch {
                op,
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        #[cfg(feature = "sanitize")]
        {
            crate::sanitize::check_input(op, "lhs", &self.data);
            crate::sanitize::check_input(op, "rhs", &rhs.data);
        }
        let result = Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        };
        #[cfg(feature = "sanitize")]
        crate::sanitize::check_output(op, &result.data);
        Ok(result)
    }

    /// Scales every entry by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|x| x * s)
    }

    /// Extracts the sub-matrix with rows `r0..r0+nr` and columns `c0..c0+nc`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidData`] if the requested block exceeds the
    /// matrix bounds.
    pub fn submatrix(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> Result<Matrix> {
        if r0 + nr > self.rows || c0 + nc > self.cols {
            return Err(Error::InvalidData(format!(
                "block {nr}x{nc} at ({r0},{c0}) exceeds {}x{}",
                self.rows, self.cols
            )));
        }
        let mut out = Matrix::zeros(nr, nc);
        for i in 0..nr {
            let src = &self.data[(r0 + i) * self.cols + c0..(r0 + i) * self.cols + c0 + nc];
            out.data[i * nc..(i + 1) * nc].copy_from_slice(src);
        }
        Ok(out)
    }

    /// Writes `block` into this matrix with its top-left corner at `(r0, c0)`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidData`] if the block does not fit.
    pub fn set_block(&mut self, r0: usize, c0: usize, block: &Matrix) -> Result<()> {
        if r0 + block.rows > self.rows || c0 + block.cols > self.cols {
            return Err(Error::InvalidData(format!(
                "block {}x{} at ({r0},{c0}) exceeds {}x{}",
                block.rows, block.cols, self.rows, self.cols
            )));
        }
        for i in 0..block.rows {
            let src = &block.data[i * block.cols..(i + 1) * block.cols];
            let dst_off = (r0 + i) * self.cols + c0;
            self.data[dst_off..dst_off + block.cols].copy_from_slice(src);
        }
        Ok(())
    }

    /// Stacks `blocks` horizontally (same row count).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidData`] on empty input or row-count mismatch.
    pub fn hstack(blocks: &[&Matrix]) -> Result<Matrix> {
        if blocks.is_empty() {
            return Err(Error::InvalidData("hstack of zero blocks".into()));
        }
        let rows = blocks[0].rows;
        if blocks.iter().any(|b| b.rows != rows) {
            return Err(Error::InvalidData("hstack row mismatch".into()));
        }
        let cols = blocks.iter().map(|b| b.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        let mut c0 = 0;
        for b in blocks {
            out.set_block(0, c0, b)?;
            c0 += b.cols;
        }
        Ok(out)
    }

    /// Sum of the diagonal entries.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace of a non-square matrix");
        (0..self.rows).map(|i| self.data[i * self.cols + i]).sum()
    }

    /// Symmetrises the matrix in place: `(A + Aᵀ) / 2`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square(), "symmetrize of a non-square matrix");
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let avg = 0.5 * (self.data[i * self.cols + j] + self.data[j * self.cols + i]);
                self.data[i * self.cols + j] = avg;
                self.data[j * self.cols + i] = avg;
            }
        }
    }

    /// Largest absolute entry (`max |a_ij|`); zero for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// Returns `true` if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Checks entry-wise closeness: `|a_ij - b_ij| <= atol + rtol * |b_ij|`.
    pub fn approx_eq(&self, rhs: &Matrix, atol: f64, rtol: f64) -> bool {
        self.shape() == rhs.shape()
            && self
                .data
                .iter()
                .zip(&rhs.data)
                .all(|(&a, &b)| (a - b).abs() <= atol + rtol * b.abs())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  [")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:+.6e}", self.data[i * self.cols + j])?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:12.6}", self.data[i * self.cols + j])?;
            }
            if i + 1 < self.rows {
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $delegate:ident) => {
        impl $trait<&Matrix> for &Matrix {
            type Output = Matrix;
            fn $method(self, rhs: &Matrix) -> Matrix {
                self.$delegate(rhs).expect(concat!(
                    "shape mismatch in `",
                    stringify!($method),
                    "`; use `",
                    stringify!($delegate),
                    "` for a fallible version"
                ))
            }
        }
        impl $trait<Matrix> for Matrix {
            type Output = Matrix;
            fn $method(self, rhs: Matrix) -> Matrix {
                (&self).$method(&rhs)
            }
        }
        impl $trait<&Matrix> for Matrix {
            type Output = Matrix;
            fn $method(self, rhs: &Matrix) -> Matrix {
                (&self).$method(rhs)
            }
        }
        impl $trait<Matrix> for &Matrix {
            type Output = Matrix;
            fn $method(self, rhs: Matrix) -> Matrix {
                self.$method(&rhs)
            }
        }
    };
}

impl_binop!(Add, add, add_mat);
impl_binop!(Sub, sub, sub_mat);
impl_binop!(Mul, mul, matmul);

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, s: f64) -> Matrix {
        self.scale(s)
    }
}

impl Mul<f64> for Matrix {
    type Output = Matrix;
    fn mul(self, s: f64) -> Matrix {
        self.scale(s)
    }
}

impl Mul<&Matrix> for f64 {
    type Output = Matrix;
    fn mul(self, m: &Matrix) -> Matrix {
        m.scale(self)
    }
}

impl Mul<Matrix> for f64 {
    type Output = Matrix;
    fn mul(self, m: Matrix) -> Matrix {
        m.scale(self)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;
    fn neg(self) -> Matrix {
        self.scale(-1.0)
    }
}

impl Neg for Matrix {
    type Output = Matrix;
    fn neg(self) -> Matrix {
        self.scale(-1.0)
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "shape mismatch in +=");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl SubAssign<&Matrix> for Matrix {
    fn sub_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "shape mismatch in -=");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }
}

impl MulAssign<f64> for Matrix {
    fn mul_assign(&mut self, s: f64) {
        for a in &mut self.data {
            *a *= s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i.trace(), 3.0);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, Error::InvalidData(_)));
    }

    #[test]
    fn from_vec_roundtrip() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.clone().into_vec(), vec![1.0, 2.0, 3.0, 4.0]);
        assert!(Matrix::from_vec(2, 2, vec![1.0]).is_err());
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        let expected = Matrix::from_rows(&[&[58.0, 64.0], &[139.0, 154.0]]).unwrap();
        assert_eq!(c, expected);
    }

    #[test]
    fn matmul_shape_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(Error::DimensionMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn matmul_into_matches_matmul_bitwise() {
        let a = Matrix::from_fn(4, 3, |i, j| {
            ((i * 7 + j * 13) % 5) as f64 - 2.0 + 0.1 * i as f64
        });
        let b = Matrix::from_fn(3, 5, |i, j| 1.0 / (1.0 + (i + 2 * j) as f64));
        let expected = a.matmul(&b).unwrap();
        let mut out = Matrix::zeros(4, 5);
        // Pre-poison to prove the buffer is fully overwritten.
        out.as_mut_slice().fill(f64::NAN);
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out, expected);
        // Accumulating variant adds on top (accumulation interleaves with
        // the existing contents, so only approximately 2x).
        a.matmul_add_into(&b, &mut out).unwrap();
        assert!(out.approx_eq(&expected.scale(2.0), 1e-14, 1e-14));
        // Shape errors on both inner dimension and output shape.
        assert!(a.matmul_into(&Matrix::zeros(4, 4), &mut out).is_err());
        let mut bad = Matrix::zeros(2, 2);
        assert!(a.matmul_into(&b, &mut bad).is_err());
    }

    #[test]
    fn small_kernel_dispatch_matches_generic_bitwise() {
        // A square product with n <= 8 dispatches to the fixed-size kernel.
        // The same output columns computed inside a rectangular product take
        // the generic loop (rhs not square), with an identical per-entry
        // accumulation sequence — so the two must agree bit for bit.
        for n in 1..=9usize {
            let a = Matrix::from_fn(n, n, |i, j| {
                if (i * n + j) % 4 == 0 {
                    0.0
                } else {
                    ((i * 7 + j * 3) % 11) as f64 / 7.0 - 0.6
                }
            });
            let b = Matrix::from_fn(n, n, |i, j| ((i * 5 + j * 13) % 17) as f64 / 5.0 - 1.4);
            let square = a.matmul(&b).unwrap();
            let wide = Matrix::hstack(&[&b, &Matrix::zeros(n, 1)]).unwrap();
            let padded = a.matmul(&wide).unwrap();
            for i in 0..n {
                for j in 0..n {
                    assert_eq!(
                        square[(i, j)].to_bits(),
                        padded[(i, j)].to_bits(),
                        "matmul differs at n={n} ({i},{j})"
                    );
                }
            }
            // Vector kernel vs the generic product against an n×1 column.
            let x: Vec<f64> = (0..n).map(|i| (i as f64) * 0.3 - 0.7).collect();
            let col = a.matmul(&Matrix::col_vec(&x)).unwrap();
            let mut out = vec![f64::NAN; n];
            a.mul_vec_into(&x, &mut out).unwrap();
            for (i, &o) in out.iter().enumerate() {
                assert_eq!(
                    o.to_bits(),
                    col.as_slice()[i].to_bits(),
                    "mul_vec differs at n={n} ({i})"
                );
            }
        }
    }

    #[test]
    fn mul_vec_into_matches_matmul_column() {
        let a = Matrix::from_fn(3, 4, |i, j| {
            if (i + j) % 3 == 0 {
                0.0
            } else {
                (i + j) as f64
            }
        });
        let x = [1.5, -2.0, 0.25, 3.0];
        let expected = a.matmul(&Matrix::col_vec(&x)).unwrap();
        let mut out = [f64::NAN; 3];
        a.mul_vec_into(&x, &mut out).unwrap();
        assert_eq!(&out[..], expected.as_slice());
        a.mul_vec_acc_into(&x, &mut out).unwrap();
        assert_eq!(&out[..], expected.scale(2.0).as_slice());
        assert!(a.mul_vec_into(&x[..3], &mut out).is_err());
        assert!(a.mul_vec_into(&x, &mut out[..2]).is_err());
    }

    #[test]
    fn scale_in_place_matches_scale() {
        let a = Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64 - 2.5);
        let expected = a.scale(-0.75);
        let mut b = a.clone();
        b.scale_in_place(-0.75);
        assert_eq!(b, expected);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn operators_match_methods() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::identity(2);
        assert_eq!(&a + &b, a.add_mat(&b).unwrap());
        assert_eq!(&a - &b, a.sub_mat(&b).unwrap());
        assert_eq!(&a * &b, a.clone());
        assert_eq!(&a * 2.0, a.scale(2.0));
        assert_eq!(2.0 * &a, a.scale(2.0));
        assert_eq!(-&a, a.scale(-1.0));
    }

    #[test]
    fn block_ops() {
        let a = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let sub = a.submatrix(1, 2, 2, 2).unwrap();
        assert_eq!(
            sub,
            Matrix::from_rows(&[&[6.0, 7.0], &[10.0, 11.0]]).unwrap()
        );
        let mut z = Matrix::zeros(4, 4);
        z.set_block(2, 2, &sub).unwrap();
        assert_eq!(z[(2, 2)], 6.0);
        assert_eq!(z[(3, 3)], 11.0);
        assert!(z.set_block(3, 3, &sub).is_err());
        assert!(a.submatrix(3, 3, 2, 2).is_err());
    }

    #[test]
    fn stacking() {
        let a = Matrix::identity(2);
        let b = Matrix::zeros(2, 1);
        let h = Matrix::hstack(&[&a, &b]).unwrap();
        assert_eq!(h.shape(), (2, 3));
        assert!(Matrix::hstack(&[&a, &Matrix::zeros(3, 1)]).is_err());
    }

    #[test]
    fn symmetrize_and_max_abs() {
        let mut a = Matrix::from_rows(&[&[1.0, 4.0], &[2.0, -5.0]]).unwrap();
        a.symmetrize();
        assert_eq!(a[(0, 1)], 3.0);
        assert_eq!(a[(1, 0)], 3.0);
        assert_eq!(a.max_abs(), 5.0);
    }

    #[test]
    fn approx_eq_tolerances() {
        let a = Matrix::identity(2);
        let mut b = a.clone();
        b[(0, 0)] = 1.0 + 1e-12;
        assert!(a.approx_eq(&b, 1e-10, 0.0));
        assert!(!a.approx_eq(&b, 1e-14, 0.0));
        assert!(!a.approx_eq(&Matrix::zeros(3, 3), 1.0, 1.0));
    }

    #[test]
    fn display_and_debug_nonempty() {
        let a = Matrix::identity(1);
        assert!(!format!("{a}").is_empty());
        assert!(format!("{a:?}").contains("Matrix 1x1"));
    }

    #[test]
    fn diag_and_vectors() {
        let d = Matrix::diag(&[1.0, 2.0]);
        assert_eq!(d[(1, 1)], 2.0);
        assert_eq!(d[(0, 1)], 0.0);
        let c = Matrix::col_vec(&[1.0, 2.0, 3.0]);
        assert_eq!(c.shape(), (3, 1));
        let r = Matrix::row_vec(&[1.0, 2.0, 3.0]);
        assert_eq!(r.shape(), (1, 3));
    }
}
