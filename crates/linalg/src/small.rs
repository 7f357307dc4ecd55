//! Const-generic kernels for small square matrices (`n ≤ 8`).
//!
//! The JSR product-tree searches multiply millions of lifted closed-loop
//! matrices `Ω(h)` (`ξ = [x; z̃; ũ; u]`, dimension `n + s + 2r`): 5 for the
//! Table-I PI loop and 9 for the Table-II PMSM LQR, 7 once deflated. Those
//! up to `MAX_DIM` take the kernels here; the larger ones the generic
//! path. For such sizes the generic row-major loops in [`crate::Matrix`]
//! spend a measurable fraction of their time on slice bounds checks and
//! loop-counter overhead. The kernels here are generic
//! over the dimension `N`, so the compiler fully unrolls the inner loops
//! and proves every access in bounds (each buffer is viewed as `N` rows of
//! `[f64; N]` via `as_chunks`) — no `unsafe` required.
//!
//! **Bit-identity contract**: every kernel performs the *same floating-point
//! operations in the same order* as the generic path it replaces, including
//! the `a_ik == 0.0` zero-skip of [`crate::Matrix::matmul`]. Dispatching by
//! runtime dimension therefore never changes a single output bit — enforced
//! by unit and property tests.

/// Largest dimension with a dedicated kernel; larger matrices take the
/// generic path.
pub const MAX_DIM: usize = 8;

/// The first `N × N` entries of `data` as `N` rows of length `N`.
#[inline(always)]
fn rows<const N: usize>(data: &[f64]) -> &[[f64; N]] {
    data[..N * N].as_chunks::<N>().0
}

/// Accumulating product `out += a * b` for row-major `N × N` buffers.
///
/// Same i-k-j loop order and zero-skip as [`crate::Matrix::matmul_add_into`],
/// so the result is bit-identical to the generic path.
///
/// # Panics
///
/// Panics if any buffer is shorter than `N * N`.
#[inline(always)]
// Index loops transliterate the generic path so the float operation order
// (and thus every rounded bit) is provably the same.
#[allow(clippy::needless_range_loop)]
fn matmul_acc<const N: usize>(a: &[f64], b: &[f64], out: &mut [f64]) {
    let (arows, brows) = (rows::<N>(a), rows::<N>(b));
    let orows = out[..N * N].as_chunks_mut::<N>().0;
    for i in 0..N {
        let arow = &arows[i];
        let orow = &mut orows[i];
        for k in 0..N {
            let a_ik = arow[k];
            if a_ik == 0.0 {
                continue;
            }
            let brow = &brows[k];
            for j in 0..N {
                orow[j] += a_ik * brow[j];
            }
        }
    }
}

/// Accumulating matrix–vector product `out += a * x` for a row-major
/// `N × N` buffer, matching [`crate::Matrix::mul_vec_acc_into`] bit for bit
/// (including the zero-skip on `a` entries).
///
/// # Panics
///
/// Panics if `a` is shorter than `N * N` or `x`/`out` shorter than `N`.
#[inline(always)]
// See `matmul_acc`: index loops keep the generic float operation order.
#[allow(clippy::needless_range_loop)]
fn mul_vec_acc<const N: usize>(a: &[f64], x: &[f64], out: &mut [f64]) {
    let xv = &x[..N].as_chunks::<N>().0[0];
    let arows = rows::<N>(a);
    for i in 0..N {
        let arow = &arows[i];
        let mut acc = out[i];
        for k in 0..N {
            let a_ik = arow[k];
            if a_ik == 0.0 {
                continue;
            }
            acc += a_ik * xv[k];
        }
        out[i] = acc;
    }
}

/// Sum of squared prescaled entries `Σ (a_ij / scale)²` of a row-major
/// `N × N` buffer, in the same sequential order as the generic Frobenius
/// accumulation in [`crate::norm_fro`].
///
/// # Panics
///
/// Panics if `a` is shorter than `N * N`.
#[inline(always)]
fn fro_sumsq<const N: usize>(a: &[f64], scale: f64) -> f64 {
    let mut sum = 0.0_f64;
    for arow in rows::<N>(a) {
        for &x in arow {
            let v = x / scale;
            sum += v * v;
        }
    }
    sum
}

/// Expands to a `match` on the runtime dimension that invokes a
/// const-generic kernel for every supported `N`, evaluating to `true` when
/// a kernel ran and `false` when the caller must take the generic path.
macro_rules! small_square_dispatch {
    ($n:expr, $kernel:ident($($arg:expr),*)) => {
        match $n {
            1 => {
                $kernel::<1>($($arg),*);
                true
            }
            2 => {
                $kernel::<2>($($arg),*);
                true
            }
            3 => {
                $kernel::<3>($($arg),*);
                true
            }
            4 => {
                $kernel::<4>($($arg),*);
                true
            }
            5 => {
                $kernel::<5>($($arg),*);
                true
            }
            6 => {
                $kernel::<6>($($arg),*);
                true
            }
            7 => {
                $kernel::<7>($($arg),*);
                true
            }
            8 => {
                $kernel::<8>($($arg),*);
                true
            }
            _ => false,
        }
    };
}

/// Runtime dispatch for [`matmul_acc`]: runs the fixed-size kernel when
/// `n ≤ MAX_DIM`, returning `false` (buffers untouched) otherwise.
#[inline]
pub(crate) fn matmul_acc_dispatch(n: usize, a: &[f64], b: &[f64], out: &mut [f64]) -> bool {
    small_square_dispatch!(n, matmul_acc(a, b, out))
}

/// Runtime dispatch for [`mul_vec_acc`].
#[inline]
pub(crate) fn mul_vec_acc_dispatch(n: usize, a: &[f64], x: &[f64], out: &mut [f64]) -> bool {
    small_square_dispatch!(n, mul_vec_acc(a, x, out))
}

/// Runtime dispatch for [`fro_sumsq`]: `None` when `n > MAX_DIM`.
#[inline]
pub(crate) fn fro_sumsq_dispatch(n: usize, a: &[f64], scale: f64) -> Option<f64> {
    Some(match n {
        1 => fro_sumsq::<1>(a, scale),
        2 => fro_sumsq::<2>(a, scale),
        3 => fro_sumsq::<3>(a, scale),
        4 => fro_sumsq::<4>(a, scale),
        5 => fro_sumsq::<5>(a, scale),
        6 => fro_sumsq::<6>(a, scale),
        7 => fro_sumsq::<7>(a, scale),
        8 => fro_sumsq::<8>(a, scale),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Transliteration of the generic `matmul_add_into` loop, kept here as
    /// the reference the kernels are pinned against.
    fn generic_matmul_acc(n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
        for i in 0..n {
            for k in 0..n {
                let a_ik = a[i * n + k];
                if a_ik == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[i * n + j] += a_ik * b[k * n + j];
                }
            }
        }
    }

    fn test_data(n: usize, salt: u64) -> Vec<f64> {
        // Deterministic, irregular values with a sprinkling of exact zeros
        // so the zero-skip path is exercised.
        (0..n * n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt;
                if h.is_multiple_of(5) {
                    0.0
                } else {
                    ((h % 2000) as f64 - 1000.0) / 333.0
                }
            })
            .collect()
    }

    #[test]
    fn matmul_acc_matches_generic_bitwise() {
        macro_rules! check {
            ($($n:literal),*) => {$({
                let a = test_data($n, 1);
                let b = test_data($n, 2);
                let mut out_k = test_data($n, 3);
                let mut out_g = out_k.clone();
                matmul_acc::<$n>(&a, &b, &mut out_k);
                generic_matmul_acc($n, &a, &b, &mut out_g);
                for (x, y) in out_k.iter().zip(&out_g) {
                    assert_eq!(x.to_bits(), y.to_bits(), "n = {}", $n);
                }
                assert!(matmul_acc_dispatch($n, &a, &b, &mut out_k));
            })*};
        }
        check!(1, 2, 3, 4, 5, 6, 7, 8);
        let mut big = test_data(9, 3);
        assert!(!matmul_acc_dispatch(
            9,
            &test_data(9, 1),
            &test_data(9, 2),
            &mut big
        ));
    }

    #[test]
    fn mul_vec_acc_matches_generic_bitwise() {
        for n in 1..=MAX_DIM {
            let a = test_data(n, 7);
            let x: Vec<f64> = test_data(n, 8)[..n].to_vec();
            let mut out_k: Vec<f64> = test_data(n, 9)[..n].to_vec();
            let mut out_g = out_k.clone();
            assert!(mul_vec_acc_dispatch(n, &a, &x, &mut out_k));
            for (i, o) in out_g.iter_mut().enumerate() {
                let mut acc = *o;
                for k in 0..n {
                    let a_ik = a[i * n + k];
                    if a_ik == 0.0 {
                        continue;
                    }
                    acc += a_ik * x[k];
                }
                *o = acc;
            }
            for (x, y) in out_k.iter().zip(&out_g) {
                assert_eq!(x.to_bits(), y.to_bits(), "n = {n}");
            }
        }
    }

    #[test]
    fn fro_sumsq_matches_generic_bitwise() {
        for n in 1..=MAX_DIM {
            let a = test_data(n, 11);
            let scale = 2.7;
            let kernel = fro_sumsq_dispatch(n, &a, scale).unwrap();
            let generic: f64 = a
                .iter()
                .map(|x| {
                    let v = x / scale;
                    v * v
                })
                .sum();
            assert_eq!(kernel.to_bits(), generic.to_bits(), "n = {n}");
        }
        assert!(fro_sumsq_dispatch(9, &test_data(9, 11), 1.0).is_none());
    }
}
