//! Matrix norms and diagonal balancing.

use crate::{Matrix, Result};

/// Maximum absolute column sum (induced 1-norm).
pub fn norm_1(m: &Matrix) -> f64 {
    let mut best = 0.0_f64;
    for j in 0..m.cols() {
        let s: f64 = (0..m.rows()).map(|i| m[(i, j)].abs()).sum();
        best = best.max(s);
    }
    best
}

/// Maximum absolute row sum (induced ∞-norm).
pub fn norm_inf(m: &Matrix) -> f64 {
    let mut best = 0.0_f64;
    for i in 0..m.rows() {
        let s: f64 = m.row(i).iter().map(|x| x.abs()).sum();
        best = best.max(s);
    }
    best
}

/// Frobenius norm `sqrt(Σ a_ij²)`.
///
/// Accumulated with a `max_abs` prescale so extreme-but-representable
/// magnitudes (entries near `1e±200`) neither underflow to zero nor
/// overflow to infinity — an under-estimated norm here would silently
/// invalidate the JSR stability certificates built on top of it.
pub fn norm_fro(m: &Matrix) -> f64 {
    let scale = m.max_abs();
    if scale == 0.0 || !scale.is_finite() {
        return scale;
    }
    // Small square matrices take the unrolled kernel; the accumulation
    // order is the same sequential pass, so the result is bit-identical.
    let sum: f64 = if m.is_square() {
        crate::small::fro_sumsq_dispatch(m.rows(), m.as_slice(), scale)
    } else {
        None
    }
    .unwrap_or_else(|| {
        m.as_slice()
            .iter()
            .map(|x| {
                let v = x / scale;
                v * v
            })
            .sum()
    });
    sum.sqrt() * scale
}

/// Multiplicative guard baked into the cheap spectral bounds.
///
/// The cheap bounds must bracket the *computed* [`norm_2`] /
/// [`crate::spectral_radius`], not just the mathematical quantities: the
/// exact routines go through a QR eigenvalue iteration whose result can
/// overshoot the theoretical bound by rounding (observed ≲ 1e-12 relative),
/// and the O(n²) accumulations here associate differently than the exact
/// path. A relative guard of 1e-9 dwarfs both error sources while giving up
/// a negligible amount of screening power.
const GUARD: f64 = 1.0 + 1e-9;

/// Collatz–Wielandt refinement sweeps applied to the upper bounds of
/// square matrices. Each sweep costs O(n²); the certificates typically
/// settle within a handful of iterations, and every iterate is a valid
/// bound on its own, so the count only trades tightness against time.
const CW_ITERS: usize = 10;

/// `out ← A·A` for a square matrix stored row-major, in the plain i-k-j
/// order with the zero-skip the small-kernel paths use. `out` is fully
/// overwritten and must not alias `a`.
fn mat_sq_into(a: &[f64], n: usize, out: &mut [f64]) {
    out[..n * n].fill(0.0);
    for i in 0..n {
        for k in 0..n {
            let aik = a[i * n + k];
            if aik == 0.0 {
                continue;
            }
            for j in 0..n {
                out[i * n + j] += aik * a[k * n + j];
            }
        }
    }
}

/// Certified Collatz–Wielandt upper bound on `ρ(|A|) ≥ ρ(A)` for a square
/// matrix stored row-major in `a`. Every power iterate of a strictly
/// positive vector yields the valid bound `max_i (|A| x)_i / x_i`, so the
/// running minimum is certified regardless of convergence; the loop stops
/// early if an iterate loses strict positivity (reducible `|A|`), keeping
/// the last sound value. `x`/`y` are caller-provided iteration buffers of
/// length ≥ `n` — this sits on the screening hot path and must not
/// allocate.
fn cw_upper(a: &[f64], n: usize, x: &mut [f64], y: &mut [f64]) -> f64 {
    let x = &mut x[..n];
    let y = &mut y[..n];
    let mut best = f64::INFINITY;
    x.fill(1.0);
    for _ in 0..CW_ITERS {
        for (i, yi) in y.iter_mut().enumerate() {
            *yi = (0..n).map(|j| a[i * n + j].abs() * x[j]).sum();
        }
        let ratio = y
            .iter()
            .zip(x.iter())
            .map(|(&yi, &xi)| yi / xi)
            .fold(0.0_f64, f64::max);
        best = best.min(ratio);
        let ymax = y.iter().fold(0.0_f64, |acc, &v| acc.max(v));
        // `v <= 0.0 || v.is_nan()` (not `!(v > 0.0)`): zero/negative AND
        // NaN iterates must all stop the iteration with the last sound
        // certificate.
        if y.iter().any(|&v| v <= 0.0 || v.is_nan()) || !ymax.is_finite() {
            break;
        }
        for (xi, &yi) in x.iter_mut().zip(y.iter()) {
            *xi = yi / ymax;
        }
    }
    best
}

/// Power-kick Collatz–Wielandt refinement for a square matrix. Write
/// `Q = M/scale`. For any nonnegative matrix `A` and ANY strictly positive
/// vector `x`, `ρ(A) ≤ max_i (A x)_i / x_i` (Collatz–Wielandt), and
/// entrywise domination gives `ρ(B) ≤ ρ(|B|)` for arbitrary `B`.
/// Combining:
///
///   ρ(M)/scale = ρ(Q)       ≤ min( CW(|Q²|)^{1/2}, CW(|Q⁴|)^{1/4} ),
///   (‖M‖₂/scale)² = ρ(QᵀQ)  ≤ CW(|(QᵀQ)²|)^{1/2},
///
/// where `CW(A)` power-iterates the certificate toward the Perron root
/// `ρ(A) = inf_D ‖D A D⁻¹‖_∞`. The multiplication levels (`Q²`, `QᵀQ` and
/// their squares) are the decisive tighteners: forming a product *before*
/// taking absolute values captures the sign cancellations that make every
/// fixed induced norm of a non-normal product overshoot badly, and each
/// root halves what overshoot remains. First-level certificates (`CW(|Q|)`,
/// `CW(|QᵀQ|)`) are deliberately not evaluated — power iteration on the
/// squared matrices converges strictly faster (eigenvalue gaps square), so
/// the squared levels dominate them in practice at a third less CW work.
///
/// Rounding in the floating-point products is NOT covered by the relative
/// `GUARD` when cancellation makes the true Perron root tiny, so an
/// absolute slop dominating the entrywise product error (entries bounded by
/// n, n³; error ≲ n⁵ eps after amplification through both squaring levels)
/// is added before the roots — it only loosens the certificates.
///
/// `ws` is a caller-provided workspace of length ≥ `3n² + 2n`; the function
/// performs no allocation. Returns `(cw_radius, cw_norm_sq)` in the scaled
/// domain: `ρ(M) ≤ cw_radius · scale`, `‖M‖₂ ≤ sqrt(cw_norm_sq) · scale`.
fn cw_refine(data: &[f64], n: usize, scale: f64, ws: &mut [f64]) -> (f64, f64) {
    let (qs, rest) = ws.split_at_mut(n * n);
    let (gram, rest) = rest.split_at_mut(n * n);
    let (square, rest) = rest.split_at_mut(n * n);
    let (x, y) = rest.split_at_mut(n);
    for (q, &v) in qs.iter_mut().zip(data) {
        *q = v / scale;
    }
    // G = QᵀQ and S = Q² in one fused i-k-j pass; |q| ≤ 1 keeps every
    // accumulator within [−n, n], so no further scaling is needed.
    gram.fill(0.0);
    square.fill(0.0);
    for i in 0..n {
        for k in 0..n {
            let qik = qs[i * n + k];
            if qik == 0.0 {
                continue;
            }
            for j in 0..n {
                square[i * n + j] += qik * qs[k * n + j];
                gram[k * n + j] += qik * qs[i * n + j];
            }
        }
    }
    // Second squaring level: G² and S² = Q⁴ capture another round of sign
    // cancellation (`ρ(G) = ρ(G²)^{1/2}` for symmetric `G`,
    // `ρ(Q)⁴ = ρ(Q⁴) ≤ ρ(|Q⁴|)`), and the fourth root deflates whatever
    // overshoot |·| still causes. `qs` is dead after the fused pass and
    // doubles as the squaring scratch panel.
    let slop = 3.0 * (n as f64).powi(5) * f64::EPSILON;
    let cw_s = cw_upper(square, n, x, y);
    mat_sq_into(square, n, qs);
    let cw_s2 = cw_upper(qs, n, x, y);
    mat_sq_into(gram, n, qs);
    let cw_g2 = cw_upper(qs, n, x, y);
    let cw_radius = (cw_s + slop).sqrt().min((cw_s2 + slop).sqrt().sqrt());
    let cw_norm_sq = (cw_g2 + slop).sqrt();
    (cw_radius, cw_norm_sq)
}

/// O(n²) certified bounds on the spectral norm and spectral radius,
/// computed without any eigendecomposition. See [`cheap_spectral_bounds`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheapSpectralBounds {
    /// Certified lower bound on `‖A‖₂`: the largest of the column 2-norms,
    /// row 2-norms and `max |a_ij|`, deflated by the guard factor.
    pub norm_lower: f64,
    /// Certified upper bound on `‖A‖₂`:
    /// `min(‖A‖_F, sqrt(‖A‖₁ · ‖A‖_∞), CW(|(AᵀA)²|)^{1/4})`, inflated by
    /// the guard factor, where `CW` is the Collatz–Wielandt certificate
    /// driven toward the Perron root by power iteration (see `cw_refine`).
    pub norm_upper: f64,
    /// Certified upper bound on the spectral radius `ρ(A)`:
    /// `min(norm_upper, ‖A‖₁, ‖A‖_∞, CW(|A²|)^{1/2}, CW(|A⁴|)^{1/4})` —
    /// the induced-norm / Gershgorin family plus the power-kicked
    /// Collatz–Wielandt certificates of `cw_refine` — guard-inflated.
    /// Meaningful for square matrices.
    pub radius_upper: f64,
}

/// Computes two-sided O(n²) brackets for the spectral norm and an upper
/// bound for the spectral radius, **guaranteed to bracket the computed**
/// [`norm_2`] / [`crate::spectral_radius`] values (guard factor included):
///
/// * `norm_lower ≤ norm_2(m) ≤ norm_upper`,
/// * `spectral_radius(m) ≤ radius_upper` (square `m`).
///
/// Used by the JSR product-tree searches to skip the exact Schur-based
/// evaluations at nodes whose bracket provably cannot affect a pruning or
/// lower-bound decision. Everything is accumulated under a `max_abs`
/// prescale, so extreme-but-representable magnitudes neither underflow nor
/// overflow — the same discipline as [`norm_fro`].
///
/// Matrices containing non-finite entries yield the trivially sound
/// `(0, ∞, ∞)`, so every NaN/∞ comparison downstream falls through to the
/// exact path.
pub fn cheap_spectral_bounds(m: &Matrix) -> CheapSpectralBounds {
    let scale = m.max_abs();
    if scale == 0.0 {
        return CheapSpectralBounds {
            norm_lower: 0.0,
            norm_upper: 0.0,
            radius_upper: 0.0,
        };
    }
    // `max_abs` is a NaN-ignoring fold, so an explicit finiteness scan is
    // needed: a NaN entry must disable screening entirely (trivially sound
    // `∞` bounds push every decision to the exact path), not silently drop
    // out of the accumulators and yield a bogus finite bound.
    if !scale.is_finite() || !m.is_finite() {
        return CheapSpectralBounds {
            norm_lower: 0.0,
            norm_upper: f64::INFINITY,
            radius_upper: f64::INFINITY,
        };
    }
    let (rows, cols) = m.shape();
    // Row pass: Frobenius sum, max row 2-norm, induced ∞-norm.
    let mut fro_sum = 0.0_f64;
    let mut max_row_sumsq = 0.0_f64;
    let mut max_row_abs = 0.0_f64;
    for i in 0..rows {
        let mut sumsq = 0.0_f64;
        let mut abssum = 0.0_f64;
        for &x in m.row(i) {
            let v = x / scale;
            sumsq += v * v;
            abssum += v.abs();
        }
        fro_sum += sumsq;
        max_row_sumsq = max_row_sumsq.max(sumsq);
        max_row_abs = max_row_abs.max(abssum);
    }
    // Column pass: induced 1-norm and max column 2-norm. Strided reads —
    // the matrices this screens are tiny, so locality is a non-issue.
    let mut max_col_sumsq = 0.0_f64;
    let mut max_col_abs = 0.0_f64;
    let data = m.as_slice();
    for j in 0..cols {
        let mut sumsq = 0.0_f64;
        let mut abssum = 0.0_f64;
        for i in 0..rows {
            let v = data[i * cols + j] / scale;
            sumsq += v * v;
            abssum += v.abs();
        }
        max_col_sumsq = max_col_sumsq.max(sumsq);
        max_col_abs = max_col_abs.max(abssum);
    }
    // Power-kicked Collatz–Wielandt refinement (square matrices only) —
    // soundness argument and certificate chain documented on `cw_refine`.
    let mut cw_radius = f64::INFINITY;
    let mut cw_norm_sq = f64::INFINITY;
    if rows == cols {
        let n = rows;
        // This sits on the screening hot path: the bracket only pays for
        // itself if it stays well below the exact Schur evaluations it
        // replaces, so n ≤ STACK_DIM (which covers the 9 × 9 lifted sets
        // of Table II) runs entirely on the stack and larger matrices take
        // a single arena allocation.
        const STACK_DIM: usize = 12;
        const STACK_WS: usize = 3 * STACK_DIM * STACK_DIM + 2 * STACK_DIM;
        if n <= STACK_DIM {
            let mut ws = [0.0_f64; STACK_WS];
            (cw_radius, cw_norm_sq) = cw_refine(data, n, scale, &mut ws);
        } else {
            // Arena fallback for n > STACK_DIM only (`tests/alloc_free.rs`
            // checks n ≤ STACK_DIM allocates nothing).
            let mut ws = vec![0.0_f64; 3 * n * n + 2 * n];
            (cw_radius, cw_norm_sq) = cw_refine(data, n, scale, &mut ws);
        }
    }
    let fro = fro_sum.sqrt() * scale;
    // sqrt(‖A‖₁ ‖A‖_∞) as a product of square roots so the intermediate
    // cannot overflow even when both norms are near f64::MAX.
    let holder = max_col_abs.sqrt() * max_row_abs.sqrt() * scale;
    let norm_upper = fro.min(holder).min(cw_norm_sq.sqrt() * scale) * GUARD;
    // ‖A e_j‖ ≤ ‖A‖₂ and ‖Aᵀ e_i‖ ≤ ‖A‖₂; the largest scaled entry is 1,
    // so this also dominates the `max_abs` lower bound.
    let norm_lower = max_col_sumsq.max(max_row_sumsq).sqrt() * scale / GUARD;
    let radius_upper = norm_upper
        .min(max_col_abs * scale * GUARD)
        .min(max_row_abs * scale * GUARD)
        .min(cw_radius * scale * GUARD);
    CheapSpectralBounds {
        norm_lower,
        norm_upper,
        radius_upper,
    }
}

/// Convenience wrapper: `(lower, upper)` bracket on the computed
/// [`norm_2`]. See [`cheap_spectral_bounds`].
pub fn norm_2_bracket(m: &Matrix) -> (f64, f64) {
    let b = cheap_spectral_bounds(m);
    (b.norm_lower, b.norm_upper)
}

/// Convenience wrapper: certified upper bound on the computed
/// [`crate::spectral_radius`]. See [`cheap_spectral_bounds`].
pub fn spectral_radius_upper(m: &Matrix) -> f64 {
    cheap_spectral_bounds(m).radius_upper
}

/// Spectral norm (largest singular value), computed as the square root of
/// the largest eigenvalue of the symmetric product `AᵀA` via the QR
/// eigenvalue iteration.
///
/// Power iteration was deliberately rejected here: on matrices whose
/// singular values cluster (exactly what an optimised ellipsoidal norm
/// produces in the JSR pipeline) it can *under*-estimate the norm, which
/// would silently invalidate stability certificates built on top of it.
pub fn norm_2(m: &Matrix) -> f64 {
    let fro = norm_fro(m);
    if fro == 0.0 {
        return 0.0;
    }
    // Scale to avoid overflow in the squared spectrum.
    let scaled = m.scale(1.0 / fro);
    let ata = match scaled.transpose().matmul(&scaled) {
        Ok(mut p) => {
            p.symmetrize();
            p
        }
        Err(_) => return fro, // unreachable: shapes always conform
    };
    match crate::schur::eigenvalues(&ata) {
        Ok(eigs) => {
            let lam_max = eigs.iter().map(|e| e.re).fold(0.0_f64, f64::max);
            fro * lam_max.max(0.0).sqrt()
        }
        // Eigenvalue failure (pathological input): fall back to the
        // Frobenius norm, which is a valid upper bound on the 2-norm.
        Err(_) => fro,
    }
}

/// Parlett–Reinsch diagonal balancing.
///
/// Returns `(B, d)` where `B = D⁻¹ A D` with `D = diag(d)` and the row and
/// column norms of `B` are (nearly) equal. Balancing is a similarity
/// transform, so it preserves eigenvalues while dramatically improving the
/// accuracy of the QR eigenvalue iteration and the tightness of norm-based
/// spectral bounds.
///
/// # Errors
///
/// Returns an error only if `m` is not square.
pub fn balance(m: &Matrix) -> Result<(Matrix, Vec<f64>)> {
    if !m.is_square() {
        return Err(crate::Error::NotSquare {
            op: "balance",
            dims: m.shape(),
        });
    }
    let n = m.rows();
    let mut a = m.clone();
    let mut d = vec![0.0; n];
    balance_in_place(a.as_mut_slice(), n, &mut d);
    Ok((a, d))
}

/// The kernel of [`balance`]: balances the row-major `n × n` matrix in `a`
/// in place and writes the scales to `d` (length `n`).
pub(crate) fn balance_in_place(a: &mut [f64], n: usize, d: &mut [f64]) {
    d.fill(1.0);
    let radix = 2.0_f64;
    let mut done = false;
    let mut sweeps = 0;
    while !done && sweeps < 100 {
        done = true;
        sweeps += 1;
        for i in 0..n {
            let mut c = 0.0_f64;
            let mut r = 0.0_f64;
            for j in 0..n {
                if j != i {
                    c += a[j * n + i].abs();
                    r += a[i * n + j].abs();
                }
            }
            if c == 0.0 || r == 0.0 {
                continue;
            }
            let mut f = 1.0_f64;
            let mut c_work = c;
            let s = c + r;
            while c_work < r / radix {
                f *= radix;
                c_work *= radix * radix;
            }
            while c_work > r * radix {
                f /= radix;
                c_work /= radix * radix;
            }
            if (c_work + r / f.max(1.0)) < 0.95 * s || f != 1.0 {
                // Apply the scaling only if it actually reduces the norms.
                let c_new = c * f;
                let r_new = r / f;
                if c_new + r_new < 0.95 * s {
                    done = false;
                    d[i] *= f;
                    for a_ij in &mut a[i * n..(i + 1) * n] {
                        *a_ij /= f;
                    }
                    for a_ji in a.iter_mut().skip(i).step_by(n) {
                        *a_ji *= f;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    #[test]
    fn norms_of_identity() {
        let i = Matrix::identity(3);
        assert_eq!(norm_1(&i), 1.0);
        assert_eq!(norm_inf(&i), 1.0);
        assert!((norm_fro(&i) - 3.0_f64.sqrt()).abs() < 1e-15);
        assert!((norm_2(&i) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn norm_1_and_inf_asymmetric() {
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(norm_1(&a), 6.0); // col 1: |−2|+|4| = 6
        assert_eq!(norm_inf(&a), 7.0); // row 1: |3|+|4| = 7
    }

    #[test]
    fn norm_2_of_diag_is_max_abs() {
        let d = Matrix::diag(&[3.0, -5.0, 1.0]);
        assert!((norm_2(&d) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn norm_2_rank_one() {
        // ||u vᵀ||₂ = ||u|| ||v||
        let u = Matrix::col_vec(&[1.0, 2.0]);
        let v = Matrix::row_vec(&[3.0, 4.0]);
        let m = &u * &v;
        let expected = (5.0_f64).sqrt() * 5.0;
        assert!((norm_2(&m) - expected).abs() < 1e-9 * expected);
    }

    #[test]
    fn norm_2_zero() {
        assert_eq!(norm_2(&Matrix::zeros(3, 3)), 0.0);
    }

    #[test]
    fn norm_ordering() {
        // ||A||₂ <= sqrt(||A||₁ ||A||_inf) always
        let a = Matrix::from_rows(&[&[1.0, 200.0], &[0.001, 3.0]]).unwrap();
        let n2 = norm_2(&a);
        assert!(n2 <= (norm_1(&a) * norm_inf(&a)).sqrt() + 1e-9);
        assert!(n2 >= a.max_abs() - 1e-9);
    }

    #[test]
    fn cheap_bounds_bracket_exact_norms() {
        let cases = [
            Matrix::identity(3),
            Matrix::from_rows(&[&[1.0, -2.0], &[3.0, 4.0]]).unwrap(),
            Matrix::from_rows(&[&[1.0, 200.0], &[0.001, 3.0]]).unwrap(),
            Matrix::diag(&[3.0, -5.0, 1.0]),
            Matrix::from_fn(6, 6, |i, j| ((i * 13 + j * 7) % 9) as f64 / 4.0 - 1.0),
            Matrix::from_rows(&[&[0.0, 1.0], &[-0.25, 0.0]]).unwrap(),
        ];
        for m in &cases {
            let b = cheap_spectral_bounds(m);
            let n2 = norm_2(m);
            assert!(b.norm_lower <= n2, "lower {} > norm_2 {n2}", b.norm_lower);
            assert!(n2 <= b.norm_upper, "norm_2 {n2} > upper {}", b.norm_upper);
            let rho = crate::spectral_radius(m).unwrap();
            assert!(
                rho <= b.radius_upper,
                "rho {rho} > bound {}",
                b.radius_upper
            );
            let (lo, hi) = norm_2_bracket(m);
            assert_eq!(lo, b.norm_lower);
            assert_eq!(hi, b.norm_upper);
            assert_eq!(spectral_radius_upper(m), b.radius_upper);
        }
    }

    #[test]
    fn cheap_bounds_degenerate_inputs() {
        let z = cheap_spectral_bounds(&Matrix::zeros(3, 3));
        assert_eq!(
            (z.norm_lower, z.norm_upper, z.radius_upper),
            (0.0, 0.0, 0.0)
        );
        let mut m = Matrix::identity(2);
        m[(0, 1)] = f64::NAN;
        let b = cheap_spectral_bounds(&m);
        assert_eq!(b.norm_lower, 0.0);
        assert_eq!(b.norm_upper, f64::INFINITY);
        assert_eq!(b.radius_upper, f64::INFINITY);
        let mut inf = Matrix::identity(2);
        inf[(1, 0)] = f64::INFINITY;
        assert_eq!(cheap_spectral_bounds(&inf).norm_upper, f64::INFINITY);
    }

    #[test]
    fn cheap_bounds_survive_extreme_magnitudes() {
        let huge = Matrix::diag(&[1e200, 3e199]);
        let b = cheap_spectral_bounds(&huge);
        assert!(b.norm_upper.is_finite());
        assert!(b.norm_lower <= norm_2(&huge) && norm_2(&huge) <= b.norm_upper);
        let tiny = Matrix::diag(&[1e-180, 3e-181]);
        let bt = cheap_spectral_bounds(&tiny);
        assert!(bt.norm_lower > 0.0);
        assert!(bt.norm_lower <= norm_2(&tiny) && norm_2(&tiny) <= bt.norm_upper);
    }

    #[test]
    fn radius_bound_tighter_than_norm_bound_when_rows_small() {
        // Highly non-normal matrix: ρ ≤ ‖·‖_∞ = 2 while the 2-norm bound is
        // the Frobenius norm ≈ 2.06 — the induced-norm term must win.
        let m = Matrix::from_rows(&[&[0.0, 2.0], &[0.0, 0.5]]).unwrap();
        let b = cheap_spectral_bounds(&m);
        assert!(b.radius_upper < b.norm_upper);
    }

    #[test]
    fn balance_preserves_similarity() {
        let a = Matrix::from_rows(&[&[1.0, 1e6], &[1e-6, 2.0]]).unwrap();
        let (b, d) = balance(&a).unwrap();
        // reconstruct D B D^{-1} and compare with A
        let dm = Matrix::diag(&d);
        let dinv = Matrix::diag(&d.iter().map(|x| 1.0 / x).collect::<Vec<_>>());
        let back = &dm * &b * &dinv;
        assert!(back.approx_eq(&a, 1e-9, 1e-9));
        // balanced matrix should have much smaller norm spread
        assert!(norm_inf(&b) < norm_inf(&a));
    }

    #[test]
    fn balance_rejects_rectangular() {
        assert!(balance(&Matrix::zeros(2, 3)).is_err());
    }
}

#[cfg(test)]
mod extreme_scale_tests {
    use super::*;
    use crate::Matrix;

    #[test]
    fn fro_and_2_norm_survive_tiny_magnitudes() {
        let m = Matrix::diag(&[1e-180, 3e-181]);
        assert!(
            (norm_fro(&m) - (1e-180_f64.powi(2) + 3e-181_f64.powi(2)).sqrt() * 1.0).abs()
                < 1e-12 * 1e-180
                || norm_fro(&m) > 0.0
        );
        assert!(
            (norm_2(&m) - 1e-180).abs() < 1e-10 * 1e-180,
            "{}",
            norm_2(&m)
        );
    }

    #[test]
    fn fro_and_2_norm_survive_huge_magnitudes() {
        let m = Matrix::diag(&[1e200, 3e199]);
        assert!(norm_fro(&m).is_finite());
        let n2 = norm_2(&m);
        assert!(n2.is_finite());
        assert!((n2 - 1e200).abs() < 1e-9 * 1e200, "{n2}");
    }
}
