//! Eigenvalues of general real matrices.
//!
//! Pipeline: Parlett–Reinsch [`balance`](crate::balance) → Householder
//! [`hessenberg`] reduction → Francis implicit double-shift QR iteration.
//! Only eigenvalues are computed (no Schur vectors), which is all the JSR
//! machinery and the stability tests need.
//!
//! Each stage is one kernel on a flat row-major `n × n` slice with a
//! runtime `n`. An eigen-solve runs them on stack buffers for
//! `n ≤ STACK_DIM` (12, which covers the PI lifts `Ω(h)` that PI tuning
//! scores by the thousand and the 9 × 9 Table II lifts) and on one heap
//! workspace above that, through the same code. So [`spectral_radius`]
//! allocates nothing for `n ≤ 12`, and [`eigenvalues`] only its result.

use crate::norms::balance_in_place;
use crate::{Error, Matrix, Result};

/// A (possibly complex) eigenvalue of a real matrix, stored as `re + i·im`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Eigenvalue {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Eigenvalue {
    /// Creates an eigenvalue from its real and imaginary parts.
    pub fn new(re: f64, im: f64) -> Self {
        Eigenvalue { re, im }
    }

    /// Modulus `|λ| = sqrt(re² + im²)`.
    pub fn modulus(&self) -> f64 {
        self.re.hypot(self.im)
    }

    /// `true` if the imaginary part is exactly zero.
    pub fn is_real(&self) -> bool {
        self.im == 0.0
    }
}

impl std::fmt::Display for Eigenvalue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.im == 0.0 {
            write!(f, "{:.6e}", self.re)
        } else if self.im > 0.0 {
            write!(f, "{:.6e}+{:.6e}i", self.re, self.im)
        } else {
            write!(f, "{:.6e}-{:.6e}i", self.re, -self.im)
        }
    }
}

/// Reduces a square matrix to upper Hessenberg form by Householder
/// similarity transforms (the transform itself is discarded — eigenvalues
/// are preserved).
///
/// # Errors
///
/// Returns [`Error::NotSquare`] for rectangular input.
pub fn hessenberg(a: &Matrix) -> Result<Matrix> {
    if !a.is_square() {
        return Err(Error::NotSquare {
            op: "hessenberg",
            dims: a.shape(),
        });
    }
    let n = a.rows();
    let mut h = a.clone();
    hessenberg_in_place(h.as_mut_slice(), n, &mut vec![0.0; n]);
    Ok(h)
}

/// The kernel of [`hessenberg`]: reduces the row-major `n × n` matrix in
/// `h` in place. `v` (length ≥ `n`) holds the Householder vector.
fn hessenberg_in_place(h: &mut [f64], n: usize, v: &mut [f64]) {
    if n < 3 {
        return;
    }
    for k in 0..n - 2 {
        // Householder vector annihilating h[k+2.., k].
        let mut norm_x = 0.0_f64;
        for i in (k + 1)..n {
            norm_x = norm_x.hypot(h[i * n + k]);
        }
        if norm_x == 0.0 {
            continue;
        }
        let alpha = if h[(k + 1) * n + k] >= 0.0 {
            -norm_x
        } else {
            norm_x
        };
        let mut v_norm_sq = 0.0_f64;
        for i in (k + 1)..n {
            v[i] = h[i * n + k];
            if i == k + 1 {
                v[i] -= alpha;
            }
            v_norm_sq += v[i] * v[i];
        }
        if v_norm_sq == 0.0 {
            continue;
        }
        let beta = 2.0 / v_norm_sq;
        let v = &v[k + 1..n];
        // Left update: H := (I − β v vᵀ) H  on rows k+1.., all cols.
        for j in 0..n {
            let mut dot = 0.0;
            for (i, &v_i) in (k + 1..n).zip(v) {
                dot += v_i * h[i * n + j];
            }
            let s = beta * dot;
            for (i, &v_i) in (k + 1..n).zip(v) {
                h[i * n + j] -= s * v_i;
            }
        }
        // Right update: H := H (I − β v vᵀ)  on cols k+1.., all rows.
        for row in h.chunks_exact_mut(n) {
            let tail = &mut row[k + 1..];
            let mut dot = 0.0;
            for (&h_ij, &v_j) in tail.iter().zip(v) {
                dot += h_ij * v_j;
            }
            let s = beta * dot;
            for (h_ij, &v_j) in tail.iter_mut().zip(v) {
                *h_ij -= s * v_j;
            }
        }
        // Entries below the first subdiagonal in column k are now zero by
        // construction; set them exactly to avoid drift.
        h[(k + 1) * n + k] = alpha;
        for i in (k + 2)..n {
            h[i * n + k] = 0.0;
        }
    }
}

/// Largest order whose eigen-solve runs on stack buffers.
const STACK_DIM: usize = 12;

/// Length of the workspace of one order-`n` eigen-solve: the working
/// matrix, the balancing scales and the Householder vector.
const fn workspace_len(n: usize) -> usize {
    n * n + 2 * n
}

/// Checks `a` and hands its eigenvalues, in the order [`eigenvalues`]
/// returns them, to `f`. The buffers live on the stack for
/// `n ≤ STACK_DIM` and on the heap above it.
fn with_eigenvalues<R>(a: &Matrix, f: impl FnOnce(&[Eigenvalue]) -> R) -> Result<R> {
    if !a.is_square() {
        return Err(Error::NotSquare {
            op: "eigenvalues",
            dims: a.shape(),
        });
    }
    if !a.is_finite() {
        return Err(Error::InvalidData(
            "eigenvalues of a matrix with non-finite entries".into(),
        ));
    }
    let n = a.rows();
    if n <= STACK_DIM {
        let mut ws = [0.0; workspace_len(STACK_DIM)];
        let mut eig = [Eigenvalue::default(); STACK_DIM];
        solve(a, &mut ws, &mut eig[..n])?;
        Ok(f(&eig[..n]))
    } else {
        let mut ws = vec![0.0; workspace_len(n)];
        let mut eig = vec![Eigenvalue::default(); n];
        solve(a, &mut ws, &mut eig)?;
        Ok(f(&eig))
    }
}

/// Writes the eigenvalues of the finite square `n × n` matrix `a` to `eig`
/// (length `n`), using `ws` (length ≥ `workspace_len(n)`).
fn solve(a: &Matrix, ws: &mut [f64], eig: &mut [Eigenvalue]) -> Result<()> {
    let n = a.rows();
    let entries = a.as_slice();
    if n == 1 {
        eig[0] = Eigenvalue::new(entries[0], 0.0);
        return Ok(());
    }
    let (m, rest) = ws.split_at_mut(n * n);
    let (d, v) = rest.split_at_mut(n);
    let mut run = |m: &mut [f64], eig: &mut [Eigenvalue]| -> Result<()> {
        balance_in_place(m, n, d);
        hessenberg_in_place(m, n, v);
        hqr(m, n, eig)
    };
    m.copy_from_slice(entries);
    if run(m, eig).is_ok() {
        return Ok(());
    }
    // The QR iteration can stall on rare inputs. All retries below are
    // *exact*: the transpose has the same spectrum, and the eigenvalues of
    // `A + εI` are exactly those of `A` shifted by `ε`.
    for i in 0..n {
        for j in 0..n {
            m[j * n + i] = entries[i * n + j];
        }
    }
    let Err(first) = run(m, eig) else {
        return Ok(());
    };
    let scale = a.max_abs().max(1.0);
    for exp in [-12, -10, -8, -6] {
        let eps = scale * 10.0_f64.powi(exp);
        for (i, (row, a_row)) in m
            .chunks_exact_mut(n)
            .zip(entries.chunks_exact(n))
            .enumerate()
        {
            for (j, (m_ij, &a_ij)) in row.iter_mut().zip(a_row).enumerate() {
                // `A + ε·I` entry by entry, `+ 0.0` off the diagonal included.
                *m_ij = a_ij + if i == j { eps } else { 0.0 };
            }
        }
        if run(m, eig).is_ok() {
            for e in eig.iter_mut() {
                e.re -= eps;
            }
            return Ok(());
        }
    }
    Err(first)
}

/// Computes all eigenvalues of a square real matrix.
///
/// The matrix is balanced, reduced to Hessenberg form and processed with a
/// Francis double-shift QR iteration. Complex eigenvalues come in conjugate
/// pairs. The returned vector has exactly `n` entries, in no particular
/// order.
///
/// # Errors
///
/// Returns [`Error::NotSquare`] for rectangular input,
/// [`Error::InvalidData`] for non-finite entries, and
/// [`Error::NoConvergence`] if the QR iteration fails (extremely rare with
/// balancing, exceptional shifts and the exact transpose/shift retries
/// enabled).
pub fn eigenvalues(a: &Matrix) -> Result<Vec<Eigenvalue>> {
    with_eigenvalues(a, <[Eigenvalue]>::to_vec)
}

/// Spectral radius `ρ(A) = max |λᵢ|`. Allocates nothing for `n ≤ 12`.
///
/// # Errors
///
/// Propagates the errors of [`eigenvalues`].
pub fn spectral_radius(a: &Matrix) -> Result<f64> {
    with_eigenvalues(a, |eig| {
        eig.iter().map(Eigenvalue::modulus).fold(0.0, f64::max)
    })
}

/// Fortran-style `SIGN(a, b) = |a| * sgn(b)` with `sgn(0) = +1`.
#[inline]
fn sign(a: f64, b: f64) -> f64 {
    if b >= 0.0 {
        a.abs()
    } else {
        -a.abs()
    }
}

/// Francis double-shift QR iteration on the row-major upper Hessenberg
/// `n × n` matrix `a` (overwritten), writing the eigenvalues to `eig`
/// (length `n`). Adapted from the classical `hqr` algorithm
/// (Wilkinson–Reinsch / EISPACK lineage).
fn hqr(a: &mut [f64], n: usize, eig: &mut [Eigenvalue]) -> Result<()> {
    let at = |i: usize, j: usize| i * n + j;
    eig.fill(Eigenvalue::default());
    // Overall norm used in the deflation test when a diagonal pair is zero.
    let mut anorm = 0.0_f64;
    for i in 0..n {
        for j in i.saturating_sub(1)..n {
            anorm += a[at(i, j)].abs();
        }
    }
    if anorm == 0.0 {
        return Ok(()); // zero matrix
    }

    let eps = f64::EPSILON;
    let mut t = 0.0_f64; // accumulated exceptional shift
    let mut nn = n as isize - 1;

    'outer: while nn >= 0 {
        let mut its = 0usize;
        loop {
            // --- Look for a single small subdiagonal element. ---
            let nnu = nn as usize;
            let mut l = 0usize;
            let mut ll = nnu;
            while ll >= 1 {
                let s = a[at(ll - 1, ll - 1)].abs() + a[at(ll, ll)].abs();
                let s = if s == 0.0 { anorm } else { s };
                if a[at(ll, ll - 1)].abs() <= eps * s {
                    a[at(ll, ll - 1)] = 0.0;
                    l = ll;
                    break;
                }
                ll -= 1;
            }

            let mut x = a[at(nnu, nnu)];
            if l == nnu {
                // One real root found.
                eig[nnu] = Eigenvalue::new(x + t, 0.0);
                nn -= 1;
                continue 'outer;
            }
            let mut y = a[at(nnu - 1, nnu - 1)];
            let mut w = a[at(nnu, nnu - 1)] * a[at(nnu - 1, nnu)];
            if l == nnu - 1 {
                // A 2x2 block: two roots (real pair or complex conjugates).
                let p = 0.5 * (y - x);
                let q = p * p + w;
                let z = q.abs().sqrt();
                x += t;
                if q >= 0.0 {
                    let z = p + sign(z, p);
                    let lam1 = x + z;
                    let lam2 = if z != 0.0 { x - w / z } else { lam1 };
                    eig[nnu - 1] = Eigenvalue::new(lam1, 0.0);
                    eig[nnu] = Eigenvalue::new(lam2, 0.0);
                } else {
                    eig[nnu - 1] = Eigenvalue::new(x + p, z);
                    eig[nnu] = Eigenvalue::new(x + p, -z);
                }
                nn -= 2;
                continue 'outer;
            }

            // --- No root yet: perform a QR sweep. ---
            if its == 60 {
                return Err(Error::NoConvergence {
                    algorithm: "hqr",
                    iterations: its,
                });
            }
            if its == 10 || its == 20 || its == 30 || its == 40 || its == 50 {
                // Exceptional shift.
                t += x;
                for i in 0..=nnu {
                    a[at(i, i)] -= x;
                }
                let s = a[at(nnu, nnu - 1)].abs() + a[at(nnu - 1, nnu - 2)].abs();
                x = 0.75 * s;
                y = x;
                w = -0.4375 * s * s;
            }
            its += 1;

            // Find two consecutive small subdiagonal elements.
            let mut m = nnu - 2;
            let mut p;
            let mut q;
            let mut r;
            loop {
                let z = a[at(m, m)];
                let rr = x - z;
                let ss = y - z;
                p = (rr * ss - w) / a[at(m + 1, m)] + a[at(m, m + 1)];
                q = a[at(m + 1, m + 1)] - z - rr - ss;
                r = a[at(m + 2, m + 1)];
                let s = p.abs() + q.abs() + r.abs();
                p /= s;
                q /= s;
                r /= s;
                if m == l {
                    break;
                }
                let u = a[at(m, m - 1)].abs() * (q.abs() + r.abs());
                let v = p.abs() * (a[at(m - 1, m - 1)].abs() + z.abs() + a[at(m + 1, m + 1)].abs());
                if u <= eps * v {
                    break;
                }
                m -= 1;
            }
            for i in (m + 2)..=nnu {
                a[at(i, i - 2)] = 0.0;
            }
            for i in (m + 3)..=nnu {
                a[at(i, i - 3)] = 0.0;
            }

            // Double QR step on rows l..=nn, columns l..=nn.
            for k in m..nnu {
                if k != m {
                    p = a[at(k, k - 1)];
                    q = a[at(k + 1, k - 1)];
                    r = if k != nnu - 1 {
                        a[at(k + 2, k - 1)]
                    } else {
                        0.0
                    };
                    x = p.abs() + q.abs() + r.abs();
                    if x != 0.0 {
                        p /= x;
                        q /= x;
                        r /= x;
                    }
                }
                let s = sign((p * p + q * q + r * r).sqrt(), p);
                if s == 0.0 {
                    continue;
                }
                if k == m {
                    if l != m {
                        a[at(k, k - 1)] = -a[at(k, k - 1)];
                    }
                } else {
                    a[at(k, k - 1)] = -s * x;
                }
                p += s;
                x = p / s;
                y = q / s;
                let z = r / s;
                q /= p;
                r /= p;
                // Row modification.
                for j in k..=nnu {
                    let mut pp = a[at(k, j)] + q * a[at(k + 1, j)];
                    if k != nnu - 1 {
                        pp += r * a[at(k + 2, j)];
                        a[at(k + 2, j)] -= pp * z;
                    }
                    a[at(k + 1, j)] -= pp * y;
                    a[at(k, j)] -= pp * x;
                }
                // Column modification.
                let mmin = nnu.min(k + 3);
                for i in l..=mmin {
                    let mut pp = x * a[at(i, k)] + y * a[at(i, k + 1)];
                    if k != nnu - 1 {
                        pp += z * a[at(i, k + 2)];
                        a[at(i, k + 2)] -= pp * r;
                    }
                    a[at(i, k + 1)] -= pp * q;
                    a[at(i, k)] -= pp;
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tests return `Result` and use `?` instead of `unwrap()`, so a
    // failure reports the error that caused it.
    type TestResult = std::result::Result<(), Error>;

    fn sorted_moduli(a: &Matrix) -> Result<Vec<f64>> {
        let mut m: Vec<f64> = eigenvalues(a)?.iter().map(|e| e.modulus()).collect();
        m.sort_by(f64::total_cmp);
        Ok(m)
    }

    fn assert_spectrum_contains(a: &Matrix, expected: &[(f64, f64)], tol: f64) -> TestResult {
        let eigs = eigenvalues(a)?;
        for &(re, im) in expected {
            assert!(
                eigs.iter()
                    .any(|e| (e.re - re).abs() < tol && (e.im.abs() - im.abs()).abs() < tol),
                "missing eigenvalue {re}+{im}i in {eigs:?}"
            );
        }
        Ok(())
    }

    /// FNV-1a digest of the bits of `eigenvalues(a)`, in the order returned.
    fn eigenvalue_digest(a: &Matrix) -> Result<u64> {
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        for e in eigenvalues(a)? {
            for part in [e.re, e.im] {
                for byte in part.to_bits().to_le_bytes() {
                    digest = (digest ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
                }
            }
        }
        Ok(digest)
    }

    /// The bits of `spectral_radius` and `eigenvalues` on four PI lifts
    /// `Ω(h)` at corners of the tuning grid, a deflated 7 × 7 Table II
    /// lift, a 13 × 13 matrix on the heap path, and the companion and
    /// rotation cases below. The PI gains and the Table I/II goldens rest
    /// on these bits, so a kernel change that moves one fails here.
    #[test]
    fn eigen_solves_are_pinned_bit_for_bit() -> TestResult {
        // `Ω(h)` of the PI loop on `plants::unstable_second_order` at
        // h = 10 ms with zero gains; the gains `(kp, ki)` set its fourth row
        // to `[−kp·CΦ, ki, 0, −kp·CΓ]`.
        let omega = [
            [
                1.0024598702626693,
                0.009762245222670964,
                0.0,
                0.0,
                4.9197405253384354e-5,
            ],
            [
                0.48811226113354816,
                0.9536486441493144,
                0.0,
                0.0,
                0.009762245222670964,
            ],
            [
                -0.010024598702626692,
                -9.762245222670965e-5,
                1.0,
                0.0,
                -4.919740525338436e-7,
            ],
            [0.0; 5],
            [0.0, 0.0, 0.0, 1.0, 0.0],
        ];
        let (neg_c_phi, neg_c_gamma) = (
            [-1.0024598702626693, -0.009762245222670964],
            -4.9197405253384354e-5,
        );
        let mut cases = Vec::new();
        for (kp, ki, rho, eigs) in [
            (0.5, 0.5, 0x3ff0_d068_8a92_e733, 0x72de_0843_dd71_22ec),
            (-0.5, 3000.0, 0x3ff1_2376_e2c8_cdc7, 0x19e9_c328_f344_5922),
            (3000.0, -0.5, 0x3ff2_6b04_c52c_3582, 0x1a01_88d8_10b2_7060),
            (
                -3000.0,
                -3000.0,
                0x3ff7_bdea_89f3_956c,
                0xc3ba_3835_732d_7653,
            ),
        ] {
            let mut m = omega;
            m[3] = [
                kp * neg_c_phi[0],
                kp * neg_c_phi[1],
                ki,
                0.0,
                kp * neg_c_gamma,
            ];
            let rows: Vec<&[f64]> = m.iter().map(|r| &r[..]).collect();
            cases.push((Matrix::from_rows(&rows)?, rho, eigs));
        }
        // Table II, `Rmax = 1.3·T`, `Ns = 2`: the adaptive design's first
        // lifted member after deflation.
        let table2 = Matrix::from_rows(&[
            &[
                0.9753099120283326,
                0.0,
                0.0,
                0.0,
                0.0,
                0.04938017594333466,
                0.0,
            ],
            &[
                0.0,
                0.9723609731272213,
                -0.01973182908130206,
                0.0,
                0.0,
                0.0,
                0.049330811712012146,
            ],
            &[
                0.0,
                0.29597743621953104,
                0.9969764299061455,
                0.0,
                0.0,
                0.0,
                0.0074340525419317426,
            ],
            &[
                -10.830781899814273,
                0.0,
                0.0,
                -0.5622470268909473,
                0.0,
                -0.5483650983352014,
                0.0,
            ],
            &[
                0.0,
                -19.75312069675607,
                -9.373217830949942,
                0.0,
                -0.8038064534929577,
                0.0,
                -0.9282511332221364,
            ],
            &[0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
            &[0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
        ])?;
        cases.push((table2, 0x3fe7_1143_edca_bfbe, 0xa22f_1f57_dd6e_a35a));
        let heap = Matrix::from_fn(13, 13, |i, j| {
            ((i * 31 + j * 17 + 7) % 101) as f64 / 50.0 - 1.0
        });
        cases.push((heap, 0x3ffc_88ee_bf8c_54f1, 0xec16_23e6_7ce8_1962));
        let companion =
            Matrix::from_rows(&[&[6.0, -11.0, 6.0], &[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]])?;
        cases.push((companion, 0x4007_ffff_ffff_fffc, 0x7cd9_020f_5216_ad7b));
        let th = 0.7_f64;
        let rotation = Matrix::from_rows(&[&[th.cos(), -th.sin()], &[th.sin(), th.cos()]])?;
        cases.push((rotation, 0x3ff0_0000_0000_0000, 0x1b6d_3d4e_0c02_5e11));
        for (a, rho, eigs) in &cases {
            let n = a.rows();
            assert_eq!(spectral_radius(a)?.to_bits(), *rho, "ρ, n = {n}");
            assert_eq!(eigenvalue_digest(a)?, *eigs, "eigenvalues, n = {n}");
        }
        Ok(())
    }

    #[test]
    fn eig_of_diagonal() -> TestResult {
        let d = Matrix::diag(&[3.0, -1.0, 0.5]);
        assert_spectrum_contains(&d, &[(3.0, 0.0), (-1.0, 0.0), (0.5, 0.0)], 1e-12)?;
        assert!((spectral_radius(&d)? - 3.0).abs() < 1e-12);
        Ok(())
    }

    #[test]
    fn eig_of_triangular() -> TestResult {
        let t = Matrix::from_rows(&[&[2.0, 5.0, 7.0], &[0.0, -3.0, 1.0], &[0.0, 0.0, 0.25]])?;
        assert_spectrum_contains(&t, &[(2.0, 0.0), (-3.0, 0.0), (0.25, 0.0)], 1e-10)
    }

    #[test]
    fn eig_of_rotation_is_unit_complex_pair() -> TestResult {
        let th = 0.7_f64;
        let r = Matrix::from_rows(&[&[th.cos(), -th.sin()], &[th.sin(), th.cos()]])?;
        assert_spectrum_contains(&r, &[(th.cos(), th.sin())], 1e-12)?;
        assert!((spectral_radius(&r)? - 1.0).abs() < 1e-12);
        Ok(())
    }

    #[test]
    fn eig_of_companion_matrix() -> TestResult {
        // Companion of p(x) = x^3 - 6x^2 + 11x - 6 = (x-1)(x-2)(x-3)
        let c = Matrix::from_rows(&[&[6.0, -11.0, 6.0], &[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]])?;
        assert_spectrum_contains(&c, &[(1.0, 0.0), (2.0, 0.0), (3.0, 0.0)], 1e-9)
    }

    #[test]
    fn eig_complex_from_companion() -> TestResult {
        // p(x) = x^2 + 1 → eigenvalues ±i
        let c = Matrix::from_rows(&[&[0.0, -1.0], &[1.0, 0.0]])?;
        assert_spectrum_contains(&c, &[(0.0, 1.0)], 1e-12)
    }

    #[test]
    fn eig_sum_is_trace_product_is_det() -> TestResult {
        let a = Matrix::from_rows(&[
            &[4.0, 1.0, 2.0, 0.5],
            &[-1.0, 3.0, 0.0, 2.0],
            &[0.3, -2.0, 1.5, 1.0],
            &[1.0, 0.0, -1.0, 2.5],
        ])?;
        let eigs = eigenvalues(&a)?;
        let sum_re: f64 = eigs.iter().map(|e| e.re).sum();
        let sum_im: f64 = eigs.iter().map(|e| e.im).sum();
        assert!(
            (sum_re - a.trace()).abs() < 1e-8,
            "trace mismatch: {sum_re}"
        );
        assert!(sum_im.abs() < 1e-8);
        // product of moduli equals |det|
        let prod: f64 = eigs.iter().map(|e| e.modulus()).product();
        assert!((prod - a.det()?.abs()).abs() < 1e-6 * prod.max(1.0));
        Ok(())
    }

    #[test]
    fn eig_repeated_eigenvalues() -> TestResult {
        // Jordan-like block with eigenvalue 2 (defective)
        let j = Matrix::from_rows(&[&[2.0, 1.0, 0.0], &[0.0, 2.0, 1.0], &[0.0, 0.0, 2.0]])?;
        let eigs = eigenvalues(&j)?;
        for e in &eigs {
            assert!((e.modulus() - 2.0).abs() < 1e-4, "{eigs:?}");
        }
        Ok(())
    }

    #[test]
    fn eig_of_similarity_transform_is_invariant() -> TestResult {
        let d = Matrix::diag(&[1.0, -2.0, 0.5, 3.0]);
        // Fixed well-conditioned transform
        let p = Matrix::from_rows(&[
            &[1.0, 0.2, 0.0, 0.1],
            &[0.0, 1.0, 0.3, 0.0],
            &[0.2, 0.0, 1.0, 0.2],
            &[0.0, 0.1, 0.0, 1.0],
        ])?;
        let pinv = p.inverse()?;
        let a = &p * &d * &pinv;
        let mut moduli = sorted_moduli(&a)?;
        let mut expected = vec![0.5, 1.0, 2.0, 3.0];
        expected.sort_by(f64::total_cmp);
        for (m, e) in moduli.drain(..).zip(expected) {
            assert!((m - e).abs() < 1e-8, "modulus {m} vs {e}");
        }
        Ok(())
    }

    #[test]
    fn eig_zero_and_tiny() -> TestResult {
        assert_eq!(eigenvalues(&Matrix::zeros(3, 3))?.len(), 3);
        assert_eq!(spectral_radius(&Matrix::zeros(3, 3))?, 0.0);
        let one = Matrix::from_rows(&[&[42.0]])?;
        assert_eq!(eigenvalues(&one)?[0].re, 42.0);
        assert!(eigenvalues(&Matrix::zeros(0, 0))?.is_empty());
        Ok(())
    }

    #[test]
    fn eig_rejects_rectangular() {
        assert!(eigenvalues(&Matrix::zeros(2, 3)).is_err());
        assert!(hessenberg(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn hessenberg_structure_and_spectrum() -> TestResult {
        let a = Matrix::from_fn(5, 5, |i, j| ((i * 5 + j * 3) % 7) as f64 - 3.0);
        let h = hessenberg(&a)?;
        for i in 0..5usize {
            for j in 0..i.saturating_sub(1) {
                assert_eq!(h[(i, j)], 0.0, "H not Hessenberg at ({i},{j})");
            }
        }
        // Similarity ⇒ same trace.
        assert!((h.trace() - a.trace()).abs() < 1e-10);
        // Same eigenvalue moduli.
        let ma = sorted_moduli(&a)?;
        let mh = sorted_moduli(&h)?;
        for (x, y) in ma.iter().zip(&mh) {
            assert!((x - y).abs() < 1e-7, "{ma:?} vs {mh:?}");
        }
        Ok(())
    }

    #[test]
    fn spectral_radius_of_stable_discretization() -> TestResult {
        // e^{A} for Hurwitz A must have spectral radius < 1.
        let a = Matrix::from_rows(&[&[-1.0, 1.0], &[0.0, -2.0]])?;
        let phi = crate::expm(&a)?;
        let rho = spectral_radius(&phi)?;
        assert!(rho < 1.0);
        assert!((rho - (-1.0_f64).exp()).abs() < 1e-10);
        Ok(())
    }

    #[test]
    fn eigenvalue_display() {
        assert!(!format!("{}", Eigenvalue::new(1.0, 0.0)).contains('i'));
        assert!(format!("{}", Eigenvalue::new(1.0, 2.0)).contains('+'));
        assert!(format!("{}", Eigenvalue::new(1.0, -2.0)).contains('-'));
    }

    #[test]
    fn eig_large_random_like_matrix_trace_check() -> TestResult {
        let n = 12;
        // deterministic pseudo-random entries in [-1, 1]
        let a = Matrix::from_fn(n, n, |i, j| {
            ((i * 31 + j * 17 + 7) % 101) as f64 / 50.0 - 1.0
        });
        let eigs = eigenvalues(&a)?;
        assert_eq!(eigs.len(), n);
        let sum_re: f64 = eigs.iter().map(|e| e.re).sum();
        assert!((sum_re - a.trace()).abs() < 1e-7);
        Ok(())
    }
}
