//! Eigenvalues of general real matrices.
//!
//! Pipeline: Parlett–Reinsch [`balance`](crate::balance) → Householder
//! [`hessenberg`] reduction → Francis implicit double-shift QR iteration.
//! Only eigenvalues are computed (no Schur vectors), which is all the JSR
//! machinery and the stability tests need.

use crate::norms::balance;
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
    if n < 3 {
        return Ok(h);
    }
    let mut v = vec![0.0_f64; n];
    for k in 0..n - 2 {
        // Householder vector annihilating h[k+2.., k].
        let mut norm_x = 0.0_f64;
        for i in (k + 1)..n {
            norm_x = norm_x.hypot(h[(i, k)]);
        }
        if norm_x == 0.0 {
            continue;
        }
        let alpha = if h[(k + 1, k)] >= 0.0 {
            -norm_x
        } else {
            norm_x
        };
        let mut v_norm_sq = 0.0_f64;
        for i in (k + 1)..n {
            v[i] = h[(i, k)];
            if i == k + 1 {
                v[i] -= alpha;
            }
            v_norm_sq += v[i] * v[i];
        }
        if v_norm_sq == 0.0 {
            continue;
        }
        let beta = 2.0 / v_norm_sq;
        // Left update: H := (I − β v vᵀ) H  on rows k+1.., all cols.
        for j in 0..n {
            let mut dot = 0.0;
            for i in (k + 1)..n {
                dot += v[i] * h[(i, j)];
            }
            let s = beta * dot;
            for i in (k + 1)..n {
                let val = h[(i, j)] - s * v[i];
                h[(i, j)] = val;
            }
        }
        // Right update: H := H (I − β v vᵀ)  on cols k+1.., all rows.
        for i in 0..n {
            let mut dot = 0.0;
            for j in (k + 1)..n {
                dot += h[(i, j)] * v[j];
            }
            let s = beta * dot;
            for j in (k + 1)..n {
                let val = h[(i, j)] - s * v[j];
                h[(i, j)] = val;
            }
        }
        // Entries below the first subdiagonal in column k are now zero by
        // construction; set them exactly to avoid drift.
        h[(k + 1, k)] = alpha;
        for i in (k + 2)..n {
            h[(i, k)] = 0.0;
        }
    }
    Ok(h)
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
    if n == 0 {
        return Ok(Vec::new());
    }
    if n == 1 {
        return Ok(vec![Eigenvalue::new(a[(0, 0)], 0.0)]);
    }
    let run = |m: &Matrix| -> Result<Vec<Eigenvalue>> {
        let (balanced, _) = balance(m)?;
        hqr(hessenberg(&balanced)?)
    };
    // The QR iteration can stall on rare inputs. All retries below are
    // *exact*: the transpose has the same spectrum, and the eigenvalues of
    // `A + εI` are exactly those of `A` shifted by `ε`.
    match run(a) {
        Ok(e) => Ok(e),
        Err(_) => match run(&a.transpose()) {
            Ok(e) => Ok(e),
            Err(first) => {
                let scale = a.max_abs().max(1.0);
                for exp in [-12, -10, -8, -6] {
                    let eps = scale * 10.0_f64.powi(exp);
                    let shifted = a.add_mat(&(Matrix::identity(n) * eps))?;
                    if let Ok(eigs) = run(&shifted) {
                        return Ok(eigs
                            .into_iter()
                            .map(|e| Eigenvalue::new(e.re - eps, e.im))
                            .collect());
                    }
                }
                Err(first)
            }
        },
    }
}

/// Spectral radius `ρ(A) = max |λᵢ|`.
///
/// # Errors
///
/// Propagates the errors of [`eigenvalues`].
pub fn spectral_radius(a: &Matrix) -> Result<f64> {
    Ok(eigenvalues(a)?
        .iter()
        .map(Eigenvalue::modulus)
        .fold(0.0, f64::max))
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

/// Francis double-shift QR iteration on an upper Hessenberg matrix
/// (eigenvalues only). Adapted from the classical `hqr` algorithm
/// (Wilkinson–Reinsch / EISPACK lineage).
fn hqr(mut a: Matrix) -> Result<Vec<Eigenvalue>> {
    let n = a.rows();
    let mut eig = vec![Eigenvalue::default(); n];
    // Overall norm used in the deflation test when a diagonal pair is zero.
    let mut anorm = 0.0_f64;
    for i in 0..n {
        for j in i.saturating_sub(1)..n {
            anorm += a[(i, j)].abs();
        }
    }
    if anorm == 0.0 {
        return Ok(eig); // zero matrix
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
                let s = a[(ll - 1, ll - 1)].abs() + a[(ll, ll)].abs();
                let s = if s == 0.0 { anorm } else { s };
                if a[(ll, ll - 1)].abs() <= eps * s {
                    a[(ll, ll - 1)] = 0.0;
                    l = ll;
                    break;
                }
                ll -= 1;
            }

            let mut x = a[(nnu, nnu)];
            if l == nnu {
                // One real root found.
                eig[nnu] = Eigenvalue::new(x + t, 0.0);
                nn -= 1;
                continue 'outer;
            }
            let mut y = a[(nnu - 1, nnu - 1)];
            let mut w = a[(nnu, nnu - 1)] * a[(nnu - 1, nnu)];
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
                    let v = a[(i, i)] - x;
                    a[(i, i)] = v;
                }
                let s = a[(nnu, nnu - 1)].abs() + a[(nnu - 1, nnu - 2)].abs();
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
                let z = a[(m, m)];
                let rr = x - z;
                let ss = y - z;
                p = (rr * ss - w) / a[(m + 1, m)] + a[(m, m + 1)];
                q = a[(m + 1, m + 1)] - z - rr - ss;
                r = a[(m + 2, m + 1)];
                let s = p.abs() + q.abs() + r.abs();
                p /= s;
                q /= s;
                r /= s;
                if m == l {
                    break;
                }
                let u = a[(m, m - 1)].abs() * (q.abs() + r.abs());
                let v = p.abs() * (a[(m - 1, m - 1)].abs() + z.abs() + a[(m + 1, m + 1)].abs());
                if u <= eps * v {
                    break;
                }
                m -= 1;
            }
            for i in (m + 2)..=nnu {
                a[(i, i - 2)] = 0.0;
            }
            for i in (m + 3)..=nnu {
                a[(i, i - 3)] = 0.0;
            }

            // Double QR step on rows l..=nn, columns l..=nn.
            for k in m..nnu {
                if k != m {
                    p = a[(k, k - 1)];
                    q = a[(k + 1, k - 1)];
                    r = if k != nnu - 1 { a[(k + 2, k - 1)] } else { 0.0 };
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
                        let v = -a[(k, k - 1)];
                        a[(k, k - 1)] = v;
                    }
                } else {
                    a[(k, k - 1)] = -s * x;
                }
                p += s;
                x = p / s;
                y = q / s;
                let z = r / s;
                q /= p;
                r /= p;
                // Row modification.
                for j in k..=nnu {
                    let mut pp = a[(k, j)] + q * a[(k + 1, j)];
                    if k != nnu - 1 {
                        pp += r * a[(k + 2, j)];
                        let v = a[(k + 2, j)] - pp * z;
                        a[(k + 2, j)] = v;
                    }
                    let v1 = a[(k + 1, j)] - pp * y;
                    a[(k + 1, j)] = v1;
                    let v0 = a[(k, j)] - pp * x;
                    a[(k, j)] = v0;
                }
                // Column modification.
                let mmin = nnu.min(k + 3);
                for i in l..=mmin {
                    let mut pp = x * a[(i, k)] + y * a[(i, k + 1)];
                    if k != nnu - 1 {
                        pp += z * a[(i, k + 2)];
                        let v = a[(i, k + 2)] - pp * r;
                        a[(i, k + 2)] = v;
                    }
                    let v1 = a[(i, k + 1)] - pp * q;
                    a[(i, k + 1)] = v1;
                    let v0 = a[(i, k)] - pp;
                    a[(i, k)] = v0;
                }
            }
        }
    }
    Ok(eig)
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
