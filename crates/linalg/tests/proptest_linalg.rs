//! Property-based tests for the linear algebra kernels.

use overrun_linalg::{
    eigenvalues, expm, expm_integral, norm_1, norm_2, norm_fro, norm_inf, spectral_radius,
    Cholesky, Lu, Matrix,
};
use proptest::prelude::*;

/// Strategy: a square matrix with entries in [-mag, mag].
fn square_matrix(n: usize, mag: f64) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-mag..mag, n * n)
        .prop_map(move |v| Matrix::from_vec(n, n, v).expect("sized buffer"))
}

/// Strategy: a symmetric positive definite matrix built as `M Mᵀ + εI`.
fn spd_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    square_matrix(n, 2.0).prop_map(move |m| &m * &m.transpose() + Matrix::identity(n) * 0.5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lu_reconstructs_solution(m in square_matrix(4, 5.0), rhs in prop::collection::vec(-5.0..5.0f64, 4)) {
        let lu = Lu::new(&m).unwrap();
        if !lu.is_singular() {
            let b = Matrix::col_vec(&rhs);
            let x = lu.solve(&b).unwrap();
            let back = &m * &x;
            let scale = m.max_abs().max(1.0) * x.max_abs().max(1.0);
            prop_assert!(back.approx_eq(&b, 1e-8 * scale, 1e-8));
        }
    }

    #[test]
    fn det_of_product_is_product_of_dets(a in square_matrix(3, 2.0), b in square_matrix(3, 2.0)) {
        let dab = (&a * &b).det().unwrap();
        let da = a.det().unwrap();
        let db = b.det().unwrap();
        let scale = da.abs().max(1.0) * db.abs().max(1.0);
        prop_assert!((dab - da * db).abs() < 1e-9 * scale);
    }

    #[test]
    fn cholesky_reconstructs_spd(a in spd_matrix(3)) {
        let ch = Cholesky::new(&a).unwrap();
        let back = ch.l() * ch.l().transpose();
        prop_assert!(back.approx_eq(&a, 1e-8 * a.max_abs().max(1.0), 1e-8));
    }

    #[test]
    fn eigenvalue_sum_is_trace(a in square_matrix(5, 2.0)) {
        let eigs = eigenvalues(&a).unwrap();
        let s: f64 = eigs.iter().map(|e| e.re).sum();
        prop_assert!((s - a.trace()).abs() < 1e-6 * a.max_abs().max(1.0) * 5.0);
        // complex eigenvalues come in conjugate pairs
        let im_sum: f64 = eigs.iter().map(|e| e.im).sum();
        prop_assert!(im_sum.abs() < 1e-6 * a.max_abs().max(1.0) * 5.0);
    }

    #[test]
    fn spectral_radius_bounded_by_norms(a in square_matrix(4, 3.0)) {
        let rho = spectral_radius(&a).unwrap();
        prop_assert!(rho <= norm_1(&a) + 1e-9);
        prop_assert!(rho <= norm_inf(&a) + 1e-9);
        prop_assert!(rho <= norm_fro(&a) + 1e-9);
        prop_assert!(rho <= norm_2(&a) + 1e-6 * norm_fro(&a).max(1.0));
    }

    #[test]
    fn expm_inverse_identity(a in square_matrix(3, 1.0)) {
        let e = expm(&a).unwrap();
        let em = expm(&(-&a)).unwrap();
        let prod = &e * &em;
        prop_assert!(prod.approx_eq(&Matrix::identity(3), 1e-9, 1e-9));
    }

    #[test]
    fn expm_det_is_exp_trace(a in square_matrix(3, 1.0)) {
        let e = expm(&a).unwrap();
        let lhs = e.det().unwrap();
        let rhs = a.trace().exp();
        prop_assert!((lhs - rhs).abs() < 1e-8 * rhs.abs().max(1.0));
    }

    #[test]
    fn zoh_semigroup(a in square_matrix(2, 2.0), h1 in 0.01..0.5f64, h2 in 0.01..0.5f64) {
        let b = Matrix::col_vec(&[0.0, 1.0]);
        let (phi1, g1) = expm_integral(&a, &b, h1).unwrap();
        let (phi2, g2) = expm_integral(&a, &b, h2).unwrap();
        let (phi12, g12) = expm_integral(&a, &b, h1 + h2).unwrap();
        prop_assert!((&phi2 * &phi1).approx_eq(&phi12, 1e-8, 1e-8));
        prop_assert!((&phi2 * &g1 + &g2).approx_eq(&g12, 1e-8, 1e-8));
    }

    #[test]
    fn norm_triangle_inequality(a in square_matrix(3, 4.0), b in square_matrix(3, 4.0)) {
        let sum = &a + &b;
        prop_assert!(norm_fro(&sum) <= norm_fro(&a) + norm_fro(&b) + 1e-12);
        prop_assert!(norm_1(&sum) <= norm_1(&a) + norm_1(&b) + 1e-12);
        prop_assert!(norm_inf(&sum) <= norm_inf(&a) + norm_inf(&b) + 1e-12);
    }

    #[test]
    fn norm_submultiplicative(a in square_matrix(3, 3.0), b in square_matrix(3, 3.0)) {
        let p = &a * &b;
        prop_assert!(norm_1(&p) <= norm_1(&a) * norm_1(&b) + 1e-9);
        prop_assert!(norm_inf(&p) <= norm_inf(&a) * norm_inf(&b) + 1e-9);
        prop_assert!(norm_2(&p) <= norm_2(&a) * norm_2(&b) + 1e-6 * (norm_fro(&a) * norm_fro(&b)).max(1.0));
    }

    #[test]
    fn norm_2_matches_2x2_closed_form(a in square_matrix(2, 5.0)) {
        // ‖A‖₂² is the larger eigenvalue of AᵀA: (F + √(F² − 4·det(A)²))/2
        // with F = ‖A‖_F². The square root loses up to √ε when the two
        // singular values coincide, hence the 1e-7 relative tolerance.
        let f = norm_fro(&a).powi(2);
        let det = a.det().unwrap();
        let exact = ((f + (f * f - 4.0 * det * det).max(0.0).sqrt()) / 2.0).sqrt();
        prop_assert!((norm_2(&a) - exact).abs() <= 1e-7 * exact.max(1.0),
            "norm_2 {} vs closed form {}", norm_2(&a), exact);
    }

    #[test]
    fn transpose_preserves_fro_norm(a in square_matrix(4, 5.0)) {
        prop_assert!((norm_fro(&a) - norm_fro(&a.transpose())).abs() < 1e-12);
        // and swaps 1 and inf norms
        prop_assert!((norm_1(&a) - norm_inf(&a.transpose())).abs() < 1e-12);
    }

    #[test]
    fn matmul_associative(a in square_matrix(3, 2.0), b in square_matrix(3, 2.0), c in square_matrix(3, 2.0)) {
        let left = (&a * &b) * &c;
        let right = &a * (&b * &c);
        let scale = a.max_abs().max(1.0) * b.max_abs().max(1.0) * c.max_abs().max(1.0);
        prop_assert!(left.approx_eq(&right, 1e-10 * scale, 1e-10));
    }
}

mod screening_and_kernel_properties {
    use super::*;
    use overrun_linalg::{cheap_spectral_bounds, small};

    /// Zero-inflates a buffer: small-magnitude draws become exact zeros, so
    /// the kernels' zero-skip branch and the screening accumulators see a
    /// realistic mix of sparsity (roughly a quarter of the entries).
    fn inflate(v: &[f64], n: usize, mag: f64) -> Vec<f64> {
        v[..n * n]
            .iter()
            .map(|&x| if x.abs() < mag / 4.0 { 0.0 } else { x })
            .collect()
    }

    /// Strategy: a dimension `1..=8` (the kernel range) with a zero-inflated
    /// square matrix of that size.
    fn sized_sparse(mag: f64) -> impl Strategy<Value = (usize, Vec<f64>)> {
        let full = small::MAX_DIM * small::MAX_DIM;
        (
            1usize..=small::MAX_DIM,
            prop::collection::vec(-mag..mag, full),
        )
            .prop_map(move |(n, v)| (n, inflate(&v, n, mag)))
    }

    /// Two same-size zero-inflated buffers.
    fn sized_sparse_pair(mag: f64) -> impl Strategy<Value = (usize, Vec<f64>, Vec<f64>)> {
        let full = small::MAX_DIM * small::MAX_DIM;
        (sized_sparse(mag), prop::collection::vec(-mag..mag, full)).prop_map(move |((n, a), v)| {
            let b = inflate(&v, n, mag);
            (n, a, b)
        })
    }

    /// Embeds an `n × n` matrix as the top-left block of a zero matrix one
    /// larger than [`small::MAX_DIM`], forcing the generic multiply path.
    fn pad(n: usize, data: &[f64]) -> Matrix {
        let big = small::MAX_DIM + 1;
        let mut m = Matrix::zeros(big, big);
        for i in 0..n {
            for j in 0..n {
                m[(i, j)] = data[i * n + j];
            }
        }
        m
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn cheap_bounds_bracket_exact_evaluations((n, v) in sized_sparse(10.0)) {
            let m = Matrix::from_vec(n, n, v).expect("sized buffer");
            let b = cheap_spectral_bounds(&m);
            let nrm = norm_2(&m);
            prop_assert!(b.norm_lower <= nrm, "norm_lower {} > norm_2 {}", b.norm_lower, nrm);
            prop_assert!(nrm <= b.norm_upper, "norm_2 {} > norm_upper {}", nrm, b.norm_upper);
            let rho = spectral_radius(&m).unwrap();
            prop_assert!(rho <= b.radius_upper, "rho {} > radius_upper {}", rho, b.radius_upper);
            prop_assert!(b.radius_upper <= b.norm_upper, "radius bound looser than norm bound");
        }

        #[test]
        fn matmul_kernel_matches_generic_bitwise((n, a, b) in sized_sparse_pair(6.0)) {
            // n ≤ MAX_DIM dispatches to the const-generic kernel …
            let am = Matrix::from_vec(n, n, a.clone()).expect("sized buffer");
            let bm = Matrix::from_vec(n, n, b.clone()).expect("sized buffer");
            let fast = am.matmul(&bm).unwrap();
            // … while the padded embedding is too large for any kernel and
            // takes the generic loop; zero padding never contributes terms,
            // so the top-left block must agree bit for bit.
            let slow = pad(n, &a).matmul(&pad(n, &b)).unwrap();
            for i in 0..n {
                for j in 0..n {
                    prop_assert_eq!(fast[(i, j)].to_bits(), slow[(i, j)].to_bits(),
                        "({}, {}) of n = {}", i, j, n);
                }
            }
        }

        #[test]
        fn mul_vec_kernel_matches_generic_bitwise((n, a, x) in sized_sparse_pair(6.0)) {
            let am = Matrix::from_vec(n, n, a.clone()).expect("sized buffer");
            let x = &x[..n];
            let mut fast = vec![0.0_f64; n];
            am.mul_vec_into(x, &mut fast).unwrap();
            let big = small::MAX_DIM + 1;
            let mut xp = vec![0.0_f64; big];
            xp[..n].copy_from_slice(x);
            let mut slow = vec![0.0_f64; big];
            pad(n, &a).mul_vec_into(&xp, &mut slow).unwrap();
            for i in 0..n {
                prop_assert_eq!(fast[i].to_bits(), slow[i].to_bits(), "row {} of n = {}", i, n);
            }
        }

        #[test]
        fn fro_norm_kernel_matches_generic_bitwise((n, a) in sized_sparse(6.0)) {
            let am = Matrix::from_vec(n, n, a.clone()).expect("sized buffer");
            // The padded embedding only appends exact zeros to the sum, so
            // the generic accumulation visits the same values in order.
            prop_assert_eq!(norm_fro(&am).to_bits(), norm_fro(&pad(n, &a)).to_bits());
        }
    }
}
