//! Property-based tests for the JSR machinery.

use overrun_jsr::{
    bruteforce_bounds, gripenberg, optimize_ellipsoid, BruteforceOptions, GripenbergOptions,
    MatrixSet,
};
use overrun_linalg::{spectral_radius, Matrix};
use proptest::prelude::*;

fn matrix(n: usize, mag: f64) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-mag..mag, n * n)
        .prop_map(move |v| Matrix::from_vec(n, n, v).expect("sized buffer"))
}

fn matrix_pair(n: usize) -> impl Strategy<Value = (Matrix, Matrix)> {
    (matrix(n, 1.0), matrix(n, 1.0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For a singleton set the JSR equals the spectral radius; every method
    /// must bracket it.
    #[test]
    fn singleton_bounds_bracket_spectral_radius(a in matrix(3, 2.0)) {
        let rho = spectral_radius(&a).unwrap();
        let set = MatrixSet::new(vec![a]).unwrap();
        let g = gripenberg(&set, &GripenbergOptions::default()).unwrap();
        prop_assert!(g.lower <= rho + 1e-6 * rho.max(1.0));
        prop_assert!(rho <= g.upper + 1e-6 * rho.max(1.0));
        let bf = bruteforce_bounds(&set, &BruteforceOptions { max_depth: 5, ..Default::default() }).unwrap();
        prop_assert!(bf.lower <= rho + 1e-6 * rho.max(1.0));
        prop_assert!(rho <= bf.upper + 1e-6 * rho.max(1.0));
    }

    /// All methods' intervals must pairwise overlap (they contain the same
    /// true JSR) on two-matrix sets.
    #[test]
    fn method_intervals_overlap((a, b) in matrix_pair(2)) {
        let set = MatrixSet::new(vec![a, b]).unwrap();
        let g = gripenberg(&set, &GripenbergOptions::default()).unwrap();
        let bf = bruteforce_bounds(&set, &BruteforceOptions { max_depth: 8, ..Default::default() }).unwrap();
        prop_assert!(g.lower <= bf.upper + 1e-6, "g={g:?} bf={bf:?}");
        prop_assert!(bf.lower <= g.upper + 1e-6, "g={g:?} bf={bf:?}");
    }

    /// JSR homogeneity: scaling every matrix by c scales the bounds by c.
    #[test]
    fn scaling_homogeneity((a, b) in matrix_pair(2), c in 0.25..4.0f64) {
        let set1 = MatrixSet::new(vec![a.clone(), b.clone()]).unwrap();
        let set2 = MatrixSet::new(vec![a.scale(c), b.scale(c)]).unwrap();
        let b1 = bruteforce_bounds(&set1, &BruteforceOptions { max_depth: 6, ..Default::default() }).unwrap();
        let b2 = bruteforce_bounds(&set2, &BruteforceOptions { max_depth: 6, ..Default::default() }).unwrap();
        prop_assert!((b2.lower - c * b1.lower).abs() <= 1e-6 * (1.0 + c * b1.lower));
        prop_assert!((b2.upper - c * b1.upper).abs() <= 1e-6 * (1.0 + c * b1.upper));
    }

    /// The JSR is invariant under a common similarity; bounds computed on
    /// the transformed set must still bracket the original lower bound.
    #[test]
    fn similarity_invariance((a, b) in matrix_pair(2), d0 in 0.2..5.0f64, d1 in 0.2..5.0f64) {
        let set = MatrixSet::new(vec![a, b]).unwrap();
        let scaled = set.similarity_scaled(&[d0, d1]).unwrap();
        let orig = bruteforce_bounds(&set, &BruteforceOptions { max_depth: 6, ..Default::default() }).unwrap();
        let tran = bruteforce_bounds(&scaled, &BruteforceOptions { max_depth: 6, ..Default::default() }).unwrap();
        // The spectral lower bounds are similarity-invariant.
        prop_assert!((orig.lower - tran.lower).abs() <= 1e-6 * (1.0 + orig.lower));
        // Upper bounds differ but both are ≥ the common lower bound.
        prop_assert!(tran.upper >= orig.lower - 1e-6);
        prop_assert!(orig.upper >= tran.lower - 1e-6);
    }

    /// The ellipsoid norm bound is a valid upper bound: never below the
    /// best spectral lower bound.
    #[test]
    fn ellipsoid_bound_is_upper_bound((a, b) in matrix_pair(2)) {
        let set = MatrixSet::new(vec![a, b]).unwrap();
        let e = optimize_ellipsoid(&set, &Default::default()).unwrap();
        let bf = bruteforce_bounds(&set, &BruteforceOptions { max_depth: 8, ..Default::default() }).unwrap();
        prop_assert!(e.norm_bound >= bf.lower - 1e-6 * (1.0 + bf.lower),
            "ellipsoid {} < lower bound {}", e.norm_bound, bf.lower);
    }

    /// Gripenberg's lower bound is monotone in the budget.
    #[test]
    fn lower_bound_monotone_in_depth((a, b) in matrix_pair(2)) {
        let set = MatrixSet::new(vec![a, b]).unwrap();
        let shallow = gripenberg(&set, &GripenbergOptions { max_depth: 2, ellipsoid: false, ..Default::default() }).unwrap();
        let deep = gripenberg(&set, &GripenbergOptions { max_depth: 8, ellipsoid: false, ..Default::default() }).unwrap();
        prop_assert!(deep.lower >= shallow.lower - 1e-9);
    }
}
