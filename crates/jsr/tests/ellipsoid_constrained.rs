//! Known-answer and property tests for the ellipsoidal-norm optimiser
//! (`jsr::ellipsoid`) and the constrained-switching bounds
//! (`jsr::constrained`).
//!
//! The properties pinned here are the two soundness contracts the
//! certification pipeline leans on: the optimised ellipsoid really induces
//! a *norm* (positive, homogeneous, triangle inequality — otherwise its
//! "upper bound" would certify nothing), and the constrained JSR never
//! beats the unconstrained one (`ρ_C ≤ ρ`: restricting the switching
//! language can only remove products).

use overrun_jsr::{
    bruteforce_bounds, constrained_bounds, optimize_ellipsoid, BruteforceOptions,
    ConstrainedOptions, EllipsoidOptions, MatrixSet,
};
use overrun_linalg::{norm_2, spectral_radius, Matrix};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Known-answer cases
// ---------------------------------------------------------------------------

/// For a diagonal singleton the 2-norm is already optimal: the search must
/// return (essentially) the spectral radius, not something looser.
#[test]
fn ellipsoid_known_answer_diagonal() {
    let a = Matrix::diag(&[0.5, 0.25]);
    let set = MatrixSet::new(vec![a]).unwrap();
    let e = optimize_ellipsoid(&set, &EllipsoidOptions::default()).unwrap();
    assert!(
        (e.norm_bound - 0.5).abs() < 1e-6,
        "bound = {}",
        e.norm_bound
    );
}

/// A scaled rotation has `ρ = 0.9 = ‖A‖₂`; no ellipsoid can do better, and
/// the optimiser must not do worse.
#[test]
fn ellipsoid_known_answer_scaled_rotation() {
    let (c, s) = (0.6_f64, 0.8_f64); // cos/sin of a rational angle
    let a = Matrix::from_rows(&[&[0.9 * c, 0.9 * s], &[-0.9 * s, 0.9 * c]]).unwrap();
    let set = MatrixSet::new(vec![a]).unwrap();
    let e = optimize_ellipsoid(&set, &EllipsoidOptions::default()).unwrap();
    assert!(
        (e.norm_bound - 0.9).abs() < 1e-6,
        "bound = {}",
        e.norm_bound
    );
}

/// Forced alternation (`prev != next`) between a contractive and an
/// expansive diagonal mode: the admissible infinite words are the two
/// alternations, so `ρ_C = sqrt(ρ(A₁·A₀)) = sqrt(0.8)` exactly.
#[test]
fn constrained_known_answer_forced_alternation() {
    let nominal = Matrix::diag(&[0.4, 0.2]);
    let overrun = Matrix::diag(&[2.0, 1.0]);
    let set = MatrixSet::new(vec![nominal, overrun]).unwrap();
    let b = constrained_bounds(&set, &|p, n| p != n, &ConstrainedOptions::default()).unwrap();
    let expected = (0.4 * 2.0_f64).sqrt();
    assert!(b.certifies_stable(), "bounds {b}");
    assert!(b.lower <= expected + 1e-9, "{b:?} vs {expected}");
    assert!(expected <= b.upper + 1e-9, "{b:?} vs {expected}");
    assert!(
        b.upper - b.lower < 0.05,
        "alternation bounds are tight: {b:?}"
    );
}

/// A "no two consecutive overruns" weakly-hard contract on an overrun mode
/// that is only *marginally* expansive: depth enumeration must certify the
/// pair even though the unconstrained JSR is exactly the overrun radius.
#[test]
fn constrained_known_answer_no_repeat() {
    let nominal = Matrix::diag(&[0.3, 0.3]);
    let overrun = Matrix::diag(&[1.5, 1.5]);
    let set = MatrixSet::new(vec![nominal.clone(), overrun.clone()]).unwrap();
    let b = constrained_bounds(
        &set,
        &|prev, next| !(prev == 1 && next == 1),
        &ConstrainedOptions::default(),
    )
    .unwrap();
    // Worst admissible cycle: (overrun · nominal)^∞ → sqrt(1.5 · 0.3).
    let expected = (1.5 * 0.3_f64).sqrt();
    assert!(b.certifies_stable(), "bounds {b}");
    assert!((b.lower - expected).abs() < 1e-6, "{b:?} vs {expected}");
}

// ---------------------------------------------------------------------------
// Property tests
// ---------------------------------------------------------------------------

fn matrix(n: usize, mag: f64) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-mag..mag, n * n)
        .prop_map(move |v| Matrix::from_vec(n, n, v).expect("sized buffer"))
}

fn vector(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-2.0..2.0f64, n).prop_map(|v| Matrix::col_vec(&v))
}

/// `‖x‖_P = ‖L x‖₂` for the optimised ellipsoid.
fn p_norm(l: &Matrix, x: &Matrix) -> f64 {
    norm_2(&l.matmul(x).expect("dims"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The optimised ellipsoid induces a genuine vector norm: positive on
    /// non-zero vectors, absolutely homogeneous, and subadditive.
    #[test]
    fn ellipsoid_norm_is_a_norm(
        a in matrix(2, 1.0),
        b in matrix(2, 1.0),
        x in vector(2),
        y in vector(2),
        c in -3.0..3.0f64,
    ) {
        let set = MatrixSet::new(vec![a, b]).unwrap();
        let e = optimize_ellipsoid(&set, &EllipsoidOptions {
            max_newton_steps: 20, // small budget: the properties hold for any L
        }).unwrap();

        let nx = p_norm(&e.l, &x);
        let ny = p_norm(&e.l, &y);
        // Positive definiteness (L is invertible by construction).
        if norm_2(&x) > 1e-9 {
            prop_assert!(nx > 0.0, "‖x‖_P = {nx} for x ≠ 0");
        }
        // Absolute homogeneity.
        let ncx = p_norm(&e.l, &x.scale(c));
        prop_assert!((ncx - c.abs() * nx).abs() <= 1e-9 * (1.0 + ncx),
            "‖c·x‖_P = {ncx} vs |c|·‖x‖_P = {}", c.abs() * nx);
        // Triangle inequality.
        let nxy = p_norm(&e.l, &x.add_mat(&y).unwrap());
        prop_assert!(nxy <= nx + ny + 1e-9 * (1.0 + nx + ny),
            "‖x+y‖_P = {nxy} > {nx} + {ny}");
    }

    /// The ellipsoid's reported bound really is the induced-norm maximum:
    /// for every member, `‖A x‖_P ≤ norm_bound · ‖x‖_P`, hence also
    /// `ρ(Aᵢ) ≤ norm_bound`.
    #[test]
    fn ellipsoid_bound_dominates_members(
        a in matrix(2, 1.0),
        b in matrix(2, 1.0),
        x in vector(2),
    ) {
        let set = MatrixSet::new(vec![a, b]).unwrap();
        let e = optimize_ellipsoid(&set, &EllipsoidOptions {
            max_newton_steps: 20,
        }).unwrap();
        for m in set.iter() {
            let rho = spectral_radius(m).unwrap();
            prop_assert!(rho <= e.norm_bound + 1e-7 * (1.0 + rho),
                "ρ = {rho} > bound = {}", e.norm_bound);
            let nx = p_norm(&e.l, &x);
            let nax = p_norm(&e.l, &m.matmul(&x).unwrap());
            prop_assert!(nax <= e.norm_bound * nx + 1e-7 * (1.0 + nax),
                "‖Ax‖_P = {nax} > bound · ‖x‖_P = {}", e.norm_bound * nx);
        }
    }

    /// Restricting the switching language never increases the radius: the
    /// constrained lower bound stays below the unconstrained upper bound
    /// for the weakly-hard "no two consecutive overruns" predicate.
    #[test]
    fn constrained_never_beats_unconstrained(
        a in matrix(2, 1.2),
        b in matrix(2, 1.2),
    ) {
        let set = MatrixSet::new(vec![a, b]).unwrap();
        let free = bruteforce_bounds(&set, &BruteforceOptions {
            max_depth: 8,
            ..BruteforceOptions::default()
        }).unwrap();
        let con = constrained_bounds(
            &set,
            &|prev, next| !(prev == 1 && next == 1),
            &ConstrainedOptions { max_depth: 8, ..ConstrainedOptions::default() },
        ).unwrap();
        prop_assert!(con.lower <= con.upper + 1e-9, "con = {con:?}");
        prop_assert!(con.lower <= free.upper + 1e-9,
            "ρ_C lower {con:?} beats unconstrained upper {free:?}");
    }

    /// With the all-true predicate the admissible language is unrestricted,
    /// so the constrained interval must overlap the brute-force interval —
    /// both contain the same true JSR.
    #[test]
    fn all_true_predicate_matches_unconstrained(
        a in matrix(2, 1.0),
        b in matrix(2, 1.0),
    ) {
        let set = MatrixSet::new(vec![a, b]).unwrap();
        let free = bruteforce_bounds(&set, &BruteforceOptions {
            max_depth: 8,
            ..BruteforceOptions::default()
        }).unwrap();
        let con = constrained_bounds(
            &set,
            &|_, _| true,
            &ConstrainedOptions { max_depth: 8, ..ConstrainedOptions::default() },
        ).unwrap();
        prop_assert!(con.lower <= free.upper + 1e-6, "con={con:?} free={free:?}");
        prop_assert!(free.lower <= con.upper + 1e-6, "con={con:?} free={free:?}");
    }
}
