//! Known-answer, degenerate-input and dominance tests for the optimal
//! ellipsoidal norm (`jsr::ellipsoid`), which solves the LMI
//! `min γ s.t. AᵢᵀPAᵢ ⪯ γ²P, P ≻ 0` by the method of centres.
//!
//! The contract pinned here: the reported bound is the exact
//! `max ‖L Aᵢ L⁻¹‖₂` of the returned transform, it reaches the optimum
//! where the optimum is known in closed form, it never loses to the
//! identity or to a derivative-free search over the same objective,
//! degenerate inputs give a finite bound or an error, never a panic, and
//! the optimised ellipsoid induces a genuine norm (positive, homogeneous,
//! subadditive) in which the bound dominates every member — otherwise its
//! "upper bound" would certify nothing.

use overrun_jsr::{
    bruteforce_bounds, optimize_ellipsoid, BruteforceOptions, Ellipsoid, EllipsoidOptions, Error,
    MatrixSet,
};
use overrun_linalg::optimize::{nelder_mead, NelderMeadOptions};
use overrun_linalg::{norm_2, spectral_radius, Matrix};
use proptest::prelude::*;

type TestResult = Result<(), Error>;

fn optimal(set: &MatrixSet) -> Result<Ellipsoid, Error> {
    optimize_ellipsoid(set, &EllipsoidOptions::default())
}

/// `max ‖L Aᵢ L⁻¹‖₂` recomputed from the returned transform.
fn bound_of(set: &MatrixSet, l: &Matrix, l_inv: &Matrix) -> Result<f64, Error> {
    let mut worst = 0.0_f64;
    for a in set {
        worst = worst.max(norm_2(&l.matmul(a)?.matmul(l_inv)?));
    }
    Ok(worst)
}

fn identity_bound(set: &MatrixSet) -> f64 {
    set.norms().iter().copied().fold(0.0, f64::max)
}

fn rotation(theta: f64, radius: f64) -> Result<Matrix, Error> {
    let (c, s) = (radius * theta.cos(), radius * theta.sin());
    Ok(Matrix::from_rows(&[&[c, -s], &[s, c]])?)
}

/// `T M T⁻¹` for a fixed, badly scaled, non-orthogonal `T`.
fn skew(m: &Matrix) -> Result<Matrix, Error> {
    let n = m.rows();
    let t = Matrix::from_fn(n, n, |i, j| match (i, j) {
        _ if i == j => 1.0 + i as f64,
        _ if j == i + 1 => 3.0,
        _ if i == j + 2 => -0.5,
        _ => 0.0,
    });
    Ok(t.matmul(m)?.matmul(&t.inverse()?)?)
}

fn assert_rel(got: f64, want: f64, tol: f64) {
    assert!(
        (got - want).abs() <= tol * want.abs().max(1e-300),
        "got {got}, want {want} (relative tolerance {tol})"
    );
}

// ---------------------------------------------------------------------------
// Known answers
// ---------------------------------------------------------------------------

/// A diagonalisable `A = T Λ T⁻¹` with real eigenvalues: `L = T⁻¹` makes
/// it diagonal, so the optimum is `ρ(A)`.
#[test]
fn diagonalisable_singleton_reaches_spectral_radius() -> TestResult {
    let a = skew(&Matrix::diag(&[0.8, -0.5, 0.3]))?;
    let rho = spectral_radius(&a)?;
    let set = MatrixSet::new(vec![a])?;
    assert!(identity_bound(&set) > 1.5 * rho, "the 2-norm must be loose");
    let e = optimal(&set)?;
    assert_rel(e.norm_bound, rho, 1e-6);
    Ok(())
}

/// The module's docstring case: `ρ = 0.9`, `‖A‖₂ = 2`.
#[test]
fn docstring_rotation_scale_reaches_point_nine() -> TestResult {
    let a = Matrix::from_rows(&[&[0.0, 2.0], &[-0.405, 0.0]])?;
    let set = MatrixSet::new(vec![a])?;
    let e = optimal(&set)?;
    assert_rel(e.norm_bound, 0.9, 1e-6);
    Ok(())
}

/// Commuting normal matrices are unitarily co-diagonalisable, so the JSR,
/// and the optimal ellipsoid bound, is the largest spectral radius — also
/// after a common similarity hides the normality from the 2-norm.
#[test]
fn commuting_normal_pairs_reach_max_spectral_radius() -> TestResult {
    let pair = [rotation(0.7, 0.6)?, rotation(-1.9, 0.85)?];
    let set = MatrixSet::new(pair.to_vec())?;
    assert_rel(optimal(&set)?.norm_bound, 0.85, 1e-6);

    let block = |rot: &Matrix, tail: f64| {
        Matrix::from_fn(3, 3, |i, j| match (i, j) {
            (2, 2) => tail,
            (2, _) | (_, 2) => 0.0,
            _ => rot[(i, j)],
        })
    };
    let hidden = MatrixSet::new(vec![
        skew(&block(&pair[0], -0.9))?,
        skew(&block(&pair[1], 0.4))?,
    ])?;
    assert!(identity_bound(&hidden) > 1.2);
    assert_rel(optimal(&hidden)?.norm_bound, 0.9, 1e-6);
    Ok(())
}

/// The reported bound is the exact norm of the returned transform, and the
/// transform is a genuine inverse pair.
#[test]
fn reported_bound_is_the_transform_norm() -> TestResult {
    let set = MatrixSet::new(vec![
        Matrix::from_rows(&[&[0.6, 0.4, 0.0], &[-0.2, 0.7, 0.3], &[0.1, 0.0, 0.5]])?,
        Matrix::from_rows(&[&[0.5, -0.3, 0.2], &[0.4, 0.6, 0.0], &[0.0, 0.3, -0.4]])?,
    ])?;
    let e = optimal(&set)?;
    assert_eq!(e.norm_bound, bound_of(&set, &e.l, &e.l_inv)?);
    assert!(e
        .l
        .matmul(&e.l_inv)?
        .approx_eq(&Matrix::identity(3), 1e-10, 1e-10));
    let bf = bruteforce_bounds(
        &set,
        &BruteforceOptions {
            max_depth: 6,
            ..Default::default()
        },
    )?;
    assert!(bf.lower <= e.norm_bound + 1e-12);
    Ok(())
}

/// Serial and deterministic: two runs agree bit for bit.
#[test]
fn repeated_runs_are_bit_identical() -> TestResult {
    let set = MatrixSet::new(vec![
        skew(&Matrix::diag(&[0.7, 0.2, -0.6]))?,
        skew(&Matrix::from_rows(&[
            &[0.1, 0.9, 0.0],
            &[-0.4, 0.2, 0.0],
            &[0.3, 0.0, 0.5],
        ])?)?,
    ])?;
    let (a, b) = (optimal(&set)?, optimal(&set)?);
    assert_eq!(a.norm_bound.to_bits(), b.norm_bound.to_bits());
    assert_eq!(a.l, b.l);
    assert_eq!(a.l_inv, b.l_inv);
    Ok(())
}

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

// ---------------------------------------------------------------------------
// Degenerate inputs
// ---------------------------------------------------------------------------

#[test]
fn all_zero_set_gives_zero() -> TestResult {
    let set = MatrixSet::new(vec![Matrix::zeros(3, 3), Matrix::zeros(3, 3)])?;
    let e = optimal(&set)?;
    assert_eq!(e.norm_bound, 0.0);
    assert_eq!(e.l, Matrix::identity(3));
    Ok(())
}

/// Lifted closed loops `Ω(h)` carry structurally zero columns (the state
/// slot that the next job overwrites). Such sets are singular but valid.
#[test]
fn omega_shaped_set_with_zero_column() -> TestResult {
    let omega = |k: f64, phi: f64| {
        Matrix::from_rows(&[
            &[phi, 0.4, 0.1, 0.0],
            &[-k, 0.2, 0.0, 0.0],
            &[0.3, -0.5 * k, 0.6, 0.0],
            &[0.0, 1.0, 0.0, 0.0],
        ])
    };
    let set = MatrixSet::new(vec![omega(0.5, 0.9)?, omega(0.8, 0.7)?, omega(1.1, 0.95)?])?;
    let e = optimal(&set)?;
    assert!(e.norm_bound.is_finite());
    assert!(e.norm_bound < identity_bound(&set));
    let bf = bruteforce_bounds(
        &set,
        &BruteforceOptions {
            max_depth: 6,
            ..Default::default()
        },
    )?;
    assert!(
        bf.lower <= e.norm_bound + 1e-12,
        "{bf:?} vs {}",
        e.norm_bound
    );
    let t = e.transform(&set)?;
    for (orig, tr) in set.iter().zip(t.iter()) {
        let (r0, r1) = (spectral_radius(orig)?, spectral_radius(tr)?);
        assert!((r0 - r1).abs() <= 1e-8 * r0.max(1.0));
    }
    Ok(())
}

/// A Jordan block: the infimum `ρ = 0.9` is approached only as `P`
/// degenerates, so the solver must stop on its own with a finite bound.
#[test]
fn jordan_block_gives_finite_bound_between_radius_and_identity() -> TestResult {
    let j = Matrix::from_rows(&[&[0.9, 1.0], &[0.0, 0.9]])?;
    let set = MatrixSet::new(vec![j])?;
    let e = optimal(&set)?;
    assert!(e.norm_bound.is_finite());
    assert!(0.9 <= e.norm_bound, "bound {} below ρ", e.norm_bound);
    assert!(
        e.norm_bound < identity_bound(&set),
        "bound {}",
        e.norm_bound
    );
    assert!(
        e.norm_bound < 0.91,
        "bound {} far from the infimum",
        e.norm_bound
    );
    Ok(())
}

/// Non-finite entries never reach the solver: the set is rejected.
#[test]
fn nan_input_is_an_error() -> TestResult {
    let mut a = Matrix::identity(2);
    a[(0, 1)] = f64::NAN;
    assert!(matches!(MatrixSet::new(vec![a]), Err(Error::InvalidSet(_))));
    let set = MatrixSet::new(vec![Matrix::identity(2)])?;
    assert!(matches!(
        optimize_ellipsoid(
            &set,
            &EllipsoidOptions {
                max_newton_steps: 0
            }
        ),
        Err(Error::InvalidOptions(_))
    ));
    Ok(())
}

/// Extreme magnitudes are handled by an exact power-of-two rescaling.
#[test]
fn extreme_magnitudes_scale_exactly() -> TestResult {
    let a = Matrix::from_rows(&[&[0.0, 2.0], &[-0.405, 0.0]])?;
    for scale in [1e-150, 1e150] {
        let set = MatrixSet::new(vec![a.scale(scale)])?;
        assert_rel(optimal(&set)?.norm_bound, 0.9 * scale, 1e-6);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Dominance over a derivative-free search of the same objective
// ---------------------------------------------------------------------------

/// Upper-triangular `L` from its entries, diagonal stored as logs.
fn unpack(x: &[f64], n: usize) -> Matrix {
    let mut l = Matrix::zeros(n, n);
    let mut idx = 0;
    for i in 0..n {
        for j in i..n {
            l[(i, j)] = if i == j { x[idx].exp() } else { x[idx] };
            idx += 1;
        }
    }
    l
}

/// Nelder–Mead from the identity over `max ‖L Aᵢ L⁻¹‖₂`.
fn nelder_mead_bound(set: &MatrixSet) -> f64 {
    let n = set.dim();
    let objective = |x: &[f64]| {
        let l = unpack(x, n);
        match l.inverse() {
            Ok(l_inv) => bound_of(set, &l, &l_inv).unwrap_or(f64::INFINITY),
            Err(_) => f64::INFINITY,
        }
    };
    let start = vec![0.0; n * (n + 1) / 2];
    let opts = NelderMeadOptions {
        max_evals: 2000,
        f_tol: 1e-12,
        initial_step: 0.2,
    };
    match nelder_mead(objective, &start, &opts) {
        Ok(r) => r.f.min(identity_bound(set)),
        Err(_) => identity_bound(set),
    }
}

/// 2–4 matrices of dimension 2–5 with entries in `(-1, 1)`.
fn random_set() -> impl Strategy<Value = MatrixSet> {
    (
        2..=5usize,
        2..=4usize,
        prop::collection::vec(-1.0..1.0f64, 4 * 25),
    )
        .prop_filter_map("valid set", |(n, q, entries)| {
            let members = entries
                .chunks_exact(n * n)
                .take(q)
                .map(|c| Matrix::from_vec(n, n, c.to_vec()))
                .collect::<Result<Vec<_>, _>>()
                .ok()?;
            MatrixSet::new(members).ok()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The LMI optimum is never beaten by a derivative-free search over the
    /// same objective, nor by the identity.
    #[test]
    fn lmi_bound_dominates_nelder_mead(set in random_set()) {
        let e = optimal(&set).map_err(|err| TestCaseError::fail(err.to_string()))?;
        let nm = nelder_mead_bound(&set);
        prop_assert!(e.norm_bound <= nm * (1.0 + 1e-9),
            "LMI {} > Nelder–Mead {nm}", e.norm_bound);
        prop_assert!(e.norm_bound <= identity_bound(&set));
    }
}

// ---------------------------------------------------------------------------
// The optimised ellipsoid is a norm that bounds every member
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
}
