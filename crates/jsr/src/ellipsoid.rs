//! Ellipsoidal (quadratic-Lyapunov) norm optimisation.
//!
//! Norm-based JSR upper bounds depend on the norm: for any invertible `L`,
//! `ρ(A) ≤ max_i ‖L A_i L⁻¹‖₂`. This module finds the ellipsoid
//! (`P = LᵀL`) minimising that bound — a common quadratic Lyapunov
//! certificate when the optimum is below one — and exposes the transform as
//! a preconditioner for [`crate::gripenberg`] / [`crate::bruteforce_bounds`].
//!
//! The optimal ellipsoid solves the quasi-convex generalised-eigenvalue
//! problem (GEVP)
//!
//! ```text
//! minimise γ   subject to   AᵢᵀPAᵢ ⪯ γ²P,   P ≻ 0,
//! ```
//!
//! the quadratic-norm LMI of the JSR toolbox behind the paper's Table II.
//! It is solved by the method of centres (Boyd–El Ghaoui 1993; Boyd et al.,
//! *Linear Matrix Inequalities in System and Control Theory*, §4.4). For a
//! level `s > γ²` the analytic centre of `{P : tr P = n, sP ≻ AᵢᵀPAᵢ}`
//! minimises the barrier
//!
//! ```text
//! −log det P − Σᵢ log det(sP − AᵢᵀPAᵢ)
//! ```
//!
//! over the `n(n+1)/2` entries of `P`. Damped Newton steps move `P` until
//! one starts from a Newton decrement of at most ½, then the level drops
//! towards the value reached there, `s' = s_c + θ(s − s_c)` with
//! `s_c = γ(P)²`, shrinking the feasible set around the optimum.
//!
//! Between two centrings a tangent predictor moves `P` along the central
//! path. Differentiating the centring condition in `s` gives a KKT system
//! for `dP/ds` with the Newton step's matrix, so it is solved on the
//! Hessian factor the last step left behind; the next centring starts from
//! `P + (s' − s)·dP/ds`, the step halved until `P` is strictly feasible at
//! `s'`. From there one or two Newton steps centre `P`, where the old
//! centre needed two or three, and the level can drop harder: `θ = 0.1`
//! instead of 0.3 without the predictor. Over the 18 Table II sets the
//! solves take 1 281 Newton steps instead of 3 488. Starting from `P = I`,
//! the iteration is serial and deterministic, and it works in buffers
//! allocated once.
//!
//! A Newton step is a handful of dense loops whose sums are chains of
//! dependent adds, so their speed is set by latency. Each loop is laid out
//! so that independent chains advance side by side:
//!
//! * `PA`, `AᵀPA`, `G⁻¹Aᵀ` and `AG⁻¹Aᵀ` run in i-k-j order over contiguous
//!   rows (the transposed members are stored once, at set-up);
//! * the Hessian's dot products have a compile-time length for alphabets
//!   of up to four members (`4q + 1` terms) and a runtime-length twin
//!   beyond; an entry whose two dot products coincide forms it once;
//! * the KKT system's gradient and trace right-hand sides share one
//!   two-column solve, and `overrun_linalg`'s Cholesky kernels form two
//!   rows, or up to four right-hand sides, at a time.
//!
//! The layout changes no sum: every one keeps its operands, its order and
//! its starting `0.0`, and nothing is fused or reassociated. So `P`, `γ`,
//! `L`, `L⁻¹` and the bound are bit-identical to the plain loops, and
//! verdicts and golden tables do not depend on it.
//!
//! The solver's `γ` is never trusted: the bound of the best iterate is
//! recomputed as the exact `max_i ‖L Aᵢ L⁻¹‖₂` from `P = LᵀL`, and the
//! identity is returned instead whenever it does at least as well.

use overrun_linalg::{
    cholesky_in_place, cholesky_log_det, cholesky_solve_in_place, norm_2, Matrix,
};

use crate::{Error, MatrixSet, Result};

/// Options for [`optimize_ellipsoid`].
#[derive(Debug, Clone)]
pub struct EllipsoidOptions {
    /// Budget of Newton steps for the method of centres. Default: 600.
    pub max_newton_steps: usize,
}

impl Default for EllipsoidOptions {
    fn default() -> Self {
        EllipsoidOptions {
            max_newton_steps: 600,
        }
    }
}

/// Result of the ellipsoid search.
#[derive(Debug, Clone)]
pub struct Ellipsoid {
    /// Upper-triangular transform `L`; `P = LᵀL` is the ellipsoid matrix.
    pub l: Matrix,
    /// Inverse transform `L⁻¹` (cached for preconditioning).
    pub l_inv: Matrix,
    /// The achieved bound `max_i ‖L Aᵢ L⁻¹‖₂` — a certified JSR upper
    /// bound on its own.
    pub norm_bound: f64,
    /// Newton steps the method of centres took (zero when it did not run).
    pub newton_steps: usize,
}

impl Ellipsoid {
    /// Applies the similarity `Aᵢ → L Aᵢ L⁻¹` to a set (JSR-invariant).
    ///
    /// # Errors
    ///
    /// Propagates matrix-multiplication failures.
    pub fn transform(&self, set: &MatrixSet) -> Result<MatrixSet> {
        let scaled = set
            .iter()
            .map(|a| {
                self.l
                    .matmul(a)
                    .and_then(|la| la.matmul(&self.l_inv))
                    .map_err(Error::Linalg)
            })
            .collect::<Result<Vec<_>>>()?;
        MatrixSet::new(scaled)
    }
}

/// Level update `s ← s_c + θ(s − s_c)`: the share of the last gap kept.
const THETA: f64 = 0.1;
/// A Newton decrement at or below this counts as centred.
const CENTRED: f64 = 0.5;
/// Below this decrement a full Newton step needs no line search (the
/// quadratic-convergence region of a self-concordant barrier).
const QUADRATIC: f64 = 0.25;
/// Stop once the level is within this relative distance of `γ(P)²`.
const LEVEL_TOL: f64 = 1e-9;
/// Relative width at which the bisection for `γ(P)²` stops.
const BISECTION_TOL: f64 = 1e-10;
/// First and largest relative ridge tried on a Hessian that fails to
/// factor.
const RIDGE_START: f64 = 1e-12;
const RIDGE_MAX: f64 = 1e-4;
/// Armijo slope fraction and step halvings of the line search.
const ARMIJO: f64 = 0.25;
const MAX_HALVINGS: usize = 40;
/// Step halvings of the tangent predictor before it keeps the centre.
const PREDICTOR_HALVINGS: usize = 8;

/// Searches for the ellipsoidal norm minimising the one-step JSR upper
/// bound `max_i ‖Aᵢ‖_P`, by the method of centres on the GEVP above.
///
/// The returned [`Ellipsoid::norm_bound`] is always a *certified* upper
/// bound on the JSR (any induced norm is submultiplicative); when it is
/// below one, `P = LᵀL` is a common quadratic Lyapunov function for the
/// whole switching system. When the optimum is not attained (e.g. a
/// Jordan block) the best bound reached within the budget is returned.
///
/// # Errors
///
/// * [`Error::InvalidOptions`] for a zero Newton-step budget.
/// * [`Error::InvalidSet`] when a member's 2-norm is not finite.
///
/// # Example
///
/// ```
/// use overrun_jsr::{ellipsoid::optimize_ellipsoid, MatrixSet};
/// use overrun_linalg::Matrix;
///
/// # fn main() -> Result<(), overrun_jsr::Error> {
/// // A single rotation-scale matrix: spectral radius 0.9 but 2-norm ≈ 2.
/// let a = Matrix::from_rows(&[&[0.0, 2.0], &[-0.405, 0.0]])?;
/// let set = MatrixSet::new(vec![a])?;
/// let e = optimize_ellipsoid(&set, &Default::default())?;
/// assert!((e.norm_bound - 0.9).abs() < 1e-6); // the optimal ellipsoid
/// # Ok(())
/// # }
/// ```
pub fn optimize_ellipsoid(set: &MatrixSet, opts: &EllipsoidOptions) -> Result<Ellipsoid> {
    if opts.max_newton_steps == 0 {
        return Err(Error::InvalidOptions(
            "max_newton_steps must be >= 1".into(),
        ));
    }
    let n = set.dim();
    let identity_bound = set.norms().iter().copied().fold(0.0_f64, f64::max);
    if !identity_bound.is_finite() {
        return Err(Error::InvalidSet("a member has a non-finite 2-norm".into()));
    }
    let mut identity = Ellipsoid {
        l: Matrix::identity(n),
        l_inv: Matrix::identity(n),
        norm_bound: identity_bound,
        newton_steps: 0,
    };
    if identity_bound == 0.0 {
        return Ok(identity);
    }
    // A power-of-two scale (exact in floating point) keeps the level
    // s = γ² of order one whatever the magnitude of the set.
    let scale = identity_bound.log2().floor().exp2();
    let mut centres = Centres::new(set, 1.0 / scale);
    let newton_steps = centres.run(
        2.0 * (identity_bound / scale).powi(2),
        opts.max_newton_steps,
    );
    identity.newton_steps = newton_steps;
    let Some(l) = centres.best_transform() else {
        return Ok(identity);
    };
    let l_inv = l.inverse()?;
    let mut norm_bound = 0.0_f64;
    for a in set {
        norm_bound = norm_bound.max(norm_2(&l.matmul(a)?.matmul(&l_inv)?));
    }
    if norm_bound < identity_bound {
        Ok(Ellipsoid {
            l,
            l_inv,
            norm_bound,
            newton_steps,
        })
    } else {
        Ok(identity)
    }
}

/// Working state of the method of centres: the iterate `P` and every
/// buffer a Newton step needs, allocated once so that the iteration itself
/// does not allocate. Matrices are `n×n` row-major slices; the variables
/// are the upper-triangular entries of `P`, in the order of `basis`.
struct Centres {
    n: usize,
    /// The members, scaled, back to back, and their transposes.
    members: Vec<f64>,
    members_t: Vec<f64>,
    /// Index pair `(a, b)`, `a ≤ b`, of each variable.
    basis: Vec<(usize, usize)>,
    /// Current iterate: symmetric, `tr P = n`.
    p: Vec<f64>,
    /// Iterate with the smallest `γ(P)²` so far.
    best: Vec<f64>,
    /// Step candidate.
    trial: Vec<f64>,
    /// Cholesky scratch.
    factor: Vec<f64>,
    /// Product scratch.
    scratch: Vec<f64>,
    /// `P⁻¹`.
    p_inv: Vec<f64>,
    /// Per member, with `Gᵢ = sP − AᵢᵀPAᵢ`: `Gᵢ⁻¹`, `Gᵢ⁻¹Aᵢᵀ` and
    /// `AᵢGᵢ⁻¹Aᵢᵀ`.
    g_inv: Vec<f64>,
    g_inv_at: Vec<f64>,
    a_g_inv_at: Vec<f64>,
    /// Gradient as a symmetric matrix: `P⁻¹ + Σᵢ (s·Gᵢ⁻¹ − AᵢGᵢ⁻¹Aᵢᵀ)`;
    /// its derivative in `s` while the predictor runs.
    grad_mat: Vec<f64>,
    /// The Hessian's factor matrices interleaved: entry `(a, c)` holds
    /// `terms` consecutive values `[P⁻¹, s·Gᵢ⁻¹, AᵢGᵢ⁻¹Aᵢᵀ, √s·Gᵢ⁻¹Aᵢᵀ,
    /// √s·AᵢGᵢ⁻¹]_ac` over the members; `signed` negates the last two.
    factors: Vec<f64>,
    signed: Vec<f64>,
    terms: usize,
    /// Barrier Hessian (then its Cholesky factor) and gradient (`∂ₛg` while
    /// the predictor runs).
    hess: Vec<f64>,
    grad: Vec<f64>,
    /// `[H⁻¹r, H⁻¹c]` as an `nv×2` row-major block, for the right-hand side
    /// `r` of a KKT system (`c` selects the trace), and its solution: the
    /// Newton direction or the tangent `dP/ds`.
    y: Vec<f64>,
    dir: Vec<f64>,
}

impl Centres {
    fn new(set: &MatrixSet, scale: f64) -> Self {
        let n = set.dim();
        let q = set.len();
        let nv = n * (n + 1) / 2;
        let terms = 4 * q + 1;
        let members: Vec<f64> = set
            .iter()
            .flat_map(|a| a.as_slice().iter().map(move |x| x * scale))
            .collect();
        let members_t = members
            .chunks_exact(n * n)
            .flat_map(|a| (0..n * n).map(move |ij| a[(ij % n) * n + ij / n]))
            .collect();
        let basis = (0..n).flat_map(|a| (a..n).map(move |b| (a, b))).collect();
        let mut p = vec![0.0; n * n];
        for i in 0..n {
            p[i * n + i] = 1.0;
        }
        Centres {
            n,
            members,
            members_t,
            basis,
            best: p.clone(),
            trial: p.clone(),
            p,
            factor: vec![0.0; n * n],
            scratch: vec![0.0; n * n],
            p_inv: vec![0.0; n * n],
            g_inv: vec![0.0; n * n],
            g_inv_at: vec![0.0; n * n],
            a_g_inv_at: vec![0.0; n * n],
            grad_mat: vec![0.0; n * n],
            factors: vec![0.0; n * n * terms],
            signed: vec![0.0; n * n * terms],
            terms,
            hess: vec![0.0; nv * nv],
            grad: vec![0.0; nv],
            y: vec![0.0; 2 * nv],
            dir: vec![0.0; nv],
        }
    }

    /// The method of centres from `P = I`, within `budget` Newton steps;
    /// leaves the best iterate in `self.best` and returns the steps taken.
    /// `feasible` is a level at which `P = I` is strictly feasible.
    fn run(&mut self, feasible: f64, budget: usize) -> usize {
        let Some(mut best) = self.level_reached(feasible) else {
            return 0;
        };
        let mut level = best * (1.0 + THETA);
        let mut steps = 0;
        while steps < budget {
            let mut centred = false;
            while !centred && steps < budget {
                steps += 1;
                match self.newton_step(level) {
                    Some(decrement) => centred = decrement <= CENTRED,
                    // Rounding has the last word this close to the
                    // optimum: keep the best iterate.
                    None => return steps,
                }
            }
            let Some(reached) = self.level_reached(level) else {
                return steps;
            };
            if reached < best {
                best = reached;
                self.best.copy_from_slice(&self.p);
            }
            if !centred || level - reached <= LEVEL_TOL * reached {
                return steps;
            }
            let next = reached + THETA * (level - reached);
            self.predict(level, next);
            level = next;
        }
        steps
    }

    /// Moves the centre at level `s` along the central path towards level
    /// `next`: `P ← P + (next − s)·dP/ds`, renormalised to `tr P = n`,
    /// with the step halved until `P` is strictly feasible at `next` (a
    /// scale-invariant test, so it runs before the renormalisation). `P`
    /// stays put when the tangent cannot be formed or no step is feasible.
    fn predict(&mut self, s: f64, next: f64) {
        if !self.tangent(s) {
            return;
        }
        let Centres {
            n,
            members,
            members_t,
            basis,
            p,
            trial,
            factor,
            scratch,
            dir,
            ..
        } = self;
        let n = *n;
        let mut t = next - s;
        for _ in 0..=PREDICTOR_HALVINGS {
            step(p, dir, t, basis, trial, n);
            if barrier_at(next, trial, members, members_t, scratch, factor, n).is_some() {
                renormalise(trial, p, n);
                return;
            }
            t *= 0.5;
        }
    }

    /// The tangent `dP/ds` of the central path at the centre `P` of level
    /// `s`, into `dir`; `false` when rounding defeats it.
    ///
    /// On the path the constrained gradient vanishes, `g(P, s) + νc = 0`,
    /// so `H·dP/ds + ∂ₛg + ν'c = 0` with `cᵀdP/ds = 0`: the KKT system of
    /// a Newton step with `∂ₛg` for `g`. It is solved on the Hessian factor
    /// the last Newton step left in `hess`. With `Gᵢ = sP − AᵢᵀPAᵢ` and
    /// `Mᵢ = Gᵢ⁻¹PGᵢ⁻¹`, `∂ₛg` is the basis image of
    /// `Σᵢ (Gᵢ⁻¹ − s·Mᵢ + AᵢMᵢAᵢᵀ)`, the derivative of `grad_mat`.
    fn tangent(&mut self, s: f64) -> bool {
        let Centres {
            n,
            members,
            members_t,
            basis,
            p,
            factor,
            scratch,
            g_inv,
            g_inv_at: m,
            a_g_inv_at: a_m_at,
            grad_mat: tangent,
            hess,
            grad: h,
            y,
            dir,
            ..
        } = self;
        let n = *n;
        let nn = n * n;
        tangent.fill(0.0);
        let pairs = members.chunks_exact(nn).zip(members_t.chunks_exact(nn));
        for (a, at) in pairs {
            level_matrix(s, p, a, at, scratch, factor, n);
            if !cholesky_in_place(factor, n) || !spd_inverse(factor, g_inv, n) {
                return false;
            }
            product(p, g_inv, scratch, n, false);
            product(g_inv, scratch, m, n, false);
            product(m, at, scratch, n, false);
            product(a, scratch, a_m_at, n, false);
            let terms = g_inv.iter().zip(m.iter()).zip(a_m_at.iter());
            for (t, ((&gi, &mi), &ami)) in tangent.iter_mut().zip(terms) {
                *t += gi - s * mi + ami;
            }
        }
        for (hk, &(a, b)) in h.iter_mut().zip(basis.iter()) {
            *hk = -2.0 * weight(a, b) * tangent[a * n + b];
        }
        kkt_solve(hess, h, basis, y, dir) && dir.iter().all(|d| d.is_finite())
    }

    /// `γ(P)² = max_i λ_max(P⁻¹AᵢᵀPAᵢ)` of the current iterate, from
    /// above: the smallest level at which every `sP − AᵢᵀPAᵢ` passes a
    /// Cholesky test, by bisection below `upper`. `None` if `upper` fails.
    fn level_reached(&mut self, upper: f64) -> Option<f64> {
        let Centres {
            n,
            members,
            members_t,
            p,
            factor,
            scratch,
            factors,
            ..
        } = self;
        let n = *n;
        let nn = n * n;
        // −AᵢᵀPAᵢ into the `factors` buffer (a Newton step rebuilds it).
        let products = &mut factors[..members.len()];
        let mut lo = 0.0_f64;
        let pairs = members.chunks_exact(nn).zip(members_t.chunks_exact(nn));
        for ((a, at), k) in pairs.zip(products.chunks_exact_mut(nn)) {
            level_matrix(0.0, p, a, at, scratch, k, n);
            // Rayleigh quotients on the unit vectors bound γ² below.
            for j in 0..n {
                lo = lo.max(-k[j * n + j] / p[j * n + j]);
            }
        }
        let passes = |s: f64, factor: &mut [f64]| {
            products.chunks_exact(nn).all(|k| {
                for ((f, &kx), &px) in factor.iter_mut().zip(k).zip(p.iter()) {
                    *f = s * px + kx;
                }
                cholesky_in_place(factor, n)
            })
        };
        if !passes(upper, factor) {
            return None;
        }
        let mut hi = upper;
        while hi - lo > BISECTION_TOL * hi {
            let mid = 0.5 * (lo + hi);
            if passes(mid, factor) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(hi)
    }

    /// The transform `L = Cᵀ` of the best iterate, from its Cholesky
    /// factor `P = CCᵀ`.
    fn best_transform(&mut self) -> Option<Matrix> {
        let n = self.n;
        self.factor.copy_from_slice(&self.best);
        if !cholesky_in_place(&mut self.factor, n) {
            return None;
        }
        let c = &self.factor;
        Some(Matrix::from_fn(n, n, |i, j| {
            if i <= j {
                c[j * n + i]
            } else {
                0.0
            }
        }))
    }

    /// One Newton step on the barrier at level `s`, constrained to
    /// `tr P = n`, with a backtracking line search. Returns the Newton
    /// decrement at the starting point, or `None` when rounding defeats
    /// the step: the point is numerically infeasible, the Hessian does not
    /// factor, or no step length is accepted.
    fn newton_step(&mut self, s: f64) -> Option<f64> {
        let Centres {
            n,
            members,
            members_t,
            basis,
            p,
            trial,
            factor,
            scratch,
            p_inv,
            g_inv,
            g_inv_at,
            a_g_inv_at,
            grad_mat,
            factors,
            signed,
            terms,
            hess,
            grad,
            y,
            dir,
            ..
        } = self;
        let (n, terms) = (*n, *terms);
        let nn = n * n;
        let nv = basis.len();

        factor.copy_from_slice(p);
        if !cholesky_in_place(factor, n) {
            return None;
        }
        let mut barrier = -cholesky_log_det(factor, n);
        if !spd_inverse(factor, p_inv, n) {
            return None;
        }
        grad_mat.copy_from_slice(p_inv);
        for (rc, &x) in p_inv.iter().enumerate() {
            factors[rc * terms] = x;
            signed[rc * terms] = x;
        }
        let root_s = s.sqrt();
        let pairs = members.chunks_exact(nn).zip(members_t.chunks_exact(nn));
        for (i, (a, at)) in pairs.enumerate() {
            level_matrix(s, p, a, at, scratch, factor, n);
            if !cholesky_in_place(factor, n) {
                return None;
            }
            barrier -= cholesky_log_det(factor, n);
            if !spd_inverse(factor, g_inv, n) {
                return None;
            }
            // G⁻¹Aᵀ, then A·G⁻¹Aᵀ (symmetric: the lower triangle, mirrored).
            product(g_inv, at, g_inv_at, n, false);
            product(a, g_inv_at, a_g_inv_at, n, true);
            for r in 0..n {
                for c in 0..r {
                    a_g_inv_at[c * n + r] = a_g_inv_at[r * n + c];
                }
            }
            let base = 1 + 4 * i;
            for r in 0..n {
                for c in 0..n {
                    let rc = r * n + c;
                    let (gi, agi) = (g_inv[rc], a_g_inv_at[rc]);
                    grad_mat[rc] += s * gi - agi;
                    let slots = [
                        s * gi,
                        agi,
                        root_s * g_inv_at[rc],
                        root_s * g_inv_at[c * n + r],
                    ];
                    let at = rc * terms + base;
                    factors[at..at + 4].copy_from_slice(&slots);
                    signed[at..at + 4].copy_from_slice(&[slots[0], slots[1], -slots[2], -slots[3]]);
                }
            }
        }

        // Gradient and Hessian in the symmetric basis E_ab = e_a e_bᵀ +
        // e_b e_aᵀ (E_aa = e_a e_aᵀ).
        for (g, &(a, b)) in grad.iter_mut().zip(basis.iter()) {
            let wk = 2.0 * weight(a, b);
            *g = -wk * grad_mat[a * n + b];
        }
        hessian(terms, factors, signed, basis, n, hess);

        // KKT system for the trace row: Δ = −H⁻¹(g + νc) with cᵀΔ = 0.
        // Close to the optimum a nearly active constraint makes H so
        // ill-conditioned that rounding breaks its factorisation; a
        // growing ridge on the diagonal still yields a descent direction.
        // The factorisation only overwrites the lower triangle, so H is
        // restored from the upper one and from its diagonal, parked in
        // `dir` until the direction overwrites it.
        for (k, d) in dir.iter_mut().enumerate() {
            *d = hess[k * nv + k];
        }
        let mut ridge = 0.0;
        while !cholesky_in_place(hess, nv) {
            ridge = if ridge == 0.0 {
                RIDGE_START
            } else {
                ridge * 100.0
            };
            if ridge > RIDGE_MAX {
                return None;
            }
            for k in 0..nv {
                for l in 0..k {
                    hess[k * nv + l] = hess[l * nv + k];
                }
                hess[k * nv + k] = dir[k] * (1.0 + ridge);
            }
        }
        if !kkt_solve(hess, grad, basis, y, dir) {
            return None;
        }
        let decrement_sq = grad
            .iter()
            .zip(dir.iter())
            .fold(0.0, |sq, (g, d)| sq - g * d);
        if !decrement_sq.is_finite() {
            return None;
        }
        let decrement = decrement_sq.max(0.0).sqrt();

        // Full step first; backtrack until feasible and, outside the
        // quadratic region, until the barrier drops enough (Armijo).
        let mut t = 1.0;
        for _ in 0..MAX_HALVINGS {
            step(p, dir, t, basis, trial, n);
            if let Some(value) = barrier_at(s, trial, members, members_t, scratch, factor, n) {
                if decrement <= QUADRATIC || value <= barrier - ARMIJO * t * decrement_sq {
                    renormalise(trial, p, n);
                    return Some(decrement);
                }
            }
            t *= 0.5;
        }
        None
    }
}

/// Solves the KKT system `HΔ + r + νc = 0`, `cᵀΔ = 0` (`c` selects the
/// trace) for `Δ` into `dir`, on the Cholesky factor of `H` in `hess`. Both
/// right-hand sides, `r` and `c`, go through one two-column solve in `y`;
/// then `ν = −cᵀH⁻¹r / cᵀH⁻¹c`. `false` when the solve fails.
fn kkt_solve(
    hess: &[f64],
    r: &[f64],
    basis: &[(usize, usize)],
    y: &mut [f64],
    dir: &mut [f64],
) -> bool {
    for ((yk, &rk), &(a, b)) in y.chunks_exact_mut(2).zip(r).zip(basis) {
        yk[0] = rk;
        yk[1] = if a == b { 1.0 } else { 0.0 };
    }
    if !cholesky_solve_in_place(hess, y, basis.len(), 2) {
        return false;
    }
    let (mut cr, mut cc) = (0.0, 0.0);
    for (yk, &(a, b)) in y.chunks_exact(2).zip(basis) {
        if a == b {
            cr += yk[0];
            cc += yk[1];
        }
    }
    let nu = -cr / cc;
    for (d, yk) in dir.iter_mut().zip(y.chunks_exact(2)) {
        *d = -(yk[0] + nu * yk[1]);
    }
    true
}

/// `trial = P + t·Δ` for the direction `dir` in the symmetric basis.
fn step(p: &[f64], dir: &[f64], t: f64, basis: &[(usize, usize)], trial: &mut [f64], n: usize) {
    for (&(a, b), &d) in basis.iter().zip(dir) {
        let x = p[a * n + b] + t * d;
        trial[a * n + b] = x;
        trial[b * n + a] = x;
    }
}

/// `P = trial · n / tr(trial)`: the accepted point, scaled to `tr P = n`.
fn renormalise(trial: &[f64], p: &mut [f64], n: usize) {
    let trace: f64 = (0..n).map(|i| trial[i * n + i]).sum();
    let renorm = n as f64 / trace;
    for (x, &y) in p.iter_mut().zip(trial) {
        *x = y * renorm;
    }
}

/// Weight of the basis element `E_ab` in the gradient and the Hessian.
fn weight(a: usize, b: usize) -> f64 {
    if a == b {
        0.5
    } else {
        1.0
    }
}

/// Fills the barrier Hessian `hess` (`nv×nv`, both triangles) from the
/// interleaved factor matrices of [`Centres`]. Each Fᵢ(E) = sE − AᵢᵀEAᵢ
/// has rank ≤ 4, so tr(Gᵢ⁻¹F(E_ab)Gᵢ⁻¹F(E_cd)) reduces to products of
/// entries: with T(a,c,b,d) = ⟨factors_ac, signed_bd⟩ (the P⁻¹ term
/// included), the (ab, cd) entry is T(a,c,b,d) + T(a,d,b,c), times the
/// basis weights. For `c = d` the two dot products coincide and are
/// formed once. Dot products of the lengths `terms = 4q + 1` of alphabets
/// with `q ≤ 4` members are unrolled at compile time; longer ones run the
/// same sum at a runtime length. Either way each is the iterator sum of
/// `factors·signed` in term order, so every arm is bit-identical.
fn hessian(
    terms: usize,
    factors: &[f64],
    signed: &[f64],
    basis: &[(usize, usize)],
    n: usize,
    hess: &mut [f64],
) {
    match terms {
        5 => hessian_fixed::<5>(factors, signed, basis, n, hess),
        9 => hessian_fixed::<9>(factors, signed, basis, n, hess),
        13 => hessian_fixed::<13>(factors, signed, basis, n, hess),
        17 => hessian_fixed::<17>(factors, signed, basis, n, hess),
        _ => hessian_dyn(terms, factors, signed, basis, n, hess),
    }
}

/// [`hessian`] for dot products of the compile-time length `T`.
fn hessian_fixed<const T: usize>(
    factors: &[f64],
    signed: &[f64],
    basis: &[(usize, usize)],
    n: usize,
    hess: &mut [f64],
) {
    let (factors, signed) = (factors.as_chunks::<T>().0, signed.as_chunks::<T>().0);
    fill_hessian(basis, n, hess, |x, y| dot(&factors[x], &signed[y]));
}

/// [`hessian`] for dot products of the runtime length `terms`.
fn hessian_dyn(
    terms: usize,
    factors: &[f64],
    signed: &[f64],
    basis: &[(usize, usize)],
    n: usize,
    hess: &mut [f64],
) {
    fill_hessian(basis, n, hess, |x, y| {
        dot(
            &factors[x * terms..][..terms],
            &signed[y * terms..][..terms],
        )
    });
}

/// The loop of [`hessian`] over the lower triangle, mirrored; `pair(x, y)`
/// is ⟨factors_x, signed_y⟩ for flat `n×n` indices `x`, `y`.
#[inline(always)]
fn fill_hessian(
    basis: &[(usize, usize)],
    n: usize,
    hess: &mut [f64],
    pair: impl Fn(usize, usize) -> f64,
) {
    let nv = basis.len();
    for (k, &(a, b)) in basis.iter().enumerate() {
        let wk = 2.0 * weight(a, b);
        for (l, &(c, d)) in basis.iter().enumerate().take(k + 1) {
            let t = if c == d {
                let t = pair(a * n + c, b * n + c);
                t + t
            } else {
                pair(a * n + c, b * n + d) + pair(a * n + d, b * n + c)
            };
            let h = wk * weight(c, d) * t;
            hess[k * nv + l] = h;
            hess[l * nv + k] = h;
        }
    }
}

/// `Σ l·r` in order, the sum the Hessian's entries are made of.
#[inline(always)]
fn dot(l: &[f64], r: &[f64]) -> f64 {
    l.iter().zip(r).map(|(l, r)| l * r).sum()
}

/// `out = XY` for row-major `n×n` `X` and `Y`, or only its lower triangle
/// when `lower`. Every entry sums `X_ik·Y_kj` in increasing `k` from
/// `0.0`; the loops run i-k-j, so the innermost walks contiguous rows of
/// `Y` and `out`, and the sums of a row advance side by side.
fn product(x: &[f64], y: &[f64], out: &mut [f64], n: usize, lower: bool) {
    for (i, (row, x_row)) in out.chunks_exact_mut(n).zip(x.chunks_exact(n)).enumerate() {
        let row = if lower { &mut row[..=i] } else { row };
        row.fill(0.0);
        for (&xik, y_row) in x_row.iter().zip(y.chunks_exact(n)) {
            for (o, &ykj) in row.iter_mut().zip(y_row) {
                *o += xik * ykj;
            }
        }
    }
}

/// `out = sP − AᵀPA` (through `scratch = PA`), given `A` and `at = Aᵀ`.
fn level_matrix(
    s: f64,
    p: &[f64],
    a: &[f64],
    at: &[f64],
    scratch: &mut [f64],
    out: &mut [f64],
    n: usize,
) {
    product(p, a, scratch, n, false);
    product(at, scratch, out, n, false);
    for (o, &pij) in out.iter_mut().zip(p) {
        *o = s * pij - *o;
    }
}

/// The barrier `−log det P − Σᵢ log det(sP − AᵢᵀPAᵢ)`, or `None` outside
/// its domain.
fn barrier_at(
    s: f64,
    p: &[f64],
    members: &[f64],
    members_t: &[f64],
    scratch: &mut [f64],
    factor: &mut [f64],
    n: usize,
) -> Option<f64> {
    factor.copy_from_slice(p);
    if !cholesky_in_place(factor, n) {
        return None;
    }
    let mut value = -cholesky_log_det(factor, n);
    for (a, at) in members
        .chunks_exact(n * n)
        .zip(members_t.chunks_exact(n * n))
    {
        level_matrix(s, p, a, at, scratch, factor, n);
        if !cholesky_in_place(factor, n) {
            return None;
        }
        value -= cholesky_log_det(factor, n);
    }
    Some(value)
}

/// `out = (CCᵀ)⁻¹`, exactly symmetric, for the lower factor `C`; `false`
/// when a slice is shorter than `n²`.
fn spd_inverse(c: &[f64], out: &mut [f64], n: usize) -> bool {
    out.fill(0.0);
    for i in 0..n {
        out[i * n + i] = 1.0;
    }
    if !cholesky_solve_in_place(c, out, n, n) {
        return false;
    }
    for i in 0..n {
        for j in 0..i {
            let x = 0.5 * (out[i * n + j] + out[j * n + i]);
            out[i * n + j] = x;
            out[j * n + i] = x;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use overrun_linalg::spectral_radius;

    // Tests return `Result` and use `?`, so a failure reports the error
    // that caused it.
    type TestResult = Result<()>;

    #[test]
    fn single_rotation_scale_certified() -> TestResult {
        // ρ = 0.9, but ‖A‖₂ = 2: only a non-trivial ellipsoid certifies.
        let a = Matrix::from_rows(&[&[0.0, 2.0], &[-0.405, 0.0]])?;
        let set = MatrixSet::new(vec![a])?;
        let e = optimize_ellipsoid(&set, &EllipsoidOptions::default())?;
        assert!(e.norm_bound < 1.0, "bound = {}", e.norm_bound);
        assert!(e.norm_bound >= 0.9 - 1e-6);
        Ok(())
    }

    #[test]
    fn transform_preserves_spectra() -> TestResult {
        let a1 = Matrix::from_rows(&[&[0.5, 1.0], &[0.0, 0.3]])?;
        let a2 = Matrix::from_rows(&[&[0.2, 0.0], &[1.0, 0.4]])?;
        let set = MatrixSet::new(vec![a1, a2])?;
        let e = optimize_ellipsoid(&set, &EllipsoidOptions::default())?;
        let t = e.transform(&set)?;
        for (orig, tr) in set.iter().zip(t.iter()) {
            let r0 = spectral_radius(orig)?;
            let r1 = spectral_radius(tr)?;
            assert!((r0 - r1).abs() < 1e-8 * r0.max(1.0));
        }
        Ok(())
    }

    #[test]
    fn norm_bound_is_valid_upper_bound() -> TestResult {
        // Compare against brute-force lower bound.
        let a1 = Matrix::from_rows(&[&[0.6, 0.4], &[-0.2, 0.7]])?;
        let a2 = Matrix::from_rows(&[&[0.5, -0.3], &[0.4, 0.6]])?;
        let set = MatrixSet::new(vec![a1, a2])?;
        let e = optimize_ellipsoid(&set, &EllipsoidOptions::default())?;
        let bf = crate::bruteforce_bounds(
            &set,
            &crate::BruteforceOptions {
                max_depth: 8,
                ..Default::default()
            },
        )?;
        assert!(e.norm_bound >= bf.lower - 1e-9);
        Ok(())
    }

    #[test]
    fn identity_seed_never_worse_than_identity() -> TestResult {
        // The optimiser must return a bound no worse than the plain 2-norm.
        let a = Matrix::from_rows(&[&[0.9, 5.0], &[0.0, 0.8]])?;
        let plain = norm_2(&a);
        let set = MatrixSet::new(vec![a])?;
        let e = optimize_ellipsoid(&set, &EllipsoidOptions::default())?;
        assert!(e.norm_bound <= plain + 1e-9);
        // And it should improve substantially on this shear matrix.
        assert!(e.norm_bound < 0.5 * plain, "bound = {}", e.norm_bound);
        Ok(())
    }

    #[test]
    fn zero_budget_rejected() -> TestResult {
        let set = MatrixSet::new(vec![Matrix::identity(2)])?;
        let opts = EllipsoidOptions {
            max_newton_steps: 0,
        };
        assert!(matches!(
            optimize_ellipsoid(&set, &opts),
            Err(Error::InvalidOptions(_))
        ));
        Ok(())
    }

    /// Every compile-time Hessian arm forms exactly the sums of the
    /// runtime-length arm, bit for bit, on irregular entries of both signs
    /// and many magnitudes.
    #[test]
    fn fixed_hessian_arms_match_runtime_arm_bitwise() {
        let n = 4;
        let basis: Vec<(usize, usize)> = (0..n).flat_map(|a| (a..n).map(move |b| (a, b))).collect();
        let nv = basis.len();
        let entries = |len: usize, salt: usize| -> Vec<f64> {
            (0..len)
                .map(|i| {
                    let h = (i * 7919 + salt * 104_729) % 1009;
                    (h as f64 - 504.0) / 97.0 * 10f64.powi((i % 7) as i32 - 3)
                })
                .collect()
        };
        for q in 1..=4 {
            let terms = 4 * q + 1;
            let factors = entries(n * n * terms, 1);
            let signed = entries(n * n * terms, 2);
            let mut fixed = vec![0.0; nv * nv];
            let mut runtime = vec![f64::NAN; nv * nv];
            hessian(terms, &factors, &signed, &basis, n, &mut fixed);
            hessian_dyn(terms, &factors, &signed, &basis, n, &mut runtime);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fixed), bits(&runtime), "terms = {terms}");
            assert!(fixed.iter().all(|h| h.is_finite() && *h != 0.0));
        }
    }

    /// Newton steps at level `s` until the decrement is negligible.
    fn centre(c: &mut Centres, s: f64) {
        for _ in 0..100 {
            if c.newton_step(s).is_some_and(|decrement| decrement < 1e-10) {
                return;
            }
        }
        panic!("no centre at level {s}");
    }

    /// The predictor's `dP/ds` matches the finite difference of two
    /// centres, in sign and scale.
    #[test]
    fn tangent_matches_finite_difference() -> TestResult {
        let a1 = Matrix::from_rows(&[&[0.6, 0.4, 0.1], &[-0.2, 0.7, 0.0], &[0.1, 0.3, 0.5]])?;
        let a2 = Matrix::from_rows(&[&[0.5, -0.3, 0.2], &[0.4, 0.6, -0.1], &[0.0, 0.2, 0.8]])?;
        let set = MatrixSet::new(vec![a1, a2])?;
        let mut c = Centres::new(&set, 1.0);
        let s = 1.5 * c.level_reached(100.0).expect("P = I is feasible");
        centre(&mut c, s);
        assert!(c.tangent(s));
        let predicted = c.dir.clone();
        let at_s: Vec<f64> = c.basis.iter().map(|&(a, b)| c.p[a * 3 + b]).collect();
        let ds = -1e-4 * s;
        centre(&mut c, s + ds);
        let mut err = 0.0_f64;
        let mut scale = 0.0_f64;
        for ((&(a, b), &x), &d) in c.basis.iter().zip(&at_s).zip(&predicted) {
            let fd = (c.p[a * 3 + b] - x) / ds;
            err = err.max((fd - d).abs());
            scale = scale.max(fd.abs());
        }
        assert!(
            scale > 0.0 && err <= 1e-2 * scale,
            "error {err} at scale {scale}"
        );
        Ok(())
    }

    #[test]
    fn spd_inverse_is_symmetric_inverse() -> TestResult {
        let m = Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, -0.2], &[0.5, -0.2, 2.0]])?;
        let mut factor = m.as_slice().to_vec();
        assert!(cholesky_in_place(&mut factor, 3));
        let mut inv = vec![0.0; 9];
        assert!(spd_inverse(&factor, &mut inv, 3));
        let inv = Matrix::from_vec(3, 3, inv)?;
        assert!(m
            .matmul(&inv)?
            .approx_eq(&Matrix::identity(3), 1e-12, 1e-12));
        assert_eq!(inv, inv.transpose());
        Ok(())
    }
}
