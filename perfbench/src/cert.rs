//! The certification layers: JSR bounds of the lifted closed loop
//! `{Ω(h) : h ∈ H}`, computed either by the library's `stability::certify`
//! or replayed here one layer at a time — Ω lifting (with the power-lift
//! alphabets), diagonal preconditioning, ellipsoid optimisation and the
//! Gripenberg search — with a timer around each.

use std::time::Instant;

use overrun_control::lifted;
use overrun_control::stability::{self, CertifyOptions};
use overrun_control::Result;
use overrun_jsr::{
    gripenberg_with_stats, optimize_ellipsoid, precondition, GripenbergOptions, JsrBounds,
    MatrixSet,
};
use overrun_linalg::Matrix;

use crate::grid::DesignPoint;

/// Largest lifted alphabet `q^ℓ` a refinement level may have; the value
/// `stability::certify` uses.
const MAX_ALPHABET: usize = 1024;

/// Time spent in each certification layer, and the work it did.
#[derive(Debug, Default, Clone, Copy)]
pub struct CertLayers {
    /// Certifications run.
    pub certifications: u64,
    /// Seconds spent building `Ω(h)` and the power-lift alphabets.
    pub lift_s: f64,
    /// Seconds spent in diagonal preconditioning.
    pub precondition_s: f64,
    /// Seconds spent optimising ellipsoidal norms (and applying them).
    pub ellipsoid_s: f64,
    /// Seconds spent in the Gripenberg branch-and-bound searches.
    pub search_s: f64,
    /// Refinement levels run; each runs one precondition, one ellipsoid
    /// and one search.
    pub levels: u64,
    /// Product-tree nodes the searches evaluated.
    pub nodes: u64,
    /// Exact Schur-based norm and eigenvalue evaluations.
    pub schur_evals: u64,
    /// Schur evaluations the cheap certified brackets avoided.
    pub schur_skipped: u64,
}

/// Certifies through the library, as the experiment drivers do.
///
/// # Errors
///
/// Propagates lifting and JSR failures.
pub fn certify(point: &DesignPoint, opts: &CertifyOptions) -> Result<JsrBounds> {
    Ok(stability::certify(&point.plant, &point.table, opts)?.bounds)
}

/// Replays the certification from outside the library: power-lift level
/// `ℓ` preconditions the `q^ℓ` products of length `ℓ`, fits an ellipsoid,
/// runs the Gripenberg search in its coordinates and contributes
/// `[LB^{1/ℓ}, UB^{1/ℓ}]`; levels stop once the interval separates from 1.
/// Each layer is timed.
///
/// # Errors
///
/// Propagates lifting and JSR failures.
pub fn certify_by_layer(
    point: &DesignPoint,
    opts: &CertifyOptions,
    layers: &mut CertLayers,
) -> Result<JsrBounds> {
    let started = Instant::now();
    let measurement = lifted::measurement_matrix(&point.plant, &point.table)?;
    let base = lifted::build_omega_set(&point.plant, &point.table, &measurement)?;
    layers.lift_s += started.elapsed().as_secs_f64();
    layers.certifications += 1;

    let search = GripenbergOptions {
        delta: opts.delta,
        max_depth: opts.max_depth,
        max_products: opts.max_products,
        precondition: false,
        ellipsoid: false,
        screen: true,
    };
    let mut best = JsrBounds {
        lower: 0.0,
        upper: f64::INFINITY,
    };
    let mut alphabet: Vec<Matrix> = base.clone();
    for level in 1..=opts.max_power {
        if alphabet.len() > MAX_ALPHABET {
            break;
        }
        let t0 = Instant::now();
        let set = MatrixSet::new(alphabet.clone())?;
        let t1 = Instant::now();
        let (balanced, _) = precondition(&set)?;
        let t2 = Instant::now();
        let ellipsoid = optimize_ellipsoid(&balanced, &Default::default())?;
        let work = ellipsoid.transform(&balanced)?;
        let t3 = Instant::now();
        let (b, s) = gripenberg_with_stats(&work, &search)?;
        let t4 = Instant::now();
        layers.lift_s += (t1 - t0).as_secs_f64();
        layers.precondition_s += (t2 - t1).as_secs_f64();
        layers.ellipsoid_s += (t3 - t2).as_secs_f64();
        layers.search_s += (t4 - t3).as_secs_f64();
        layers.levels += 1;
        layers.nodes += s.nodes;
        layers.schur_evals += s.schur_evals();
        layers.schur_skipped += s.schur_skipped();

        // The ellipsoid norm is a certified bound of its own.
        let upper = b.upper.min(ellipsoid.norm_bound.max(b.lower));
        let root = 1.0 / level as f64;
        best.lower = best.lower.max(b.lower.max(0.0).powf(root));
        best.upper = best.upper.min(upper.max(0.0).powf(root));
        if best.certifies_stable() || best.certifies_unstable() {
            break;
        }
        if level < opts.max_power {
            if alphabet.len().saturating_mul(base.len()) > MAX_ALPHABET {
                break;
            }
            let t0 = Instant::now();
            let mut next = Vec::with_capacity(alphabet.len() * base.len());
            for p in &alphabet {
                for a in &base {
                    next.push(a.matmul(p)?);
                }
            }
            alphabet = next;
            layers.lift_s += t0.elapsed().as_secs_f64();
        }
    }
    Ok(best)
}

/// `true` when two certified intervals of one design can both be right:
/// they reach the same verdict and overlap (each contains the true JSR).
pub fn agree(a: &JsrBounds, b: &JsrBounds) -> bool {
    let verdict = |x: &JsrBounds| (x.certifies_stable(), x.certifies_unstable());
    let slack = 1e-9;
    verdict(a) == verdict(b) && a.lower <= b.upper + slack && b.lower <= a.upper + slack
}

/// `true` when an interval is well formed: `0 ≤ LB ≤ UB`.
pub fn plausible(b: &JsrBounds) -> bool {
    b.lower >= 0.0 && b.lower <= b.upper + 1e-12
}
