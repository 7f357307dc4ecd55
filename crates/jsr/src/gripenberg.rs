//! Gripenberg's branch-and-bound algorithm for the joint spectral radius.
//!
//! Reference: G. Gripenberg, *"Computing the joint spectral radius"*,
//! Linear Algebra Appl. 234 (1996).

use overrun_linalg::{norm_2, spectral_radius, spectral_radius_upper, Matrix};
use overrun_par::{max_threads, try_parallel_map, SharedMaxF64};

use crate::screen::{scale_pow, scaled_cheap_bounds, ScreenCounters, ScreenStats};
use crate::set::normalize_log_ref;
use crate::{deflate, precondition, Error, JsrBounds, MatrixSet, Result};

/// Options for [`gripenberg`].
#[derive(Debug, Clone)]
pub struct GripenbergOptions {
    /// Target gap `δ`: on clean termination `upper − lower ≤ δ`.
    /// Default: `1e-4`.
    pub delta: f64,
    /// Maximum explored product length. Default: 30.
    pub max_depth: usize,
    /// Hard cap on the number of matrix products formed. Default: 500_000.
    pub max_products: usize,
    /// Deflate repeated coordinates ([`crate::deflate`]) and apply joint
    /// diagonal preconditioning first. Default: `true`.
    pub precondition: bool,
    /// Optimise an ellipsoidal norm and run the search in its coordinates
    /// (dramatically tighter upper bounds for non-normal sets; costs one
    /// small LMI solve up front, a few hundred Newton steps on the
    /// `n(n+1)/2` entries of `P`). Default: `true`.
    pub ellipsoid: bool,
    /// Screen product-tree nodes with O(n²) certified norm brackets and
    /// fall back to the exact Schur-based evaluations only when the bracket
    /// straddles a decision. Never changes a single bit of the returned
    /// bounds — see [`crate::ScreenStats`] for what it saves.
    /// Default: `true`.
    pub screen: bool,
}

impl Default for GripenbergOptions {
    fn default() -> Self {
        GripenbergOptions {
            delta: 1e-4,
            max_depth: 30,
            max_products: 500_000,
            precondition: true,
            ellipsoid: true,
            screen: true,
        }
    }
}

/// Frontier size below which a depth is expanded serially. Each parallel
/// depth starts its own scoped workers: on a 2-vCPU x86-64 VM that costs
/// about 110 µs at 2 threads and 190 µs at 4, against about 15 µs per
/// expanded node on the Table-II sets, so depths of a few dozen nodes break
/// even. Measured there, the optimised-ellipsoid Table-II searches (all
/// frontiers below 32) ran 1.3–1.9× faster at 2 and 4 threads with this
/// cutoff than when every depth of two or more nodes went parallel; the
/// 2-norm searches (frontiers up to 1024) moved by under 8% either way.
/// Serial depths also keep their screening counters independent of the
/// thread count; parallel workers screen against a lagging lower bound.
const PARALLEL_MIN_FRONTIER: usize = 32;

/// A node of the pruned product tree. Products are stored normalised
/// (`‖·‖₂ ≈ 1`) with the accumulated scale carried in log space, so deep
/// products of large- or small-norm matrices never overflow.
struct Node {
    /// Normalised product `A_{i_k} ⋯ A_{i_1} / exp(log_scale)`.
    product: Matrix,
    /// Log of the factored-out scale.
    log_scale: f64,
    /// Running minimum of `‖prefix‖^{1/len}` along the word — Gripenberg's
    /// per-branch upper bound on what the branch can still contribute.
    sigma: f64,
}

/// Computes certified JSR bounds with Gripenberg's branch-and-bound.
///
/// The algorithm maintains
///
/// * `lb = max` over all explored products `P` of `ρ(P)^{1/|P|}` (a valid
///   lower bound by Gel'fand), and
/// * a frontier of words whose branch bound
///   `σ(w) = min_prefix ‖P_prefix‖^{1/len}` exceeds `lb + δ` — branches
///   below that threshold can never push the JSR above `lb + δ` and are
///   pruned.
///
/// On termination with an empty frontier the JSR lies in `[lb, lb + δ]`.
/// If the depth or product budget runs out first, the returned upper bound
/// is `max(lb + δ, max_frontier σ)` — still certified, just looser.
///
/// # Errors
///
/// * [`Error::InvalidOptions`] for non-positive `delta` or zero depth.
/// * [`Error::Linalg`] on numerical failure.
///
/// # Example
///
/// ```
/// use overrun_jsr::{gripenberg, GripenbergOptions, MatrixSet};
/// use overrun_linalg::Matrix;
///
/// # fn main() -> Result<(), overrun_jsr::Error> {
/// let a1 = Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]])?;
/// let a2 = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0]])?;
/// let set = MatrixSet::new(vec![a1, a2])?;
/// let b = gripenberg(&set, &GripenbergOptions::default())?;
/// let phi = (1.0 + 5.0_f64.sqrt()) / 2.0; // known JSR of this pair
/// assert!(b.lower <= phi + 1e-9 && phi <= b.upper + 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn gripenberg(set: &MatrixSet, opts: &GripenbergOptions) -> Result<JsrBounds> {
    Ok(gripenberg_with_stats(set, opts)?.0)
}

/// Like [`gripenberg`], additionally returning the screening statistics of
/// the search: exact Schur evaluations performed vs. avoided, cache hits
/// and the product length at which the final lower bound was attained.
///
/// The bounds are identical (bitwise) to [`gripenberg`]'s for the same
/// options, at any thread count, with screening on or off.
///
/// # Errors
///
/// Same as [`gripenberg`].
pub fn gripenberg_with_stats(
    set: &MatrixSet,
    opts: &GripenbergOptions,
) -> Result<(JsrBounds, ScreenStats)> {
    if !(opts.delta > 0.0 && opts.delta.is_finite()) {
        return Err(Error::InvalidOptions(format!(
            "delta must be positive and finite, got {}",
            opts.delta
        )));
    }
    if opts.max_depth == 0 {
        return Err(Error::InvalidOptions("max_depth must be >= 1".into()));
    }
    let _sp_search = overrun_trace::span!(
        "jsr.gripenberg",
        matrices = set.len(),
        dim = set.dim(),
        max_depth = opts.max_depth
    );
    let pre_set;
    let mut set = if opts.precondition {
        let _sp = overrun_trace::span!("jsr.precondition");
        let deflated = deflate(set)?;
        overrun_trace::counter!("jsr.deflated", (set.dim() - deflated.dim()) as u64);
        pre_set = precondition(&deflated)?.0;
        &pre_set
    } else {
        set
    };
    // One-step ellipsoid upper bound (valid on its own) + coordinate change.
    let ell_set;
    let mut ellipsoid_bound = f64::INFINITY;
    if opts.ellipsoid {
        let _sp = overrun_trace::span!("jsr.ellipsoid");
        let ell = crate::ellipsoid::optimize_ellipsoid(set, &Default::default())?;
        overrun_trace::counter!("jsr.ellipsoid.newton_steps", ell.newton_steps as u64);
        ellipsoid_bound = ell.norm_bound;
        ell_set = ell.transform(set)?;
        set = &ell_set;
    }

    let mut lb = 0.0_f64;
    let mut products = 0usize;
    let counters = ScreenCounters::default();

    // Depth-1 frontier, seeded from the cached base-matrix norms (no
    // recomputation — the cache is rebuilt by the preconditioning /
    // ellipsoid transforms above, so it always matches the working set).
    let mut frontier: Vec<Node> = Vec::with_capacity(set.len());
    for (a, &nrm) in set.iter().zip(set.norms()) {
        counters.node();
        counters.cached_norm();
        // The guarded cheap bound dominates the *computed* ρ(A): when it
        // already sits at or below lb, the eigenvalue solve could only
        // produce a value the max-fold ignores — skipping it is a bitwise
        // no-op. (The cached exact norm carries no such guard, so it takes
        // no part in this decision.)
        if opts.screen && spectral_radius_upper(a) <= lb {
            counters.skip_eig();
        } else {
            counters.exact_eig();
            let rho = spectral_radius(a)?;
            lb = lb.max(rho);
        }
        let (product, log_scale) = normalize_log_ref(a, nrm);
        frontier.push(Node {
            product,
            log_scale,
            sigma: nrm,
        });
        products += 1;
    }
    let mut lb_depth = if lb > 0.0 { 1 } else { 0 };
    // Prune depth-1 nodes that can already not beat lb + delta.
    frontier.retain(|n| n.sigma > lb + opts.delta);

    let mut depth = 1usize;
    let mut truncated = false;
    // Scratch product buffer for the serial path — reused across the whole
    // search so the per-product allocation only happens for surviving
    // children.
    let mut scratch = Matrix::zeros(set.dim(), set.dim());

    while !frontier.is_empty() {
        if depth >= opts.max_depth || products >= opts.max_products {
            truncated = true;
            break;
        }
        depth += 1;
        let _sp_depth = overrun_trace::span!("jsr.depth", depth = depth, frontier = frontier.len());
        let inv_depth = 1.0 / depth as f64;
        let lb_before = lb;
        // Children born at the depth cap are never expanded: past this
        // point they only feed the `search_upper` max-fold (the retain
        // below drops exactly the σ ≤ lb + δ values that fold is seeded
        // with, so membership is irrelevant to the result). That fold is
        // order-independent, so a terminal child whose cheap σ bound
        // cannot exceed the running maximum of *exact* σ values is a
        // provable no-op. The shared cell tracks that running maximum;
        // lagging views only make screening more conservative.
        let terminal = depth == opts.max_depth;
        let sigma_cell = SharedMaxF64::new(lb + opts.delta);

        // A depth is parallelised only when it provably completes within
        // the product budget — then every node contributes exactly
        // `set.len()` products, no mid-depth truncation can occur, and the
        // result is identical to the serial expansion (see below) — and
        // only when its frontier is large enough to repay starting the
        // workers. Small depths run serially, which also keeps their
        // screening counters independent of the thread count.
        let full_cost = frontier.len().saturating_mul(set.len());
        let fits_budget = products.saturating_add(full_cost) <= opts.max_products;
        let wide = frontier.len() >= PARALLEL_MIN_FRONTIER;
        let next = if fits_budget && wide && max_threads() > 1 {
            // Shared lower bound: workers read a possibly-lagging value,
            // which is always a valid lower bound, so (a) skipping the
            // eigenvalue solve when ‖P‖^{1/d} ≤ lb is sound (ρ ≤ ‖·‖ means
            // the skipped product cannot raise lb), and (b) pruning with a
            // lagging lb only keeps extra candidates — the settled-lb
            // retain below makes the final frontier exactly the serial one.
            let lb_cell = SharedMaxF64::new(lb);
            let per_node: Vec<Vec<Node>> = try_parallel_map(&frontier, |_, node| {
                let mut local = Matrix::zeros(set.dim(), set.dim());
                expand_node(
                    set,
                    node,
                    inv_depth,
                    opts.delta,
                    opts.screen,
                    terminal,
                    &lb_cell,
                    &sigma_cell,
                    &counters,
                    &mut local,
                )
            })?;
            products += full_cost;
            lb = lb_cell.get();
            // Children concatenated in parent order — same order the
            // serial loop would have pushed them.
            per_node.into_iter().flatten().collect()
        } else {
            let lb_cell = SharedMaxF64::new(lb);
            let mut next = Vec::with_capacity(full_cost);
            'expand: for (idx, node) in frontier.iter().enumerate() {
                if products.saturating_add(set.len()) > opts.max_products {
                    truncated = true;
                    // Soundness on truncation: the nodes not (fully)
                    // expanded must keep contributing their branch bounds —
                    // a parent's σ dominates all its children's, so carrying
                    // the remaining parents forward is conservative.
                    for rest in &frontier[idx..] {
                        next.push(Node {
                            product: rest.product.clone(),
                            log_scale: rest.log_scale,
                            sigma: rest.sigma,
                        });
                    }
                    break 'expand;
                }
                let children = expand_node(
                    set,
                    node,
                    inv_depth,
                    opts.delta,
                    opts.screen,
                    terminal,
                    &lb_cell,
                    &sigma_cell,
                    &counters,
                    &mut scratch,
                )?;
                products += set.len();
                next.extend(children);
            }
            lb = lb_cell.get();
            next
        };

        // The lower bound may have grown during expansion: re-prune with
        // the settled value. Nodes carried over by a truncation keep their
        // (conservative) σ and are only dropped when even that cannot beat
        // the bound.
        let mut next = next;
        let born = next.len();
        next.retain(|n| n.sigma > lb + opts.delta);
        overrun_trace::counter!("jsr.settled_pruned", (born - next.len()) as u64);
        frontier = next;
        // Per-depth settled lb is deterministic (scheduling and screening
        // only skip max-fold no-ops), so this provenance marker is too.
        if lb > lb_before {
            lb_depth = depth;
        }
    }

    let search_upper = if truncated {
        frontier
            .iter()
            .map(|n| n.sigma)
            .fold(lb + opts.delta, f64::max)
    } else {
        lb + opts.delta
    };
    let upper = search_upper.min(ellipsoid_bound.max(lb));
    Ok((JsrBounds { lower: lb, upper }, counters.snapshot(lb_depth)))
}

/// Expands one frontier node against every matrix of the set, improving the
/// shared lower bound and returning the children that survive pruning
/// against the bound *as currently visible* (final pruning against the
/// settled bound happens in the caller).
///
/// With `screen` enabled, each child is first bracketed by the O(n²)
/// certified bounds; the exact Schur evaluations run only when the bracket
/// straddles a decision. Every skip is a provable bitwise no-op:
///
/// * a child is dropped without its exact norm only when even the cheap
///   *upper* bound keeps `σ` at or below `lb + δ` (the exact σ, which can
///   only be smaller, would have been pruned too) *and* the eigenvalue
///   solve is provably a no-op — because the cheap radius bound sits at or
///   below `lb`, or because the cheap norm bound does (then `ρ ≤ ‖·‖ ≤ lb`
///   and the `nrm > lb` gate cannot fire);
/// * the eigenvalue solve is skipped only when the guarded cheap radius
///   bound sits at or below a value `lb` already reached — the max-fold
///   would have ignored the exact ρ.
///
/// On the **terminal** depth (the last expansion before the depth cap) the
/// pruning threshold is widened to the running maximum of exact σ values
/// seen this depth: terminal children are never expanded, so their only
/// effect is the order-independent `search_upper` max-fold, and a child
/// whose cheap σ bound cannot exceed that running maximum folds to nothing.
///
/// Skip thresholds use possibly-lagging views of the shared cells, which
/// only makes screening *more* conservative (a smaller threshold skips
/// less), so the parallel determinism argument of the unscreened path
/// carries over unchanged.
///
/// `scratch` holds the raw product; only surviving children allocate.
#[allow(clippy::too_many_arguments)]
fn expand_node(
    set: &MatrixSet,
    node: &Node,
    inv_depth: f64,
    delta: f64,
    screen: bool,
    terminal: bool,
    lb_cell: &SharedMaxF64,
    sigma_cell: &SharedMaxF64,
    counters: &ScreenCounters,
    scratch: &mut Matrix,
) -> Result<Vec<Node>> {
    // The surviving-children vector is the node's return value; it is the
    // one deliberate allocation in the frontier loop (amortised by the
    // pruning that keeps it short). `tests/alloc_free.rs` bounds what a
    // search may allocate beyond it.
    let mut children = Vec::new();
    for a in set {
        a.matmul_into(&node.product, scratch)?;
        counters.node();
        // True quantities in log space: the full product is
        // exp(node.log_scale) · scratch.
        let (nrm_hi, rho_hi) = if screen {
            scaled_cheap_bounds(scratch, node.log_scale, inv_depth)
        } else {
            (f64::INFINITY, f64::INFINITY)
        };
        let lb_seen = lb_cell.get();
        // Full skip: the child provably folds to nothing (even the cheap
        // upper bound keeps σ at or below the pruning threshold — or, on
        // the terminal depth, below an exact σ already folded) AND the
        // eigenvalue solve is provably a no-op — either because the radius
        // bound already sits at or below lb, or because `nrm_hi ≤ lb`
        // makes the `nrm > lb` gate below provably false (the shared
        // bound only grows).
        let sigma_gate = if terminal {
            sigma_cell.get().max(lb_seen + delta)
        } else {
            lb_seen + delta
        };
        if node.sigma.min(nrm_hi) <= sigma_gate && (rho_hi <= lb_seen || nrm_hi <= lb_seen) {
            counters.skip_norm();
            counters.skip_eig();
            continue;
        }
        let nrm_p = norm_2(scratch);
        counters.exact_norm();
        let nrm = scale_pow(nrm_p, node.log_scale, inv_depth);
        // ρ(P) ≤ ‖P‖: the eigenvalue solve can only improve the lower
        // bound when the norm-based value exceeds it.
        if nrm > lb_cell.get() {
            if rho_hi <= lb_seen {
                counters.skip_eig();
            } else {
                counters.exact_eig();
                let rho_p = spectral_radius(scratch)?;
                let rho = scale_pow(rho_p, node.log_scale, inv_depth);
                lb_cell.update(rho);
            }
        }
        let sigma = node.sigma.min(nrm);
        if terminal {
            sigma_cell.update(sigma);
        }
        if sigma > lb_cell.get() + delta {
            let (product, extra) = normalize_log_ref(scratch, nrm_p);
            children.push(Node {
                product,
                log_scale: node.log_scale + extra,
                sigma,
            });
        }
    }
    Ok(children)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_tight() {
        let a = Matrix::from_rows(&[&[0.2, 0.9], &[-0.4, 0.1]]).unwrap();
        let rho = spectral_radius(&a).unwrap();
        let set = MatrixSet::new(vec![a]).unwrap();
        let b = gripenberg(&set, &GripenbergOptions::default()).unwrap();
        assert!(b.lower <= rho + 1e-9 && rho <= b.upper + 1e-9);
        // For a singleton ‖Aᵏ‖^{1/k} converges to ρ only geometrically in
        // 1/k, so the gap at the default depth budget is small but larger
        // than δ.
        assert!(b.gap() <= 1e-2, "gap = {}", b.gap());
        assert!((b.lower - rho).abs() < 1e-9);
    }

    #[test]
    fn golden_ratio_pair() {
        let a1 = Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]]).unwrap();
        let a2 = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0]]).unwrap();
        let set = MatrixSet::new(vec![a1, a2]).unwrap();
        let b = gripenberg(
            &set,
            &GripenbergOptions {
                delta: 1e-3,
                ..GripenbergOptions::default()
            },
        )
        .unwrap();
        let phi = (1.0 + 5.0_f64.sqrt()) / 2.0;
        assert!((b.lower - phi).abs() < 1e-6, "lower {} vs {phi}", b.lower);
        assert!(b.upper >= phi - 1e-9);
        assert!(b.upper <= phi + 1e-3 + 1e-6);
    }

    #[test]
    fn commuting_diagonals() {
        let set =
            MatrixSet::new(vec![Matrix::diag(&[0.9, 0.3]), Matrix::diag(&[0.5, 0.8])]).unwrap();
        let b = gripenberg(&set, &GripenbergOptions::default()).unwrap();
        assert!((b.lower - 0.9).abs() < 1e-9);
        assert!(b.upper <= 0.9 + 1e-4 + 1e-9);
    }

    #[test]
    fn scaling_property() {
        // JSR(c · A) = c · JSR(A)
        let a1 = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let a2 = Matrix::from_rows(&[&[0.5, 0.1], &[0.0, 0.5]]).unwrap();
        let set1 = MatrixSet::new(vec![a1.clone(), a2.clone()]).unwrap();
        let set2 = MatrixSet::new(vec![a1.scale(2.0), a2.scale(2.0)]).unwrap();
        let b1 = gripenberg(&set1, &GripenbergOptions::default()).unwrap();
        let b2 = gripenberg(&set2, &GripenbergOptions::default()).unwrap();
        assert!((b2.lower - 2.0 * b1.lower).abs() < 1e-3);
    }

    #[test]
    fn stable_set_certifies_stable() {
        let a1 = Matrix::from_rows(&[&[0.5, 0.2], &[-0.1, 0.4]]).unwrap();
        let a2 = Matrix::from_rows(&[&[0.3, -0.3], &[0.2, 0.6]]).unwrap();
        let set = MatrixSet::new(vec![a1, a2]).unwrap();
        let b = gripenberg(&set, &GripenbergOptions::default()).unwrap();
        assert!(b.certifies_stable(), "bounds {b}");
    }

    #[test]
    fn unstable_set_certifies_unstable() {
        let set =
            MatrixSet::new(vec![Matrix::diag(&[1.2, 0.1]), Matrix::diag(&[0.1, 0.2])]).unwrap();
        let b = gripenberg(&set, &GripenbergOptions::default()).unwrap();
        assert!(b.certifies_unstable(), "bounds {b}");
    }

    #[test]
    fn options_validation() {
        let set = MatrixSet::new(vec![Matrix::identity(2)]).unwrap();
        assert!(gripenberg(
            &set,
            &GripenbergOptions {
                delta: 0.0,
                ..GripenbergOptions::default()
            }
        )
        .is_err());
        assert!(gripenberg(
            &set,
            &GripenbergOptions {
                max_depth: 0,
                ..GripenbergOptions::default()
            }
        )
        .is_err());
    }

    #[test]
    fn truncated_budget_still_valid() {
        // With an extreme budget the bound is loose but must stay valid.
        let a1 = Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]]).unwrap();
        let a2 = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0]]).unwrap();
        let set = MatrixSet::new(vec![a1, a2]).unwrap();
        let b = gripenberg(
            &set,
            &GripenbergOptions {
                delta: 1e-8,
                max_depth: 3,
                max_products: 50,
                precondition: false,
                ellipsoid: false,
                screen: true,
            },
        )
        .unwrap();
        let phi = (1.0 + 5.0_f64.sqrt()) / 2.0;
        assert!(b.lower <= phi + 1e-9);
        assert!(b.upper >= phi - 1e-3);
    }

    #[test]
    fn parallel_matches_serial_bitwise() -> Result<()> {
        // The parallel depth expansion is designed to be exactly
        // reproducible: lagging views of the shared lower bound only
        // admit extra candidates, and the settled-lb retain recovers the
        // serial frontier. At δ = 1e-6 this set's frontier crosses
        // `PARALLEL_MIN_FRONTIER` at several depths and stays below it at
        // the others, so both expansion paths run. Verify the certified
        // interval and the explored tree are identical.
        let a1 = Matrix::from_rows(&[&[0.6, 0.4], &[-0.2, 0.7]])?;
        let a2 = Matrix::from_rows(&[&[0.5, -0.3], &[0.4, 0.6]])?;
        let a3 = Matrix::from_rows(&[&[0.8, -0.4], &[0.3, 0.6]])?;
        let set = MatrixSet::new(vec![a1, a2, a3])?;
        let opts = GripenbergOptions {
            delta: 1e-6,
            ..GripenbergOptions::default()
        };
        overrun_par::set_thread_override(Some(1));
        let serial = gripenberg_with_stats(&set, &opts);
        overrun_par::set_thread_override(Some(4));
        let par = gripenberg_with_stats(&set, &opts);
        overrun_par::set_thread_override(None);
        let ((serial, s_stats), (par, p_stats)) = (serial?, par?);
        assert_eq!(serial.lower.to_bits(), par.lower.to_bits());
        assert_eq!(serial.upper.to_bits(), par.upper.to_bits());
        assert_eq!(s_stats.nodes, p_stats.nodes);
        assert_eq!(s_stats.lb_depth, p_stats.lb_depth);
        assert!(
            s_stats.nodes > 3 * PARALLEL_MIN_FRONTIER as u64,
            "{s_stats}"
        );
        Ok(())
    }

    #[test]
    fn screening_is_bitwise_neutral_and_skips_work() {
        let a1 = Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]]).unwrap();
        let a2 = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0]]).unwrap();
        let a3 = Matrix::from_rows(&[&[0.8, -0.4], &[0.3, 0.6]]).unwrap();
        let set = MatrixSet::new(vec![a1, a2, a3]).unwrap();
        let on = GripenbergOptions {
            delta: 1e-3,
            ..GripenbergOptions::default()
        };
        let off = GripenbergOptions {
            screen: false,
            ..on.clone()
        };
        let (b_on, s_on) = gripenberg_with_stats(&set, &on).unwrap();
        let (b_off, s_off) = gripenberg_with_stats(&set, &off).unwrap();
        assert_eq!(b_on.lower.to_bits(), b_off.lower.to_bits());
        assert_eq!(b_on.upper.to_bits(), b_off.upper.to_bits());
        assert_eq!(s_on.lb_depth, s_off.lb_depth);
        assert_eq!(s_off.schur_skipped(), 0);
        assert!(
            s_on.schur_evals() < s_off.schur_evals(),
            "screening saved nothing: on={s_on} off={s_off}"
        );
    }

    #[test]
    fn agrees_with_bruteforce() {
        let a1 = Matrix::from_rows(&[&[0.7, 0.3], &[-0.2, 0.6]]).unwrap();
        let a2 = Matrix::from_rows(&[&[0.4, -0.5], &[0.5, 0.2]]).unwrap();
        let set = MatrixSet::new(vec![a1, a2]).unwrap();
        let g = gripenberg(&set, &GripenbergOptions::default()).unwrap();
        let bf = crate::bruteforce_bounds(
            &set,
            &crate::BruteforceOptions {
                max_depth: 10,
                ..crate::BruteforceOptions::default()
            },
        )
        .unwrap();
        // Intervals must overlap (both contain the true JSR).
        assert!(g.lower <= bf.upper + 1e-9, "g={g:?} bf={bf:?}");
        assert!(bf.lower <= g.upper + 1e-9, "g={g:?} bf={bf:?}");
    }
}
