//! Lazy-exact norm screening for the product-tree searches.
//!
//! Every node of a Gripenberg or brute-force search pays a full Schur
//! eigendecomposition for `norm_2` (and often a second one for
//! `spectral_radius`) — even at nodes whose value provably cannot affect
//! the certified `[LB, UB]`. This module provides the O(n²) certified
//! bracket evaluation ([`scaled_cheap_bounds`], built on
//! [`overrun_linalg::cheap_spectral_bounds`]) and the instrumentation
//! ([`ScreenStats`], [`ScreenCounters`]) that the searches use to skip the
//! exact evaluations lazily.
//!
//! # Why screening cannot change a single output bit
//!
//! Both searches fold candidate values into running maxima (`lb`,
//! `level_max_rho`, `level_max_norm`) and prune children against the
//! current lower bound. A `max`-fold with a value `≤` the current fold
//! state is a bitwise no-op, so an exact evaluation may be skipped exactly
//! when its *cheap upper bound* already sits at or below the relevant
//! threshold — the exact value, which can only be smaller, would have
//! contributed nothing. The cheap bounds carry a multiplicative guard (see
//! `overrun_linalg::norms`) so they bound the *computed* exact values, not
//! just the mathematical ones, and every skip condition is written as
//! "skip iff `cheap ≤ threshold`" so NaN comparisons fail closed into the
//! exact path.

use overrun_linalg::{cheap_spectral_bounds, Matrix};
use std::sync::atomic::{AtomicU64, Ordering};

/// Evaluation counters of a product-tree search: how many exact
/// (Schur-based) evaluations ran versus how many the cheap certified
/// bounds screened out.
///
/// Counters are diagnostics only — they may differ across thread counts
/// (a lagging shared lower bound screens less), while the certified bounds
/// themselves stay bit-identical. `lb_depth` *is* deterministic: the
/// per-depth settled lower bound does not depend on scheduling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScreenStats {
    /// Product-tree nodes evaluated (matrix products formed).
    pub nodes: u64,
    /// Exact `norm_2` evaluations performed.
    pub exact_norms: u64,
    /// Norm evaluations answered from the `MatrixSet` cache.
    pub cached_norms: u64,
    /// Exact `spectral_radius` evaluations performed.
    pub exact_eigs: u64,
    /// `norm_2` evaluations avoided by the cheap bracket.
    pub skipped_norms: u64,
    /// `spectral_radius` evaluations avoided by the cheap bracket.
    pub skipped_eigs: u64,
    /// Product length at which the final lower bound was first attained
    /// (`0` when the lower bound stayed at zero). Deterministic across
    /// thread counts and screening on/off — part of the lb provenance.
    pub lb_depth: usize,
}

impl ScreenStats {
    /// Exact Schur-based evaluations performed (`norm_2` + eigenvalue
    /// solves).
    pub fn schur_evals(&self) -> u64 {
        self.exact_norms + self.exact_eigs
    }

    /// Schur-based evaluations avoided by screening (plus cache hits,
    /// reported separately in [`ScreenStats::cached_norms`]).
    pub fn schur_skipped(&self) -> u64 {
        self.skipped_norms + self.skipped_eigs
    }

    /// Fraction of would-be exact evaluations answered by the cheap
    /// bounds: `skipped / (skipped + performed)`. Zero when nothing ran.
    pub fn hit_rate(&self) -> f64 {
        let total = self.schur_evals() + self.schur_skipped();
        if total == 0 {
            0.0
        } else {
            self.schur_skipped() as f64 / total as f64
        }
    }

    /// Adds the evaluation counters of `other` (e.g. one power-lift level)
    /// into `self`. `lb_depth` is provenance, not a count, and is left
    /// untouched — callers set it when they know which run produced the
    /// final lower bound.
    pub fn absorb(&mut self, other: &ScreenStats) {
        self.nodes += other.nodes;
        self.exact_norms += other.exact_norms;
        self.cached_norms += other.cached_norms;
        self.exact_eigs += other.exact_eigs;
        self.skipped_norms += other.skipped_norms;
        self.skipped_eigs += other.skipped_eigs;
    }
}

impl std::fmt::Display for ScreenStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "nodes={} exact(norm={} eig={}) skipped(norm={} eig={}) cached={} hit_rate={:.1}% lb_depth={}",
            self.nodes,
            self.exact_norms,
            self.exact_eigs,
            self.skipped_norms,
            self.skipped_eigs,
            self.cached_norms,
            100.0 * self.hit_rate(),
            self.lb_depth
        )
    }
}

/// Thread-safe accumulation of [`ScreenStats`] counters: the parallel
/// frontier expansion increments from worker threads (relaxed atomics,
/// read after the join). [`ScreenCounters::snapshot`] also emits the
/// totals into the trace sink as the `jsr.screen.*` counters, so a
/// `--trace` run reports the screening economy without extra plumbing.
#[derive(Debug, Default)]
pub(crate) struct ScreenCounters {
    nodes: AtomicU64,
    exact_norms: AtomicU64,
    cached_norms: AtomicU64,
    exact_eigs: AtomicU64,
    skipped_norms: AtomicU64,
    skipped_eigs: AtomicU64,
}

fn bump(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}

impl ScreenCounters {
    pub(crate) fn node(&self) {
        bump(&self.nodes);
    }

    pub(crate) fn exact_norm(&self) {
        bump(&self.exact_norms);
    }

    pub(crate) fn cached_norm(&self) {
        bump(&self.cached_norms);
    }

    pub(crate) fn exact_eig(&self) {
        bump(&self.exact_eigs);
    }

    pub(crate) fn skip_norm(&self) {
        bump(&self.skipped_norms);
    }

    pub(crate) fn skip_eig(&self) {
        bump(&self.skipped_eigs);
    }

    /// Snapshots the counters into a [`ScreenStats`] with the given lower
    /// bound provenance, and forwards the totals to the trace sink (a
    /// no-op unless a sink is installed).
    pub(crate) fn snapshot(&self, lb_depth: usize) -> ScreenStats {
        let s = ScreenStats {
            nodes: self.nodes.load(Ordering::Relaxed),
            exact_norms: self.exact_norms.load(Ordering::Relaxed),
            cached_norms: self.cached_norms.load(Ordering::Relaxed),
            exact_eigs: self.exact_eigs.load(Ordering::Relaxed),
            skipped_norms: self.skipped_norms.load(Ordering::Relaxed),
            skipped_eigs: self.skipped_eigs.load(Ordering::Relaxed),
            lb_depth,
        };
        overrun_trace::counter!("jsr.screen.nodes", s.nodes);
        overrun_trace::counter!("jsr.screen.exact_norms", s.exact_norms);
        overrun_trace::counter!("jsr.screen.cached_norms", s.cached_norms);
        overrun_trace::counter!("jsr.screen.exact_eigs", s.exact_eigs);
        overrun_trace::counter!("jsr.screen.skipped_norms", s.skipped_norms);
        overrun_trace::counter!("jsr.screen.skipped_eigs", s.skipped_eigs);
        s
    }
}

/// Maps a raw (normalised-product) quantity to the depth-scaled value used
/// by the searches: `(x · exp(log_scale))^(1/depth)` computed in log space.
/// Bit-identical to the inline expressions the searches historically used.
#[inline]
pub(crate) fn scale_pow(x: f64, log_scale: f64, inv_depth: f64) -> f64 {
    if x > 0.0 {
        ((x.ln() + log_scale) * inv_depth).exp()
    } else {
        0.0
    }
}

/// Cheap certified upper bounds on the depth-scaled norm and spectral
/// radius of a product node: `(nrm_hi, rho_hi)` with
///
/// * `scale_pow(norm_2(m), …) ≤ nrm_hi`, and
/// * `scale_pow(spectral_radius(m), …) ≤ rho_hi ≤ nrm_hi`,
///
/// both with margin (the underlying bounds carry a multiplicative guard
/// that dwarfs the ulp-level wobble of `ln`/`exp`). Non-finite inputs give
/// `(∞, ∞)`, screening nothing.
#[inline]
pub(crate) fn scaled_cheap_bounds(m: &Matrix, log_scale: f64, inv_depth: f64) -> (f64, f64) {
    let b = cheap_spectral_bounds(m);
    (
        scale_pow(b.norm_upper, log_scale, inv_depth),
        scale_pow(b.radius_upper, log_scale, inv_depth),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use overrun_linalg::{norm_2, spectral_radius};

    #[test]
    fn stats_arithmetic() {
        let mut a = ScreenStats {
            nodes: 10,
            exact_norms: 3,
            cached_norms: 1,
            exact_eigs: 2,
            skipped_norms: 4,
            skipped_eigs: 5,
            lb_depth: 3,
        };
        assert_eq!(a.schur_evals(), 5);
        assert_eq!(a.schur_skipped(), 9);
        assert!((a.hit_rate() - 9.0 / 14.0).abs() < 1e-15);
        let b = a;
        a.absorb(&b);
        assert_eq!(a.nodes, 20);
        assert_eq!(a.lb_depth, 3, "absorb must not touch provenance");
        assert_eq!(ScreenStats::default().hit_rate(), 0.0);
        assert!(format!("{a}").contains("hit_rate"));
    }

    #[test]
    fn counters_snapshot() {
        let c = ScreenCounters::default();
        c.node();
        c.node();
        c.exact_norm();
        c.cached_norm();
        c.exact_eig();
        c.skip_norm();
        c.skip_eig();
        let s = c.snapshot(4);
        assert_eq!(s.nodes, 2);
        assert_eq!(s.exact_norms, 1);
        assert_eq!(s.cached_norms, 1);
        assert_eq!(s.exact_eigs, 1);
        assert_eq!(s.skipped_norms, 1);
        assert_eq!(s.skipped_eigs, 1);
        assert_eq!(s.lb_depth, 4);
    }

    #[test]
    fn scale_pow_matches_inline_expression() {
        for (x, log_scale, inv_depth) in [
            (1.7, 0.3, 0.5),
            (0.2, -2.0, 0.25),
            (3.0, 0.0, 1.0),
            (0.0, 1.0, 0.5),
            (f64::NAN, 0.0, 1.0),
        ] {
            let expected = if x > 0.0 {
                ((x.ln() + log_scale) * inv_depth).exp()
            } else {
                0.0
            };
            assert_eq!(
                scale_pow(x, log_scale, inv_depth).to_bits(),
                expected.to_bits()
            );
        }
    }

    #[test]
    fn scaled_bounds_dominate_scaled_exact_values() {
        let m = Matrix::from_rows(&[&[0.9, 0.4], &[-0.3, 0.7]]).unwrap();
        let (log_scale, inv_depth) = (0.37, 1.0 / 3.0);
        let (nrm_hi, rho_hi) = scaled_cheap_bounds(&m, log_scale, inv_depth);
        let nrm = scale_pow(norm_2(&m), log_scale, inv_depth);
        let rho = scale_pow(spectral_radius(&m).unwrap(), log_scale, inv_depth);
        assert!(nrm <= nrm_hi);
        assert!(rho <= rho_hi);
        assert!(rho_hi <= nrm_hi);
    }
}
