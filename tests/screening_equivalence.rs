//! Cross-crate equivalence tests for the lazy-exact norm screening: on the
//! Table-II lifted matrix sets, every search must return a certified
//! `[LB, UB]` interval (and lower-bound provenance) that is bit-identical
//! with screening on and off, serially and in parallel — while actually
//! skipping a substantial share of the exact Schur evaluations.
//!
//! The thread override is process-global, so all tests share one lock and
//! always restore the default before releasing it.

use std::sync::Mutex;

use overrun_control::prelude::*;
use overrun_control::scenarios::pmsm_table2_weights;
use overrun_jsr::{
    bruteforce_bounds_with_stats, refined_bounds_with_stats, BruteforceOptions, GripenbergOptions,
    MatrixSet, RefineOptions,
};
use overrun_par::set_thread_override;

static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` at each thread count in `counts` and returns the results,
/// restoring the default thread selection afterwards.
fn at_thread_counts<R>(counts: &[usize], mut f: impl FnMut() -> R) -> Vec<R> {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let out = counts
        .iter()
        .map(|&t| {
            set_thread_override(Some(t));
            f()
        })
        .collect();
    set_thread_override(None);
    out
}

/// The Table-II lifted matrix set for one `(Rmax factor, Ns)` cell.
fn table2_set(factor: f64, ns: u32) -> MatrixSet {
    let plant = plants::pmsm();
    let t = 50e-6;
    let hset = IntervalSet::from_timing(t, factor * t, ns).unwrap();
    let table = lqr::design_adaptive(&plant, &hset, &pmsm_table2_weights()).unwrap();
    let meas = lifted::measurement_matrix(&plant, &table).unwrap();
    MatrixSet::new(lifted::build_omega_set(&plant, &table, &meas).unwrap()).unwrap()
}

/// The power-lifted Gripenberg searches behind `stability::certify` return
/// bitwise-identical bounds and lb provenance with screening on and off, at
/// 1 and 4 worker threads, on Table-II sets — and screening saves well over
/// half of the exact Schur evaluations.
#[test]
fn gripenberg_screening_bitwise_identical_on_table2_sets() {
    for (factor, ns) in [(1.3, 2u32), (1.6, 2)] {
        let set = table2_set(factor, ns);
        // Production configuration: exactly what `stability::certify`
        // passes down for a Table-II cell, so the measured savings are the
        // ones the adaptive-design certification pipeline sees.
        let mk = |screen: bool| RefineOptions {
            base: GripenbergOptions {
                delta: 1e-5,
                max_depth: 8,
                max_products: 100_000,
                precondition: true,
                ellipsoid: true,
                screen,
            },
            max_power: 6,
            max_alphabet: 1024,
            decision_threshold: Some(1.0),
        };
        let runs = at_thread_counts(&[1, 4], || {
            let on = refined_bounds_with_stats(&set, &mk(true)).unwrap();
            let off = refined_bounds_with_stats(&set, &mk(false)).unwrap();
            (on, off)
        });
        let serial_bounds = runs[0].0 .0;
        for (threads, ((b_on, s_on), (b_off, s_off))) in [1usize, 4].iter().zip(&runs) {
            let ctx = format!("Rmax = {factor}T, Ns = {ns}, {threads} threads");
            assert_eq!(
                b_on.lower.to_bits(),
                b_off.lower.to_bits(),
                "LB differs: {ctx}"
            );
            assert_eq!(
                b_on.upper.to_bits(),
                b_off.upper.to_bits(),
                "UB differs: {ctx}"
            );
            assert_eq!(
                b_on.lower.to_bits(),
                serial_bounds.lower.to_bits(),
                "LB differs from serial: {ctx}"
            );
            assert_eq!(
                b_on.upper.to_bits(),
                serial_bounds.upper.to_bits(),
                "UB differs from serial: {ctx}"
            );
            assert_eq!(
                s_on.lb_depth, s_off.lb_depth,
                "lb provenance differs: {ctx}"
            );
            assert_eq!(
                s_off.schur_skipped(),
                0,
                "screen=false must not skip: {ctx}"
            );
            assert!(
                s_on.schur_evals() * 5 < s_off.schur_evals() * 2,
                "screening saved less than 60% of exact evals: {ctx}, on={s_on} off={s_off}"
            );
        }
    }
}

/// The Eq.-12 brute-force enumeration is bitwise-invariant under screening
/// on the Table-II sets, with the depth-1 norms answered from the set cache.
#[test]
fn bruteforce_screening_bitwise_identical_on_table2_sets() {
    let set = table2_set(1.3, 2);
    let mk = |screen: bool| BruteforceOptions {
        max_depth: 7,
        screen,
        ..Default::default()
    };
    let (b_on, s_on) = bruteforce_bounds_with_stats(&set, &mk(true)).unwrap();
    let (b_off, s_off) = bruteforce_bounds_with_stats(&set, &mk(false)).unwrap();
    assert_eq!(b_on.lower.to_bits(), b_off.lower.to_bits());
    assert_eq!(b_on.upper.to_bits(), b_off.upper.to_bits());
    assert_eq!(s_on.lb_depth, s_off.lb_depth);
    assert_eq!(s_on.nodes, s_off.nodes, "screening must not prune nodes");
    assert_eq!(s_on.cached_norms, set.len() as u64);
    assert_eq!(s_off.cached_norms, set.len() as u64);
    assert!(
        s_on.schur_evals() < s_off.schur_evals(),
        "screening saved nothing: on={s_on} off={s_off}"
    );
    assert!(b_on.lower <= b_on.upper);
}
