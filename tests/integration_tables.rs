//! Reduced-ensemble versions of the paper's Table I and Table II runs,
//! asserting the qualitative shapes the paper reports.

use overrun_control::prelude::*;
use overrun_control::scenarios::{pmsm_table2_weights, table1, table2, ExperimentConfig};
use overrun_linalg::Matrix;

fn small_config() -> ExperimentConfig {
    ExperimentConfig {
        num_sequences: 300,
        jobs_per_sequence: 50,
        seed: 2021,
        ..ExperimentConfig::default()
    }
}

/// Table I shape: the adaptive controller's worst-case cost never loses to
/// the fixed-`T` baseline, and the conservative fixed-`Rmax` baseline is
/// the worst at the largest delay range.
#[test]
fn table1_shape() {
    let plant = plants::unstable_second_order();
    let rows = table1(&plant, 0.010, &small_config()).unwrap();
    assert_eq!(rows.len(), 6);
    for r in &rows {
        assert!(r.jw_adaptive.is_finite());
        assert!(
            r.jw_adaptive <= r.jw_fixed_t * 1.05,
            "adaptive {:.2} should not lose to fixed-T {:.2} at {:?}",
            r.jw_adaptive,
            r.jw_fixed_t,
            (r.rmax_factor, r.ns)
        );
    }
    // At the widest delay range the paper's full ordering holds:
    // adaptive < fixed(T) < fixed(Rmax).
    let worst_row = rows
        .iter()
        .find(|r| r.rmax_factor > 1.5 && r.ns == 2)
        .expect("1.6T / Ts = T/2 row");
    assert!(worst_row.jw_adaptive < worst_row.jw_fixed_t);
    assert!(worst_row.jw_fixed_t < worst_row.jw_fixed_rmax);
}

/// Finer sensor granularity (larger Ns) improves the adaptive worst case.
#[test]
fn table1_finer_ts_helps() {
    let plant = plants::unstable_second_order();
    let cfg = ExperimentConfig {
        rmax_factors: vec![1.6],
        ns_values: vec![2, 5],
        ..small_config()
    };
    let rows = table1(&plant, 0.010, &cfg).unwrap();
    assert_eq!(rows.len(), 2);
    let coarse = &rows[0];
    let fine = &rows[1];
    assert!(fine.jw_adaptive <= coarse.jw_adaptive * 1.02);
}

/// Table II shape: the adaptive LQR is certified stable in every
/// configuration, the no-overrun cost lower-bounds every adaptive-period
/// cost, the fixed-`T` gain is certified unstable at `Rmax = 1.6 T,
/// Ts = T/2`, and the ideal fixed-period cost grows with `Rmax`.
#[test]
fn table2_shape() {
    let plant = plants::pmsm();
    let x0 = Matrix::col_vec(&[1.0, 1.0, 1.0]);
    let rows = table2(&plant, 50e-6, &pmsm_table2_weights(), &x0, &small_config()).unwrap();
    assert_eq!(rows.len(), 6);

    for r in &rows {
        assert!(
            r.jsr_adaptive.certifies_stable(),
            "adaptive JSR {:?} at {:?}",
            r.jsr_adaptive,
            (r.rmax_factor, r.ns)
        );
        assert!(r.cost_no_overruns <= r.cost_adaptive + 1e-12);
        assert!(r.cost_adaptive.is_finite());
    }

    // The paper's headline: fixed-T goes unstable exactly in the coarse
    // 1.6T configuration, and nowhere else.
    for r in &rows {
        let critical = r.rmax_factor > 1.5 && r.ns == 2;
        assert_eq!(
            r.cost_fixed_t.is_none(),
            critical,
            "fixed-T instability expected only at 1.6T/Ts=T/2, got {:?} at {:?}",
            r.cost_fixed_t,
            (r.rmax_factor, r.ns)
        );
    }

    // Fixed-period cost increases with Rmax (slower sampling hurts).
    let by_factor = |f: f64| {
        rows.iter()
            .find(|r| (r.rmax_factor - f).abs() < 1e-9 && r.ns == 2)
            .expect("row")
            .cost_fixed_period_rmax
    };
    assert!(by_factor(1.1) < by_factor(1.3));
    assert!(by_factor(1.3) < by_factor(1.6));
}

/// The JSR bounds reported in Table II tighten with finer sensor
/// granularity at the critical Rmax (paper: T/5 row is far from 1 while
/// T/2 approaches it).
#[test]
fn table2_granularity_affects_margin() {
    let plant = plants::pmsm();
    let weights = pmsm_table2_weights();
    let coarse = IntervalSet::from_timing(50e-6, 1.6 * 50e-6, 2).unwrap();
    let fine = IntervalSet::from_timing(50e-6, 1.6 * 50e-6, 5).unwrap();
    let t_coarse = lqr::design_adaptive(&plant, &coarse, &weights).unwrap();
    let t_fine = lqr::design_adaptive(&plant, &fine, &weights).unwrap();
    let b_coarse = stability::certify(&plant, &t_coarse, &Default::default())
        .unwrap()
        .bounds;
    let b_fine = stability::certify(&plant, &t_fine, &Default::default())
        .unwrap()
        .bounds;
    assert!(
        b_fine.upper < b_coarse.upper,
        "fine {b_fine:?} vs coarse {b_coarse:?}"
    );
}

/// Worst-case cost must be reproducible for identical seeds and change for
/// different seeds (sanity of the ensemble machinery).
#[test]
fn table_runs_reproducible() {
    let plant = plants::unstable_second_order();
    let cfg = ExperimentConfig {
        rmax_factors: vec![1.3],
        ns_values: vec![2],
        num_sequences: 100,
        jobs_per_sequence: 50,
        seed: 9,
    };
    let a = table1(&plant, 0.010, &cfg).unwrap();
    let b = table1(&plant, 0.010, &cfg).unwrap();
    assert_eq!(a[0].jw_adaptive.to_bits(), b[0].jw_adaptive.to_bits());
}
