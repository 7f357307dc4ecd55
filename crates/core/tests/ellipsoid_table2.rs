//! The optimal-ellipsoid LMI on the 18 Table II level-1 sets, as
//! `stability::certify` meets them: `{Ω(h) : h ∈ H}` of the adaptive and
//! both fixed-gain designs of every `(Rmax, Ns)` cell, deflated from 9 to 7
//! dimensions (the delayed LQR holds its controller state twice) and
//! preconditioned.
//!
//! The method of centres follows the central path with a tangent
//! predictor. A predictor that always fell back to the old centre would
//! still reach the same bounds, only in more Newton steps, so the step
//! count is pinned along with the bounds and the verdicts.

use overrun_control::prelude::*;
use overrun_control::scenarios::pmsm_table2_weights;
use overrun_control::{lifted, stability};
use overrun_jsr::{deflate, optimize_ellipsoid, precondition, MatrixSet, StabilityVerdict};

/// Per design, in the order of [`table2_designs`]: the ellipsoid's bound
/// and the certification verdict as first recorded, when the method of
/// centres took 3 488 Newton steps over these sets, undeflated.
const RECORDED: [(f64, StabilityVerdict); 18] = {
    use StabilityVerdict::{Stable, Unstable};
    [
        (0.7437108415367952, Stable),
        (0.7450823398305487, Stable),
        (0.7288214906725251, Stable),
        (0.7208612597653624, Stable),
        (0.7219500839278348, Stable),
        (0.7042393187509106, Stable),
        (0.7437108415367952, Stable),
        (0.7450823398305487, Stable),
        (0.7118674503445563, Stable),
        (0.7299920945295741, Stable),
        (0.7323808966131812, Stable),
        (0.7118674503380306, Stable),
        (0.9971852845280664, Stable),
        (1.0294523160168971, Unstable),
        (0.7684022438643173, Stable),
        (0.7901739277608133, Stable),
        (0.7865132039448282, Stable),
        (0.7684022438635195, Stable),
    ]
};

/// The deflated sets take 1 042 Newton steps; undeflated they took 1 281,
/// and without the predictor 3 488.
const MAX_NEWTON_STEPS: usize = 1_200;

/// Relative distance allowed between a bound and its recorded value.
const BOUND_TOL: f64 = 1e-8;

/// The one set whose optimum the method of centres cannot pin to
/// `BOUND_TOL`, and the tolerance it gets. At 1.1T, T/5 the fixed-T design
/// is centred on a Hessian that needs a ridge in the final steps, and where
/// the iteration stops is set by rounding: without the predictor, other
/// level and centring thresholds stop anywhere from 2.3e-8 below its
/// recorded bound to 1e-8 above it (1.8e-8 above with the predictor on the
/// 9-dimensional set, 2.26e-8 below on the deflated one). Deflation does
/// not cure it: 28 of the deflated set's 107 Newton steps still need a
/// ridge (62 on the 9-dimensional set).
const ROUNDING_LIMITED: (usize, f64) = (4, 3e-8);

/// The Table II designs in row order: for each `(Rmax/T, Ns)` cell the
/// adaptive design, then fixed control designed for `T` and for `Rmax`.
fn table2_designs() -> Vec<(String, ControllerTable)> {
    let plant = plants::pmsm();
    let weights = pmsm_table2_weights();
    let t = 50e-6;
    let mut designs = Vec::new();
    for factor in [1.1, 1.3, 1.6] {
        for ns in [2, 5] {
            let hset = IntervalSet::from_timing(t, factor * t, ns).unwrap();
            let cell = format!("{factor}T, T/{ns}");
            designs.push((
                format!("{cell} adaptive"),
                lqr::design_adaptive(&plant, &hset, &weights).unwrap(),
            ));
            designs.push((
                format!("{cell} fixed T"),
                lqr::design_fixed(&plant, &hset, &weights, t).unwrap(),
            ));
            designs.push((
                format!("{cell} fixed Rmax"),
                lqr::design_fixed(&plant, &hset, &weights, factor * t).unwrap(),
            ));
        }
    }
    designs
}

/// Every set deflates from 9 to 7 dimensions; at most `MAX_NEWTON_STEPS`,
/// the same bounds to `BOUND_TOL` and the same verdicts.
#[test]
fn predictor_halves_newton_steps_on_table2_sets() {
    let plant = plants::pmsm();
    let designs = table2_designs();
    assert_eq!(designs.len(), RECORDED.len());
    let mut steps = 0;
    for (k, ((name, table), &(bound, verdict))) in designs.iter().zip(&RECORDED).enumerate() {
        let meas = lifted::measurement_matrix(&plant, table).unwrap();
        let set = MatrixSet::new(lifted::build_omega_set(&plant, table, &meas).unwrap()).unwrap();
        let deflated = deflate(&set).unwrap();
        assert_eq!((set.dim(), deflated.dim()), (9, 7), "{name}");
        let (balanced, _) = precondition(&deflated).unwrap();
        let e = optimize_ellipsoid(&balanced, &Default::default()).unwrap();
        steps += e.newton_steps;
        let tol = match ROUNDING_LIMITED {
            (at, tol) if at == k => tol,
            _ => BOUND_TOL,
        };
        assert!(
            (e.norm_bound - bound).abs() <= tol * bound,
            "{name}: bound {} against {bound} recorded",
            e.norm_bound
        );
        let report = stability::certify(&plant, table, &Default::default()).unwrap();
        assert_eq!(report.verdict, verdict, "{name}: {:?}", report.bounds);
    }
    assert!(steps <= MAX_NEWTON_STEPS, "{steps} Newton steps");
}
