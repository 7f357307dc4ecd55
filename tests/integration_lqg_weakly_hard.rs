//! Integration tests for the extension paths: output-feedback LQG,
//! weakly-hard constrained certification, closed-form cost analysis and
//! bursty workloads — everything working together across crates.

use overrun_control::analysis::{constant_mode_cost, per_mode_costs};
use overrun_control::lqg::NoiseModel;
use overrun_control::lqr::LqrWeights;
use overrun_control::metrics::{evaluate_worst_case_with_model, WorstCaseOptions};
use overrun_control::prelude::*;
use overrun_control::scenarios::pmsm_table2_weights;
use overrun_control::sim::{ClosedLoopSim, SimScenario};
use overrun_jsr::StabilityVerdict;
use overrun_linalg::Matrix;
use overrun_rtsim::{ResponseTimeModel, Span, WeaklyHard};

/// Output-feedback LQG (observer-based) certifies and simulates end-to-end
/// on an unstable plant where only the position is measured.
#[test]
fn lqg_output_feedback_end_to_end() {
    let plant = plants::unstable_second_order();
    let hset = IntervalSet::from_timing(0.010, 0.013, 5).unwrap();
    let weights = LqrWeights::identity(2, 1, 0.1);
    let noise = NoiseModel::isotropic(2, 1, 1e-3, 1e-2);
    let table = lqg::design_adaptive(&plant, &hset, &weights, &noise).unwrap();
    // Observer-based modes consume outputs, not states.
    assert_eq!(table.error_dim(), 1);
    assert_eq!(table.state_dim(), 3); // x̂ (2) + u_prev (1)

    let report = stability::certify(&plant, &table, &Default::default()).unwrap();
    assert_eq!(
        report.verdict,
        StabilityVerdict::Stable,
        "{:?}",
        report.bounds
    );

    let sim = ClosedLoopSim::new(&plant, &table).unwrap();
    let scenario = SimScenario::regulation(Matrix::col_vec(&[1.0, 0.0]), 1);
    // Random switching incl. worst intervals.
    let modes: Vec<usize> = (0..600).map(|k| if k % 9 == 0 { 1 } else { 0 }).collect();
    let traj = sim.run(&scenario, &modes).unwrap();
    assert!(!traj.diverged);
    let first = traj.errors[0].max_abs();
    let last = traj.errors.last().unwrap().max_abs();
    assert!(last < 0.1 * first, "first {first}, last {last}");
}

/// The weakly-hard rescue demonstrated end-to-end: arbitrary switching
/// unstable, constrained switching stable, and the constrained bounds
/// sandwich correctly under the unconstrained ones.
#[test]
fn weakly_hard_rescue_of_fixed_gain_design() {
    let plant = plants::pmsm();
    let t = 50e-6;
    let hset = IntervalSet::from_timing(t, 1.6 * t, 2).unwrap();
    let fixed_t = lqr::design_fixed(&plant, &hset, &pmsm_table2_weights(), t).unwrap();

    let free = stability::certify(&plant, &fixed_t, &Default::default()).unwrap();
    assert_eq!(free.verdict, StabilityVerdict::Unstable);

    let constrained =
        stability::certify_constrained(&plant, &fixed_t, &|prev, next| !(prev > 0 && next > 0), 14)
            .unwrap();
    assert_eq!(
        constrained.verdict,
        StabilityVerdict::Stable,
        "{:?}",
        constrained.bounds
    );
    // ρ_C ≤ ρ.
    assert!(constrained.bounds.lower <= free.bounds.upper + 1e-9);
    // The weakly-hard helper agrees with the predicate used.
    let wh = WeaklyHard::new(1, 2);
    assert!(wh.is_satisfied_by(&[true, false, true, false]));
    assert!(!wh.is_satisfied_by(&[true, true]));
}

/// Closed-form Lyapunov costs must dominate simulated finite-horizon costs
/// and be consistent across the mode table.
#[test]
fn closed_form_costs_consistent_with_simulation() {
    let plant = plants::pmsm();
    let hset = IntervalSet::from_timing(50e-6, 1.3 * 50e-6, 2).unwrap();
    let table = lqr::design_adaptive(&plant, &hset, &pmsm_table2_weights()).unwrap();
    let x0 = Matrix::col_vec(&[1.0, 1.0, 1.0]);

    let exact = per_mode_costs(&plant, &table, &x0).unwrap();
    assert_eq!(exact.len(), hset.len());

    let sim = ClosedLoopSim::new(&plant, &table).unwrap();
    let scenario = SimScenario::regulation(x0.clone(), 3);
    for (i, &cost) in exact.iter().enumerate() {
        // Constant-mode loop: the virtual pre-first interval is mode i too.
        let traj = sim
            .run_with_initial_mode(&scenario, &vec![i; 600], i)
            .unwrap();
        assert!(!traj.diverged);
        let rel = (cost - traj.cost).abs() / cost.max(1e-12);
        assert!(
            rel < 1e-3,
            "mode {i}: closed form {cost} vs simulated {}",
            traj.cost
        );
    }
    // Sanity versus the single-mode helper.
    let single = constant_mode_cost(&plant, table.mode(0), hset.intervals()[0], &x0).unwrap();
    assert!((single - exact[0]).abs() < 1e-9 * single.max(1.0));
}

/// Bursty (Markov) workloads stress the adaptive design harder than
/// independent overruns of the same marginal rate, but it must remain
/// stable and bounded as long as the certificate holds.
#[test]
fn bursty_workload_respects_certificate() {
    let plant = plants::unstable_second_order();
    let hset = IntervalSet::from_timing(0.010, 0.016, 5).unwrap();
    let table = pi::design_adaptive(&plant, &hset).unwrap();
    let report = stability::certify(&plant, &table, &Default::default()).unwrap();
    assert_eq!(report.verdict, StabilityVerdict::Stable);

    let sim = ClosedLoopSim::new(&plant, &table).unwrap();
    let scenario = SimScenario::step(2, Matrix::col_vec(&[1.0]));
    let bursty = ResponseTimeModel::Markov {
        min: Span::from_millis(1),
        period: Span::from_millis(10),
        max: Span::from_millis(16),
        enter_prob: 0.08,
        leave_prob: 0.3,
    };
    let report = evaluate_worst_case_with_model(
        &sim,
        &scenario,
        &bursty,
        &WorstCaseOptions {
            num_sequences: 200,
            jobs_per_sequence: 100,
            seed: 17,
            rmin_fraction: 0.05,
        },
    )
    .unwrap();
    assert!(report.all_stable());
    assert!(report.worst_cost.is_finite());
}
