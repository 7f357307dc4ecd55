//! Property-based tests for the control layer: discretisation laws, lifted
//! dynamics consistency, and simulator invariants.

use overrun_control::prelude::*;
use overrun_control::sim::{ClosedLoopSim, SimScenario};
use overrun_control::ControllerMode;
use overrun_linalg::{spectral_radius, Matrix};
use overrun_rtsim::{OverrunPolicy, Span};
use proptest::prelude::*;

/// Strategy: a Hurwitz-leaning 2x2 continuous plant (not necessarily
/// stable) with SISO structure.
fn siso_plant() -> impl Strategy<Value = ContinuousSs> {
    (prop::collection::vec(-5.0..5.0f64, 4)).prop_map(|v| {
        ContinuousSs::new(
            Matrix::from_vec(2, 2, v).expect("sized"),
            Matrix::col_vec(&[0.0, 1.0]),
            Matrix::row_vec(&[1.0, 0.0]),
        )
        .expect("valid dims")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// ZOH discretisation semigroup law: Φ(a+b) = Φ(b)Φ(a).
    #[test]
    fn discretisation_semigroup(plant in siso_plant(), a in 0.001..0.05f64, b in 0.001..0.05f64) {
        let da = plant.discretize(a).unwrap();
        let db = plant.discretize(b).unwrap();
        let dab = plant.discretize(a + b).unwrap();
        let compose = db.phi.matmul(&da.phi).unwrap();
        prop_assert!(compose.approx_eq(&dab.phi, 1e-9 * dab.phi.max_abs().max(1.0), 1e-9));
    }

    /// The interval set always starts at T, is strictly increasing with
    /// step Ts, and the release rule maps into it.
    #[test]
    fn interval_set_structure(ts_us in 100u64..5000, ns in 1u32..8, factor in 1.01..2.5f64) {
        // Build the period as ns · Ts so the sensor grid is always exact.
        let t = ts_us as f64 * 1e-6 * ns as f64;
        let hset = IntervalSet::from_timing(t, factor * t, ns).unwrap();
        let h = hset.intervals();
        prop_assert!((h[0] - t).abs() < 1e-12);
        for w in h.windows(2) {
            prop_assert!((w[1] - w[0] - hset.sensor_period()).abs() < 1e-9);
        }
        prop_assert!(hset.max_interval() + 1e-12 >= hset.rmax());
        // Any response in (0, Rmax] maps to a valid mode.
        for frac in [0.1, 0.5, 0.9, 1.0] {
            let mode = hset.mode_for_response(frac * hset.rmax()).unwrap();
            prop_assert!(mode < hset.len());
        }
    }

    /// The paper's release rule (Sec. IV-A) on random response times
    /// `R ≤ Rmax`: every interval `h_k = T + Δ_k` that
    /// `OverrunPolicy::apply` produces is the interval of the mode that
    /// `mode_for_response` assigns to `R_k` in the designed `H` (Eq. 3).
    #[test]
    fn release_intervals_map_into_designed_h(
        ts_us in 100u64..5000,
        ns in 1u32..8,
        factor in 1.0..3.0f64,
        fractions in prop::collection::vec(1e-6..=1.0f64, 1..40),
    ) {
        let period = Span::from_micros(ts_us * u64::from(ns));
        let t = period.as_secs_f64();
        let hset = IntervalSet::from_timing(t, factor * t, ns).unwrap();
        let rmax = Span::from_secs_f64(hset.rmax()).as_nanos();
        let responses: Vec<Span> = fractions
            .iter()
            .map(|&f| Span::from_nanos(((f * rmax as f64) as u64).clamp(1, rmax)))
            .collect();
        let trace = OverrunPolicy::new(period, ns).unwrap().apply(&responses).unwrap();
        for job in &trace.jobs {
            let mode = hset.mode_for_response(job.response.as_secs_f64()).unwrap();
            let h = job.interval.as_secs_f64();
            prop_assert_eq!(hset.intervals()[mode].to_bits(), h.to_bits(),
                "response {} gives {} but mode {}", job.response, job.interval, mode);
            prop_assert_eq!(hset.index_of(h), Some(mode));
        }
    }

    /// The lifted matrix Ω and the step-by-step simulator agree on the
    /// evolution of the plant state for arbitrary static output feedback.
    #[test]
    fn lifted_matches_simulator(plant in siso_plant(), kp in -5.0..5.0f64, ki in -2.0..2.0f64,
                                h_ms in 5u64..20) {
        let h = h_ms as f64 * 1e-3;
        let mode = pi::mode_for_gains(kp, ki, h).unwrap();
        let omega = lifted::build_omega(&plant, &mode, h, &plant.c).unwrap();
        // Simulate 8 steps both ways from x0 = [1, 0].
        let hset = IntervalSet::from_timing(h, h, 1).unwrap();
        let table = overrun_control::ControllerTable::fixed(mode.clone(), hset).unwrap();
        let sim = ClosedLoopSim::new(&plant, &table).unwrap();
        let scenario = SimScenario::regulation(Matrix::col_vec(&[1.0, 0.0]), 1);
        let traj = sim.run(&scenario, &[0; 8]).unwrap();
        prop_assume!(!traj.diverged);

        // Lifted state: [x; z̃; ũ; u] with job-0 outputs folded in.
        let e0 = Matrix::col_vec(&[-1.0]); // e = −C x0
        let (z1, u1) = mode.step(&Matrix::zeros(1, 1), &e0).unwrap();
        let mut xi = Matrix::zeros(5, 1);
        xi[(0, 0)] = 1.0;
        xi.set_block(2, 0, &z1).unwrap();
        xi.set_block(3, 0, &u1).unwrap();
        for k in 1..8usize {
            xi = omega.matmul(&xi).unwrap();
            let x_sim = &traj.states[k];
            let scale = x_sim.max_abs().max(1.0);
            prop_assert!((xi[(0, 0)] - x_sim[(0, 0)]).abs() < 1e-6 * scale,
                "state mismatch at job {k}: lifted {} vs sim {}", xi[(0, 0)], x_sim[(0, 0)]);
        }
    }

    /// Zero initial state + zero reference stays identically at rest for
    /// any controller table and any switching pattern.
    #[test]
    fn rest_is_invariant(plant in siso_plant(), seed_modes in prop::collection::vec(0usize..2, 1..30)) {
        let hset = IntervalSet::from_timing(0.01, 0.013, 2).unwrap();
        let mode = pi::mode_for_gains(1.0, 1.0, 0.01).unwrap();
        let table = overrun_control::ControllerTable::fixed(mode, hset).unwrap();
        let sim = ClosedLoopSim::new(&plant, &table).unwrap();
        let scenario = SimScenario::regulation(Matrix::zeros(2, 1), 1);
        let traj = sim.run(&scenario, &seed_modes).unwrap();
        prop_assert!(traj.cost.abs() < 1e-25);
        prop_assert!(!traj.diverged);
    }

    /// Static state-feedback modes built from any gain keep dimensional
    /// consistency through the lifted construction.
    #[test]
    fn lifted_dimensions_static_gain(k0 in -10.0..10.0f64, k1 in -10.0..10.0f64, h_ms in 1u64..50) {
        let plant = plants::double_integrator();
        let mode = ControllerMode::static_gain(Matrix::row_vec(&[k0, k1])).unwrap();
        let omega = lifted::build_omega(&plant, &mode, h_ms as f64 * 1e-3, &Matrix::identity(2)).unwrap();
        prop_assert_eq!(omega.shape(), (4, 4));
        prop_assert!(spectral_radius(&omega).unwrap().is_finite());
    }

    /// Simulation cost is monotone under sequence extension (costs only
    /// accumulate).
    #[test]
    fn cost_monotone_in_horizon(len in 2usize..40) {
        let plant = plants::unstable_second_order();
        let hset = IntervalSet::from_timing(0.01, 0.013, 2).unwrap();
        let mode = pi::mode_for_gains(80.0, 20.0, 0.01).unwrap();
        let table = overrun_control::ControllerTable::fixed(mode, hset).unwrap();
        let sim = ClosedLoopSim::new(&plant, &table).unwrap();
        let scenario = SimScenario::regulation(Matrix::col_vec(&[1.0, 0.0]), 1);
        let modes: Vec<usize> = (0..len).map(|k| k % 2).collect();
        let full = sim.run(&scenario, &modes).unwrap();
        let half = sim.run(&scenario, &modes[..len / 2]).unwrap();
        prop_assume!(!full.diverged);
        prop_assert!(full.cost >= half.cost - 1e-12);
        prop_assert!(full.cost_integral >= half.cost_integral - 1e-12);
    }
}
