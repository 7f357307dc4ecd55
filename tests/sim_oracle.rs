//! Differential oracle for the closed-loop simulator.
//!
//! The reference below is a hand recursion of the paper's computational
//! model built only from the allocating [`DiscreteSs::step`] and
//! [`ControllerMode::step`]: plant and controller stepped separately, the
//! error formed from the measurement each job, the command applied one
//! interval late. It shares no code with [`ClosedLoopSim`], which steps
//! the lifted `ξ ← Ω(h)ξ + b(h)` instead. Both must agree on the costs to
//! 1e-12 relative, on the divergence flag and on the number of recorded
//! jobs, over random mode sequences, step and regulation scenarios, and
//! both ends of the interval set as the virtual job's mode.

use overrun_control::lqr::LqrWeights;
use overrun_control::metrics::random_mode_sequence;
use overrun_control::prelude::*;
use overrun_control::scenarios::pmsm_table2_weights;
use overrun_control::sim::{ClosedLoopSim, SimScenario};
use overrun_control::DiscreteSs;
use overrun_linalg::Matrix;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Divergence threshold of the simulator's default.
const THRESHOLD: f64 = 1e9;

/// What the reference recursion reports for one sequence.
struct Reference {
    cost: f64,
    cost_integral: f64,
    diverged: bool,
    jobs: usize,
}

/// The paper's loop, job by job: `e[k] = r − C_m x[k]`, the controller of
/// the previous interval's mode computes `(z[k+1], u[k+1])`, and the plant
/// advances over `h_k` under the command computed one job earlier.
fn reference(
    plant: &ContinuousSs,
    table: &ControllerTable,
    scenario: &SimScenario,
    modes: &[usize],
    initial_mode: usize,
    threshold: f64,
) -> Reference {
    let measurement = if table.error_dim() == plant.output_dim() {
        plant.c.clone()
    } else {
        Matrix::identity(plant.state_dim())
    };
    let intervals = table.hset().intervals();
    let plants: Vec<DiscreteSs> = intervals
        .iter()
        .map(|&h| plant.discretize(h).unwrap())
        .collect();
    let mut x = scenario.x0.clone();
    let mut z = Matrix::zeros(table.state_dim(), 1);
    let mut u_applied = Matrix::zeros(plant.input_dim(), 1);
    let mut prev = initial_mode;
    let mut out = Reference {
        cost: 0.0,
        cost_integral: 0.0,
        diverged: false,
        jobs: 0,
    };
    for &m in modes {
        let e = scenario
            .reference
            .sub_mat(&measurement.matmul(&x).unwrap())
            .unwrap();
        let (z_next, u_next) = table.mode(prev).step(&z, &e).unwrap();
        let e_sq: f64 = e.as_slice().iter().map(|v| v * v).sum();
        out.cost += e_sq;
        out.cost_integral += e_sq * intervals[m];
        out.jobs += 1;
        let x_next = plants[m].step(&x, &u_applied).unwrap();
        u_applied = u_next;
        z = z_next;
        prev = m;
        if !x_next.is_finite() || x_next.max_abs() > threshold {
            out.diverged = true;
            out.cost = f64::INFINITY;
            out.cost_integral = f64::INFINITY;
            break;
        }
        x = x_next;
    }
    out
}

/// `a` and `b` agree to 1e-12 relative (or are the same infinity).
fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= 1e-12 * a.abs().max(b.abs())
}

/// Checks the simulator against the reference on 20 random 50-job
/// sequences per scenario and virtual-job mode (`0` and the last).
/// Returns how many of the runs diverged.
fn check(
    label: &str,
    plant: &ContinuousSs,
    table: &ControllerTable,
    scenarios: &[SimScenario],
    threshold: f64,
) -> usize {
    let sim = ClosedLoopSim::new(plant, table)
        .unwrap()
        .with_divergence_threshold(threshold);
    let hset = table.hset();
    let mut rng = SmallRng::seed_from_u64(2021);
    let mut diverged = 0;
    for (sc, scenario) in scenarios.iter().enumerate() {
        for initial_mode in [0, hset.len() - 1] {
            for seq in 0..20 {
                let modes = random_mode_sequence(hset, 50, &mut rng, 0.05).unwrap();
                let want = reference(plant, table, scenario, &modes, initial_mode, threshold);
                let got = sim
                    .run_cost_with_initial_mode(scenario, &modes, initial_mode)
                    .unwrap();
                let traj = sim
                    .run_with_initial_mode(scenario, &modes, initial_mode)
                    .unwrap();
                let at = format!("{label}: scenario {sc}, initial mode {initial_mode}, seq {seq}");
                assert!(
                    close(got.cost, want.cost),
                    "{at}: cost {} vs {}",
                    got.cost,
                    want.cost
                );
                assert!(
                    close(got.cost_integral, want.cost_integral),
                    "{at}: cost_integral {} vs {}",
                    got.cost_integral,
                    want.cost_integral
                );
                assert_eq!(got.diverged, want.diverged, "{at}: diverged");
                assert_eq!(traj.diverged, want.diverged, "{at}: run diverged");
                assert_eq!(traj.cost.to_bits(), got.cost.to_bits(), "{at}: run cost");
                assert_eq!(traj.states.len(), want.jobs, "{at}: recorded jobs");
                assert_eq!(traj.errors.len(), want.jobs, "{at}: recorded errors");
                assert_eq!(traj.commands.len(), want.jobs, "{at}: recorded commands");
                diverged += usize::from(want.diverged);
            }
        }
    }
    diverged
}

/// A step on the first error component and a regulation from `x0`.
fn scenarios(plant: &ContinuousSs, table: &ControllerTable, x0: &[f64]) -> Vec<SimScenario> {
    let p = table.error_dim();
    let mut step = vec![0.0; p];
    step[0] = 1.0;
    vec![
        SimScenario::step(plant.state_dim(), Matrix::col_vec(&step)),
        SimScenario::regulation(Matrix::col_vec(x0), p),
    ]
}

/// The Table-I loop: adaptive and fixed PI on the unstable second-order
/// plant (`D = 5`).
#[test]
fn pi_unstable_second_order() {
    let plant = plants::unstable_second_order();
    let t = 0.010;
    let hset = IntervalSet::from_timing(t, 1.6 * t, 5).unwrap();
    for (label, table) in [
        ("pi adaptive", pi::design_adaptive(&plant, &hset).unwrap()),
        ("pi fixed-T", pi::design_fixed(&plant, &hset, t).unwrap()),
    ] {
        let sc = scenarios(&plant, &table, &[1.0, -0.5]);
        check(label, &plant, &table, &sc, THRESHOLD);
    }
}

/// PI step tracking over `#H = 11` intervals (`Rmax = 3 T`, `Ns = 5`):
/// more than the simulator keeps offsets for on the stack, so it runs the
/// runtime-dimension arm with the offsets on the heap.
#[test]
fn pi_tracking_beyond_stack_offsets() {
    let plant = plants::unstable_second_order();
    let t = 0.010;
    let hset = IntervalSet::from_timing(t, 3.0 * t, 5).unwrap();
    assert_eq!(hset.len(), 11);
    let table = pi::design_adaptive(&plant, &hset).unwrap();
    let sc = scenarios(&plant, &table, &[1.0, -0.5]);
    let diverged = check("pi adaptive, 11 intervals", &plant, &table, &sc, THRESHOLD);
    assert_eq!(diverged, 0, "the adaptive design stays bounded");
}

/// The Table-II loop: adaptive and fixed-`T` LQR on the PMSM (`D = 9`,
/// simulated on 7 once `ũ` is merged into `z̃`), at the `Rmax = 1.6 T,
/// Ts = T/2` cell whose fixed-`T` design is unstable.
#[test]
fn lqr_pmsm() {
    let plant = plants::pmsm();
    let t = 50e-6;
    let hset = IntervalSet::from_timing(t, 1.6 * t, 2).unwrap();
    let w = pmsm_table2_weights();
    for (label, table) in [
        (
            "lqr adaptive",
            lqr::design_adaptive(&plant, &hset, &w).unwrap(),
        ),
        (
            "lqr fixed-T",
            lqr::design_fixed(&plant, &hset, &w, t).unwrap(),
        ),
    ] {
        let sc = scenarios(&plant, &table, &[1.0, 1.0, 1.0]);
        check(label, &plant, &table, &sc, THRESHOLD);
    }
}

/// LQR on the small plants of the zoo (`D = 5` and `D = 7`, simulated on
/// 4 and 6).
#[test]
fn lqr_small_plants() {
    let cases = [
        ("dc_motor", plants::dc_motor(), 0.01, vec![1.0, 0.5]),
        (
            "double_integrator",
            plants::double_integrator(),
            0.01,
            vec![1.0, 0.0],
        ),
        (
            "inverted_pendulum",
            plants::inverted_pendulum(),
            0.005,
            vec![0.1, 0.0, 0.05, 0.0],
        ),
    ];
    for (label, plant, t, x0) in cases {
        let hset = IntervalSet::from_timing(t, 1.3 * t, 5).unwrap();
        let w = LqrWeights::identity(plant.state_dim(), plant.input_dim(), 0.1);
        let table = lqr::design_adaptive(&plant, &hset, &w).unwrap();
        let sc = scenarios(&plant, &table, &x0);
        check(label, &plant, &table, &sc, THRESHOLD);
    }
}

/// A hand-built 3-state dynamic output feedback on the PMSM, one mode per
/// interval, no two alike: a general `(Ac, Bc, Cc, Dc)` with `s = 3`,
/// neither PI (`s = 1`, `Ac = I`) nor the delayed LQR (`Ac = Cc`,
/// `Bc = Dc`), lifted to `D = 3 + 3 + 2·2 = 10` with no row to merge.
#[test]
fn output_feedback_pmsm() {
    let plant = plants::pmsm();
    let t = 50e-6;
    let hset = IntervalSet::from_timing(t, 1.3 * t, 2).unwrap();
    let mode = |g: f64| {
        let m = |rows: &[&[f64]]| Matrix::from_rows(rows).unwrap();
        ControllerMode::new(
            m(&[&[0.6, 0.1, 0.0], &[0.0, 0.5 * g, 0.1], &[0.05, 0.0, 0.4]]),
            m(&[&[0.3, 0.0, 0.0], &[0.0, 0.4, 0.02], &[0.0, 0.1 * g, 0.3]]),
            m(&[&[0.5, 0.1, 0.0], &[0.0, 0.6 * g, 0.2]]),
            m(&[&[1.0, 0.0, 0.0], &[0.0, 1.2 * g, 0.01]]),
        )
        .unwrap()
    };
    let modes = (0..hset.len()).map(|i| mode(1.0 - 0.2 * i as f64));
    let table = ControllerTable::new(modes.collect(), hset).unwrap();
    let sc = scenarios(&plant, &table, &[1.0, -1.0, 0.5]);
    let diverged = check("output feedback pmsm", &plant, &table, &sc, THRESHOLD);
    assert_eq!(diverged, 0, "the output feedback stays bounded");
}

/// Two decoupled copies of `plant` (block-diagonal `A`, `B` and `C`).
fn pair(plant: &ContinuousSs) -> ContinuousSs {
    let block = |m: &Matrix| {
        let mut out = Matrix::zeros(2 * m.rows(), 2 * m.cols());
        out.set_block(0, 0, m).unwrap();
        out.set_block(m.rows(), m.cols(), m).unwrap();
        out
    };
    ContinuousSs::new(block(&plant.a), block(&plant.b), block(&plant.c)).unwrap()
}

/// Two decoupled inverted pendulums under one LQR: `n + s + 2r = 14`,
/// simulated on 12 once `ũ` is merged into `z̃` — the largest
/// fixed-dimension kernel.
#[test]
fn lqr_pendulum_pair() {
    let plant = pair(&plants::inverted_pendulum());
    let t = 0.005;
    let hset = IntervalSet::from_timing(t, 1.3 * t, 5).unwrap();
    let w = LqrWeights::identity(8, 2, 0.1);
    let table = lqr::design_adaptive(&plant, &hset, &w).unwrap();
    let x0 = [0.1, 0.0, 0.05, 0.0, -0.1, 0.0, 0.02, 0.0];
    let sc = scenarios(&plant, &table, &x0);
    check("lqr 2x pendulum", &plant, &table, &sc, THRESHOLD);
}

/// Two decoupled PMSMs under one LQR: `n + s + 2r = 6 + 4 + 2·4 = 18`,
/// simulated on 14 once `ũ` is merged into `z̃`, above every
/// fixed-dimension kernel (the simulator's unit tests assert the
/// dimension).
#[test]
fn lqr_block_diagonal_beyond_fixed_kernels() {
    let plant = pair(&plants::pmsm());
    let t = 50e-6;
    let hset = IntervalSet::from_timing(t, 1.6 * t, 2).unwrap();
    let w = LqrWeights::identity(6, 4, 3e-3);
    let table = lqr::design_adaptive(&plant, &hset, &w).unwrap();
    let sc = scenarios(&plant, &table, &[1.0, 1.0, 1.0, -1.0, 0.5, 0.0]);
    check("lqr 2x pmsm", &plant, &table, &sc, THRESHOLD);
}

/// An open-loop unstable plant under a zero gain diverges: both sides must
/// stop at the same job and report infinite costs.
#[test]
fn divergence_stops_at_the_same_job() {
    let plant = plants::unstable_second_order();
    let hset = IntervalSet::from_timing(0.010, 0.016, 5).unwrap();
    let zero = ControllerMode::static_gain(Matrix::zeros(1, 1)).unwrap();
    let table = ControllerTable::fixed(zero, hset).unwrap();
    let sc = scenarios(&plant, &table, &[1.0, 0.0]);
    // A threshold the 50-job runs cross part-way through.
    let diverged = check("zero gain", &plant, &table, &sc[1..], 20.0);
    assert!(diverged > 0, "no run crossed the threshold");
}
