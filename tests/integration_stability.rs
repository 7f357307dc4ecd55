//! Cross-crate integration tests for the stability pipeline: design →
//! lifted dynamics → JSR certificate → simulation agreement, plus the
//! certify-vs-Eq. 12 oracle on a randomized grid of small stable and
//! unstable plants.

use std::sync::Mutex;

use overrun_control::metrics::{evaluate_worst_case, WorstCaseOptions};
use overrun_control::prelude::*;
use overrun_control::sim::{ClosedLoopSim, SimScenario};
use overrun_control::stability::{CertifyOptions, StabilityReport};
use overrun_control::ControllerMode;
use overrun_jsr::StabilityVerdict;
use overrun_linalg::{spectral_radius, Matrix};
use overrun_par::{derive_seed, set_thread_override};

/// The thread override is process-global; every test that touches it holds
/// this lock and restores the default before releasing it (same idiom as
/// `tests/par_determinism.rs`).
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// A certificate of stability must be backed by bounded simulations, and a
/// certificate of instability by a diverging switching sequence.
#[test]
fn certificate_agrees_with_simulation_pi() {
    let plant = plants::unstable_second_order();
    let hset = IntervalSet::from_timing(0.010, 0.013, 5).unwrap();
    let table = pi::design_adaptive(&plant, &hset).unwrap();

    let report = stability::certify(&plant, &table, &CertifyOptions::default()).unwrap();
    assert_eq!(
        report.verdict,
        StabilityVerdict::Stable,
        "{:?}",
        report.bounds
    );

    // Every random switching pattern must then stay bounded.
    let sim = ClosedLoopSim::new(&plant, &table).unwrap();
    let scenario = SimScenario::regulation(Matrix::col_vec(&[1.0, 0.0]), 1);
    let worst = evaluate_worst_case(
        &sim,
        &scenario,
        &WorstCaseOptions {
            num_sequences: 300,
            jobs_per_sequence: 200,
            seed: 5,
            rmin_fraction: 0.05,
        },
    )
    .unwrap();
    assert!(worst.all_stable());
    assert!(worst.worst_cost.is_finite());

    // The certificate covers clustered overruns too: on the 1.6T set,
    // bursts of the longest interval of 1, 2, 4, …, 64 jobs (one nominal
    // job between bursts), and the longest interval alone, stay bounded.
    let hset = IntervalSet::from_timing(0.010, 0.016, 5).unwrap();
    let table = pi::design_adaptive(&plant, &hset).unwrap();
    let report = stability::certify(&plant, &table, &CertifyOptions::default()).unwrap();
    assert_eq!(
        report.verdict,
        StabilityVerdict::Stable,
        "{:?}",
        report.bounds
    );
    let sim = ClosedLoopSim::new(&plant, &table).unwrap();
    let scenario = SimScenario::step(2, Matrix::col_vec(&[1.0]));
    let longest = hset.len() - 1;
    let bursts = (0..=6).map(|p| {
        let burst = 1 << p;
        (0..100)
            .map(|k| if k % (burst + 1) < burst { longest } else { 0 })
            .collect::<Vec<usize>>()
    });
    for modes in bursts.chain([vec![longest; 100]]) {
        let run = sim.run_cost(&scenario, &modes).unwrap();
        assert!(!run.diverged, "diverged on {modes:?}");
        assert!(run.cost.is_finite(), "cost {} on {modes:?}", run.cost);
    }
}

#[test]
fn unstable_certificate_matches_divergence() {
    let plant = plants::unstable_second_order();
    let hset = IntervalSet::from_timing(0.010, 0.010, 2).unwrap();
    // No control at all on an unstable plant.
    let zero = ControllerMode::static_gain(Matrix::zeros(1, 1)).unwrap();
    let table = overrun_control::ControllerTable::fixed(zero, hset).unwrap();
    let report = stability::certify(&plant, &table, &CertifyOptions::default()).unwrap();
    assert_eq!(report.verdict, StabilityVerdict::Unstable);

    let sim = ClosedLoopSim::new(&plant, &table)
        .unwrap()
        .with_divergence_threshold(1e6);
    let scenario = SimScenario::regulation(Matrix::col_vec(&[1.0, 0.0]), 1);
    let traj = sim.run(&scenario, &vec![0; 5000]).unwrap();
    assert!(traj.diverged);
}

/// Every per-mode closed loop of an adaptive design must be stable at its
/// own interval, and the JSR lower bound can never undercut the largest
/// per-mode spectral radius.
#[test]
fn jsr_lower_bound_dominates_mode_radii() {
    let plant = plants::pmsm();
    let hset = IntervalSet::from_timing(50e-6, 1.3 * 50e-6, 2).unwrap();
    let weights = overrun_control::scenarios::pmsm_table2_weights();
    let table = lqr::design_adaptive(&plant, &hset, &weights).unwrap();
    let meas = lifted::measurement_matrix(&plant, &table).unwrap();
    let omegas = lifted::build_omega_set(&plant, &table, &meas).unwrap();
    let max_mode_rho = omegas
        .iter()
        .map(|o| spectral_radius(o).unwrap())
        .fold(0.0_f64, f64::max);
    assert!(max_mode_rho < 1.0);

    let report = stability::certify(&plant, &table, &CertifyOptions::default()).unwrap();
    assert!(report.bounds.lower >= max_mode_rho - 1e-6);
    assert!(report.bounds.upper >= report.bounds.lower - 1e-12);
    assert_eq!(report.verdict, StabilityVerdict::Stable);
}

/// The Eq.-12 brute-force bounds and the production certificate must agree
/// (their intervals both contain the true JSR).
#[test]
fn eq12_and_certificate_intervals_overlap() {
    let plant = plants::unstable_second_order();
    let hset = IntervalSet::from_timing(0.010, 0.016, 2).unwrap();
    let table = pi::design_adaptive(&plant, &hset).unwrap();
    let cert = stability::certify(&plant, &table, &CertifyOptions::default())
        .unwrap()
        .bounds;
    let eq12 = stability::eq12_bounds(&plant, &table, 7).unwrap();
    assert!(
        cert.lower <= eq12.upper + 1e-9,
        "cert={cert:?} eq12={eq12:?}"
    );
    assert!(
        eq12.lower <= cert.upper + 1e-9,
        "cert={cert:?} eq12={eq12:?}"
    );
}

/// Ns = 1 reduces the policy to skip-next; the design and certificate must
/// still go through (coarser grid, possibly larger delays).
#[test]
fn skip_next_special_case_certifies() {
    let plant = plants::unstable_second_order();
    // Rmax = 1.3 T with Ns = 1: H = {T, 2T}.
    let hset = IntervalSet::from_timing(0.010, 0.013, 1).unwrap();
    assert_eq!(hset.len(), 2);
    assert!((hset.max_interval() - 0.020).abs() < 1e-12);
    let table = pi::design_adaptive(&plant, &hset).unwrap();
    let report = stability::certify(&plant, &table, &CertifyOptions::default()).unwrap();
    // The coarse grid shrinks the margin; accept stable-or-unknown, but the
    // bounds must be meaningful.
    assert!(report.bounds.lower > 0.5);
    assert!(report.bounds.upper < 1.2);
}

/// The deployment rule (Sec. V-B): shrinking the actual worst case keeps
/// the certified table valid; growing it invalidates the subset check.
#[test]
fn deployment_subset_rule_end_to_end() {
    let designed = IntervalSet::from_timing(0.010, 0.016, 5).unwrap();
    let smaller = IntervalSet::from_timing(0.010, 0.012, 5).unwrap();
    let bigger = IntervalSet::from_timing(0.010, 0.018, 5).unwrap();
    assert!(smaller.is_subset_of(&designed));
    assert!(!bigger.is_subset_of(&designed));
}

/// A deterministic pseudo-random draw in `[0, 1)` from the workspace's
/// SplitMix-style seed derivation — no RNG dependency needed.
fn rand_unit(seed: u64, index: u64) -> f64 {
    (derive_seed(seed, index) >> 11) as f64 / (1u64 << 53) as f64
}

/// A random controllable second-order SISO plant in companion form.
/// `a21` spans both signs, so the draw mixes open-loop stable and
/// unstable dynamics.
fn random_companion_plant(seed: u64) -> ContinuousSs {
    let a21 = -60.0 + 120.0 * rand_unit(seed, 0);
    let a22 = -6.0 + 8.0 * rand_unit(seed, 1);
    ContinuousSs::new(
        Matrix::from_rows(&[&[0.0, 1.0], &[a21, a22]]).unwrap(),
        Matrix::col_vec(&[0.0, 1.0]),
        Matrix::row_vec(&[1.0, 0.0]),
    )
    .unwrap()
}

/// One certification problem of the grid.
struct Scenario {
    label: String,
    plant: ContinuousSs,
    table: ControllerTable,
}

/// A reduced Gripenberg budget keeps the oracle fast; each comparison only
/// needs both sides to run the *same* budget.
fn budget() -> CertifyOptions {
    CertifyOptions {
        delta: 1e-4,
        max_depth: 6,
        max_products: 50_000,
        max_power: 3,
    }
}

/// A hand-built 2-state lead–lag on `hset`, one mode per interval: a
/// leaky integrator `z₁` of the error over `h`, a low-pass `z₂` whose
/// difference from the error is the lead term, and
/// `u = (kp + kd)·e + ki·z₁ − kd·z₂`. A general `(Ac, Bc, Cc, Dc)` with
/// `s = 2`, neither PI nor the delayed LQR.
fn lead_lag(hset: &IntervalSet) -> ControllerTable {
    let (ki, kd, kp) = (200.0, 60.0, 120.0);
    let modes = hset.intervals().iter().map(|&h| {
        let m = |rows: &[&[f64]]| Matrix::from_rows(rows).unwrap();
        ControllerMode::new(
            m(&[&[0.98, 0.0], &[0.0, 0.5]]),
            m(&[&[h], &[0.5]]),
            m(&[&[ki, -kd]]),
            m(&[&[kp + kd]]),
        )
        .unwrap()
    });
    ControllerTable::new(modes.collect(), hset.clone()).unwrap()
}

/// The randomized differential grid: two named plants plus two seeded
/// random draws at `T = 10 ms`, `Rmax = 1.3 T`, `Ts = T/2`, each under the
/// adaptive PI design and under a zero static gain (open loop — certified
/// unstable whenever the plant is), and the unstable second-order plant
/// under a hand-built lead–lag.
fn differential_grid() -> Vec<Scenario> {
    let master = 0x5eed_2021_u64;
    let plants = [
        ("uso", plants::unstable_second_order()),
        ("dint", plants::double_integrator()),
        ("rand0", random_companion_plant(derive_seed(master, 0))),
        ("rand1", random_companion_plant(derive_seed(master, 1))),
    ];
    let hset = IntervalSet::from_timing(0.010, 0.013, 2).unwrap();
    let zero_gain = ControllerMode::static_gain(Matrix::zeros(1, 1)).unwrap();
    let mut grid = vec![Scenario {
        label: "uso lead-lag".into(),
        plant: plants::unstable_second_order(),
        table: lead_lag(&hset),
    }];
    for (name, plant) in plants {
        // Random plants may admit no stabilising PI design — those draws
        // are simply not certifiable problems, so the grid drops them. The
        // zero gain always designs, so at least half the grid survives.
        if let Ok(table) = pi::design_adaptive(&plant, &hset) {
            grid.push(Scenario {
                label: format!("{name} pi-adaptive"),
                plant: plant.clone(),
                table,
            });
        }
        grid.push(Scenario {
            label: format!("{name} zero-gain"),
            table: ControllerTable::fixed(zero_gain.clone(), hset.clone()).unwrap(),
            plant,
        });
    }
    assert!(
        grid.len() >= 7,
        "expected most of the grid to design, got {}",
        grid.len()
    );
    grid
}

/// The Eq.-12 brute-force enumeration and the Gripenberg certificate are
/// independent bound computations on the same lifted set; both intervals
/// contain the true JSR, so they must overlap on every scenario of the
/// randomized grid. (Neither interval need *contain* the other: the
/// brute-force lower bound at a fixed depth can exceed Gripenberg's, and
/// vice versa for the uppers.)
#[test]
fn bruteforce_interval_is_consistent_with_gripenberg() {
    for s in differential_grid() {
        let g = stability::certify(&s.plant, &s.table, &budget())
            .expect("certify")
            .bounds;
        let bf = stability::eq12_bounds(&s.plant, &s.table, 4).expect("eq12 bounds");
        assert!(bf.lower <= bf.upper + 1e-9, "{}: bf={bf:?}", s.label);
        assert!(
            g.lower <= bf.upper + 1e-9,
            "{}: gripenberg lower above bruteforce upper — g={g:?} bf={bf:?}",
            s.label
        );
        assert!(
            bf.lower <= g.upper + 1e-9,
            "{}: bruteforce lower above gripenberg upper — g={g:?} bf={bf:?}",
            s.label
        );
    }
}

/// `certify` on the randomized grid — stable designs and open-loop
/// unstable ones alike — returns the same verdict and bit-identical
/// bounds at 1 and 4 workers. (Screening counters legitimately differ
/// across worker counts, so only the contract is compared.)
#[test]
fn certify_bit_identical_across_threads_on_random_grid() {
    let grid = differential_grid();
    let at_threads = |threads| -> Vec<StabilityReport> {
        set_thread_override(Some(threads));
        grid.iter()
            .map(|s| {
                stability::certify(&s.plant, &s.table, &budget())
                    .unwrap_or_else(|e| panic!("{}: {e}", s.label))
            })
            .collect()
    };
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let serial = at_threads(1);
    let wide = at_threads(4);
    set_thread_override(None);

    // The grid genuinely mixes outcomes, so both verdicts are compared.
    assert!(
        serial.iter().any(|r| r.verdict == StabilityVerdict::Stable),
        "grid has no certified-stable scenario"
    );
    assert!(
        serial
            .iter()
            .any(|r| r.verdict == StabilityVerdict::Unstable),
        "grid has no certified-unstable scenario"
    );
    for ((s, one), four) in grid.iter().zip(&serial).zip(&wide) {
        assert_eq!(one.verdict, four.verdict, "{}: verdict", s.label);
        assert_eq!(
            one.bounds.lower.to_bits(),
            four.bounds.lower.to_bits(),
            "{}: lower bound bits",
            s.label
        );
        assert_eq!(
            one.bounds.upper.to_bits(),
            four.bounds.upper.to_bits(),
            "{}: upper bound bits",
            s.label
        );
    }
}
