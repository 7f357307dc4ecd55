//! The design grids the workloads run on: the paper's Table I (PI on an
//! unstable second-order plant, `T = 10 ms`) and Table II (LQR on the PMSM,
//! `T = 50 µs`). Each grid is `Rmax ∈ {1.1, 1.3, 1.6}·T` × `Ns ∈ {2, 5}` ×
//! three designs executed under adaptive periods: the adaptive table, and
//! the fixed gains tuned for `T` and for `Rmax`.

use std::time::Instant;

use overrun_control::lqr::{self, LqrWeights};
use overrun_control::scenarios::pmsm_table2_weights;
use overrun_control::sim::{ClosedLoopSim, SimScenario};
use overrun_control::{pi, plants, ContinuousSs, ControllerTable, IntervalSet, Result};
use overrun_linalg::Matrix;

const RMAX_FACTORS: [f64; 3] = [1.1, 1.3, 1.6];
const NS_VALUES: [u32; 2] = [2, 5];

/// Which controller family (and hence which paper table) a grid holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Table I: PI control of `plants::unstable_second_order`.
    Pi,
    /// Table II: LQR control of `plants::pmsm`.
    Lqr,
}

/// How a design point's gains were chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Design {
    /// One gain per interval `h ∈ H` (the paper's adaptive control).
    Adaptive,
    /// The gain tuned for the nominal period `T`, used for every interval.
    FixedT,
    /// The gain tuned for `Rmax`, used for every interval.
    FixedRmax,
}

/// One controller table of a grid, ready to certify and to simulate.
pub struct DesignPoint {
    /// `Rmax / T`.
    pub rmax_factor: f64,
    /// Sensor oversampling factor (`Ts = T / Ns`).
    pub ns: u32,
    /// How the gains were chosen.
    pub design: Design,
    /// The controlled plant.
    pub plant: ContinuousSs,
    /// The per-interval controller table.
    pub table: ControllerTable,
    /// Simulator with every interval's discretisation precomputed.
    pub sim: ClosedLoopSim,
    /// Initial state and reference of the simulated runs.
    pub scenario: SimScenario,
}

impl DesignPoint {
    /// A short label such as `lqr r1.6 ns2 fixed-t`.
    pub fn label(&self, family: Family) -> String {
        let family = match family {
            Family::Pi => "pi",
            Family::Lqr => "lqr",
        };
        let design = match self.design {
            Design::Adaptive => "adaptive",
            Design::FixedT => "fixed-t",
            Design::FixedRmax => "fixed-rmax",
        };
        format!("{family} r{} ns{} {design}", self.rmax_factor, self.ns)
    }
}

/// Designs every table of the family's grid and builds its simulators.
/// Returns the grid and the wall time spent in controller synthesis alone.
///
/// # Errors
///
/// Propagates design and discretisation failures.
pub fn build(family: Family) -> Result<(Vec<DesignPoint>, f64)> {
    let (plant, t, scenario) = match family {
        Family::Pi => (
            plants::unstable_second_order(),
            0.010,
            SimScenario::step(2, Matrix::col_vec(&[1.0])),
        ),
        Family::Lqr => (
            plants::pmsm(),
            50e-6,
            SimScenario::regulation(Matrix::col_vec(&[1.0, 1.0, 1.0]), 3),
        ),
    };
    let weights = pmsm_table2_weights();
    let mut points = Vec::with_capacity(RMAX_FACTORS.len() * NS_VALUES.len() * 3);
    let mut synthesis_s = 0.0;
    for rmax_factor in RMAX_FACTORS {
        for ns in NS_VALUES {
            let rmax = rmax_factor * t;
            let hset = IntervalSet::from_timing(t, rmax, ns)?;
            for design in [Design::Adaptive, Design::FixedT, Design::FixedRmax] {
                let started = Instant::now();
                let table = synthesize(family, &plant, &hset, &weights, design, t, rmax)?;
                synthesis_s += started.elapsed().as_secs_f64();
                let sim = ClosedLoopSim::new(&plant, &table)?;
                points.push(DesignPoint {
                    rmax_factor,
                    ns,
                    design,
                    plant: plant.clone(),
                    table,
                    sim,
                    scenario: scenario.clone(),
                });
            }
        }
    }
    Ok((points, synthesis_s))
}

fn synthesize(
    family: Family,
    plant: &ContinuousSs,
    hset: &IntervalSet,
    weights: &LqrWeights,
    design: Design,
    t: f64,
    rmax: f64,
) -> Result<ControllerTable> {
    match (family, design) {
        (Family::Pi, Design::Adaptive) => pi::design_adaptive(plant, hset),
        (Family::Pi, Design::FixedT) => pi::design_fixed(plant, hset, t),
        (Family::Pi, Design::FixedRmax) => pi::design_fixed(plant, hset, rmax),
        (Family::Lqr, Design::Adaptive) => lqr::design_adaptive(plant, hset, weights),
        (Family::Lqr, Design::FixedT) => lqr::design_fixed(plant, hset, weights, t),
        (Family::Lqr, Design::FixedRmax) => lqr::design_fixed(plant, hset, weights, rmax),
    }
}
