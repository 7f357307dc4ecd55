//! The paper's second case study: an adaptive LQR for a permanent-magnet
//! synchronous motor sampled at 50 µs, compared against the fixed-gain
//! baseline that loses stability under large overruns.
//!
//! ```text
//! cargo run -p overrun-control --example pmsm_lqr --release
//! ```
#![allow(clippy::print_stdout)] // examples exist to print

use overrun_control::lqr;
use overrun_control::prelude::*;
use overrun_control::scenarios::pmsm_table2_weights;
use overrun_control::sim::{ClosedLoopSim, SimScenario};
use overrun_linalg::Matrix;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let plant = plants::pmsm();
    let t = 50e-6;
    let weights = pmsm_table2_weights();

    // The critical configuration of Table II: Rmax = 1.6 T, Ts = T/2.
    let hset = IntervalSet::from_timing(t, 1.6 * t, 2)?;
    println!(
        "H = {:?} us",
        hset.intervals().iter().map(|h| h * 1e6).collect::<Vec<_>>()
    );

    let adaptive = lqr::design_adaptive(&plant, &hset, &weights)?;
    let fixed_t = lqr::design_fixed(&plant, &hset, &weights, t)?;

    // Certify both: the adaptive table tolerates every overrun pattern,
    // the fixed-T gain provably does not.
    let rep_adaptive = stability::certify(&plant, &adaptive, &Default::default())?;
    let rep_fixed = stability::certify(&plant, &fixed_t, &Default::default())?;
    println!(
        "adaptive design: JSR = {} => {}",
        rep_adaptive.bounds, rep_adaptive.verdict
    );
    println!(
        "fixed-T design:  JSR = {} => {}",
        rep_fixed.bounds, rep_fixed.verdict
    );

    // Demonstrate the difference on the worst constant pattern: every job
    // overruns to the maximum interval 2T.
    let scenario = SimScenario::regulation(Matrix::col_vec(&[1.0, 1.0, 1.0]), 3);
    let worst_modes = vec![hset.len() - 1; 200];
    let sim_a = ClosedLoopSim::new(&plant, &adaptive)?;
    let sim_f = ClosedLoopSim::new(&plant, &fixed_t)?;
    let traj_a = sim_a.run(&scenario, &worst_modes)?;
    let traj_f = sim_f.run(&scenario, &worst_modes)?;
    println!(
        "\n200 jobs at the maximum interval (h = {:.0} us):",
        hset.max_interval() * 1e6
    );
    println!(
        "  adaptive: diverged = {}, final |x| = {:.3e}",
        traj_a.diverged,
        traj_a.states.last().map_or(f64::NAN, |x| x.max_abs())
    );
    println!(
        "  fixed-T:  diverged = {}, final |x| = {:.3e}",
        traj_f.diverged,
        traj_f.states.last().map_or(f64::INFINITY, |x| x.max_abs())
    );

    // And the graceful case: sporadic overruns only.
    let sporadic: Vec<usize> = (0..200).map(|k| if k % 10 == 0 { 2 } else { 0 }).collect();
    let traj_s = sim_a.run(&scenario, &sporadic)?;
    println!(
        "\nadaptive under 10% sporadic overruns: cost = {:.6} (nominal {:.6})",
        traj_s.cost_integral,
        sim_a.run(&scenario, &vec![0; 200])?.cost_integral
    );
    Ok(())
}
