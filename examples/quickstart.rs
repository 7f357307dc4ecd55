//! Quickstart: design an overrun-adaptive controller, certify its stability
//! for every admissible overrun pattern, and simulate it under sporadic
//! overruns.
//!
//! ```text
//! cargo run -p overrun-control --example quickstart
//! ```
#![allow(clippy::print_stdout)] // examples exist to print

use overrun_control::metrics::{evaluate_worst_case, WorstCaseOptions};
use overrun_control::prelude::*;
use overrun_control::sim::{ClosedLoopSim, SimScenario};
use overrun_linalg::Matrix;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The plant: an open-loop unstable second-order system.
    let plant = plants::unstable_second_order();
    println!(
        "plant: {} states, Hurwitz = {}",
        plant.state_dim(),
        plant.is_hurwitz()?
    );

    // 2. Timing: control period T = 10 ms, worst-case response time
    //    Rmax = 1.3 T, sensors oversampled at Ts = T/5.
    //    The admissible inter-release intervals are H = {10, 12, 14} ms.
    let hset = IntervalSet::from_timing(0.010, 0.013, 5)?;
    println!(
        "H = {:?} (Ts = {} ms)",
        hset.intervals().iter().map(|h| h * 1e3).collect::<Vec<_>>(),
        hset.sensor_period() * 1e3
    );

    // 3. Adaptive design: one PI mode per interval in H (paper Eq. 7).
    let table = pi::design_adaptive(&plant, &hset)?;
    println!("designed {} controller modes", table.len());

    // 4. Exact stability test: bound the joint spectral radius of the
    //    lifted closed-loop matrices {Omega(h) : h in H} (paper Sec. V).
    let report = stability::certify(&plant, &table, &Default::default())?;
    println!("JSR bounds = {}  =>  {}", report.bounds, report.verdict);

    // 5. Simulate a step response with sporadic worst-case overruns.
    let sim = ClosedLoopSim::new(&plant, &table)?;
    let scenario = SimScenario::step(plant.state_dim(), Matrix::col_vec(&[1.0]));
    let worst = evaluate_worst_case(
        &sim,
        &scenario,
        &WorstCaseOptions {
            num_sequences: 1000,
            jobs_per_sequence: 50,
            seed: 42,
            rmin_fraction: 0.05,
        },
    )?;
    println!(
        "worst-case cost over 1000 random 50-job sequences: {:.4} (mean {:.4}, {} diverged)",
        worst.worst_cost, worst.mean_cost, worst.diverged
    );
    Ok(())
}
