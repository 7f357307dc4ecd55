//! Weakly-hard rescue: a fixed-gain design that fails the
//! arbitrary-switching stability test can still be certified when the
//! platform guarantees a weakly-hard overrun contract ("no two consecutive
//! overruns") — connecting the paper's analysis to the weakly-hard model
//! it discusses in Sec. II.
//!
//! ```text
//! cargo run -p overrun-control --example weakly_hard --release
//! ```
#![allow(clippy::print_stdout)] // examples exist to print

use overrun_control::prelude::*;
use overrun_control::scenarios::pmsm_table2_weights;
use overrun_rtsim::{
    empirical_contract, ExecutionModel, Scheduler, SchedulerConfig, Span, Task, WeaklyHard,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The critical Table-II configuration: fixed-T LQR on the PMSM with
    // overruns up to 2T is certified UNSTABLE under arbitrary switching.
    let plant = plants::pmsm();
    let t = 50e-6;
    let hset = IntervalSet::from_timing(t, 1.6 * t, 2)?;
    let fixed_t = lqr::design_fixed(&plant, &hset, &pmsm_table2_weights(), t)?;

    let free = stability::certify(&plant, &fixed_t, &Default::default())?;
    println!(
        "arbitrary switching:        JSR = {} => {}",
        free.bounds, free.verdict
    );

    // Under a weakly-hard (1, 2) contract — no two consecutive overruns —
    // the admissible switching language shrinks and the same design is
    // certified stable.
    let contract = WeaklyHard::new(1, 2);
    let no_consecutive = |prev: usize, next: usize| !(prev > 0 && next > 0);
    let constrained = stability::certify_constrained(&plant, &fixed_t, &no_consecutive, 14)?;
    println!(
        "under weakly-hard {contract}:    JSR = {} => {}",
        constrained.bounds, constrained.verdict
    );

    // Does a realistic platform actually honour that contract? Simulate a
    // loaded system and extract the empirical weakly-hard behaviour.
    let tasks = vec![
        Task::new(
            "dma",
            Span::from_micros(300),
            0,
            ExecutionModel::Bimodal {
                min: Span::from_micros(10),
                max: Span::from_micros(20),
                heavy_min: Span::from_micros(55),
                heavy_max: Span::from_micros(70),
                heavy_prob: 0.08,
            },
        ),
        Task::new(
            "control",
            Span::from_micros(50),
            1,
            ExecutionModel::Uniform {
                min: Span::from_micros(15),
                max: Span::from_micros(30),
            },
        ),
    ];
    let sched = Scheduler::new(tasks)?;
    let ctl = sched.task_id("control").expect("control task");
    let sched = sched.with_adaptive_task(ctl, 2)?;
    let trace = sched.run_control_trace(&SchedulerConfig {
        horizon: Span::from_millis(50),
        seed: 4,
    })?;
    let observed = empirical_contract(&trace, 2);
    println!(
        "\nsimulated platform: {} jobs, {} overruns, empirical weakly-hard contract over K=2: {observed}",
        trace.jobs.len(),
        trace.overrun_count(),
    );
    if observed.m <= contract.m {
        println!("=> the platform honours {contract}; the constrained certificate applies.");
    } else {
        println!("=> the platform violates {contract}; fall back to the adaptive design.");
    }
    Ok(())
}
