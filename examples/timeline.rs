//! Timeline example (paper Figure 1): run a control task on a loaded
//! fixed-priority platform with the overrun-adaptive release policy and
//! render what happens when jobs overrun.
//!
//! ```text
//! cargo run -p overrun-control --example timeline
//! ```
#![allow(clippy::print_stdout)] // examples exist to print

use overrun_rtsim::{
    render_timeline, response_time_analysis, utilization, ExecutionModel, OverrunPolicy, Scheduler,
    SchedulerConfig, Span, Task, TimelineOptions,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A platform with an interrupt burst task and a control task whose
    // worst case exceeds its period — the paper's motivating scenario.
    let tasks = vec![
        Task::new(
            "irq_burst",
            Span::from_millis(40),
            0,
            ExecutionModel::Bimodal {
                min: Span::from_millis(1),
                max: Span::from_millis(2),
                heavy_min: Span::from_millis(7),
                heavy_max: Span::from_millis(9),
                heavy_prob: 0.25,
            },
        ),
        Task::new(
            "control",
            Span::from_millis(10),
            1,
            ExecutionModel::Uniform {
                min: Span::from_millis(3),
                max: Span::from_millis(5),
            },
        ),
    ];
    println!("utilisation (worst case): {:.2}", utilization(&tasks));
    let wcrt = response_time_analysis(&tasks)?;
    for (t, r) in tasks.iter().zip(&wcrt) {
        println!("  {:<9} T = {:>5}  WCRT = {}", t.name, t.period, r);
    }

    let sched = Scheduler::new(tasks)?;
    let ctl = sched.task_id("control").expect("control task exists");
    let sched = sched.with_adaptive_task(ctl, 5)?; // Ts = T/5 = 2 ms

    let trace = sched.run_control_trace(&SchedulerConfig {
        horizon: Span::from_millis(200),
        seed: 14,
    })?;
    trace.check_invariants()?;
    println!(
        "\n{} control jobs, {} overruns\n",
        trace.jobs.len(),
        trace.overrun_count()
    );
    let art = render_timeline(
        &trace,
        &TimelineOptions {
            cols_per_sensor_tick: 2,
            max_jobs: 14,
        },
    )?;
    println!("{art}");

    // The deployment check of paper Sec. V-B: the observed worst case must
    // be covered by the designed interval set.
    let policy = OverrunPolicy::new(Span::from_millis(10), 5)?;
    let designed_rmax = wcrt[1];
    let observed = trace
        .jobs
        .iter()
        .map(|j| j.response)
        .fold(Span::ZERO, Span::max);
    println!(
        "designed Rmax = {designed_rmax}, observed worst response = {observed}: compatible = {}",
        policy.deployment_compatible(designed_rmax, observed)?
    );
    Ok(())
}
