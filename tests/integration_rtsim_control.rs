//! Integration of the real-time simulator with the control layer: traces
//! produced by the fixed-priority scheduler drive the closed-loop
//! simulation end-to-end (platform → timing → control → cost).

use overrun_control::prelude::*;
use overrun_control::sim::{ClosedLoopSim, SimScenario};
use overrun_linalg::Matrix;
use overrun_rtsim::{
    response_time_analysis, ExecutionModel, OverrunPolicy, Scheduler, SchedulerConfig, Span, Task,
};

/// Build a loaded platform whose control task sporadically overruns.
fn platform() -> Scheduler {
    let tasks = vec![
        Task::new(
            "burst",
            Span::from_millis(35),
            0,
            ExecutionModel::Bimodal {
                min: Span::from_millis(1),
                max: Span::from_millis(2),
                heavy_min: Span::from_millis(6),
                heavy_max: Span::from_millis(8),
                heavy_prob: 0.3,
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
    let sched = Scheduler::new(tasks).unwrap();
    let ctl = sched.task_id("control").unwrap();
    sched.with_adaptive_task(ctl, 5).unwrap()
}

/// End-to-end: RTA bounds the response times, the designed `H` covers every
/// simulated interval, and the scheduler-driven closed loop stays bounded.
#[test]
fn scheduler_trace_drives_stable_control() {
    let sched = platform();
    let wcrt = response_time_analysis(sched.tasks()).unwrap();
    let rmax = wcrt[1];
    assert!(rmax > Span::from_millis(10), "scenario must overrun");

    // Design for the analytic worst case.
    let plant = plants::unstable_second_order();
    let hset = IntervalSet::from_timing(0.010, rmax.as_secs_f64(), 5).unwrap();
    let table = pi::design_adaptive(&plant, &hset).unwrap();
    let report = stability::certify(&plant, &table, &Default::default()).unwrap();
    assert!(
        !report.bounds.certifies_unstable(),
        "design must not be provably unstable: {:?}",
        report.bounds
    );

    // Run the platform and map the trace onto controller modes.
    let trace = sched
        .run_control_trace(&SchedulerConfig {
            horizon: Span::from_secs(5),
            seed: 8,
        })
        .unwrap();
    trace.check_invariants().unwrap();
    assert!(trace.overrun_count() > 0, "scenario must exercise overruns");

    let modes: Vec<usize> = trace
        .jobs
        .iter()
        .map(|j| {
            hset.index_of(j.interval.as_secs_f64())
                .expect("every simulated interval is in the designed H")
        })
        .collect();

    let sim = ClosedLoopSim::new(&plant, &table).unwrap();
    let scenario = SimScenario::regulation(Matrix::col_vec(&[1.0, 0.0]), 1);
    let traj = sim.run(&scenario, &modes).unwrap();
    assert!(!traj.diverged);
    assert!(traj.cost.is_finite());
    // Regulation must actually regulate over 5 s of simulated time.
    let first = traj.errors[0].max_abs();
    let last = traj.errors.last().unwrap().max_abs();
    assert!(last < 0.2 * first, "first {first}, last {last}");
}

/// Every interval the scheduler produces must be in the `H` predicted from
/// the WCRT — the structural guarantee the stability analysis relies on.
#[test]
fn scheduler_intervals_stay_in_designed_h() {
    let sched = platform();
    let wcrt = response_time_analysis(sched.tasks()).unwrap();
    let policy = OverrunPolicy::new(Span::from_millis(10), 5).unwrap();
    let designed = policy.interval_set(wcrt[1]).unwrap();

    for seed in 0..5 {
        let trace = sched
            .run_control_trace(&SchedulerConfig {
                horizon: Span::from_secs(2),
                seed,
            })
            .unwrap();
        for job in &trace.jobs {
            assert!(
                designed.contains(&job.interval),
                "interval {} not covered by designed H (seed {seed})",
                job.interval
            );
        }
    }
}

/// The response times observed in simulation never exceed the RTA bound.
#[test]
fn observed_responses_below_rta_bound() {
    let sched = platform();
    let wcrt = response_time_analysis(sched.tasks()).unwrap();
    let trace = sched
        .run_control_trace(&SchedulerConfig {
            horizon: Span::from_secs(10),
            seed: 3,
        })
        .unwrap();
    let worst_seen = trace
        .jobs
        .iter()
        .map(|j| j.response)
        .fold(Span::ZERO, Span::max);
    assert!(
        worst_seen <= wcrt[1],
        "observed {worst_seen} exceeds analytic bound {}",
        wcrt[1]
    );
}

/// An under-designed `H` (assuming a too-small `Rmax`) is caught by the
/// deployment check instead of producing out-of-range modes.
#[test]
fn underdesigned_h_detected() {
    let sched = platform();
    let wcrt = response_time_analysis(sched.tasks()).unwrap();
    let policy = OverrunPolicy::new(Span::from_millis(10), 5).unwrap();
    // Designed for a (wrong) optimistic bound.
    let optimistic = Span::from_millis(11);
    assert!(wcrt[1] > optimistic);
    assert!(!policy.deployment_compatible(optimistic, wcrt[1]).unwrap());
}
