//! Integration tests of the `overrun-trace` sink against the real pipeline,
//! with a sink installed around each run: counter totals must be invariant
//! to the worker-thread count while the numeric results stay
//! bit-identical, and a real certification run must export schema-valid,
//! balanced JSONL.

use std::sync::Mutex;

use overrun_control::metrics::{evaluate_worst_case, WorstCaseOptions};
use overrun_control::prelude::*;
use overrun_control::scenarios::pmsm_table2_weights;
use overrun_control::sim::{ClosedLoopSim, SimScenario};
use overrun_control::stability;
use overrun_linalg::Matrix;
use overrun_par::set_thread_override;
use overrun_trace::{finish, install, Event, NoopClock, Trace};

/// The trace sink and the thread override are both process-global; every
/// test serializes on this lock.
static SINK_LOCK: Mutex<()> = Mutex::new(());

fn serialize() -> std::sync::MutexGuard<'static, ()> {
    match SINK_LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Runs `f` with a fresh trace epoch and returns its result plus the
/// collected trace.
fn traced<R>(f: impl FnOnce() -> R) -> (R, Trace) {
    assert!(install(NoopClock), "sink must not already be active");
    let out = f();
    let trace = finish().expect("an active sink was installed");
    (out, trace)
}

/// Monte Carlo counters (`mc.sequences`, `mc.jobs`, `mc.steps`) total the
/// same at any worker-thread count — per-chunk and per-block emission plus
/// the worker-exit flush in `overrun-par` makes the aggregate
/// scheduling-independent — while the worst-case report itself stays
/// bit-identical.
#[test]
fn mc_counter_totals_are_thread_count_invariant() {
    let _guard = serialize();
    let plant = plants::unstable_second_order();
    let hset = IntervalSet::from_timing(0.010, 0.013, 2).unwrap();
    let table = pi::design_adaptive(&plant, &hset).unwrap();
    let sim = ClosedLoopSim::new(&plant, &table).unwrap();
    let scenario = SimScenario::step(2, Matrix::col_vec(&[1.0]));
    let opts = WorstCaseOptions {
        num_sequences: 200, // several chunks, the last one partial
        jobs_per_sequence: 60,
        seed: 2021,
        rmin_fraction: 0.05,
    };

    let mut runs = Vec::new();
    for threads in [1usize, 4] {
        set_thread_override(Some(threads));
        runs.push(traced(|| {
            evaluate_worst_case(&sim, &scenario, &opts).unwrap()
        }));
    }
    set_thread_override(None);

    let (serial_report, serial_trace) = &runs[0];
    let (parallel_report, parallel_trace) = &runs[1];

    // Results bit-identical (the PR-1 guarantee still holds when traced).
    assert_eq!(
        serial_report.worst_cost.to_bits(),
        parallel_report.worst_cost.to_bits()
    );
    assert_eq!(
        serial_report.mean_cost.to_bits(),
        parallel_report.mean_cost.to_bits()
    );

    // Counter totals invariant.
    let serial_totals = serial_trace.counter_totals();
    let parallel_totals = parallel_trace.counter_totals();
    for key in ["mc.sequences", "mc.jobs"] {
        let a = serial_totals.get(key).copied().unwrap_or(0);
        let b = parallel_totals.get(key).copied().unwrap_or(0);
        assert!(a > 0, "{key} must be counted at all");
        assert_eq!(a, b, "{key} differs across thread counts");
    }
    assert_eq!(
        serial_totals.get("mc.sequences"),
        Some(&(opts.num_sequences as u64))
    );
    assert_eq!(
        serial_totals.get("mc.jobs"),
        Some(&((opts.num_sequences * opts.jobs_per_sequence) as u64))
    );

    // Simulated steps: fixed blocks of the sorted order make them
    // thread-count invariant, and shared prefixes make them fewer than
    // the logical jobs on this two-interval set.
    let steps = serial_totals.get("mc.steps").copied().unwrap_or(0);
    assert_eq!(Some(&steps), parallel_totals.get("mc.steps"), "mc.steps");
    assert!(
        0 < steps && steps < serial_totals["mc.jobs"],
        "{steps} steps for {} jobs",
        serial_totals["mc.jobs"]
    );
}

/// The ellipsoid's Newton steps total the same at any worker-thread count:
/// the method of centres runs serially inside each certification.
#[test]
fn ellipsoid_newton_steps_are_thread_count_invariant() {
    let _guard = serialize();
    let plant = plants::unstable_second_order();
    let hset = IntervalSet::from_timing(0.010, 0.013, 2).unwrap();
    let table = pi::design_adaptive(&plant, &hset).unwrap();

    let mut runs = Vec::new();
    for threads in [1usize, 4] {
        set_thread_override(Some(threads));
        runs.push(traced(|| {
            stability::certify(&plant, &table, &Default::default()).unwrap()
        }));
    }
    set_thread_override(None);

    let (serial_report, serial_trace) = &runs[0];
    let (parallel_report, parallel_trace) = &runs[1];
    assert_eq!(
        serial_report.bounds.upper.to_bits(),
        parallel_report.bounds.upper.to_bits()
    );
    let key = "jsr.ellipsoid.newton_steps";
    let steps = serial_trace.counter_totals().get(key).copied().unwrap_or(0);
    assert!(steps > 0, "{key} must be counted at all");
    assert_eq!(
        Some(&steps),
        parallel_trace.counter_totals().get(key),
        "{key} differs across thread counts"
    );
}

/// Deflation removes the delayed LQR's repeated controller state at every
/// lift level of a Table II certification, and the removed coordinates
/// total the same at any worker-thread count.
#[test]
fn deflated_coordinates_are_thread_count_invariant() {
    let _guard = serialize();
    let plant = plants::pmsm();
    let t = 50e-6;
    let hset = IntervalSet::from_timing(t, 1.6 * t, 2).unwrap();
    let weights = pmsm_table2_weights();
    let tables = [
        lqr::design_adaptive(&plant, &hset, &weights).unwrap(),
        lqr::design_fixed(&plant, &hset, &weights, t).unwrap(),
    ];

    let mut runs = Vec::new();
    for threads in [1usize, 4] {
        set_thread_override(Some(threads));
        runs.push(traced(|| {
            tables
                .iter()
                .map(|table| stability::certify(&plant, table, &Default::default()).unwrap())
                .collect::<Vec<_>>()
        }));
    }
    set_thread_override(None);

    let (serial_reports, serial_trace) = &runs[0];
    let (parallel_reports, parallel_trace) = &runs[1];
    for (a, b) in serial_reports.iter().zip(parallel_reports) {
        assert_eq!(a.bounds.upper.to_bits(), b.bounds.upper.to_bits());
        assert_eq!(a.bounds.lower.to_bits(), b.bounds.lower.to_bits());
    }
    let key = "jsr.deflated";
    let removed = serial_trace.counter_totals().get(key).copied().unwrap_or(0);
    assert!(removed > 0, "{key} must be counted on Table II sets");
    assert_eq!(
        Some(&removed),
        parallel_trace.counter_totals().get(key),
        "{key} differs across thread counts"
    );
}

/// A real Table-II-style certification exports one JSONL line per event,
/// and its span opens and closes balance.
#[test]
fn certification_trace_round_trips_as_jsonl() {
    let _guard = serialize();
    let plant = plants::unstable_second_order();
    let hset = IntervalSet::from_timing(0.010, 0.013, 2).unwrap();
    let table = pi::design_adaptive(&plant, &hset).unwrap();

    let (report, trace) =
        traced(|| stability::certify(&plant, &table, &Default::default()).unwrap());
    assert!(report.bounds.certifies_stable(), "{:?}", report.bounds);

    assert!(!trace.events.is_empty(), "certification must emit events");
    assert!(trace.is_balanced(), "{:?}", trace.span_balance());

    // The search phases show up as spans, the ellipsoid solve and the
    // screen façade as counters.
    let tree = trace.span_tree();
    let names: Vec<&str> = tree.iter().map(|n| n.name.as_str()).collect();
    assert!(names.contains(&"stability.certify"), "{names:?}");
    assert!(
        trace
            .events
            .iter()
            .any(|ev| matches!(ev, Event::SpanOpen { name, .. } if *name == "jsr.ellipsoid")),
        "certification must open a jsr.ellipsoid span"
    );
    let totals = trace.counter_totals();
    assert!(totals.contains_key("jsr.screen.nodes"), "{totals:?}");
    assert!(
        totals
            .get("jsr.ellipsoid.newton_steps")
            .is_some_and(|&n| n > 0),
        "{totals:?}"
    );

    let mut jsonl = Vec::new();
    trace.write_jsonl(&mut jsonl).unwrap();
    let text = String::from_utf8(jsonl).unwrap();
    assert_eq!(text.lines().count(), trace.events.len());
}
