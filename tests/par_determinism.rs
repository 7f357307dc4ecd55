//! Cross-crate determinism tests for the parallel execution layer: every
//! parallelised pipeline — Monte Carlo `J_w`, the Gripenberg JSR
//! certificate, and the controller-table builders — must return
//! bit-identical results for any worker-thread count.
//!
//! The thread override is process-global, so all tests share one lock and
//! always restore the default before releasing it.

use std::sync::Mutex;

use overrun_control::metrics::{evaluate_worst_case, WorstCaseOptions};
use overrun_control::prelude::*;
use overrun_control::scenarios::pmsm_table2_weights;
use overrun_control::sim::{ClosedLoopSim, SimScenario};
use overrun_jsr::{gripenberg_with_stats, GripenbergOptions, MatrixSet};
use overrun_linalg::Matrix;
use overrun_par::set_thread_override;

static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` at each thread count in `counts` and returns the results,
/// restoring the default thread selection afterwards.
fn at_thread_counts<R>(counts: &[usize], mut f: impl FnMut() -> R) -> Vec<R> {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let out = counts
        .iter()
        .map(|&t| {
            set_thread_override(Some(t));
            f()
        })
        .collect();
    set_thread_override(None);
    out
}

/// Monte Carlo worst-case evaluation is bit-identical at 1 and 4 threads:
/// per-sequence RNG seeds and fixed-chunk reduction make the report
/// independent of how work is scheduled.
#[test]
fn monte_carlo_jw_bit_identical_across_threads() {
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

    let reports = at_thread_counts(&[1, 4], || {
        evaluate_worst_case(&sim, &scenario, &opts).unwrap()
    });

    let (serial, parallel) = (&reports[0], &reports[1]);
    assert_eq!(serial.worst_cost.to_bits(), parallel.worst_cost.to_bits());
    assert_eq!(serial.mean_cost.to_bits(), parallel.mean_cost.to_bits());
    assert_eq!(
        serial.worst_integral_cost.to_bits(),
        parallel.worst_integral_cost.to_bits()
    );
    assert_eq!(serial.diverged, parallel.diverged);
    assert!(serial.worst_cost.is_finite());
}

/// The parallel Gripenberg frontier expansion returns the same certified
/// `[LB, UB]` interval (bitwise) and explores the same tree as the serial
/// path on the Table-II lifted matrix sets, with screening on and off. The
/// search runs in the 2-norm: its frontiers grow to 128 and 1959 nodes, so
/// whole depths go to the worker pool (in the optimised-ellipsoid
/// coordinates these searches stay below the parallel cutoff).
#[test]
fn gripenberg_bounds_match_serial_on_table2_sets() {
    let plant = plants::pmsm();
    let t = 50e-6;
    for (factor, ns) in [(1.3, 2u32), (1.6, 2)] {
        let hset = IntervalSet::from_timing(t, factor * t, ns).unwrap();
        let table = lqr::design_adaptive(&plant, &hset, &pmsm_table2_weights()).unwrap();
        let meas = lifted::measurement_matrix(&plant, &table).unwrap();
        let set = MatrixSet::new(lifted::build_omega_set(&plant, &table, &meas).unwrap()).unwrap();
        let on = GripenbergOptions {
            max_depth: 8,
            ellipsoid: false,
            ..Default::default()
        };
        let off = GripenbergOptions {
            screen: false,
            ..on.clone()
        };

        let runs = at_thread_counts(&[1, 4], || {
            let on = gripenberg_with_stats(&set, &on).unwrap();
            let off = gripenberg_with_stats(&set, &off).unwrap();
            (on, off)
        });
        let (serial, s_stats) = &runs[0].0;
        for (threads, ((b_on, st_on), (b_off, st_off))) in [1usize, 4].iter().zip(&runs) {
            let ctx = format!("Rmax = {factor}T, Ns = {ns}, {threads} threads");
            for (b, st, screen) in [(b_on, st_on, "on"), (b_off, st_off, "off")] {
                assert_eq!(
                    serial.lower.to_bits(),
                    b.lower.to_bits(),
                    "LB, screen {screen}: {ctx}"
                );
                assert_eq!(
                    serial.upper.to_bits(),
                    b.upper.to_bits(),
                    "UB, screen {screen}: {ctx}"
                );
                assert_eq!(s_stats.nodes, st.nodes, "nodes, screen {screen}: {ctx}");
                assert_eq!(
                    s_stats.lb_depth, st.lb_depth,
                    "lb depth, screen {screen}: {ctx}"
                );
            }
        }
        assert!(serial.lower <= serial.upper);
        // Wide enough that the deepest levels ran in parallel.
        assert!(s_stats.nodes > 500, "{s_stats}");
    }
}

/// The parallel per-`h` table builders produce the same modes (bitwise,
/// entry by entry) as a serial construction.
#[test]
fn table_builders_bit_identical_across_threads() {
    let plant = plants::pmsm();
    let hset = IntervalSet::from_timing(50e-6, 1.6 * 50e-6, 5).unwrap();
    let weights = pmsm_table2_weights();

    let tables = at_thread_counts(&[1, 4], || {
        lqr::design_adaptive(&plant, &hset, &weights).unwrap()
    });

    assert_eq!(tables[0].len(), tables[1].len());
    for (a, b) in tables[0].modes().iter().zip(tables[1].modes()) {
        for (ma, mb) in [
            (&a.ac, &b.ac),
            (&a.bc, &b.bc),
            (&a.cc, &b.cc),
            (&a.dc, &b.dc),
        ] {
            assert_eq!(ma.shape(), mb.shape());
            for (va, vb) in ma.as_slice().iter().zip(mb.as_slice()) {
                assert_eq!(va.to_bits(), vb.to_bits());
            }
        }
    }
}
