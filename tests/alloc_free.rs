//! Allocation audit of the hot paths: the kernels and loops that run once
//! per product-tree node, Newton step or simulated job must reuse
//! caller-provided buffers.
//!
//! A counting global allocator tallies every allocation made on the
//! calling thread, callees included, so a helper that starts allocating is
//! caught as surely as an allocation written into the hot path itself.
//! Counts are per thread, so the test harness running tests concurrently
//! does not disturb them. The one test that installs the process-wide
//! trace sink holds [`serial`], as does every count, so no other test's
//! trace events land in a count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::{Mutex, MutexGuard, PoisonError};

use overrun_control::metrics::{evaluate_worst_case, WorstCaseOptions};
use overrun_control::prelude::*;
use overrun_control::scenarios::pmsm_table2_weights;
use overrun_control::sim::{ClosedLoopSim, SimScenario};
use overrun_jsr::{
    gripenberg_with_stats, optimize_ellipsoid, EllipsoidOptions, GripenbergOptions, MatrixSet,
    ScreenStats,
};
use overrun_linalg::{cheap_spectral_bounds, norm_2, spectral_radius, Matrix};
use overrun_trace::NoopClock;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator, counting allocations per thread.
struct CountingAllocator;

fn count_one() {
    ALLOCATIONS.with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract. The only addition is a bump of a
// const-initialised, destructor-free thread-local `Cell`, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Sequences per block of a Monte Carlo ensemble's sorted order.
const ENSEMBLE_BLOCK: usize = 64;

/// Serialises the tests of this binary: one installs the trace sink.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Allocations made on this thread while `f` runs, and its result.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// A dense `n × n` test matrix with irregular entries and a few exact
/// zeros (so the kernels' zero-skip paths run too).
fn test_matrix(n: usize, salt: usize) -> Matrix {
    Matrix::from_fn(n, n, |i, j| {
        let h = (i * 31 + j * 17 + salt * 7) % 23;
        if h == 0 {
            0.0
        } else {
            (h as f64 - 11.0) / 7.0
        }
    })
}

/// The Table-II lifted matrix set for the `Rmax = 1.3 T`, `Ns = 2` cell.
fn table2_set() -> MatrixSet {
    table2_set_at(1.3, 2)
}

/// The Table-II lifted matrix set (adaptive design) for `Rmax =
/// rmax_factor·T` and `Ns`.
fn table2_set_at(rmax_factor: f64, ns: u32) -> MatrixSet {
    let plant = plants::pmsm();
    let t = 50e-6;
    let hset = IntervalSet::from_timing(t, rmax_factor * t, ns).unwrap();
    let table = lqr::design_adaptive(&plant, &hset, &pmsm_table2_weights()).unwrap();
    let meas = lifted::measurement_matrix(&plant, &table).unwrap();
    MatrixSet::new(lifted::build_omega_set(&plant, &table, &meas).unwrap()).unwrap()
}

/// `matmul_into`, `matmul_add_into`, `mul_vec_into`, `mul_vec_acc_into`,
/// `scale_in_place` and `cheap_spectral_bounds` (the JSR screening
/// bracket) never allocate for n ≤ 12: the fixed-size kernel dimensions
/// n ≤ 8 and the generic path up to the 9 × 9 Table-II lifted sets and
/// beyond.
#[test]
fn matrix_kernels_allocate_nothing() {
    let _serial = serial();
    for n in 1..=12 {
        let a = test_matrix(n, 1);
        let b = test_matrix(n, 2);
        let x: Vec<f64> = (0..n).map(|i| i as f64 - 1.5).collect();
        let mut out = Matrix::zeros(n, n);
        let mut v = vec![0.0; n];
        let (count, ()) = allocations(|| {
            a.matmul_into(&b, &mut out).unwrap();
            a.matmul_add_into(&b, &mut out).unwrap();
            a.mul_vec_into(&x, &mut v).unwrap();
            a.mul_vec_acc_into(&x, &mut v).unwrap();
            out.scale_in_place(0.5);
            black_box(cheap_spectral_bounds(&out));
        });
        assert_eq!(count, 0, "n = {n}");
    }
}

/// `run_cost` and `run_cost_with_initial_mode` allocate nothing at all:
/// no buffers up front, nothing per job. Checked on the Table-II lift
/// (9-dimensional, simulated on 7) under regulation, and on PI step tracking over 4 and 7
/// intervals, whose per-interval reference offsets live on the stack.
#[test]
fn run_cost_allocations_do_not_grow_with_jobs() {
    let _serial = serial();
    let pmsm = plants::pmsm();
    let hset = IntervalSet::from_timing(50e-6, 1.3 * 50e-6, 2).unwrap();
    let table = lqr::design_adaptive(&pmsm, &hset, &pmsm_table2_weights()).unwrap();
    let mut cases = vec![(
        "lqr regulation",
        ClosedLoopSim::new(&pmsm, &table).unwrap(),
        SimScenario::regulation(Matrix::col_vec(&[1.0, -0.5, 2.0]), 3),
    )];
    let plant = plants::unstable_second_order();
    for (label, ns, q) in [("pi step, q = 4", 5, 4), ("pi step, q = 7", 10, 7)] {
        let hset = IntervalSet::from_timing(0.010, 1.6 * 0.010, ns).unwrap();
        assert_eq!(hset.len(), q);
        let table = pi::design_adaptive(&plant, &hset).unwrap();
        let sim = ClosedLoopSim::new(&plant, &table).unwrap();
        cases.push((label, sim, SimScenario::step(2, Matrix::col_vec(&[1.0]))));
    }
    for (label, sim, scenario) in &cases {
        let q = sim.table().len();
        for jobs in [10, 1000] {
            let modes: Vec<usize> = (0..jobs).map(|k| (k * 5 + k / 7) % q).collect();
            let (count, run) = allocations(|| sim.run_cost(scenario, &modes).unwrap());
            assert!(!run.diverged, "{label}");
            assert_eq!(count, 0, "{label}: run_cost, {jobs} jobs");
            let (count, _) =
                allocations(|| sim.run_cost_with_initial_mode(scenario, &modes, 1).unwrap());
            assert_eq!(count, 0, "{label}: run_cost_with_initial_mode, {jobs} jobs");
        }
    }
}

/// `evaluate_worst_case` allocates a constant per ensemble (the sampler,
/// the sort keys and order, the per-sequence costs, and the logarithmic
/// growth of the per-block result lists) and a constant per block of
/// [`ENSEMBLE_BLOCK`] sequences (a drawn chunk and its keys, the block's
/// sequences in sorted order, the prefix stack and the block's costs):
/// nothing per sequence or per job. At 4 096 sequences one allocation per
/// sequence would add 4 096 to a bound of 680. Serial, so every allocation
/// lands on this thread's count.
#[test]
fn ensemble_allocations_are_per_block() {
    const PER_ENSEMBLE: u64 = 40;
    const PER_BLOCK: u64 = 10;
    let _serial = serial();
    let plant = plants::unstable_second_order();
    let hset = IntervalSet::from_timing(0.010, 1.3 * 0.010, 2).unwrap();
    let table = pi::design_adaptive(&plant, &hset).unwrap();
    let sim = ClosedLoopSim::new(&plant, &table).unwrap();
    let scenario = SimScenario::step(2, Matrix::col_vec(&[1.0]));
    overrun_par::set_thread_override(Some(1));
    for sequences in [64_usize, 1024, 4096] {
        let blocks = sequences.div_ceil(ENSEMBLE_BLOCK) as u64;
        let counts: Vec<u64> = [10, 50, 200]
            .iter()
            .map(|&jobs| {
                let opts = WorstCaseOptions {
                    num_sequences: sequences,
                    jobs_per_sequence: jobs,
                    seed: 2021,
                    rmin_fraction: 0.05,
                };
                let (count, report) =
                    allocations(|| evaluate_worst_case(&sim, &scenario, &opts).unwrap());
                assert!(report.all_stable());
                count
            })
            .collect();
        let bound = PER_ENSEMBLE + PER_BLOCK * blocks;
        assert!(
            counts.iter().all(|&c| c == counts[0] && c <= bound),
            "{sequences} sequences: allocations at 10/50/200 jobs {counts:?}, bound {bound}"
        );
    }
    overrun_par::set_thread_override(None);
}

/// The ellipsoid solver sets up its workspace once: a budget of 3, 30 or
/// 300 Newton steps costs the same number of allocations, so
/// `newton_step` itself allocates nothing. Checked on alphabets of 2 and
/// 4 members, whose Hessians take compile-time-length dot products, and
/// on the 9 length-2 products of a 3-member set, whose Hessian takes the
/// runtime-length arm.
#[test]
fn newton_steps_allocate_nothing() {
    let _serial = serial();
    let three = table2_set_at(1.6, 2);
    assert_eq!(three.len(), 3);
    let squares: Vec<Matrix> = three
        .iter()
        .flat_map(|a| three.iter().map(move |b| b.matmul(a).unwrap()))
        .collect();
    let sets = [
        table2_set(),
        table2_set_at(1.6, 5),
        MatrixSet::new(squares).unwrap(),
    ];
    for (set, members) in sets.iter().zip([2, 4, 9]) {
        assert_eq!(set.len(), members);
        let (counts, bounds): (Vec<u64>, Vec<f64>) = [3, 30, 300]
            .iter()
            .map(|&max_newton_steps| {
                let opts = EllipsoidOptions { max_newton_steps };
                let (count, e) = allocations(|| optimize_ellipsoid(set, &opts).unwrap());
                (count, e.norm_bound)
            })
            .unzip();
        assert!(
            counts.iter().all(|&c| c == counts[0]),
            "{members} members: allocations at 3/30/300 Newton steps: {counts:?}"
        );
        // The budget binds: more steps reach a tighter bound.
        assert!(
            bounds[0] > bounds[1] && bounds[1] > bounds[2],
            "{members} members: bounds at 3/30/300 Newton steps: {bounds:?}"
        );
    }
}

/// Gripenberg's `expand_node` allocates by design: each surviving child
/// owns its normalised product, the children vector grows as they are
/// pushed, and the exact `norm_2`/`spectral_radius` evaluations build
/// their Schur workspaces. A serial screened search may allocate for
/// exactly that and the search's own per-depth buffers — nothing per
/// screened node, and nothing else per expanded node.
#[test]
fn expand_node_allocates_only_for_survivors_and_exact_evaluations() {
    let _serial = serial();
    // Two 6 × 6 matrices: inside the fixed-size screening kernels
    // (n ≤ 8), with a tree deep and bushy enough that most nodes are
    // screened out.
    let synthetic = MatrixSet::new(vec![test_matrix(6, 1), test_matrix(6, 2)]).unwrap();
    let stats = assert_search_allocations(&synthetic);
    assert!(
        stats.schur_skipped() > stats.schur_evals(),
        "search is screened: {stats}"
    );
    // The 9 × 9 Table-II lifted set, which every `table2` certification
    // screens (unpreconditioned, a third of its evaluations are skipped).
    let stats = assert_search_allocations(&table2_set());
    assert!(stats.schur_skipped() > 0, "search is screened: {stats}");
}

/// Runs a serial screened Gripenberg search on `set` to depth 8 and
/// checks its allocations against the allowance for survivors, exact
/// evaluations and the per-depth search buffers. Returns the search's
/// screening counters.
fn assert_search_allocations(set: &MatrixSet) -> ScreenStats {
    let opts = GripenbergOptions {
        delta: 1e-6,
        max_depth: 8,
        max_products: 100_000,
        precondition: false,
        ellipsoid: false,
        screen: true,
    };
    // Serial, so every allocation lands on this thread's count. No other
    // test here measures code that reads the thread count.
    overrun_par::set_thread_override(Some(1));
    let (count, result) = allocations(|| gripenberg_with_stats(set, &opts));
    overrun_par::set_thread_override(None);
    let stats = result.unwrap().1;

    // Per-call costs of the exact evaluations, measured on products the
    // search forms (the worst case over all length-2 and length-3 words).
    let pairs: Vec<Matrix> = set
        .iter()
        .flat_map(|a| set.iter().map(move |b| a.matmul(b).unwrap()))
        .collect();
    let triples: Vec<Matrix> = pairs
        .iter()
        .flat_map(|ab| set.iter().map(move |c| ab.matmul(c).unwrap()))
        .collect();
    let words = [pairs, triples].concat();
    let norm_cost = words
        .iter()
        .map(|w| allocations(|| black_box(norm_2(w))).0)
        .max()
        .unwrap();
    let rho_cost = words
        .iter()
        .map(|w| allocations(|| black_box(spectral_radius(w).unwrap())).0)
        .max()
        .unwrap();

    let m = set.len() as u64;
    let exact = norm_cost * stats.exact_norms + rho_cost * stats.exact_eigs;
    // A child survives only after its exact norm ran; it then costs its
    // product and at most one growth of the children vector.
    let survivors = 2 * stats.exact_norms;
    // Depth-1 products, the frontier and scratch buffers, and one
    // next-frontier vector per deeper level.
    let search = m + 2 + opts.max_depth as u64;
    let allowed = exact + survivors + search;
    assert!(
        count <= allowed,
        "{count} allocations > {allowed} allowed \
         ({norm_cost}/norm_2, {rho_cost}/spectral_radius; {stats})"
    );
    stats
}

/// PI tuning allocates for its set-up, for Nelder–Mead's short vectors and
/// for the eigen-solve of each `ρ(Ω(h))` evaluation — nothing per job of
/// the 400-job step response it scores.
#[test]
fn pi_tuning_allocates_only_for_eigen_solves() {
    let _serial = serial();
    let plant = plants::unstable_second_order();
    let h = 0.010;

    // Objective evaluations: each phase scans the 256-point signed gain
    // grid, then runs Nelder–Mead, whose evaluation counts the trace holds.
    assert!(overrun_trace::install(NoopClock), "no sink is active");
    let traced = pi::tune_for_interval(&plant, h).unwrap();
    let totals = overrun_trace::finish().unwrap().counter_totals();
    let nm_evals = totals["pi.margin_evals"] + totals["pi.nm_evals"];
    let evals = 2 * 256 + nm_evals;

    let (count, gains) = allocations(|| pi::tune_for_interval(&plant, h).unwrap());
    assert_eq!(gains, traced, "tracing changed the tuned gains");

    // Per-call cost of the eigen-solve: the worst case over the lifts of
    // the grid's gain magnitudes, both signs.
    let mags = [0.5, 8.0, 100.0, 3000.0];
    let rho_cost = mags
        .iter()
        .flat_map(|&kp| mags.iter().flat_map(move |&ki| [(kp, ki), (-kp, -ki)]))
        .map(|(kp, ki)| {
            let mode = pi::mode_for_gains(kp, ki, h).unwrap();
            let omega = lifted::build_omega(&plant, &mode, h, &plant.c).unwrap();
            allocations(|| black_box(spectral_radius(&omega).unwrap())).0
        })
        .max()
        .unwrap();
    // Set-up: one discretisation and lift, plus `−C·Φ` and two state
    // buffers.
    let lift = allocations(|| {
        let mode = pi::mode_for_gains(1.0, 1.0, h).unwrap();
        black_box(lifted::build_omega(&plant, &mode, h, &plant.c).unwrap())
    })
    .0;
    let setup = lift + 3;
    // Nelder–Mead: per evaluation at most a centroid, a copy of the worst
    // vertex and the trial point; per run a three-vertex simplex.
    let simplex = 3 * nm_evals + 2 * 4;
    let allowed = evals * rho_cost + simplex + setup;
    assert!(
        count <= allowed,
        "{count} allocations > {allowed} allowed ({evals} evaluations, \
         {rho_cost}/spectral_radius, {nm_evals} Nelder–Mead evaluations, \
         {setup} set-up)"
    );
}
