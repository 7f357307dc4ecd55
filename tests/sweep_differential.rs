//! Differential oracle for the memoising certifier: on a randomized grid of
//! small stable and unstable plants, every replay mode — cold cache, warm
//! cache, rerun after a kill, 1 worker vs 4 workers — must reproduce the
//! direct `stability::certify` answer bit for bit, and the Eq.-12
//! brute-force bounds must stay consistent with the Gripenberg `[LB, UB]`
//! interval on every scenario.
//!
//! Memoisation *mechanics* (fault isolation, retry, corrupt-record
//! replacement) are covered with injected runners in
//! `crates/sweep/tests/engine_faults.rs`; this file always runs the real
//! certifier.

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use overrun_control::stability::{self, CertifyOptions, StabilityReport};
use overrun_control::{pi, plants, ContinuousSs, ControllerMode, ControllerTable, IntervalSet};
use overrun_jsr::StabilityVerdict;
use overrun_linalg::Matrix;
use overrun_par::{derive_seed, set_thread_override};
use overrun_sweep::{certification_key, MemoCertifier, SweepStats};

/// The thread override is process-global; every test that touches it holds
/// this lock and restores the default before releasing it (same idiom as
/// `tests/par_determinism.rs`).
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "overrun-sweep-differential-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
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

/// A reduced Gripenberg budget keeps the oracle fast; the comparison only
/// needs both sides to run the *same* budget.
fn budget() -> CertifyOptions {
    CertifyOptions {
        delta: 1e-4,
        max_depth: 6,
        max_products: 50_000,
        max_power: 3,
    }
}

/// The randomized differential grid: two named plants plus two seeded
/// random draws at `T = 10 ms`, `Rmax = 1.3 T`, `Ts = T/2`, each under the
/// adaptive PI design and under a zero static gain (open loop — certified
/// unstable whenever the plant is).
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
    let mut grid = Vec::new();
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
        grid.len() >= 6,
        "expected most of the grid to design, got {}",
        grid.len()
    );
    grid
}

fn assert_report_matches(got: &StabilityReport, direct: &StabilityReport, what: &str) {
    assert_eq!(got.verdict, direct.verdict, "{what}: verdict");
    assert_eq!(
        got.bounds.lower.to_bits(),
        direct.bounds.lower.to_bits(),
        "{what}: lower bound bits"
    );
    assert_eq!(
        got.bounds.upper.to_bits(),
        direct.bounds.upper.to_bits(),
        "{what}: upper bound bits"
    );
}

/// Certifies the whole grid through a fresh certifier on `dir`; returns
/// the reports and the certifier's counters.
fn memoised(grid: &[Scenario], dir: &Path) -> (Vec<StabilityReport>, SweepStats) {
    let memo = MemoCertifier::open(dir).expect("open cache");
    let reports = grid
        .iter()
        .map(|s| {
            memo.certify(&s.plant, &s.table, &budget())
                .unwrap_or_else(|e| panic!("{}: {e}", s.label))
        })
        .collect();
    (reports, memo.stats())
}

/// The main oracle: direct certification at one thread is the reference;
/// the memoising certifier must match it bitwise cold, warm, after a
/// simulated kill, and at four workers.
#[test]
fn sweep_replay_modes_match_direct_certification() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let grid = differential_grid();
    let n = grid.len() as u64;

    // Reference: direct `stability::certify`, serial.
    set_thread_override(Some(1));
    let direct: Vec<StabilityReport> = grid
        .iter()
        .map(|s| stability::certify(&s.plant, &s.table, &budget()).expect("direct certify"))
        .collect();

    // The grid genuinely mixes outcomes: the zero-gain scenarios on the
    // open-loop-unstable plants are certified unstable, and at least one
    // adaptive design is certified stable.
    assert!(
        direct.iter().any(|r| r.verdict == StabilityVerdict::Stable),
        "grid has no certified-stable scenario"
    );
    assert!(
        direct
            .iter()
            .any(|r| r.verdict == StabilityVerdict::Unstable),
        "grid has no certified-unstable scenario"
    );

    // Cold cache, one worker: certifies everything, matches the direct
    // answers including the screening statistics (same thread count).
    let dir = tmp_dir("replay");
    let (cold, stats) = memoised(&grid, &dir);
    assert_eq!(
        (stats.cache_hits, stats.cache_misses, stats.errors),
        (0, n, 0)
    );
    for (c, d) in cold.iter().zip(&direct) {
        assert_report_matches(c, d, "cold");
        assert_eq!(c.screen, d.screen, "cold: screen stats at one worker");
    }

    // Warm cache: every verdict replays from disk, none recomputes, and
    // the replayed reports still match the direct answers bitwise.
    let (warm, stats) = memoised(&grid, &dir);
    assert_eq!((stats.cache_hits, stats.cache_misses), (n, 0));
    for (w, d) in warm.iter().zip(&direct) {
        assert_report_matches(w, d, "warm");
    }

    // Simulated kill: drop every record past the third and leave a torn
    // temp file of the one in flight, what a `kill -9` mid-run leaves
    // behind. The rerun must converge to the same bits.
    for s in &grid[3..] {
        let key = certification_key(&s.plant, &s.table, &budget()).to_hex();
        std::fs::remove_file(dir.join(format!("{key}.record"))).expect("remove record");
    }
    let key = certification_key(&grid[3].plant, &grid[3].table, &budget()).to_hex();
    std::fs::write(
        dir.join(format!(".{key}.1.0.tmp")),
        "overrun-sweep-record v1\nke",
    )
    .expect("torn temp file");
    let (rerun, stats) = memoised(&grid, &dir);
    assert_eq!((stats.cache_hits, stats.cache_misses), (3, n - 3));
    for (r, d) in rerun.iter().zip(&direct) {
        assert_report_matches(r, d, "rerun after kill");
    }

    // Four workers, fresh cache: scheduling must not leak into the
    // certified bounds (screen counters legitimately differ across worker
    // counts, so only the contract — bounds and verdict — is compared).
    set_thread_override(Some(4));
    let dir4 = tmp_dir("replay-mt");
    let (wide, stats) = memoised(&grid, &dir4);
    assert_eq!(stats.cache_misses, n);
    for (w, d) in wide.iter().zip(&direct) {
        assert_report_matches(w, d, "four workers");
    }

    set_thread_override(None);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir4);
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
