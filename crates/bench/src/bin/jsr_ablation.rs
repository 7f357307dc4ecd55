//! Ablation of the stability-analysis machinery (not a paper table, but
//! quantifies the design choices called out in `DESIGN.md`): for the
//! Table-II matrix sets, how tight are
//!
//! 1. the paper-Eq.-12 brute-force bounds at increasing depth,
//! 2. plain Gripenberg (2-norm),
//! 3. Gripenberg in the optimised ellipsoidal norm, and
//! 4. the power-lifted refinement used by `stability::certify`?
//!
//! Each method reports its norm-screening counters: how many exact Schur
//! evaluations the O(n²) certified bounds avoided without changing a bit
//! of the certified interval.
//!
//! ```text
//! cargo run -p overrun-bench --bin jsr_ablation --release
//! ```

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "experiment binaries own argv and time their own runs"
)]

use overrun_bench::{metrics, RunArgs};
use overrun_control::lqr;
use overrun_control::prelude::*;
use overrun_control::scenarios::pmsm_table2_weights;
use overrun_jsr::{
    bruteforce_bounds_with_stats, gripenberg_with_stats, refined_bounds_with_stats,
    BruteforceOptions, GripenbergOptions, MatrixSet, RefineOptions, ScreenStats,
};

fn main() {
    let args = match RunArgs::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    };
    let threads = args.apply_threads();
    args.start_trace();
    let plant = plants::pmsm();
    let t = 50e-6;
    args.human(&format!(
        "JSR method ablation on the Table-II lifted sets (PMSM, adaptive LQR, {threads} threads)"
    ));
    args.human(&format!(
        "{:<14} {:>3} | {:^23} | {:^23} | {:^23} | {:^23}",
        "config",
        "#H",
        "Eq.12 depth 6",
        "Gripenberg (2-norm)",
        "Gripenberg (ellipsoid)",
        "power-lifted refine"
    ));
    let started = std::time::Instant::now();
    let mut total = ScreenStats::default();
    let mut configs = 0usize;
    for (factor, ns) in [
        (1.1, 2u32),
        (1.3, 2),
        (1.6, 2),
        (1.1, 5),
        (1.3, 5),
        (1.6, 5),
    ] {
        let hset = match IntervalSet::from_timing(t, factor * t, ns) {
            Ok(h) => h,
            Err(e) => {
                eprintln!("bad config: {e}");
                continue;
            }
        };
        let mut run = || -> Result<(), Box<dyn std::error::Error>> {
            let table = lqr::design_adaptive(&plant, &hset, &pmsm_table2_weights())?;
            let meas = lifted::measurement_matrix(&plant, &table)?;
            let omegas = lifted::build_omega_set(&plant, &table, &meas)?;
            let set = MatrixSet::new(omegas)?;

            let (eq12, s_eq12) = bruteforce_bounds_with_stats(
                &set,
                &BruteforceOptions {
                    max_depth: 6,
                    ..Default::default()
                },
            )?;
            let (plain, s_plain) = gripenberg_with_stats(
                &set,
                &GripenbergOptions {
                    ellipsoid: false,
                    ..Default::default()
                },
            )?;
            let (ell, s_ell) = gripenberg_with_stats(&set, &GripenbergOptions::default())?;
            let (refined, s_refined) = refined_bounds_with_stats(
                &set,
                &RefineOptions {
                    decision_threshold: None,
                    ..Default::default()
                },
            )?;
            args.human(&format!(
                "{factor:.1}T  Ts=T/{ns} {:>3} | {eq12} | {plain} | {ell} | {refined}",
                set.len(),
            ));
            args.human(&format!("    eq12:    {s_eq12}"));
            args.human(&format!("    plain:   {s_plain}"));
            args.human(&format!("    ellips:  {s_ell}"));
            args.human(&format!("    refined: {s_refined}"));
            for s in [&s_eq12, &s_plain, &s_ell, &s_refined] {
                total.absorb(s);
            }
            configs += 1;
            Ok(())
        };
        if let Err(e) = run() {
            eprintln!("{factor:.1}T Ts=T/{ns}: failed: {e}");
        }
    }
    let elapsed = started.elapsed();
    args.human(&format!(
        "total: {total}\nelapsed: {elapsed:.1?} ({configs} configs)"
    ));
    let mut km = metrics(&[
        ("configs", configs as f64),
        ("schur_evals", total.schur_evals() as f64),
        ("schur_skipped", total.schur_skipped() as f64),
        ("screen_hit_rate", total.hit_rate()),
    ]);
    match args.finish_trace("jsr_ablation") {
        Ok(trace) => km.extend(trace),
        Err(e) => {
            eprintln!("could not write trace: {e}");
            std::process::exit(1);
        }
    }
    if let Err(e) = args.maybe_write_json("jsr_ablation", threads, elapsed, &km) {
        eprintln!("could not write JSON record: {e}");
        std::process::exit(1);
    }
}
