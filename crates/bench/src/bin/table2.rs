//! Regenerates **Table II** of the paper: stability (JSR bounds) and
//! worst-case performance for an LQR-controlled PMSM with `T = 50 µs`,
//! comparing the adaptive design against fixed-gain and fixed-period
//! baselines.
//!
//! ```text
//! cargo run -p overrun-bench --bin table2 --release            # full
//! cargo run -p overrun-bench --bin table2 --release -- --quick # smoke
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

use overrun_bench::{metrics, run_header, RunArgs};
use overrun_control::plants;
use overrun_control::scenarios::{format_table2, pmsm_table2_weights, table2};
use overrun_linalg::Matrix;

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
    let t = 50e-6; // 50 µs control period, as in the paper
    let weights = pmsm_table2_weights();
    let x0 = Matrix::col_vec(&[1.0, 1.0, 1.0]);
    let cfg = args.experiment_config();
    args.human(&format!(
        "Table II — LQR on a PMSM, T = 50 us, {} sequences x {} jobs (seed {}, {} threads)",
        args.sequences, args.jobs, args.seed, threads
    ));
    let started = std::time::Instant::now();
    let rows = match table2(&plant, t, &weights, &x0, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("experiment failed: {e}");
            std::process::exit(1);
        }
    };
    let elapsed = started.elapsed();
    args.human(&format_table2(&rows));
    args.human("norm screening (adaptive-design certifications):");
    for r in &rows {
        args.human(&format!(
            "  Rmax={:.1}*T Ns={}: {}",
            r.rmax_factor, r.ns, r.screen_adaptive
        ));
    }
    args.human(&format!("elapsed: {elapsed:.1?}"));

    let mut csv = run_header(threads, elapsed);
    csv.push_str(
        "rmax_factor,ns,jsr_lb,jsr_ub,cost_no_overruns,cost_adaptive,cost_fixed_t,cost_fixed_rmax,cost_fixed_period_rmax\n",
    );
    let opt = |v: &Option<f64>| v.map_or("unstable".to_string(), |c| c.to_string());
    for r in &rows {
        csv.push_str(&format!(
            "{},{},{},{},{},{},{},{},{}\n",
            r.rmax_factor,
            r.ns,
            r.jsr_adaptive.lower,
            r.jsr_adaptive.upper,
            r.cost_no_overruns,
            r.cost_adaptive,
            opt(&r.cost_fixed_t),
            opt(&r.cost_fixed_rmax),
            r.cost_fixed_period_rmax
        ));
    }
    match args.write_artifact("table2.csv", &csv) {
        Ok(path) => args.human(&format!("wrote {}", path.display())),
        Err(e) => {
            eprintln!("could not write CSV: {e}");
            std::process::exit(1);
        }
    }

    let mut screen = overrun_jsr::ScreenStats::default();
    for r in &rows {
        screen.absorb(&r.screen_adaptive);
    }
    let max_ub = rows
        .iter()
        .map(|r| r.jsr_adaptive.upper)
        .fold(f64::NEG_INFINITY, f64::max);
    let mut km = metrics(&[
        ("rows", rows.len() as f64),
        ("max_jsr_ub", max_ub),
        ("schur_evals", screen.schur_evals() as f64),
        ("schur_skipped", screen.schur_skipped() as f64),
        ("screen_hit_rate", screen.hit_rate()),
    ]);
    match args.finish_trace("table2") {
        Ok(trace) => km.extend(trace),
        Err(e) => {
            eprintln!("could not write trace: {e}");
            std::process::exit(1);
        }
    }
    if let Err(e) = args.maybe_write_json("table2", threads, elapsed, &km) {
        eprintln!("could not write JSON record: {e}");
        std::process::exit(1);
    }
}
