//! Regenerates **Table I** of the paper: worst-case performance `J_w` of
//! a PI-controlled unstable system under adaptive periods, comparing the
//! adaptive controller against fixed-gain baselines tuned for `T` and
//! `Rmax`.
//!
//! ```text
//! cargo run -p overrun-bench --bin table1 --release            # full (50 000 seqs)
//! cargo run -p overrun-bench --bin table1 --release -- --quick # smoke
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
use overrun_control::scenarios::{format_table1, table1};

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
    let plant = plants::unstable_second_order();
    let t = 0.010; // 10 ms control period, as in the paper
    args.human(&format!(
        "Table I — PI on an unstable plant, T = 10 ms, {} sequences x {} jobs (seed {}, {} threads)",
        args.sequences, args.jobs, args.seed, threads
    ));
    let started = std::time::Instant::now();
    let rows = match table1(&plant, t, &args.experiment_config()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("experiment failed: {e}");
            std::process::exit(1);
        }
    };
    let elapsed = started.elapsed();
    args.human(&format_table1(&rows));
    args.human(&format!("elapsed: {elapsed:.1?}"));

    let mut csv = run_header(threads, elapsed);
    csv.push_str("rmax_factor,ns,jw_adaptive,jw_fixed_t,jw_fixed_rmax\n");
    for r in &rows {
        csv.push_str(&format!(
            "{},{},{},{},{}\n",
            r.rmax_factor, r.ns, r.jw_adaptive, r.jw_fixed_t, r.jw_fixed_rmax
        ));
    }
    match args.write_artifact("table1.csv", &csv) {
        Ok(path) => args.human(&format!("wrote {}", path.display())),
        Err(e) => {
            eprintln!("could not write CSV: {e}");
            std::process::exit(1);
        }
    }

    let worst = rows
        .iter()
        .map(|r| r.jw_adaptive)
        .fold(f64::NEG_INFINITY, f64::max);
    let mut km = metrics(&[("rows", rows.len() as f64), ("max_jw_adaptive", worst)]);
    match args.finish_trace("table1") {
        Ok(trace) => km.extend(trace),
        Err(e) => {
            eprintln!("could not write trace: {e}");
            std::process::exit(1);
        }
    }
    if let Err(e) = args.maybe_write_json("table1", threads, elapsed, &km) {
        eprintln!("could not write JSON record: {e}");
        std::process::exit(1);
    }
}
