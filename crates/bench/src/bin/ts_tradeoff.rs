//! The sensor-granularity trade-off experiment (paper Sec. V-B): sweep the
//! oversampling factor `Ns` at fixed `Rmax = 1.6 T` and report how the
//! analysis size `#H`, the certified stability margin, the worst-case cost
//! and the wasted idle slack move.
//!
//! ```text
//! cargo run -p overrun-bench --bin ts_tradeoff --release
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
use overrun_control::scenarios::{format_granularity, granularity_sweep_with};
use overrun_control::stability;

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
    let (t, rmax_factor, ns_values) = (0.010, 1.6, [1u32, 2, 4, 5, 10]);
    let cfg = args.experiment_config();
    args.human(&format!(
        "Ts trade-off — PI, T = 10 ms, Rmax = 1.6 T, {} sequences x {} jobs ({} threads)",
        args.sequences, args.jobs, threads
    ));
    let started = std::time::Instant::now();
    let rows = granularity_sweep_with(
        &plant,
        t,
        rmax_factor,
        &ns_values,
        &cfg,
        &stability::certify,
    );
    let rows = match rows {
        Ok(r) => r,
        Err(e) => {
            eprintln!("experiment failed: {e}");
            std::process::exit(1);
        }
    };
    let elapsed = started.elapsed();
    args.human(&format_granularity(&rows));
    args.human(&format!("elapsed: {elapsed:.1?}"));

    let mut csv = run_header(threads, elapsed);
    csv.push_str("ns,h_count,jsr_lb,jsr_ub,jw_adaptive,worst_idle_slack_s\n");
    for r in &rows {
        csv.push_str(&format!(
            "{},{},{},{},{},{}\n",
            r.ns, r.h_count, r.jsr.lower, r.jsr.upper, r.jw_adaptive, r.worst_idle_slack
        ));
    }
    match args.write_artifact("ts_tradeoff.csv", &csv) {
        Ok(path) => args.human(&format!("wrote {}", path.display())),
        Err(e) => {
            eprintln!("could not write CSV: {e}");
            std::process::exit(1);
        }
    }

    let max_ub = rows
        .iter()
        .map(|r| r.jsr.upper)
        .fold(f64::NEG_INFINITY, f64::max);
    let mut km = metrics(&[("rows", rows.len() as f64), ("max_jsr_ub", max_ub)]);
    match args.finish_trace("ts_tradeoff") {
        Ok(trace) => km.extend(trace),
        Err(e) => {
            eprintln!("could not write trace: {e}");
            std::process::exit(1);
        }
    }
    if let Err(e) = args.maybe_write_json("ts_tradeoff", threads, elapsed, &km) {
        eprintln!("could not write JSON record: {e}");
        std::process::exit(1);
    }
}
