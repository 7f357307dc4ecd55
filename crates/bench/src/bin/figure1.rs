//! Regenerates **Figure 1** of the paper: a timeline of control jobs on the
//! oversampled sensing grid (`Ns = 8`) in which the second job overruns and
//! the third release snaps to the first sensor tick after its completion.
//!
//! Prints the ASCII timeline and writes the underlying job trace as CSV.
//!
//! ```text
//! cargo run -p overrun-bench --bin figure1
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
use overrun_rtsim::{render_timeline, trace_to_csv, OverrunPolicy, Span, TimelineOptions};

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
    let started = std::time::Instant::now();
    // The paper's Figure 1 setting: Ns = 8, job 2 overruns past 2T.
    let t = Span::from_millis(8);
    let policy = match OverrunPolicy::new(t, 8) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("policy construction failed: {e}");
            std::process::exit(1);
        }
    };
    let responses = [
        Span::from_millis(5),      // job 1 completes within T
        Span::from_micros(10_500), // job 2 overruns: finishes after 2T
        Span::from_millis(6),      // job 3 nominal again
        Span::from_millis(4),
    ];
    let trace = match policy.apply(&responses) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace construction failed: {e}");
            std::process::exit(1);
        }
    };
    match render_timeline(&trace, &TimelineOptions::default()) {
        Ok(art) => args.human(&art),
        Err(e) => {
            eprintln!("render failed: {e}");
            std::process::exit(1);
        }
    }
    for job in &trace.jobs {
        args.human(&format!(
            "job {}: release {}, finish {}, h = {}, delta = {}, overran = {}",
            job.index + 1,
            job.release,
            job.finish,
            job.interval,
            job.delta,
            job.overran
        ));
    }
    match args.write_artifact("figure1.csv", &trace_to_csv(&trace)) {
        Ok(path) => args.human(&format!("wrote {}", path.display())),
        Err(e) => {
            eprintln!("could not write CSV: {e}");
            std::process::exit(1);
        }
    }
    let elapsed = started.elapsed();
    let overruns = trace.jobs.iter().filter(|j| j.overran).count();
    let mut km = metrics(&[
        ("jobs", trace.jobs.len() as f64),
        ("overruns", overruns as f64),
    ]);
    match args.finish_trace("figure1") {
        Ok(trace) => km.extend(trace),
        Err(e) => {
            eprintln!("could not write trace: {e}");
            std::process::exit(1);
        }
    }
    if let Err(e) = args.maybe_write_json("figure1", threads, elapsed, &km) {
        eprintln!("could not write JSON record: {e}");
        std::process::exit(1);
    }
}
