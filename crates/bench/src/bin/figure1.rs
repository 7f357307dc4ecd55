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

use std::process::ExitCode;

use overrun_rtsim::{render_timeline, trace_to_csv, OverrunPolicy, Span, TimelineOptions};

fn main() -> ExitCode {
    overrun_bench::run("figure1", |run| {
        // The paper's Figure 1 setting: Ns = 8, job 2 overruns past 2T.
        let policy = OverrunPolicy::new(Span::from_millis(8), 8)?;
        let responses = [
            Span::from_millis(5),      // job 1 completes within T
            Span::from_micros(10_500), // job 2 overruns: finishes after 2T
            Span::from_millis(6),      // job 3 nominal again
            Span::from_millis(4),
        ];
        let trace = policy.apply(&responses)?;
        run.human(&render_timeline(&trace, &TimelineOptions::default())?);
        for job in &trace.jobs {
            run.human(&format!(
                "job {}: release {}, finish {}, h = {}, delta = {}, overran = {}",
                job.index + 1,
                job.release,
                job.finish,
                job.interval,
                job.delta,
                job.overran
            ));
        }
        run.write_csv("figure1.csv", &trace_to_csv(&trace))?;
        let overruns = trace.jobs.iter().filter(|j| j.overran).count();
        Ok(vec![
            ("jobs", trace.jobs.len() as f64),
            ("overruns", overruns as f64),
        ])
    })
}
