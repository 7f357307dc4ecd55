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

use std::process::ExitCode;

use overrun_bench::csv;
use overrun_control::plants;
use overrun_control::scenarios::{format_table1, table1};

fn main() -> ExitCode {
    overrun_bench::run("table1", |run| {
        let args = &run.args;
        let plant = plants::unstable_second_order();
        let t = 0.010; // 10 ms control period, as in the paper
        run.human(&format!(
            "Table I — PI on an unstable plant, T = 10 ms, {} sequences x {} jobs (seed {}, {} threads)",
            args.sequences, args.jobs, args.seed, run.threads
        ));
        let rows = table1(&plant, t, &args.experiment_config())?;
        run.human(&format_table1(&rows));
        run.human(&format!("elapsed: {:.1?}", run.elapsed()));
        run.write_csv("table1.csv", &csv::table1(&rows))?;
        let worst = rows
            .iter()
            .map(|r| r.jw_adaptive)
            .fold(f64::NEG_INFINITY, f64::max);
        Ok(vec![
            ("rows", rows.len() as f64),
            ("max_jw_adaptive", worst),
        ])
    })
}
