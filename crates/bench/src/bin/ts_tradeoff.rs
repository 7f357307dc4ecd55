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

use std::process::ExitCode;

use overrun_bench::csv;
use overrun_control::plants;
use overrun_control::scenarios::{format_granularity, granularity_sweep_with};
use overrun_control::stability;

fn main() -> ExitCode {
    overrun_bench::run("ts_tradeoff", |run| {
        let args = &run.args;
        let plant = plants::unstable_second_order();
        let (t, rmax_factor, ns_values) = (0.010, 1.6, [1u32, 2, 4, 5, 10]);
        run.human(&format!(
            "Ts trade-off — PI, T = 10 ms, Rmax = 1.6 T, {} sequences x {} jobs ({} threads)",
            args.sequences, args.jobs, run.threads
        ));
        let rows = granularity_sweep_with(
            &plant,
            t,
            rmax_factor,
            &ns_values,
            &args.experiment_config(),
            &stability::certify,
        )?;
        run.human(&format_granularity(&rows));
        run.human(&format!("elapsed: {:.1?}", run.elapsed()));
        run.write_csv("ts_tradeoff.csv", &csv::ts_tradeoff(&rows))?;
        let max_ub = rows
            .iter()
            .map(|r| r.jsr.upper)
            .fold(f64::NEG_INFINITY, f64::max);
        Ok(vec![("rows", rows.len() as f64), ("max_jsr_ub", max_ub)])
    })
}
