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

use std::process::ExitCode;

use overrun_bench::csv;
use overrun_control::plants;
use overrun_control::scenarios::{format_table2, pmsm_table2_weights, table2};
use overrun_jsr::ScreenStats;
use overrun_linalg::Matrix;

fn main() -> ExitCode {
    overrun_bench::run("table2", |run| {
        let args = &run.args;
        let plant = plants::pmsm();
        let t = 50e-6; // 50 µs control period, as in the paper
        let x0 = Matrix::col_vec(&[1.0, 1.0, 1.0]);
        run.human(&format!(
            "Table II — LQR on a PMSM, T = 50 us, {} sequences x {} jobs (seed {}, {} threads)",
            args.sequences, args.jobs, args.seed, run.threads
        ));
        let rows = table2(
            &plant,
            t,
            &pmsm_table2_weights(),
            &x0,
            &args.experiment_config(),
        )?;
        run.human(&format_table2(&rows));
        run.human("norm screening (adaptive-design certifications):");
        let mut screen = ScreenStats::default();
        for r in &rows {
            run.human(&format!(
                "  Rmax={:.1}*T Ns={}: {}",
                r.rmax_factor, r.ns, r.screen_adaptive
            ));
            screen.absorb(&r.screen_adaptive);
        }
        run.human(&format!("elapsed: {:.1?}", run.elapsed()));
        run.write_csv("table2.csv", &csv::table2(&rows))?;
        let max_ub = rows
            .iter()
            .map(|r| r.jsr_adaptive.upper)
            .fold(f64::NEG_INFINITY, f64::max);
        Ok(vec![
            ("rows", rows.len() as f64),
            ("max_jsr_ub", max_ub),
            ("schur_evals", screen.schur_evals() as f64),
            ("schur_skipped", screen.schur_skipped() as f64),
            ("screen_hit_rate", screen.hit_rate()),
        ])
    })
}
