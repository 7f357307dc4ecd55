//! Golden-file regression tests: the CSV *data* sections of the paper
//! artifacts (`table1.csv`, `table2.csv`, `figure1.csv`) and the Monte
//! Carlo columns of `ts_tradeoff.csv` are pinned byte-for-byte against
//! checked-in snapshots in `tests/`.
//!
//! The snapshots deliberately exclude the bench binaries' `# run:` header
//! comment (timestamp-free determinism); everything else — the column
//! header and every formatted row — must match the smoke (`--quick`)
//! configuration exactly. After an intentional pipeline change, refresh
//! the snapshots with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p overrun-bench --test golden_csv
//! ```

#![allow(
    clippy::disallowed_methods,
    reason = "`UPDATE_GOLDEN` opts in to rewriting the snapshots"
)]

use std::cell::RefCell;
use std::path::PathBuf;

use overrun_control::plants;
use overrun_control::scenarios::{
    granularity_sweep_with, pmsm_table2_weights, table1, table2, ExperimentConfig,
};
use overrun_control::stability::{self, CertifyOptions};
use overrun_jsr::StabilityVerdict;
use overrun_linalg::Matrix;
use overrun_rtsim::{trace_to_csv, OverrunPolicy, Span};

/// The `--quick` smoke ensemble of the bench binaries — the CSV data these
/// goldens pin is exactly what `table1 --quick` / `table2 --quick` write
/// (minus the run-header comment).
fn quick_config() -> ExperimentConfig {
    ExperimentConfig {
        num_sequences: 500,
        jobs_per_sequence: 50,
        seed: 2021,
        ..ExperimentConfig::default()
    }
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests")
        .join(name)
}

/// Compares `generated` against the checked-in snapshot, or rewrites the
/// snapshot when `UPDATE_GOLDEN` is set. Mismatches report the first
/// differing line, not a wall of CSV.
fn check_golden(name: &str, generated: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, generated).expect("write golden snapshot");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); generate it with \
             UPDATE_GOLDEN=1 cargo test -p overrun-bench --test golden_csv",
            path.display()
        )
    });
    if generated == want {
        return;
    }
    for (i, (g, w)) in generated.lines().zip(want.lines()).enumerate() {
        assert_eq!(
            g,
            w,
            "{name}: first difference at line {} (run UPDATE_GOLDEN=1 if intentional)",
            i + 1
        );
    }
    panic!(
        "{name}: line count differs — generated {} vs golden {} \
         (run UPDATE_GOLDEN=1 if intentional)",
        generated.lines().count(),
        want.lines().count()
    );
}

/// Table I data rows (`table1 --quick`), pinned.
#[test]
fn table1_csv_matches_golden() {
    let plant = plants::unstable_second_order();
    let rows = table1(&plant, 0.010, &quick_config()).expect("table1");
    let mut csv = String::from("rmax_factor,ns,jw_adaptive,jw_fixed_t,jw_fixed_rmax\n");
    for r in &rows {
        csv.push_str(&format!(
            "{},{},{},{},{}\n",
            r.rmax_factor, r.ns, r.jw_adaptive, r.jw_fixed_t, r.jw_fixed_rmax
        ));
    }
    check_golden("table1.csv", &csv);
}

/// Table II data rows (`table2 --quick`), pinned.
#[test]
fn table2_csv_matches_golden() {
    let plant = plants::pmsm();
    let x0 = Matrix::col_vec(&[1.0, 1.0, 1.0]);
    let rows = table2(&plant, 50e-6, &pmsm_table2_weights(), &x0, &quick_config()).expect("table2");
    let mut csv = String::from(
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
    check_golden("table2.csv", &csv);
}

/// `ts_tradeoff --quick`'s Monte Carlo columns `(ns, h_count,
/// jw_adaptive)`, pinned: PI at `T = 10 ms`, `Rmax = 1.6 T`, up to
/// `#H = 7` intervals. Every adaptive design is also certified `Stable`,
/// at a reduced search depth that still decides all five sets; the bounds
/// themselves are not pinned.
#[test]
fn ts_tradeoff_csv_matches_golden() {
    let plant = plants::unstable_second_order();
    let verdicts = RefCell::new(Vec::new());
    let rows = granularity_sweep_with(
        &plant,
        0.010,
        1.6,
        &[1, 2, 4, 5, 10],
        &quick_config(),
        &|p, t, _| {
            let opts = CertifyOptions {
                max_depth: 2,
                ..Default::default()
            };
            let report = stability::certify(p, t, &opts)?;
            verdicts.borrow_mut().push(report.verdict);
            Ok(report)
        },
    )
    .expect("granularity sweep");
    let verdicts = verdicts.into_inner();
    assert_eq!(verdicts.len(), rows.len());
    for (r, verdict) in rows.iter().zip(verdicts) {
        assert!(
            verdict == StabilityVerdict::Stable && r.jsr.upper < 1.0,
            "Ns={}: {verdict:?} {:?}",
            r.ns,
            r.jsr
        );
    }
    let mut csv = String::from("ns,h_count,jw_adaptive\n");
    for r in &rows {
        csv.push_str(&format!("{},{},{}\n", r.ns, r.h_count, r.jw_adaptive));
    }
    check_golden("ts_tradeoff.csv", &csv);
}

/// Figure 1 job trace (`figure1`), pinned: `Ns = 8`, job 2 overruns past
/// `2T` and job 3's release snaps to the next sensor tick.
#[test]
fn figure1_csv_matches_golden() {
    let t = Span::from_millis(8);
    let policy = OverrunPolicy::new(t, 8).expect("policy");
    let responses = [
        Span::from_millis(5),
        Span::from_micros(10_500),
        Span::from_millis(6),
        Span::from_millis(4),
    ];
    let trace = policy.apply(&responses).expect("trace");
    check_golden("figure1.csv", &trace_to_csv(&trace));
}
