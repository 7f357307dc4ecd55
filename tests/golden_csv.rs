//! Golden-file regression tests: the CSV *data* sections of the paper
//! artifacts (`table1.csv`, `table2.csv`, `figure1.csv`) and the Monte
//! Carlo columns of `ts_tradeoff.csv` are pinned byte-for-byte against
//! checked-in snapshots in `tests/`.
//!
//! Each test formats its rows with the function the bench binary writes
//! them with (`overrun_bench::csv::{table1, table2, ts_tradeoff}` and
//! `overrun_rtsim::trace_to_csv`), on the smoke (`--quick`) ensemble, so a
//! snapshot is exactly the binary's CSV below its `# threads=… elapsed_s=…`
//! run header, which the snapshots leave out (it holds timings). After an
//! intentional pipeline change, refresh the snapshots with:
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

use overrun_bench::csv;
use overrun_control::plants;
use overrun_control::scenarios::{
    granularity_sweep_with, pmsm_table2_weights, table1, table2, ExperimentConfig,
};
use overrun_control::stability::{self, CertifyOptions};
use overrun_jsr::StabilityVerdict;
use overrun_linalg::Matrix;
use overrun_rtsim::{trace_to_csv, OverrunPolicy, Span};

/// The `--quick` smoke ensemble of the bench binaries.
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

/// The named columns of `csv`, in the given order, picked by header name.
fn select_columns(csv: &str, names: &[&str]) -> String {
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().expect("CSV header").split(',').collect();
    let picks: Vec<usize> = names
        .iter()
        .map(|n| header.iter().position(|h| h == n).expect("column"))
        .collect();
    let mut out = names.join(",") + "\n";
    for line in lines {
        let cells: Vec<&str> = line.split(',').collect();
        let picked: Vec<&str> = picks.iter().map(|&i| cells[i]).collect();
        out.push_str(&picked.join(","));
        out.push('\n');
    }
    out
}

/// Table I data rows (`table1 --quick`), pinned.
#[test]
fn table1_csv_matches_golden() {
    let plant = plants::unstable_second_order();
    let rows = table1(&plant, 0.010, &quick_config()).expect("table1");
    check_golden("table1.csv", &csv::table1(&rows));
}

/// Table II data rows (`table2 --quick`), pinned.
#[test]
fn table2_csv_matches_golden() {
    let plant = plants::pmsm();
    let x0 = Matrix::col_vec(&[1.0, 1.0, 1.0]);
    let rows = table2(&plant, 50e-6, &pmsm_table2_weights(), &x0, &quick_config()).expect("table2");
    check_golden("table2.csv", &csv::table2(&rows));
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
    check_golden(
        "ts_tradeoff.csv",
        &select_columns(&csv::ts_tradeoff(&rows), &["ns", "h_count", "jw_adaptive"]),
    );
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
