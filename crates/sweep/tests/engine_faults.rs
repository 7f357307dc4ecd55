//! Memoising-certifier behaviour: fault isolation, tightened-budget retry,
//! corrupt-record replacement, kill-and-rerun. A fake certifier (the
//! `MemoCertifier::with_runner` seam) keeps these fast; the differential
//! oracle in `tests/sweep_differential.rs` covers the real certifier.

use std::path::{Path, PathBuf};

use overrun_control::stability::{self, CertifyOptions, StabilityReport};
use overrun_control::{plants, ContinuousSs, ControllerMode, ControllerTable, IntervalSet};
use overrun_jsr::{JsrBounds, ScreenStats, StabilityVerdict};
use overrun_linalg::Matrix;
use overrun_sweep::{
    certification_key, CertifyRunner, MemoCertifier, ScenarioFault, SweepError, SweepStats,
};

/// A fresh cache directory per test.
fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "overrun-sweep-engine-test-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A deterministic stand-in certifier: "bounds" derived from the interval
/// count, so distinct tables get distinct records.
fn fake_report(table: &ControllerTable) -> StabilityReport {
    let n = table.len() as f64;
    StabilityReport {
        bounds: JsrBounds {
            lower: 0.5 + 0.01 * n,
            upper: 0.9 + 0.01 * n,
        },
        verdict: StabilityVerdict::Stable,
        screen: ScreenStats {
            nodes: table.len() as u64,
            ..ScreenStats::default()
        },
    }
}

const FAKE: CertifyRunner<'static> = &|_, t, _| Ok(fake_report(t));

/// The unstable second-order plant and `n` static-gain tables with 2..=n+1
/// intervals (the fakes tell tables apart by their length).
fn grid(n: usize) -> (ContinuousSs, Vec<ControllerTable>) {
    let mode = ControllerMode::static_gain(Matrix::from_rows(&[&[-0.5]]).expect("gain"));
    let tables = (0..n)
        .map(|i| {
            let hset = IntervalSet::from_timing(0.010, 0.001 * (11 + i) as f64, 10);
            ControllerTable::fixed(mode.clone().expect("mode"), hset.expect("timing"))
                .expect("table")
        })
        .collect();
    (plants::unstable_second_order(), tables)
}

type Outcomes = Vec<Result<StabilityReport, SweepError>>;

/// Certifies every table of `grid(n)` through a fresh certifier on `dir`.
fn run(dir: &Path, runner: CertifyRunner<'_>, n: usize) -> (Outcomes, SweepStats) {
    let (plant, tables) = grid(n);
    let memo = MemoCertifier::with_runner(dir, runner).expect("open cache");
    let opts = CertifyOptions::default();
    let out = tables
        .iter()
        .map(|t| memo.certify(&plant, t, &opts))
        .collect();
    (out, memo.stats())
}

fn stats(hits: u64, misses: u64, corrupt: u64, retried: u64, errors: u64) -> SweepStats {
    SweepStats {
        cache_hits: hits,
        cache_misses: misses,
        corrupt_records: corrupt,
        retried,
        errors,
    }
}

/// Cache path of the record of table `index` of the grid.
fn record_path(dir: &Path, index: usize) -> PathBuf {
    let (plant, tables) = grid(index + 1);
    let key = certification_key(&plant, &tables[index], &CertifyOptions::default());
    dir.join(format!("{}.record", key.to_hex()))
}

/// The bound bits of successful outcomes.
fn bounds(out: &Outcomes) -> Vec<(u64, u64)> {
    out.iter()
        .map(|r| r.as_ref().expect("certified").bounds)
        .map(|b| (b.lower.to_bits(), b.upper.to_bits()))
        .collect()
}

#[test]
fn panic_is_isolated_and_retry_succeeds() {
    let dir = tmp_dir("panic");
    let calls = std::cell::Cell::new(0);
    let full_depth = CertifyOptions::default().max_depth;
    // Every full-budget attempt panics, mimicking a sanitize poison; the
    // tightened-budget retry succeeds.
    let runner = |_: &ContinuousSs, t: &ControllerTable, o: &CertifyOptions| {
        calls.set(calls.get() + 1);
        if o.max_depth == full_depth {
            panic!("[sanitize] injected poison");
        }
        assert!(o.max_depth <= 4, "retry must tighten the budget");
        Ok(fake_report(t))
    };
    let (out, st) = run(&dir, &runner, 3);
    assert_eq!(st, stats(0, 3, 0, 3, 0));
    assert_eq!(calls.get(), 6, "one retry per certification");
    assert_eq!(bounds(&out), bounds(&run(&tmp_dir("panic-ref"), FAKE, 3).0));
    let record = std::fs::read_to_string(record_path(&dir, 2)).expect("record");
    assert!(record.contains("\nattempts = 2\n"), "{record}");
}

#[test]
fn double_fault_is_a_structured_error_not_an_abort() {
    let dir = tmp_dir("double-fault");
    let poisoned = grid(2).1[1].len();
    let runner = |_: &ContinuousSs, t: &ControllerTable, _: &CertifyOptions| {
        if t.len() == poisoned {
            panic!("[sanitize] non-finite value");
        }
        Ok(fake_report(t))
    };
    let (mut out, st) = run(&dir, &runner, 2);
    assert_eq!(st, stats(0, 2, 0, 0, 1));
    let err = out.pop().expect("two outcomes").expect_err("double fault");
    assert!(out[0].is_ok());
    let panicked = ScenarioFault::Panicked("[sanitize] non-finite value".to_string());
    assert!(
        matches!(&err, SweepError::Fault { attempts: 2, fault, .. } if *fault == panicked),
        "{err}"
    );
    // It reaches an experiment driver as an `Err` naming the fault.
    assert!(overrun_control::Error::from(err)
        .to_string()
        .contains("panicked"));

    // The fault was not cached: a healthy rerun recomputes it, the rest hit.
    assert!(!record_path(&dir, 1).exists());
    assert_eq!(run(&dir, FAKE, 2).1, stats(1, 1, 0, 0, 0));
    assert!(record_path(&dir, 1).exists());
}

#[test]
fn err_results_are_faults_too() {
    let runner = |_: &ContinuousSs, _: &ControllerTable, _: &CertifyOptions| {
        Err(overrun_control::Error::Design(
            "no stabilising gain".to_string(),
        ))
    };
    let (out, st) = run(&tmp_dir("err"), &runner, 1);
    assert_eq!(st, stats(0, 1, 0, 0, 1));
    assert!(matches!(
        &out[0],
        Err(SweepError::Fault { attempts: 2, fault: ScenarioFault::Failed(m), .. })
            if m.contains("no stabilising")
    ));
}

#[test]
fn warm_cache_reports_all_hits_and_identical_records() {
    let dir = tmp_dir("warm");
    let (cold, st) = run(&dir, FAKE, 4);
    assert_eq!(st, stats(0, 4, 0, 0, 0));
    let (warm, st) = run(&dir, &|_, _, _| panic!("warm run must not recompute"), 4);
    assert_eq!(st, stats(4, 0, 0, 0, 0));
    assert_eq!(bounds(&warm), bounds(&cold));
}

#[test]
fn kill_and_resume_converges_to_uninterrupted_result() {
    let dir = tmp_dir("killed");
    let (reference, _) = run(&dir, FAKE, 6);
    // What a `kill -9` leaves behind: the records not yet reached are
    // missing, and a torn temp file of the one in flight remains.
    for i in 2..6 {
        std::fs::remove_file(record_path(&dir, i)).expect("remove record");
    }
    let torn = record_path(&dir, 2).with_extension("999.tmp");
    std::fs::write(torn, "overrun-sweep-record v1\nkey = ").expect("torn temp file");
    let (rerun, st) = run(&dir, FAKE, 6);
    assert_eq!(st, stats(2, 4, 0, 0, 0));
    assert_eq!(bounds(&rerun), bounds(&reference));
}

#[test]
fn corrupt_record_is_reverified_and_replaced_on_load() {
    let dir = tmp_dir("corrupt-reload");
    let (first, _) = run(&dir, FAKE, 2);
    let victim = record_path(&dir, 0);
    let text = std::fs::read_to_string(&victim).expect("read record");
    std::fs::write(&victim, &text[..text.len() - 20]).expect("corrupt record");

    let (second, st) = run(&dir, FAKE, 2);
    assert_eq!(st, stats(1, 1, 1, 0, 0));
    assert_eq!(bounds(&second), bounds(&first));
    assert_eq!(std::fs::read_to_string(&victim).expect("reread"), text);
}

#[test]
fn lookup_answers_real_certifications_bit_identically() {
    // The real certifier behind the cache, cold then warm, reproduces
    // `stability::certify` exactly on an adaptive PI design.
    let dir = tmp_dir("real");
    let plant = plants::unstable_second_order();
    let hset = IntervalSet::from_timing(0.010, 0.0105, 2).expect("timing");
    let table = overrun_control::pi::design_adaptive(&plant, &hset).expect("design");
    let opts = CertifyOptions::default();
    let direct = stability::certify(&plant, &table, &opts).expect("direct certify");
    for expect in [stats(0, 1, 0, 0, 0), stats(1, 0, 0, 0, 0)] {
        let memo = MemoCertifier::open(&dir).expect("open");
        let via = memo
            .certify(&plant, &table, &opts)
            .expect("memoised certify");
        assert_eq!(memo.stats(), expect);
        assert_eq!(via.verdict, direct.verdict);
        assert_eq!(via.bounds.lower.to_bits(), direct.bounds.lower.to_bits());
        assert_eq!(via.bounds.upper.to_bits(), direct.bounds.upper.to_bits());
        assert_eq!(via.screen, direct.screen);
    }
}

#[test]
fn cache_io_failure_names_the_path() {
    let blocker = tmp_dir("io-blocker");
    std::fs::write(&blocker, "a file, not a directory").expect("write blocker");
    let dir = blocker.join("cache");
    let err = MemoCertifier::open(&dir)
        .err()
        .expect("a cache under a file must not open");
    assert!(matches!(err, SweepError::Io { .. }), "{err}");
    assert!(err.to_string().contains(&*dir.to_string_lossy()), "{err}");
}
