//! The experiment binaries' command-line contract, driven through the real
//! `figure1` binary (the fastest of the five; every binary runs through the
//! same `overrun_bench::run` driver): exit status 2 on a malformed flag, 1
//! on an output that cannot be written, and the `--json` record's routing.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn figure1(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figure1"))
        .args(args)
        .output()
        .expect("run figure1")
}

/// A fresh scratch directory for one test, holding a regular file `file`.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("overrun-cli-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    std::fs::write(dir.join("file"), "").expect("create regular file");
    dir
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

fn arg(path: &Path) -> &str {
    path.to_str().expect("UTF-8 path")
}

#[test]
fn unknown_flag_exits_2() {
    let out = figure1(&["--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(text(&out.stderr).contains("unknown argument `--bogus`"));
}

#[test]
fn unwritable_csv_exits_1_naming_its_path() {
    let dir = scratch("csv");
    // `file` is a regular file, so it cannot hold the output directory.
    let out_dir = dir.join("file").join("sub");
    let out = figure1(&["--out", arg(&out_dir)]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = text(&out.stderr);
    assert!(
        stderr.contains(arg(&out_dir.join("figure1.csv"))),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_that_cannot_be_written_is_an_error() {
    let dir = scratch("trace");
    let traced = |trace: &Path| figure1(&["--out", arg(&dir), &format!("--trace={}", arg(trace))]);
    let written = dir.join("t.jsonl");
    assert_eq!(traced(&written).status.code(), Some(0));
    assert!(std::fs::metadata(&written).expect("trace file").len() > 0);
    let unwritable = dir.join("file").join("t.jsonl");
    let out = traced(&unwritable);
    assert_eq!(out.status.code(), Some(1));
    let stderr = text(&out.stderr);
    assert!(stderr.contains(arg(&unwritable)), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn json_dash_prints_the_record_last_and_the_timeline_on_stderr() {
    let dir = scratch("json-dash");
    let out = figure1(&["--out", arg(&dir), "--json", "-"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = text(&out.stdout);
    let record = stdout.lines().last().expect("a record on stdout");
    assert!(
        record.starts_with("{\"bin\": \"figure1\", \"threads\": "),
        "{record}"
    );
    assert!(
        record.ends_with("\"key_metrics\": {\"jobs\": 4, \"overruns\": 1}}"),
        "{record}"
    );
    assert_eq!(stdout.lines().count(), 1, "{stdout}");
    let stderr = text(&out.stderr);
    assert!(stderr.contains("overran = true"), "{stderr}");
    let csv = std::fs::read_to_string(dir.join("figure1.csv")).expect("figure1.csv");
    let mut lines = csv.lines();
    assert!(
        lines.next().is_some_and(|l| l.starts_with("# threads=")),
        "{csv}"
    );
    assert_eq!(
        lines.next(),
        Some("job,release_s,finish_s,response_s,h_s,delta_s,overrun")
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn json_append_writes_lines() {
    let dir = scratch("json-file");
    let json = dir.join("runs.json");
    for _ in 0..2 {
        let out = figure1(&["--out", arg(&dir), "--json", arg(&json)]);
        assert_eq!(out.status.code(), Some(0));
        assert!(text(&out.stdout).contains("overran = true"));
    }
    let body = std::fs::read_to_string(&json).expect("JSON lines");
    assert_eq!(body.lines().count(), 2, "{body}");
    assert!(body
        .lines()
        .all(|l| l.starts_with("{\"bin\": \"figure1\", ")));
    // A record that cannot be written is an error, not a warning.
    let unwritable = dir.join("file").join("runs.json");
    let out = figure1(&["--out", arg(&dir), "--json", arg(&unwritable)]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = text(&out.stderr);
    assert!(stderr.contains(arg(&unwritable)), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
