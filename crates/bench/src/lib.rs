//! Shared plumbing for the `overrun` benchmark harness.
//!
//! The binaries in `src/bin/` regenerate every table and figure of the
//! DATE 2021 paper (see `DESIGN.md` for the experiment index); this library
//! holds the small amount of shared argument-parsing and output logic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![allow(
    clippy::disallowed_methods,
    reason = "the experiment harness constructs the trace wall clock"
)]

use std::path::PathBuf;

/// Command-line options shared by the experiment binaries.
///
/// Supported flags:
/// * `--sequences N` — random sequences per configuration (default: the
///   paper's 50 000),
/// * `--jobs N` — jobs per sequence (default 50),
/// * `--seed N` — RNG seed (default 2021),
/// * `--quick` — 500 sequences, for smoke runs,
/// * `--threads N` — worker threads (default: `OVERRUN_THREADS` env or all
///   cores; results are bit-identical for any value),
/// * `--out DIR` — directory for CSV output (default `bench_results`),
/// * `--json PATH` — append a machine-readable summary record to `PATH`
///   (JSON lines; `-` writes the record to stdout and routes
///   human-readable output to stderr),
/// * `--trace[=PATH]` — collect a structured trace of the run: JSONL
///   events go to `PATH` (default `<out_dir>/<bin>.trace.jsonl`) and a
///   span-tree summary to stderr; without it no trace sink is installed.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Random sequences per configuration.
    pub sequences: usize,
    /// Jobs per sequence.
    pub jobs: usize,
    /// RNG seed.
    pub seed: u64,
    /// Worker-thread override (`None` = env / all cores).
    pub threads: Option<usize>,
    /// Output directory for CSV artifacts.
    pub out_dir: PathBuf,
    /// Append-mode JSON-lines summary file (`--json`).
    pub json: Option<PathBuf>,
    /// Trace request: `None` = off, `Some(None)` = `--trace` (default
    /// path), `Some(Some(p))` = `--trace=p`.
    pub trace: Option<Option<PathBuf>>,
}

impl Default for RunArgs {
    fn default() -> Self {
        RunArgs {
            sequences: 50_000,
            jobs: 50,
            seed: 2021,
            threads: None,
            out_dir: PathBuf::from("bench_results"),
            json: None,
            trace: None,
        }
    }
}

impl RunArgs {
    /// Parses `std::env::args`-style arguments.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed flags.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = RunArgs::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--sequences" => {
                    out.sequences = next_value(&mut it, "--sequences")?;
                }
                "--jobs" => {
                    out.jobs = next_value(&mut it, "--jobs")?;
                }
                "--seed" => {
                    out.seed = next_value(&mut it, "--seed")?;
                }
                "--quick" => {
                    out.sequences = 500;
                }
                "--threads" => {
                    out.threads = Some(next_value(&mut it, "--threads")?);
                }
                "--out" => {
                    let v = it
                        .next()
                        .ok_or_else(|| "--out requires a directory".to_string())?;
                    out.out_dir = PathBuf::from(v);
                }
                "--json" => {
                    let v = it
                        .next()
                        .ok_or_else(|| "--json requires a file path".to_string())?;
                    out.json = Some(PathBuf::from(v));
                }
                "--trace" => {
                    out.trace = Some(None);
                }
                other if other.starts_with("--trace=") => {
                    let v = &other["--trace=".len()..];
                    if v.is_empty() {
                        return Err("--trace= requires a file path".to_string());
                    }
                    out.trace = Some(Some(PathBuf::from(v)));
                }
                other => {
                    return Err(format!("unknown argument `{other}`"));
                }
            }
        }
        Ok(out)
    }

    /// Whether the machine-readable summary goes to stdout (`--json -`),
    /// in which case all human-readable output must go to stderr.
    fn json_on_stdout(&self) -> bool {
        self.json.as_deref() == Some(std::path::Path::new("-"))
    }

    /// Prints a human-readable line: to stdout normally, to stderr when
    /// stdout is reserved for the machine-readable record (`--json -`).
    pub fn human(&self, line: &str) {
        if self.json_on_stdout() {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    }

    /// Installs the global trace sink with a monotonic clock when the run
    /// requested `--trace`; otherwise no sink is installed.
    pub fn start_trace(&self) {
        if self.trace.is_some() && !overrun_trace::install(overrun_trace::MonotonicClock::new()) {
            eprintln!("warning: trace sink already active; --trace ignored");
        }
    }

    /// Finishes the trace started by [`RunArgs::start_trace`]: writes the
    /// JSONL event log to `--trace=PATH` (default
    /// `<out_dir>/<bin>.trace.jsonl`), renders the span-tree summary to
    /// stderr, and returns the trace's key metrics for the `--json`
    /// summary record. Returns an empty vector when tracing is off.
    ///
    /// # Errors
    ///
    /// Propagates the failure to write the event log, prefixed with its
    /// path (the summary is still rendered).
    pub fn finish_trace(&self, bin: &str) -> std::io::Result<Vec<(String, f64)>> {
        let Some(requested) = &self.trace else {
            return Ok(Vec::new());
        };
        let Some(trace) = overrun_trace::finish() else {
            return Ok(Vec::new());
        };
        let path = match requested {
            Some(p) => p.clone(),
            None => self.out_dir.join(format!("{bin}.trace.jsonl")),
        };
        let write = || -> std::io::Result<()> {
            if let Some(dir) = path.parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir)?;
                }
            }
            let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
            trace.write_jsonl(&mut f)
        };
        let written = write().map_err(|e| with_path(e, &path));
        if written.is_ok() {
            eprintln!(
                "trace: wrote {} events to {}",
                trace.events.len(),
                path.display()
            );
        }
        eprintln!("{}", trace.render());
        written.map(|()| trace.key_metrics())
    }

    /// Builds the experiment configuration for the scenario drivers.
    pub fn experiment_config(&self) -> overrun_control::scenarios::ExperimentConfig {
        overrun_control::scenarios::ExperimentConfig {
            num_sequences: self.sequences,
            jobs_per_sequence: self.jobs,
            seed: self.seed,
            ..Default::default()
        }
    }

    /// Installs the `--threads` override into the global worker pool and
    /// returns the effective worker count the run will use.
    pub fn apply_threads(&self) -> usize {
        overrun_par::set_thread_override(self.threads);
        overrun_par::max_threads()
    }

    /// Writes `contents` to `<out_dir>/<name>`, creating the directory.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures, prefixed with the artifact's path.
    pub fn write_artifact(&self, name: &str, contents: &str) -> std::io::Result<PathBuf> {
        let path = self.out_dir.join(name);
        std::fs::create_dir_all(&self.out_dir)
            .and_then(|()| std::fs::write(&path, contents))
            .map_err(|e| with_path(e, &path))?;
        Ok(path)
    }

    /// Appends one machine-readable summary record to the `--json` file,
    /// if one was requested (`-` prints the record to stdout instead).
    ///
    /// # Errors
    ///
    /// Propagates the failure to write the requested record.
    pub fn maybe_write_json(
        &self,
        bin: &str,
        threads: usize,
        elapsed: std::time::Duration,
        key_metrics: &[(String, f64)],
    ) -> std::io::Result<()> {
        let Some(path) = &self.json else {
            return Ok(());
        };
        let record = json_record(bin, threads, elapsed, key_metrics);
        if self.json_on_stdout() {
            println!("{record}");
            Ok(())
        } else {
            append_line(path, &record).map_err(|e| with_path(e, path))
        }
    }
}

/// Builds an owned key-metric list from `(&str, f64)` pairs, ready to be
/// extended with [`RunArgs::finish_trace`] output and passed to
/// [`RunArgs::maybe_write_json`].
#[must_use]
pub fn metrics(pairs: &[(&str, f64)]) -> Vec<(String, f64)> {
    pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
}

/// Formats one JSON-lines benchmark record:
/// `{"bin": ..., "threads": ..., "elapsed_ms": ..., "key_metrics": {...}}`.
/// Non-finite metric values are emitted as `null` (JSON has no `inf`/`nan`).
#[must_use]
fn json_record(
    bin: &str,
    threads: usize,
    elapsed: std::time::Duration,
    key_metrics: &[(String, f64)],
) -> String {
    let mut metrics = String::new();
    for (i, (k, v)) in key_metrics.iter().enumerate() {
        if i > 0 {
            metrics.push_str(", ");
        }
        if v.is_finite() {
            metrics.push_str(&format!("\"{k}\": {v}"));
        } else {
            metrics.push_str(&format!("\"{k}\": null"));
        }
    }
    format!(
        "{{\"bin\": \"{bin}\", \"threads\": {threads}, \"elapsed_ms\": {:.3}, \"key_metrics\": {{{metrics}}}}}",
        elapsed.as_secs_f64() * 1e3
    )
}

/// Prefixes an I/O error with the path it concerns.
fn with_path(e: std::io::Error, path: &std::path::Path) -> std::io::Error {
    std::io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

fn append_line(path: &std::path::Path, line: &str) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")
}

/// Formats the `#`-comment provenance header prepended to every CSV
/// artifact: worker-thread count and wall-clock seconds of the run.
#[must_use]
pub fn run_header(threads: usize, elapsed: std::time::Duration) -> String {
    format!(
        "# threads={threads} elapsed_s={:.3}\n",
        elapsed.as_secs_f64()
    )
}

fn next_value<I: Iterator<Item = String>, T: std::str::FromStr>(
    it: &mut I,
    flag: &str,
) -> Result<T, String> {
    it.next()
        .ok_or_else(|| format!("{flag} requires a value"))?
        .parse()
        .map_err(|_| format!("{flag} requires a numeric value"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let a = RunArgs::default();
        assert_eq!(a.sequences, 50_000);
        assert_eq!(a.jobs, 50);
    }

    #[test]
    fn parse_flags() {
        let a = RunArgs::parse(
            [
                "--sequences",
                "100",
                "--jobs",
                "10",
                "--seed",
                "7",
                "--out",
                "/tmp/x",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(a.sequences, 100);
        assert_eq!(a.jobs, 10);
        assert_eq!(a.seed, 7);
        assert_eq!(a.out_dir, PathBuf::from("/tmp/x"));
    }

    #[test]
    fn parse_quick_and_errors() {
        let a = RunArgs::parse(["--quick".to_string()]).unwrap();
        assert_eq!(a.sequences, 500);
        assert!(RunArgs::parse(["--bogus".to_string()]).is_err());
        assert!(RunArgs::parse(["--sequences".to_string()]).is_err());
        assert!(RunArgs::parse(["--sequences".to_string(), "abc".to_string()]).is_err());
    }

    #[test]
    fn parse_threads() {
        let a = RunArgs::parse(["--threads".to_string(), "4".to_string()]).unwrap();
        assert_eq!(a.threads, Some(4));
        assert_eq!(RunArgs::default().threads, None);
        assert!(RunArgs::parse(["--threads".to_string(), "x".to_string()]).is_err());
    }

    #[test]
    fn parse_json_flag() {
        let a = RunArgs::parse(["--json".to_string(), "/tmp/b.json".to_string()]).unwrap();
        assert_eq!(a.json, Some(PathBuf::from("/tmp/b.json")));
        assert!(RunArgs::parse(["--json".to_string()]).is_err());
    }

    #[test]
    fn parse_trace_flag() {
        let bare = RunArgs::parse(["--trace".to_string()]);
        let with_path = RunArgs::parse(["--trace=/tmp/t.jsonl".to_string()]);
        assert_eq!(bare.ok().map(|a| a.trace), Some(Some(None)));
        assert_eq!(
            with_path.ok().map(|a| a.trace),
            Some(Some(Some(PathBuf::from("/tmp/t.jsonl"))))
        );
        assert_eq!(RunArgs::default().trace, None);
        assert!(RunArgs::parse(["--trace=".to_string()]).is_err());
    }

    #[test]
    fn removed_flags_are_rejected() {
        // Certifications are not persisted across runs, so neither the
        // certification-cache flag nor a resume flag exists.
        let cache_flag = concat!("--", "cache");
        for args in [vec![cache_flag, "/tmp/certs"], vec!["--resume"]] {
            let err = RunArgs::parse(args.iter().map(|s| s.to_string())).unwrap_err();
            assert_eq!(err, format!("unknown argument `{}`", args[0]));
        }
    }

    #[test]
    fn json_stdout_routing() {
        let dash = RunArgs {
            json: Some(PathBuf::from("-")),
            ..RunArgs::default()
        };
        assert!(dash.json_on_stdout());
        assert!(!RunArgs::default().json_on_stdout());
        let file = RunArgs {
            json: Some(PathBuf::from("/tmp/x.json")),
            ..RunArgs::default()
        };
        assert!(!file.json_on_stdout());
    }

    #[test]
    fn json_record_format() {
        let r = json_record(
            "table2",
            4,
            std::time::Duration::from_millis(1234),
            &metrics(&[("jsr_ub", 0.75), ("cost", f64::INFINITY)]),
        );
        assert_eq!(
            r,
            "{\"bin\": \"table2\", \"threads\": 4, \"elapsed_ms\": 1234.000, \
             \"key_metrics\": {\"jsr_ub\": 0.75, \"cost\": null}}"
        );
    }

    #[test]
    fn json_append_writes_lines() {
        let dir = std::env::temp_dir().join(format!("overrun-bench-test-{}", std::process::id()));
        let path = dir.join("out.json");
        let _ = std::fs::remove_file(&path);
        let args = RunArgs {
            json: Some(path.clone()),
            ..RunArgs::default()
        };
        let t = std::time::Duration::from_millis(10);
        args.maybe_write_json("a", 1, t, &metrics(&[("x", 1.0)]))
            .unwrap();
        args.maybe_write_json("b", 2, t, &metrics(&[("y", 2.0)]))
            .unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body.lines().count(), 2);
        assert!(body.lines().nth(1).unwrap().contains("\"bin\": \"b\""));
        // A record that cannot be written is an error, not a warning:
        // `out.json` is a regular file, so it cannot hold `x.json`.
        let unwritable = RunArgs {
            json: Some(path.join("x.json")),
            ..RunArgs::default()
        };
        assert!(unwritable.maybe_write_json("c", 1, t, &[]).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_that_cannot_be_written_is_an_error() {
        let dir = std::env::temp_dir().join(format!("overrun-trace-test-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        let traced = |path: &std::path::Path| {
            let args = RunArgs {
                trace: Some(Some(path.to_path_buf())),
                ..RunArgs::default()
            };
            args.start_trace();
            overrun_trace::counter!("test.events", 1);
            args.finish_trace("test")
        };
        traced(&path).unwrap();
        assert!(std::fs::metadata(&path).unwrap().len() > 0);
        // `t.jsonl` is a regular file, so it cannot hold `x.jsonl`.
        let unwritable = path.join("x.jsonl");
        let err = traced(&unwritable).unwrap_err();
        assert!(
            err.to_string().contains(&*unwritable.to_string_lossy()),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn header_format() {
        let h = run_header(4, std::time::Duration::from_millis(1500));
        assert_eq!(h, "# threads=4 elapsed_s=1.500\n");
    }

    #[test]
    fn config_propagates() {
        let a = RunArgs::parse(["--quick".to_string()]).unwrap();
        let cfg = a.experiment_config();
        assert_eq!(cfg.num_sequences, 500);
        assert_eq!(cfg.jobs_per_sequence, 50);
    }
}
