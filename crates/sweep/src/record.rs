//! Versioned, human-readable cache records with byte-exact round-trip.
//!
//! Each record serializes one certified scenario as a line-oriented text
//! file (same discipline as the trace JSONL export): every `f64` is stored
//! as its exact IEEE-754 bit pattern (`0x…` hex) followed by a `#` comment
//! with the human-readable value, so `parse(serialize(r)) == r` holds
//! bit-for-bit and `serialize(parse(s)) == s` holds byte-for-byte on any
//! file this module wrote. The format is strict: unknown lines, reordered
//! fields, or missing fields are parse errors — a corrupt cache entry is
//! detected, never silently half-read.

use std::path::Path;

use overrun_jsr::{JsrBounds, ScreenStats, StabilityVerdict};

use crate::error::SweepError;
use crate::hash::ContentHash;

/// Format magic + version line of a cache record.
pub const RECORD_HEADER: &str = "overrun-sweep-record v1";

/// One memoized certification result.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRecord {
    /// Content key of the inputs (plant, table, options, crate version and
    /// certifier revision).
    pub key: ContentHash,
    /// Version of `overrun-sweep` that wrote the record.
    pub crate_version: String,
    /// Human label of the scenario ("pmsm r1.6 ns2 adaptive", ...).
    pub label: String,
    /// Certified verdict.
    pub verdict: StabilityVerdict,
    /// Certified JSR bounds `[lower, upper]`.
    pub bounds: JsrBounds,
    /// Norm-screening counters of the certification run.
    pub screen: ScreenStats,
    /// Wall-clock milliseconds the certification took (metadata only —
    /// nondeterministic, excluded from the content key).
    pub elapsed_ms: u64,
    /// Certification attempts (2 = succeeded on the tightened-budget
    /// retry after a first fault).
    pub attempts: u32,
}

fn verdict_str(v: StabilityVerdict) -> &'static str {
    match v {
        StabilityVerdict::Stable => "stable",
        StabilityVerdict::Unstable => "unstable",
        StabilityVerdict::Unknown => "unknown",
    }
}

fn parse_verdict(s: &str) -> Option<StabilityVerdict> {
    match s {
        "stable" => Some(StabilityVerdict::Stable),
        "unstable" => Some(StabilityVerdict::Unstable),
        "unknown" => Some(StabilityVerdict::Unknown),
        _ => None,
    }
}

/// Escapes a label so it fits on one line (`\\`, `\n`, `\r` escapes).
fn escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

fn unescape_label(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '\\' => out.push('\\'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            _ => return None,
        }
    }
    Some(out)
}

/// Renders an `f64` line: exact bit pattern plus a readable comment.
fn f64_line(name: &str, v: f64) -> String {
    format!("{name} = 0x{:016x} # {v:?}\n", v.to_bits())
}

impl ScenarioRecord {
    /// Serializes the record to its canonical text form.
    pub fn serialize(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push_str(RECORD_HEADER);
        s.push('\n');
        s.push_str(&format!("key = {}\n", self.key.to_hex()));
        s.push_str(&format!("crate = {}\n", self.crate_version));
        s.push_str(&format!("label = {}\n", escape_label(&self.label)));
        s.push_str(&format!("verdict = {}\n", verdict_str(self.verdict)));
        s.push_str(&f64_line("lower", self.bounds.lower));
        s.push_str(&f64_line("upper", self.bounds.upper));
        s.push_str(&format!("elapsed_ms = {}\n", self.elapsed_ms));
        s.push_str(&format!("attempts = {}\n", self.attempts));
        s.push_str(&format!("screen.nodes = {}\n", self.screen.nodes));
        s.push_str(&format!("screen.exact_norms = {}\n", self.screen.exact_norms));
        s.push_str(&format!("screen.cached_norms = {}\n", self.screen.cached_norms));
        s.push_str(&format!("screen.exact_eigs = {}\n", self.screen.exact_eigs));
        s.push_str(&format!("screen.skipped_norms = {}\n", self.screen.skipped_norms));
        s.push_str(&format!("screen.skipped_eigs = {}\n", self.screen.skipped_eigs));
        s.push_str(&format!("screen.lb_depth = {}\n", self.screen.lb_depth));
        s
    }

    /// Parses the canonical text form. Strict: field order, names and
    /// framing must match [`ScenarioRecord::serialize`] exactly.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Parse`] (tagged with `path` for diagnostics)
    /// on any deviation from the canonical form.
    pub fn parse(text: &str, path: &Path) -> Result<ScenarioRecord, SweepError> {
        let mut p = Parser {
            lines: text.lines().enumerate(),
            path,
        };
        p.expect_literal(RECORD_HEADER)?;
        let key = p.field("key", "32 hex digits", ContentHash::from_hex)?;
        let crate_version = p.field("crate", "text", |s| Some(s.to_string()))?;
        let label = p.field("label", "a label with valid escapes", unescape_label)?;
        let verdict = p.field("verdict", "stable|unstable|unknown", parse_verdict)?;
        let lower = p.field("lower", F64_BITS, f64_bits)?;
        let upper = p.field("upper", F64_BITS, f64_bits)?;
        let elapsed_ms = p.field("elapsed_ms", UINT, uint)?;
        let attempts = p.field("attempts", UINT, uint)?;
        let screen = ScreenStats {
            nodes: p.field("screen.nodes", UINT, uint)?,
            exact_norms: p.field("screen.exact_norms", UINT, uint)?,
            cached_norms: p.field("screen.cached_norms", UINT, uint)?,
            exact_eigs: p.field("screen.exact_eigs", UINT, uint)?,
            skipped_norms: p.field("screen.skipped_norms", UINT, uint)?,
            skipped_eigs: p.field("screen.skipped_eigs", UINT, uint)?,
            lb_depth: p.field("screen.lb_depth", UINT, uint)?,
        };
        p.expect_end()?;
        Ok(ScenarioRecord {
            key,
            crate_version,
            label,
            verdict,
            bounds: JsrBounds { lower, upper },
            screen,
            elapsed_ms,
            attempts,
        })
    }
}

const F64_BITS: &str = "0x-hex f64 bits";
const UINT: &str = "an unsigned integer in range";

/// Parses the exact bit pattern of an `f64` line, ignoring its
/// human-readable ` # value` comment.
fn f64_bits(s: &str) -> Option<f64> {
    let hex = s.split(" # ").next()?.strip_prefix("0x")?;
    u64::from_str_radix(hex, 16).ok().map(f64::from_bits)
}

/// Parses an unsigned integer that fits `T`: an out-of-range value is
/// corrupt, never truncated.
fn uint<T: TryFrom<u64>>(s: &str) -> Option<T> {
    s.parse::<u64>().ok().and_then(|v| T::try_from(v).ok())
}

/// Minimal strict line parser of the record format.
struct Parser<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
    path: &'a Path,
}

impl Parser<'_> {
    fn err(&self, line: usize, msg: impl Into<String>) -> SweepError {
        SweepError::Parse {
            path: self.path.to_path_buf(),
            line,
            msg: msg.into(),
        }
    }

    fn next_line(&mut self) -> Result<(usize, &str), SweepError> {
        match self.lines.next() {
            Some((i, l)) => Ok((i + 1, l)),
            None => Err(self.err(0, "unexpected end of file")),
        }
    }

    fn expect_literal(&mut self, lit: &str) -> Result<(), SweepError> {
        let (n, line) = self.next_line()?;
        if line != lit {
            return Err(self.err(n, format!("expected `{lit}`")));
        }
        Ok(())
    }

    /// Reads the next line as `name = value` and converts the value with
    /// `conv`; an error names the line. The value is taken verbatim: only
    /// `f64` lines carry a ` # ` comment, and a label may contain one.
    fn field<T>(
        &mut self,
        name: &str,
        what: &str,
        conv: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, SweepError> {
        let (n, line) = self.next_line()?;
        let Some(value) = line.strip_prefix(name).and_then(|r| r.strip_prefix(" = ")) else {
            return Err(self.err(n, format!("expected field `{name}`")));
        };
        conv(value).ok_or_else(|| self.err(n, format!("field `{name}` must be {what}")))
    }

    fn expect_end(&mut self) -> Result<(), SweepError> {
        match self.lines.next() {
            None => Ok(()),
            Some((i, _)) => Err(self.err(i + 1, "trailing content after record")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn sample() -> ScenarioRecord {
        ScenarioRecord {
            key: ContentHash(0x0123_4567_89ab_cdef_0f1e_2d3c_4b5a_6978),
            crate_version: "0.1.0".to_string(),
            label: "pmsm r1.6 ns2 \\weird\nlabel # not a comment".to_string(),
            verdict: StabilityVerdict::Stable,
            bounds: JsrBounds {
                lower: 0.987_654_321,
                upper: 0.999_999_999_1,
            },
            screen: ScreenStats {
                nodes: 12_345,
                exact_norms: 678,
                cached_norms: 90,
                exact_eigs: 12,
                skipped_norms: 11_000,
                skipped_eigs: 500,
                lb_depth: 7,
            },
            elapsed_ms: 4321,
            attempts: 2,
        }
    }

    #[test]
    fn round_trip_is_bit_exact() -> Result<(), SweepError> {
        let path = PathBuf::from("test.record");
        let r = sample();
        let text = r.serialize();
        let back = ScenarioRecord::parse(&text, &path)?;
        assert_eq!(back, r);
        assert_eq!(back.bounds.lower.to_bits(), r.bounds.lower.to_bits());
        // Byte-exact the other way: re-serializing reproduces the file.
        assert_eq!(back.serialize(), text);
        Ok(())
    }

    #[test]
    fn parse_is_strict() {
        let path = PathBuf::from("test.record");
        let good = sample().serialize();
        // Truncation, field rename, bad verdict, trailing junk: all rejected.
        let cases = [
            good[..good.len() / 2].to_string(),
            good.replacen("lower =", "loWer =", 1),
            good.replacen("= stable", "= wobbly", 1),
            format!("{good}extra\n"),
            good.replacen(RECORD_HEADER, "overrun-sweep-record v9", 1),
            good.replacen("key = 0123", "key = zzzz", 1),
        ];
        for (i, text) in cases.iter().enumerate() {
            assert!(
                ScenarioRecord::parse(text, &path).is_err(),
                "case {i} should fail"
            );
        }
        // An out-of-range attempt count is corrupt, not truncated to 1, and
        // a bad number names its line.
        let cases = [
            (
                "attempts",
                good.replacen("attempts = 2", "attempts = 4294967297", 1),
            ),
            ("lower", good.replacen("lower = 0x", "lower = 0y", 1)),
            (
                "screen.nodes",
                good.replacen("nodes = 12345", "nodes = -1", 1),
            ),
        ];
        for (field, text) in cases {
            let want = text
                .lines()
                .position(|l| l.starts_with(field))
                .map(|i| i + 1);
            let got = match ScenarioRecord::parse(&text, &path) {
                Err(SweepError::Parse { line, .. }) => Some(line),
                _ => None,
            };
            assert_eq!(got, want, "{field}");
        }
    }

    #[test]
    fn nonfinite_bounds_survive() -> Result<(), SweepError> {
        let path = PathBuf::from("test.record");
        let mut r = sample();
        r.bounds = JsrBounds {
            lower: f64::INFINITY,
            upper: f64::NAN,
        };
        let back = ScenarioRecord::parse(&r.serialize(), &path)?;
        assert!(back.bounds.lower.is_infinite());
        assert_eq!(back.bounds.upper.to_bits(), r.bounds.upper.to_bits());
        Ok(())
    }
}
