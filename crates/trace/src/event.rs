//! Trace events, fixed-bucket histograms, and the JSONL schema.
//!
//! One event serializes to one JSON line, with its fields in this fixed
//! order:
//!
//! ```text
//! {"e":"open","id":3,"parent":0,"name":"jsr.depth","t_ns":120,"fields":[["depth",2],["frontier",17]]}
//! {"e":"close","id":3,"t_ns":910}
//! {"e":"counter","name":"mc.sequences","delta":64}
//! {"e":"progress","name":"jsr.lb","value":1.618033,"t_ns":455}
//! {"e":"hist","name":"lqr.riccati_residual","count":6,"sum":3.1e-13,"min":2e-14,"max":9e-14,"buckets":[[8,4],[9,2]]}
//! ```
//!
//! Non-finite floats serialize as `null`.

use std::borrow::Cow;

/// Event names are `&'static str` when produced by the macros; an owned
/// string serves a name built at run time.
pub type Name = Cow<'static, str>;

/// Number of exponent buckets in a [`Hist`]. Bucket 0 collects
/// non-positive and non-finite samples; buckets 1..=95 cover binary
/// exponents from 2^-53 (and below) to 2^41 (and above).
pub const HIST_BUCKETS: usize = 96;

/// Offset added to the unbiased binary exponent to form a bucket index.
const EXP_OFFSET: i32 = 54;

/// A fixed-size log-scale histogram of `f64` samples.
///
/// Samples are bucketed by their binary exponent (extracted from the bit
/// pattern, no transcendental math), so recording costs a few integer
/// ops. Non-positive and non-finite samples land in bucket 0 and are
/// excluded from `sum`/`min`/`max`.
#[derive(Debug, Clone, PartialEq)]
pub struct Hist {
    /// Total number of recorded samples (including bucket-0 outliers).
    pub count: u64,
    /// Sum of the finite positive samples.
    pub sum: f64,
    /// Smallest finite positive sample (`+inf` when none).
    pub min: f64,
    /// Largest finite positive sample (`-inf` when none).
    pub max: f64,
    buckets: [u64; HIST_BUCKETS],
}

impl Default for Hist {
    fn default() -> Self {
        Self::new()
    }
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; HIST_BUCKETS],
        }
    }

    /// Bucket index for a sample.
    pub fn bucket_of(v: f64) -> usize {
        if !v.is_finite() || v <= 0.0 {
            return 0;
        }
        let biased = (v.to_bits() >> 52) as i32; // 0 for subnormals
        let exp = biased - 1023;
        (exp + EXP_OFFSET).clamp(1, HIST_BUCKETS as i32 - 1) as usize
    }

    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        let b = Self::bucket_of(v);
        self.buckets[b] += 1;
        if b != 0 {
            self.sum += v;
            if v < self.min {
                self.min = v;
            }
            if v > self.max {
                self.max = v;
            }
        }
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Hist) {
        self.count += other.count;
        self.sum += other.sum;
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
    }

    /// Mean of the finite positive samples, or NaN when there are none.
    pub fn mean(&self) -> f64 {
        let finite = self.count - self.buckets[0];
        if finite == 0 {
            f64::NAN
        } else {
            self.sum / finite as f64
        }
    }

    /// Iterates over the non-empty buckets as `(index, count)`.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| (i, c))
    }
}

/// One structured trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A span opened: `id` is process-unique, `parent` is the enclosing
    /// span on the same thread (0 at the root).
    SpanOpen {
        /// Process-unique span id (never 0).
        id: u64,
        /// Enclosing span id on the opening thread, 0 for roots.
        parent: u64,
        /// Dotted span name, e.g. `jsr.gripenberg`.
        name: Name,
        /// Clock reading at open.
        t_ns: u64,
        /// Structured key/value attachments (`span!("x", depth = d)`).
        fields: Vec<(Name, f64)>,
    },
    /// A span closed (guard dropped).
    SpanClose {
        /// Id of the span being closed.
        id: u64,
        /// Clock reading at close.
        t_ns: u64,
    },
    /// A monotonic counter increment.
    Counter {
        /// Counter name.
        name: Name,
        /// Amount added.
        delta: u64,
    },
    /// A progress observation (best-so-far bound, residual, ...).
    Progress {
        /// Metric name.
        name: Name,
        /// Observed value.
        value: f64,
        /// Clock reading at observation.
        t_ns: u64,
    },
    /// A histogram snapshot (merged per name by the aggregator). Boxed:
    /// the fixed bucket array dwarfs every other variant.
    Hist {
        /// Histogram name.
        name: Name,
        /// Snapshot contents.
        hist: Box<Hist>,
    },
}

impl Event {
    /// Serializes the event as a single JSON line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(64);
        match self {
            Event::SpanOpen {
                id,
                parent,
                name,
                t_ns,
                fields,
            } => {
                out.push_str("{\"e\":\"open\",\"id\":");
                out.push_str(&id.to_string());
                out.push_str(",\"parent\":");
                out.push_str(&parent.to_string());
                out.push_str(",\"name\":\"");
                escape_into(&mut out, name);
                out.push_str("\",\"t_ns\":");
                out.push_str(&t_ns.to_string());
                out.push_str(",\"fields\":[");
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str("[\"");
                    escape_into(&mut out, k);
                    out.push_str("\",");
                    push_f64(&mut out, *v);
                    out.push(']');
                }
                out.push_str("]}");
            }
            Event::SpanClose { id, t_ns } => {
                out.push_str("{\"e\":\"close\",\"id\":");
                out.push_str(&id.to_string());
                out.push_str(",\"t_ns\":");
                out.push_str(&t_ns.to_string());
                out.push('}');
            }
            Event::Counter { name, delta } => {
                out.push_str("{\"e\":\"counter\",\"name\":\"");
                escape_into(&mut out, name);
                out.push_str("\",\"delta\":");
                out.push_str(&delta.to_string());
                out.push('}');
            }
            Event::Progress { name, value, t_ns } => {
                out.push_str("{\"e\":\"progress\",\"name\":\"");
                escape_into(&mut out, name);
                out.push_str("\",\"value\":");
                push_f64(&mut out, *value);
                out.push_str(",\"t_ns\":");
                out.push_str(&t_ns.to_string());
                out.push('}');
            }
            Event::Hist { name, hist } => {
                out.push_str("{\"e\":\"hist\",\"name\":\"");
                escape_into(&mut out, name);
                out.push_str("\",\"count\":");
                out.push_str(&hist.count.to_string());
                out.push_str(",\"sum\":");
                push_f64(&mut out, hist.sum);
                out.push_str(",\"min\":");
                push_f64(&mut out, hist.min);
                out.push_str(",\"max\":");
                push_f64(&mut out, hist.max);
                out.push_str(",\"buckets\":[");
                for (i, (idx, c)) in hist.nonzero_buckets().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('[');
                    out.push_str(&idx.to_string());
                    out.push(',');
                    out.push_str(&c.to_string());
                    out.push(']');
                }
                out.push_str("]}");
            }
        }
        out
    }
}

/// Escapes a string for embedding in a JSON document.
fn escape_into(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Formats an `f64` as a JSON number, mapping non-finite values to `null`.
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_monotone() {
        assert_eq!(Hist::bucket_of(f64::NAN), 0);
        assert_eq!(Hist::bucket_of(-1.0), 0);
        assert_eq!(Hist::bucket_of(0.0), 0);
        let samples = [1e-20, 1e-10, 1e-3, 0.5, 1.0, 2.0, 1e3, 1e12, 1e300];
        let mut last = 0usize;
        for s in samples {
            let b = Hist::bucket_of(s);
            assert!(b >= last, "bucket_of({s}) = {b} < {last}");
            last = b;
        }
        // 1.0 has unbiased exponent 0.
        assert_eq!(Hist::bucket_of(1.0), 54);
        assert_eq!(Hist::bucket_of(2.0), 55);
        assert_eq!(Hist::bucket_of(0.5), 53);
    }

    #[test]
    fn hist_records_and_merges() {
        let mut a = Hist::new();
        a.record(1.0);
        a.record(4.0);
        a.record(f64::INFINITY);
        let mut b = Hist::new();
        b.record(0.25);
        b.merge(&a);
        assert_eq!(b.count, 4);
        assert_eq!(b.min, 0.25);
        assert_eq!(b.max, 4.0);
        assert!((b.mean() - (0.25 + 1.0 + 4.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn events_round_trip_via_jsonl() {
        let mut hist = Hist::new();
        hist.record(3.5e-13);
        hist.record(9.0e-14);
        let events = [
            Event::SpanOpen {
                id: 1,
                parent: 0,
                name: Name::Borrowed("jsr.gripenberg"),
                t_ns: 10,
                fields: vec![(Name::Borrowed("matrices"), 4.0)],
            },
            Event::Counter {
                name: Name::Borrowed("jsr.nodes"),
                delta: 12345,
            },
            Event::Progress {
                name: Name::Borrowed("jsr.lb"),
                value: 1.618_033_988_749,
                t_ns: 42,
            },
            Event::Hist {
                name: Name::Borrowed("lqr.riccati_residual"),
                hist: Box::new(hist),
            },
            Event::SpanClose { id: 1, t_ns: 99 },
        ];
        let lines: Vec<String> = events.iter().map(Event::to_jsonl).collect();
        assert_eq!(
            lines,
            [
                r#"{"e":"open","id":1,"parent":0,"name":"jsr.gripenberg","t_ns":10,"fields":[["matrices",4]]}"#,
                r#"{"e":"counter","name":"jsr.nodes","delta":12345}"#,
                r#"{"e":"progress","name":"jsr.lb","value":1.618033988749,"t_ns":42}"#,
                r#"{"e":"hist","name":"lqr.riccati_residual","count":2,"sum":0.00000000000044000000000000004,"min":0.00000000000009,"max":0.00000000000035,"buckets":[[10,1],[12,1]]}"#,
                r#"{"e":"close","id":1,"t_ns":99}"#,
            ]
        );
    }

    #[test]
    fn escape_writes_json_string_escapes() {
        let mut out = String::new();
        escape_into(&mut out, "a\"b\\c\nd\te\u{1}f");
        assert_eq!(out, r#"a\"b\\c\nd\te\u0001f"#);
    }

    #[test]
    fn non_finite_values_serialize_as_null() {
        let ev = Event::Progress {
            name: Name::Borrowed("x"),
            value: f64::INFINITY,
            t_ns: 0,
        };
        let line = ev.to_jsonl();
        assert!(line.contains("\"value\":null"), "{line}");
    }
}
