//! Trace events and the JSONL schema.
//!
//! One event serializes to one JSON line, with its fields in this fixed
//! order. There are three kinds, told apart by `"e"`:
//!
//! ```text
//! {"e":"open","id":3,"parent":0,"name":"jsr.depth","t_ns":120,"fields":[["depth",2],["frontier",17]]}
//! {"e":"close","id":3,"t_ns":910}
//! {"e":"counter","name":"mc.sequences","delta":64}
//! ```
//!
//! A span's `open` and `close` share its `id`. Non-finite span field
//! values serialize as `null`.

/// Event names are the string literals given to the macros.
pub type Name = &'static str;

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
    fn events_round_trip_via_jsonl() {
        let events = [
            Event::SpanOpen {
                id: 1,
                parent: 0,
                name: "jsr.gripenberg",
                t_ns: 10,
                fields: vec![("matrices", 4.0), ("lb", 1.618_033_988_749)],
            },
            Event::Counter {
                name: "jsr.nodes",
                delta: 12345,
            },
            Event::SpanClose { id: 1, t_ns: 99 },
        ];
        let lines: Vec<String> = events.iter().map(Event::to_jsonl).collect();
        assert_eq!(
            lines,
            [
                r#"{"e":"open","id":1,"parent":0,"name":"jsr.gripenberg","t_ns":10,"fields":[["matrices",4],["lb",1.618033988749]]}"#,
                r#"{"e":"counter","name":"jsr.nodes","delta":12345}"#,
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
        let ev = Event::SpanOpen {
            id: 2,
            parent: 1,
            name: "x",
            t_ns: 0,
            fields: vec![("inf", f64::INFINITY), ("nan", f64::NAN)],
        };
        let line = ev.to_jsonl();
        assert!(
            line.ends_with(r#""fields":[["inf",null],["nan",null]]}"#),
            "{line}"
        );
    }
}
