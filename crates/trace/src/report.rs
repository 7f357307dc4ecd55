//! The collected trace: JSONL export, per-phase span-tree
//! aggregation, and the human-readable summary rendered at process exit.

use std::collections::BTreeMap;
use std::io::{self, Write};

use crate::event::Event;

/// Everything one sink epoch recorded, in flush order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// The raw event stream (per-thread buffers concatenated in the
    /// order they were flushed; span ids tie opens to closes).
    pub events: Vec<Event>,
}

/// Open/close accounting for a trace, used by the schema tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanBalance {
    /// Number of span-open events.
    pub opens: usize,
    /// Number of span-close events.
    pub closes: usize,
    /// Opens with no matching close (crashed / leaked guards).
    pub unmatched_opens: usize,
    /// Closes with no matching open (should never happen).
    pub unmatched_closes: usize,
}

/// One aggregated node of the span tree: all spans sharing a name path.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Span name (one path component; the parent chain gives the rest).
    pub name: String,
    /// How many spans with this name path opened.
    pub calls: u64,
    /// Total wall time across all calls, in nanoseconds.
    pub total_ns: u64,
    /// Total minus the children's totals (clamped at zero).
    pub self_ns: u64,
    /// Calls that never closed (excluded from the timings).
    pub unclosed: u64,
    /// Child nodes, sorted by name.
    pub children: Vec<SpanNode>,
}

#[derive(Default)]
struct AggNode {
    calls: u64,
    total_ns: u64,
    unclosed: u64,
    children: BTreeMap<String, AggNode>,
}

impl AggNode {
    fn into_span_node(self, name: String) -> SpanNode {
        let children: Vec<SpanNode> = self
            .children
            .into_iter()
            .map(|(n, agg)| agg.into_span_node(n))
            .collect();
        let child_total: u64 = children.iter().map(|c| c.total_ns).sum();
        SpanNode {
            name,
            calls: self.calls,
            total_ns: self.total_ns,
            self_ns: self.total_ns.saturating_sub(child_total),
            unclosed: self.unclosed,
            children,
        }
    }
}

impl Trace {
    /// Wraps a flushed event stream.
    pub fn from_events(events: Vec<Event>) -> Self {
        Self { events }
    }

    /// Writes the trace as JSONL, one event per line.
    pub fn write_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        for ev in &self.events {
            writeln!(w, "{}", ev.to_jsonl())?;
        }
        Ok(())
    }

    /// Sum of all counter deltas, per counter name.
    pub fn counter_totals(&self) -> BTreeMap<String, u64> {
        let mut totals = BTreeMap::new();
        for ev in &self.events {
            if let Event::Counter { name, delta } = ev {
                *totals.entry((*name).to_string()).or_insert(0u64) += delta;
            }
        }
        totals
    }

    /// Open/close accounting across the stream.
    pub fn span_balance(&self) -> SpanBalance {
        let mut opens = 0usize;
        let mut closes = 0usize;
        let mut open_ids: BTreeMap<u64, bool> = BTreeMap::new(); // id -> closed
        let mut unmatched_closes = 0usize;
        for ev in &self.events {
            match ev {
                Event::SpanOpen { id, .. } => {
                    opens += 1;
                    open_ids.insert(*id, false);
                }
                Event::SpanClose { id, .. } => {
                    closes += 1;
                    match open_ids.get_mut(id) {
                        Some(closed) => *closed = true,
                        None => unmatched_closes += 1,
                    }
                }
                Event::Counter { .. } => {}
            }
        }
        let unmatched_opens = open_ids.values().filter(|&&closed| !closed).count();
        SpanBalance {
            opens,
            closes,
            unmatched_opens,
            unmatched_closes,
        }
    }

    /// True when every span open has exactly one close and vice versa.
    pub fn is_balanced(&self) -> bool {
        let b = self.span_balance();
        b.unmatched_opens == 0 && b.unmatched_closes == 0
    }

    /// Aggregates the span stream into a tree keyed by name path: all
    /// spans with the same name under the same parent path merge into one
    /// node with summed wall time and call counts.
    pub fn span_tree(&self) -> Vec<SpanNode> {
        // id -> (name, parent id, open time)
        let mut info: BTreeMap<u64, (&str, u64, u64)> = BTreeMap::new();
        let mut close_at: BTreeMap<u64, u64> = BTreeMap::new();
        for ev in &self.events {
            match ev {
                Event::SpanOpen {
                    id,
                    parent,
                    name,
                    t_ns,
                    ..
                } => {
                    info.insert(*id, (*name, *parent, *t_ns));
                }
                Event::SpanClose { id, t_ns } => {
                    close_at.insert(*id, *t_ns);
                }
                Event::Counter { .. } => {}
            }
        }
        let mut root = AggNode::default();
        let mut path: Vec<&str> = Vec::new();
        for (&id, &(name, parent, opened)) in &info {
            // Resolve the name path root→leaf by walking the parent chain.
            path.clear();
            path.push(name);
            let mut cursor = parent;
            let mut hops = 0usize;
            while cursor != 0 && hops < 64 {
                match info.get(&cursor) {
                    Some(&(pname, pparent, _)) => {
                        path.push(pname);
                        cursor = pparent;
                    }
                    None => break, // parent flushed from another epoch: treat as root
                }
                hops += 1;
            }
            path.reverse();
            let mut node = &mut root;
            for component in &path {
                node = node.children.entry((*component).to_string()).or_default();
            }
            node.calls += 1;
            match close_at.get(&id) {
                Some(&closed) => node.total_ns += closed.saturating_sub(opened),
                None => node.unclosed += 1,
            }
        }
        root.children
            .into_iter()
            .map(|(n, agg)| agg.into_span_node(n))
            .collect()
    }

    /// Renders the span tree and the counter totals as an aligned text
    /// report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let tree = self.span_tree();
        if !tree.is_empty() {
            out.push_str(&format!(
                "{:<44} {:>8} {:>11} {:>11}\n",
                "span", "calls", "total", "self"
            ));
            for node in &tree {
                render_node(&mut out, node, 0);
            }
        }
        let counters = self.counter_totals();
        if !counters.is_empty() {
            out.push_str("counters:\n");
            for (name, total) in &counters {
                out.push_str(&format!("  {name:<42} {total:>20}\n"));
            }
        }
        if out.is_empty() {
            out.push_str("(empty trace)\n");
        }
        out
    }

    /// Flat summary metrics for merging into bench `--json` records:
    /// per-root span totals in milliseconds and counter totals.
    pub fn key_metrics(&self) -> Vec<(String, f64)> {
        let mut metrics = Vec::new();
        for node in self.span_tree() {
            metrics.push((
                format!("trace.span_ms.{}", node.name),
                node.total_ns as f64 / 1e6,
            ));
        }
        for (name, total) in self.counter_totals() {
            metrics.push((format!("trace.counter.{name}"), total as f64));
        }
        metrics
    }
}

fn render_node(out: &mut String, node: &SpanNode, depth: usize) {
    let indent = "  ".repeat(depth);
    let label = format!("{indent}{}", node.name);
    let unclosed = if node.unclosed > 0 {
        format!("  ({} unclosed)", node.unclosed)
    } else {
        String::new()
    };
    out.push_str(&format!(
        "{:<44} {:>8} {:>11} {:>11}{}\n",
        label,
        node.calls,
        fmt_ns(node.total_ns),
        fmt_ns(node.self_ns),
        unclosed
    ));
    for child in &node.children {
        render_node(out, child, depth + 1);
    }
}

/// Formats nanoseconds with an adaptive unit.
fn fmt_ns(ns: u64) -> String {
    let ns_f = ns as f64;
    if ns_f < 1e3 {
        format!("{ns} ns")
    } else if ns_f < 1e6 {
        format!("{:.2} us", ns_f / 1e3)
    } else if ns_f < 1e9 {
        format!("{:.2} ms", ns_f / 1e6)
    } else {
        format!("{:.2} s", ns_f / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open(id: u64, parent: u64, name: &'static str, t_ns: u64) -> Event {
        Event::SpanOpen {
            id,
            parent,
            name,
            t_ns,
            fields: Vec::new(),
        }
    }

    fn close(id: u64, t_ns: u64) -> Event {
        Event::SpanClose { id, t_ns }
    }

    fn sample_trace() -> Trace {
        Trace::from_events(vec![
            open(1, 0, "root", 0),
            open(2, 1, "child", 10),
            close(2, 40),
            open(3, 1, "child", 50),
            close(3, 70),
            Event::Counter {
                name: "c.x",
                delta: 5,
            },
            Event::Counter {
                name: "c.x",
                delta: 7,
            },
            close(1, 100),
        ])
    }

    #[test]
    fn tree_aggregates_siblings_and_computes_self_time() {
        let tree = sample_trace().span_tree();
        assert_eq!(tree.len(), 1);
        let root = &tree[0];
        assert_eq!(root.name, "root");
        assert_eq!(root.calls, 1);
        assert_eq!(root.total_ns, 100);
        assert_eq!(root.children.len(), 1);
        let child = &root.children[0];
        assert_eq!(child.calls, 2);
        assert_eq!(child.total_ns, 30 + 20);
        assert_eq!(root.self_ns, 100 - 50);
    }

    #[test]
    fn balance_detects_leaks() {
        let tr = sample_trace();
        assert!(tr.is_balanced());
        let mut events = tr.events.clone();
        events.push(open(9, 0, "leak", 500));
        let leaky = Trace::from_events(events);
        let b = leaky.span_balance();
        assert_eq!(b.unmatched_opens, 1);
        assert!(!leaky.is_balanced());
    }

    #[test]
    fn counter_totals_sum_deltas() {
        let tr = sample_trace();
        assert_eq!(tr.counter_totals().get("c.x"), Some(&12));
        assert_eq!(tr.counter_totals().len(), 1);
    }

    #[test]
    fn jsonl_string_round_trip_is_stable() {
        let mut out = Vec::new();
        sample_trace().write_jsonl(&mut out).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            r#"{"e":"open","id":1,"parent":0,"name":"root","t_ns":0,"fields":[]}
{"e":"open","id":2,"parent":1,"name":"child","t_ns":10,"fields":[]}
{"e":"close","id":2,"t_ns":40}
{"e":"open","id":3,"parent":1,"name":"child","t_ns":50,"fields":[]}
{"e":"close","id":3,"t_ns":70}
{"e":"counter","name":"c.x","delta":5}
{"e":"counter","name":"c.x","delta":7}
{"e":"close","id":1,"t_ns":100}
"#
        );
    }

    #[test]
    fn key_metrics_cover_spans_and_counters() {
        let metrics = sample_trace().key_metrics();
        let names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
        // Root spans only: `child` is folded into `root`'s total.
        assert_eq!(names, ["trace.span_ms.root", "trace.counter.c.x"]);
        assert_eq!(metrics[0].1, 100.0 / 1e6);
        assert_eq!(metrics[1].1, 12.0);
    }

    #[test]
    fn render_mentions_all_sections() {
        let text = sample_trace().render();
        assert!(text.contains("root"));
        assert!(text.contains("child"));
        assert!(text.contains("counters:"));
        assert!(text.contains("c.x"));
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(999), "999 ns");
        assert_eq!(fmt_ns(1_500), "1.50 us");
        assert_eq!(fmt_ns(2_000_000), "2.00 ms");
        assert_eq!(fmt_ns(3_210_000_000), "3.21 s");
    }
}
