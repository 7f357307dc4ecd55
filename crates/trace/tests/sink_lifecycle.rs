//! Lifecycle tests for the global sink: install/finish epochs,
//! cross-thread flushing, span nesting, and JSONL export.
//! The sink is process-global, so every test serializes on `LOCK`.

use std::sync::{Mutex, MutexGuard};

use overrun_trace::{counter, span, Event, NoopClock, Trace};

static LOCK: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    match LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn finish_trace() -> Trace {
    overrun_trace::finish().unwrap_or_default()
}

#[test]
fn spans_nest_and_balance() {
    let _g = serialize();
    assert!(overrun_trace::install(NoopClock));
    {
        let _root = span!("outer", size = 2);
        for d in 0..3u32 {
            let _inner = span!("inner", depth = d);
            counter!("nest.visits", 1);
        }
    }
    let tr = finish_trace();
    assert!(tr.is_balanced());
    let tree = tr.span_tree();
    assert_eq!(tree.len(), 1);
    assert_eq!(tree[0].name, "outer");
    assert_eq!(tree[0].calls, 1);
    assert_eq!(tree[0].children.len(), 1);
    assert_eq!(tree[0].children[0].name, "inner");
    assert_eq!(tree[0].children[0].calls, 3);
    assert_eq!(tr.counter_totals().get("nest.visits"), Some(&3));
}

#[test]
fn worker_thread_events_survive_via_flush() {
    let _g = serialize();
    assert!(overrun_trace::install(NoopClock));
    let handles: Vec<_> = (0..4)
        .map(|w| {
            std::thread::spawn(move || {
                let _sp = span!("worker.chunk", worker = w);
                counter!("worker.items", 10);
                overrun_trace::flush_thread();
            })
        })
        .collect();
    for h in handles {
        assert!(h.join().is_ok());
    }
    let tr = finish_trace();
    assert!(tr.is_balanced());
    assert_eq!(tr.counter_totals().get("worker.items"), Some(&40));
    let tree = tr.span_tree();
    assert_eq!(tree.len(), 1);
    assert_eq!(tree[0].name, "worker.chunk");
    assert_eq!(tree[0].calls, 4);
    let mut workers: Vec<f64> = tr
        .events
        .iter()
        .filter_map(|ev| match ev {
            Event::SpanOpen { fields, .. } => Some(fields[0].1),
            _ => None,
        })
        .collect();
    workers.sort_by(f64::total_cmp);
    assert_eq!(workers, [0.0, 1.0, 2.0, 3.0]);
}

#[test]
fn epochs_isolate_runs() {
    let _g = serialize();
    assert!(overrun_trace::install(NoopClock));
    assert!(overrun_trace::is_active());
    // A second install while a sink is active is refused and leaves the
    // running epoch intact.
    assert!(!overrun_trace::install(NoopClock));
    counter!("epoch.first", 1);
    let first = finish_trace();
    assert!(!overrun_trace::is_active());
    assert_eq!(first.counter_totals().get("epoch.first"), Some(&1));

    assert!(overrun_trace::install(NoopClock));
    counter!("epoch.second", 2);
    let second = finish_trace();
    assert!(!second.counter_totals().contains_key("epoch.first"));
    assert_eq!(second.counter_totals().get("epoch.second"), Some(&2));
}

#[test]
fn inactive_sink_records_nothing() {
    let _g = serialize();
    assert!(!overrun_trace::is_active());
    let _sp = span!("ignored");
    counter!("ignored.counter", 7);
    assert!(overrun_trace::finish().is_none());
}

#[test]
fn jsonl_export_round_trips_real_run() {
    let _g = serialize();
    assert!(overrun_trace::install(NoopClock));
    {
        let _sp = span!("export.root", n = 2);
        counter!("export.count", 9);
    }
    let tr = finish_trace();
    let mut out = Vec::new();
    assert!(tr.write_jsonl(&mut out).is_ok());
    let text = String::from_utf8(out).unwrap_or_default();
    assert_eq!(text.lines().count(), tr.events.len());
    assert!(tr.is_balanced());
    assert_eq!(tr.counter_totals().get("export.count"), Some(&9));
    let fields: Vec<&[(&str, f64)]> = tr
        .events
        .iter()
        .filter_map(|ev| match ev {
            Event::SpanOpen { name, fields, .. } if *name == "export.root" => {
                Some(fields.as_slice())
            }
            _ => None,
        })
        .collect();
    assert_eq!(fields, [&[("n", 2.0)][..]]);
}
