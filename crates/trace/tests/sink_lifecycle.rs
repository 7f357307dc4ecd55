//! Lifecycle tests for the global sink: install/finish epochs,
//! cross-thread flushing, span nesting, and JSONL export.
//! The sink is process-global, so every test serializes on `LOCK`.

use std::sync::{Mutex, MutexGuard};

use overrun_trace::{counter, histogram, progress, span, Event, NoopClock, Trace};

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
                histogram!("worker.sample", 0.5 * (w + 1) as f64);
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
    let hists = tr.histogram_totals();
    let sample = &hists["worker.sample"];
    assert_eq!(sample.count, 4);
    assert_eq!(sample.min, 0.5);
    assert_eq!(sample.max, 2.0);
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
        progress!("export.bound", 0.75);
        counter!("export.count", 9);
        histogram!("export.h", 1.0e-13);
    }
    let tr = finish_trace();
    let text = tr.to_jsonl_string();
    assert_eq!(text.lines().count(), tr.events.len());
    assert!(tr.is_balanced());
    assert_eq!(tr.counter_totals().get("export.count"), Some(&9));
    let progress: Vec<f64> = tr
        .events
        .iter()
        .filter_map(|ev| match ev {
            Event::Progress { name, value, .. } if name == "export.bound" => Some(*value),
            _ => None,
        })
        .collect();
    assert_eq!(progress, [0.75]);
}
