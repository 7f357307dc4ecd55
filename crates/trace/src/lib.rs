//! # overrun-trace — structured tracing for the overrun workspace
//!
//! Spans and monotonic counters for the long-running pipelines
//! (Gripenberg certification, Monte Carlo cost evaluation,
//! controller-table synthesis). Always compiled in; events are recorded
//! only while a sink is installed.
//!
//! ```
//! use overrun_trace::{counter, span, NoopClock};
//!
//! assert!(overrun_trace::install(NoopClock));
//! {
//!     let _sp = span!("jsr.gripenberg", matrices = 2);
//!     for depth in 1..=3u32 {
//!         let _sp = span!("jsr.depth", depth = depth);
//!         counter!("jsr.screen.nodes", 4);
//!     }
//! }
//! let trace = overrun_trace::finish().unwrap();
//! assert!(trace.is_balanced());
//! assert_eq!(trace.span_tree()[0].children[0].calls, 3);
//! assert_eq!(trace.counter_totals()["jsr.screen.nodes"], 12);
//! ```
//!
//! Every macro expands to `if is_active() { … }`: with no sink installed a
//! call site costs one relaxed atomic load and its arguments are not
//! evaluated. With a sink installed, events land in a thread-local buffer
//! that drains into a process-wide sink; the binary that owns the run
//! calls [`install`] with a [`Clock`] before the work and [`finish`] after
//! it to obtain the [`Trace`] (JSONL export, span tree, counter totals).
//!
//! ## Determinism
//!
//! The certified numeric crates must not read wall clocks (`clippy.toml`
//! bans `Instant` workspace-wide; this crate opts out at its root). This crate keeps them compliant: instrumented
//! code only names the macros; time enters solely through the injected
//! [`Clock`] owned by the binary. The default [`NoopClock`] stamps every
//! event `0`, giving byte-reproducible traces in tests. Enabling tracing
//! never changes numeric results — instrumentation only observes.
//!
//! ## Threads
//!
//! Events buffer per thread and flush on a size threshold, on thread
//! exit, and via [`flush_thread`] — `overrun-par` calls the latter as
//! each pooled worker finishes, so worker-side counters survive the join
//! while results remain bit-identical at any thread count. Install the
//! sink before spawning workers and join them before [`finish`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "owns the wall clock: `MonotonicClock` is the one place time enters"
)]

mod clock;
mod event;
mod report;
mod sink;

pub use clock::{Clock, MonotonicClock, NoopClock};
pub use event::{Event, Name};
pub use report::{SpanBalance, SpanNode, Trace};
pub use sink::{finish, flush_thread, install, is_active, SpanGuard};

#[doc(hidden)]
pub use sink::{__counter, __span_open};

/// Opens a span; dropping the returned guard closes it.
///
/// `span!("name")` or `span!("name", key = expr, ...)` — field values are
/// converted with `as f64` and evaluated only while a sink is installed.
/// Bind the result: `let _sp = span!("phase");`.
#[macro_export]
macro_rules! span {
    ($name:literal $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::is_active() {
            $crate::__span_open($name, &[$((stringify!($key), ($value) as f64)),*])
        } else {
            $crate::SpanGuard::noop()
        }
    };
}

/// Adds `delta` (a `u64`) to the named monotonic counter.
///
/// Batch at natural boundaries (per chunk, per depth) rather than per
/// iteration; the delta expression is evaluated only while a sink is
/// installed.
#[macro_export]
macro_rules! counter {
    ($name:literal, $delta:expr $(,)?) => {
        if $crate::is_active() {
            $crate::__counter($name, $delta)
        }
    };
}

#[cfg(test)]
mod macro_tests {
    #[test]
    fn macros_expand_in_statement_position() {
        let n = 3usize;
        let _sp = crate::span!("test.span", items = n, fixed = 2.5);
        crate::counter!("test.counter", n as u64);
    }

    #[test]
    fn macros_do_not_evaluate_arguments_without_a_sink() {
        fn boom() -> f64 {
            // Will never run: no test in this binary installs a sink.
            unreachable!("argument was evaluated with no sink installed")
        }
        assert!(!crate::is_active());
        let _sp = crate::span!("test.span", v = boom());
        crate::counter!("test.counter", boom() as u64);
    }
}
