//! # overrun-trace — zero-cost structured tracing for the overrun workspace
//!
//! Spans, monotonic counters, fixed-bucket histograms, and progress
//! events for the long-running pipelines (Gripenberg certification,
//! Monte Carlo cost evaluation, controller-table synthesis), compiled to
//! **zero code unless the `trace` cargo feature is enabled**.
//!
//! ```ignore
//! let _sp = overrun_trace::span!("jsr.depth", depth = d, frontier = frontier.len());
//! overrun_trace::counter!("mc.sequences", chunk_len as u64);
//! overrun_trace::histogram!("lqr.riccati_residual", residual);
//! overrun_trace::progress!("jsr.lb", lb);
//! ```
//!
//! With `trace` **off** (the default) every macro expands to an inert
//! expression — field arguments are captured by a never-called closure so
//! they type-check and stay "used", but nothing is evaluated and no trace
//! machinery exists in the binary. With `trace` **on**, events land in a
//! thread-local buffer that drains into a process-wide sink; the binary
//! that owns the run calls [`install`] with a [`Clock`] before the work
//! and [`finish`] after it to obtain the [`Trace`] (JSONL export, span
//! tree, counter totals).
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
mod counter;
mod event;
mod json;
mod report;
mod sink;

#[cfg(feature = "trace")]
pub use clock::MonotonicClock;
pub use clock::{Clock, NoopClock};
pub use counter::CounterBundle;
pub use event::{Event, Hist, Name, HIST_BUCKETS};
pub use report::{SpanBalance, SpanNode, Trace};
pub use sink::{finish, flush_thread, install, is_active, SpanGuard};

#[cfg(feature = "trace")]
#[doc(hidden)]
pub use sink::{__counter, __histogram, __progress, __span_open};

/// Opens a span; dropping the returned guard closes it.
///
/// `span!("name")` or `span!("name", key = expr, ...)` — field values are
/// converted with `as f64`. Bind the result: `let _sp = span!("phase");`.
/// Field expressions must be side-effect free: with the `trace` feature
/// off they are captured, never evaluated.
#[cfg(feature = "trace")]
#[macro_export]
macro_rules! span {
    ($name:literal $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::__span_open($name, &[$((stringify!($key), ($value) as f64)),*])
    };
}

/// Inert expansion: captures the field expressions without evaluating
/// them and yields a no-op guard.
#[cfg(not(feature = "trace"))]
#[macro_export]
macro_rules! span {
    ($name:literal $(, $key:ident = $value:expr)* $(,)?) => {{
        $(let _ = || ($value);)*
        $crate::SpanGuard::noop()
    }};
}

/// Adds `delta` (a `u64`) to the named monotonic counter.
///
/// Batch at natural boundaries (per chunk, per depth) rather than per
/// iteration; the delta expression must be side-effect free.
#[cfg(feature = "trace")]
#[macro_export]
macro_rules! counter {
    ($name:literal, $delta:expr $(,)?) => {
        $crate::__counter($name, $delta)
    };
}

/// Inert expansion: captures the delta expression without evaluating it.
#[cfg(not(feature = "trace"))]
#[macro_export]
macro_rules! counter {
    ($name:literal, $delta:expr $(,)?) => {{
        let _ = || ($delta);
    }};
}

/// Records one sample into the named log-scale histogram.
#[cfg(feature = "trace")]
#[macro_export]
macro_rules! histogram {
    ($name:literal, $value:expr $(,)?) => {
        $crate::__histogram($name, ($value) as f64)
    };
}

/// Inert expansion: captures the sample expression without evaluating it.
#[cfg(not(feature = "trace"))]
#[macro_export]
macro_rules! histogram {
    ($name:literal, $value:expr $(,)?) => {{
        let _ = || ($value);
    }};
}

/// Records a time-stamped progress observation (best bound so far,
/// residual, ...). The aggregator keeps the latest value per name.
#[cfg(feature = "trace")]
#[macro_export]
macro_rules! progress {
    ($name:literal, $value:expr $(,)?) => {
        $crate::__progress($name, ($value) as f64)
    };
}

/// Inert expansion: captures the value expression without evaluating it.
#[cfg(not(feature = "trace"))]
#[macro_export]
macro_rules! progress {
    ($name:literal, $value:expr $(,)?) => {{
        let _ = || ($value);
    }};
}

#[cfg(test)]
mod macro_tests {
    #[test]
    fn macros_expand_in_both_feature_modes() {
        let n = 3usize;
        let _sp = crate::span!("test.span", items = n, fixed = 2.5);
        crate::counter!("test.counter", n as u64);
        crate::histogram!("test.hist", 0.125);
        crate::progress!("test.progress", 1.0 + n as f64);
    }

    #[cfg(not(feature = "trace"))]
    #[test]
    fn feature_off_macros_do_not_evaluate_arguments() {
        fn boom() -> f64 {
            // Will never run: inert macros only capture their arguments.
            unreachable!("argument was evaluated with trace off")
        }
        let _sp = crate::span!("test.span", v = boom());
        crate::counter!("test.counter", boom() as u64);
        crate::histogram!("test.hist", boom());
        crate::progress!("test.progress", boom());
    }
}
