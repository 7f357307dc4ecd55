//! Injectable time source for the trace sink.
//!
//! The certified numeric crates (`linalg`, `jsr`, `core`, `rtsim`) are
//! forbidden from reading wall clocks by the `clippy.toml` determinism
//! bans. Time therefore enters tracing only through a [`Clock`] owned by
//! the process that installs the sink — typically a bench binary — while
//! library code only ever invokes the macros, which never name a clock.

/// A monotonic nanosecond time source injected into the trace sink.
///
/// Implementations must be cheap and thread-safe; `now_ns` is called on
/// every span open/close and progress event while tracing is active.
pub trait Clock: Send + Sync {
    /// Current time in nanoseconds from an arbitrary fixed origin.
    fn now_ns(&self) -> u64;
}

/// The default clock: always reports `0`.
///
/// Useful in tests and anywhere trace *structure* (spans, counters) is
/// wanted without timing, keeping output byte-for-byte reproducible.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopClock;

impl Clock for NoopClock {
    fn now_ns(&self) -> u64 {
        0
    }
}

/// Monotonic wall clock anchored at construction time.
///
/// Intended to be constructed exclusively by binaries (the bench
/// harness). `clippy.toml` bans [`MonotonicClock::new`] workspace-wide,
/// and the type has no `Default`, so a library crate cannot construct it
/// without an explicit `allow`.
#[derive(Debug, Clone, Copy)]
pub struct MonotonicClock {
    origin: std::time::Instant,
}

impl MonotonicClock {
    /// Creates a clock whose origin is "now".
    #[allow(
        clippy::new_without_default,
        reason = "a `Default` impl would construct the wall clock without naming the banned `new`"
    )]
    pub fn new() -> Self {
        Self {
            origin: std::time::Instant::now(),
        }
    }
}

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        let ns = self.origin.elapsed().as_nanos();
        u64::try_from(ns).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_clock_reads_zero() {
        assert_eq!(NoopClock.now_ns(), 0);
    }

    #[test]
    fn monotonic_clock_is_nondecreasing() {
        let c = MonotonicClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }
}
