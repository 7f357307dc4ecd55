//! Deterministic scoped-thread parallelism for the overrun workspace.
//!
//! Everything here is built on [`std::thread::scope`] — no external
//! dependencies, no unsafe code, no thread pool kept alive between calls.
//! The primitives are designed so that **results are bit-identical for any
//! thread count**:
//!
//! - [`try_parallel_map`] returns outputs in input order regardless of
//!   which thread computed them, and the lowest-index error on failure.
//! - [`derive_seed`] splits one master RNG seed into decorrelated
//!   per-item seeds, making per-item random streams independent of how the
//!   items are scheduled across threads.
//!
//! The thread count comes from, in priority order:
//! 1. [`set_thread_override`] (programmatic, used by `--threads` flags and
//!    tests),
//! 2. the `OVERRUN_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! A resolved count of 1 short-circuits to plain serial execution on the
//! calling thread — zero spawn overhead and a guaranteed-identical code
//! path for determinism tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![allow(
    clippy::disallowed_methods,
    reason = "owns the audited `OVERRUN_THREADS` read"
)]

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::thread;

/// Environment variable consulted for the default thread count.
pub const THREADS_ENV: &str = "OVERRUN_THREADS";

/// Process-wide programmatic override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets a process-wide thread-count override taking precedence over
/// `OVERRUN_THREADS` and hardware detection. `Some(0)` is clamped to 1;
/// `None` clears the override.
pub fn set_thread_override(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.map_or(0, |t| t.max(1)), Ordering::SeqCst);
}

/// Resolves the effective worker-thread count (always ≥ 1).
pub fn max_threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if o > 0 {
        return o;
    }
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// SplitMix64-mixes `master` and `index` into a per-item seed.
///
/// The mixing matches `rand::splitmix64`, so per-item streams are
/// decorrelated even for adjacent indices; crucially the result depends
/// only on `(master, index)`, never on scheduling.
pub fn derive_seed(master: u64, index: u64) -> u64 {
    let mut state = master ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    // One full SplitMix64 output step.
    state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a fallible `f` over `items` in parallel, preserving input order.
///
/// On failure, returns the error produced at the **lowest input index**
/// (matching what a serial left-to-right loop would report), so error
/// behaviour is deterministic too. All items may still be visited.
pub fn try_parallel_map<T, R, E, F>(items: &[T], f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    let threads = max_threads().min(items.len().max(1));
    if threads <= 1 || items.len() <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect::<Result<Vec<R>, E>>();
    }

    // Work-stealing by atomic index grab; each worker records (index,
    // result) pairs which are merged back in index order afterwards.
    let cursor = AtomicUsize::new(0);
    let mut per_thread: Vec<Vec<(usize, Result<R, E>)>> = Vec::with_capacity(threads);
    thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let cursor = &cursor;
            let f = &f;
            handles.push(scope.spawn(move || {
                let mut local: Vec<(usize, Result<R, E>)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    local.push((i, f(i, &items[i])));
                }
                // Merge this worker's trace counters/events into the global
                // sink before the scope joins, so counter totals are
                // complete (and thread-count-invariant) the moment
                // `try_parallel_map` returns. Results themselves are merged
                // in index order below and stay bit-identical.
                overrun_trace::flush_thread();
                local
            }));
        }
        for h in handles {
            // A panic in a worker resurfaces here with its original
            // payload, unwinding the scope.
            match h.join() {
                Ok(local) => per_thread.push(local),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });

    // Every index was computed exactly once; in index order, `collect`
    // stops at the lowest-index error.
    let mut pairs: Vec<(usize, Result<R, E>)> = per_thread.into_iter().flatten().collect();
    pairs.sort_unstable_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, r)| r).collect()
}

/// A shared lower bound: an `f64` maximum updateable from many threads.
///
/// Stored as the bit pattern in an [`AtomicU64`]; `update` is a CAS
/// fetch-max. NaN inputs are ignored. Intended for branch-and-bound
/// pruning where *any* lagging view of the bound is sound (a smaller bound
/// only prunes less).
pub struct SharedMaxF64 {
    bits: AtomicU64,
}

impl SharedMaxF64 {
    /// Creates the cell holding `initial` (must not be NaN).
    pub fn new(initial: f64) -> Self {
        assert!(!initial.is_nan(), "SharedMaxF64 cannot hold NaN");
        SharedMaxF64 {
            bits: AtomicU64::new(initial.to_bits()),
        }
    }

    /// Raises the stored maximum to `value` if larger; ignores NaN.
    pub fn update(&self, value: f64) {
        if value.is_nan() {
            return;
        }
        let mut cur = self.bits.load(Ordering::Relaxed);
        while value > f64::from_bits(cur) {
            match self.bits.compare_exchange_weak(
                cur,
                value.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Returns the current maximum.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// `max_threads`/`set_thread_override` act process-wide; serialize the
    /// tests that touch them.
    static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn override_beats_env_and_hardware() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        set_thread_override(Some(3));
        assert_eq!(max_threads(), 3);
        set_thread_override(Some(0));
        assert_eq!(max_threads(), 1, "0 clamps to 1");
        set_thread_override(None);
        assert!(max_threads() >= 1);
    }

    #[test]
    fn map_preserves_order_at_any_thread_count() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        let items: Vec<u64> = (0..257).collect();
        let mut reference = None;
        for threads in [1usize, 2, 4, 7] {
            set_thread_override(Some(threads));
            let out =
                try_parallel_map(&items, |i, &x| Ok::<u64, ()>((i as u64) * 1000 + x * x)).unwrap();
            match &reference {
                None => reference = Some(out),
                Some(r) => assert_eq!(&out, r, "threads = {threads}"),
            }
        }
        set_thread_override(None);
    }

    #[test]
    fn try_map_reports_lowest_index_error() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        let items: Vec<usize> = (0..100).collect();
        for threads in [1usize, 4] {
            set_thread_override(Some(threads));
            let r: Result<Vec<usize>, usize> =
                try_parallel_map(&items, |i, &x| if x % 7 == 3 { Err(i) } else { Ok(x) });
            assert_eq!(r.unwrap_err(), 3, "threads = {threads}");
        }
        set_thread_override(None);
    }

    #[test]
    fn worker_panic_keeps_its_payload() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        set_thread_override(Some(4));
        let items: Vec<usize> = (0..64).collect();
        let caught = std::panic::catch_unwind(|| {
            try_parallel_map(&items, |_, &x| {
                if x == 7 {
                    panic!("boom at 7");
                }
                Ok::<usize, ()>(x)
            })
        });
        set_thread_override(None);
        let payload = caught.unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom at 7"));
    }

    #[test]
    fn shared_max_monotone() {
        let cell = SharedMaxF64::new(f64::NEG_INFINITY);
        cell.update(1.5);
        cell.update(0.5);
        cell.update(f64::NAN);
        assert_eq!(cell.get(), 1.5);
        let _g = OVERRIDE_LOCK.lock().unwrap();
        set_thread_override(Some(4));
        let vals: Vec<f64> = (0..500).map(|i| (i % 313) as f64).collect();
        let cell = SharedMaxF64::new(f64::NEG_INFINITY);
        try_parallel_map(&vals, |_, &v| {
            cell.update(v);
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!(cell.get(), 312.0);
        set_thread_override(None);
    }

    #[test]
    fn derive_seed_decorrelates_and_is_pure() {
        assert_eq!(derive_seed(42, 7), derive_seed(42, 7));
        assert_ne!(derive_seed(42, 7), derive_seed(42, 8));
        assert_ne!(derive_seed(42, 7), derive_seed(43, 7));
        // Adjacent indices should differ in many bits, not just the low ones.
        let a = derive_seed(2021, 0);
        let b = derive_seed(2021, 1);
        assert!((a ^ b).count_ones() > 10);
    }
}
