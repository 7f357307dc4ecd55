//! The process-wide event sink.
//!
//! Design: recording threads append to a thread-local buffer (no lock on
//! the hot path) which drains into one global `Mutex<Vec<Event>>` when it
//! grows past a threshold, when [`flush_thread`] is called (the parallel
//! runner calls it as each worker finishes), or when the thread exits.
//! [`install`] starts a new epoch — stale thread-local buffers from an
//! earlier epoch self-clear on their next record — and [`finish`] swaps
//! the sink off and returns everything collected as a [`Trace`].

use crate::clock::Clock;
use crate::event::Event;
use crate::report::Trace;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// RAII guard returned by `span!`; dropping it closes the span.
///
/// Always bind it (`let _sp = span!("phase");`) — an unbound guard drops
/// immediately and records a zero-length span.
#[must_use = "bind the guard (`let _sp = span!(...)`); dropping it closes the span"]
#[derive(Debug)]
pub struct SpanGuard {
    id: Option<u64>,
}

impl SpanGuard {
    /// A guard that records nothing on drop.
    pub const fn noop() -> Self {
        Self { id: None }
    }
}

/// Thread-local buffers drain to the global sink past this many events.
const FLUSH_THRESHOLD: usize = 4096;

static ACTIVE: AtomicBool = AtomicBool::new(false);
static EPOCH: AtomicU64 = AtomicU64::new(0);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static GLOBAL: Mutex<Vec<Event>> = Mutex::new(Vec::new());
static CLOCK: Mutex<Option<Arc<dyn Clock>>> = Mutex::new(None);

fn lock_global() -> MutexGuard<'static, Vec<Event>> {
    match GLOBAL.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn lock_clock() -> MutexGuard<'static, Option<Arc<dyn Clock>>> {
    match CLOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

struct LocalBuf {
    epoch: u64,
    clock: Option<Arc<dyn Clock>>,
    events: Vec<Event>,
    stack: Vec<u64>,
}

impl LocalBuf {
    const fn empty() -> Self {
        Self {
            epoch: 0,
            clock: None,
            events: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Re-arms the buffer when `install` started a new epoch since the
    /// last record: stale events are discarded, the clock re-fetched.
    fn sync(&mut self) {
        let current = EPOCH.load(Ordering::Acquire);
        if self.epoch != current {
            self.events.clear();
            self.stack.clear();
            self.clock = lock_clock().clone();
            self.epoch = current;
        }
    }

    fn now(&self) -> u64 {
        match &self.clock {
            Some(c) => c.now_ns(),
            None => 0,
        }
    }

    fn flush(&mut self) {
        if self.epoch != EPOCH.load(Ordering::Acquire) {
            // Stale epoch: the run these events belonged to is gone.
            self.events.clear();
            return;
        }
        if !self.events.is_empty() {
            lock_global().append(&mut self.events);
        }
    }

    fn maybe_flush(&mut self) {
        if self.events.len() >= FLUSH_THRESHOLD {
            self.flush();
        }
    }
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static TLS: RefCell<LocalBuf> = const { RefCell::new(LocalBuf::empty()) };
}

/// Whether a sink is currently installed. Cheap (one relaxed load); every
/// macro checks it before evaluating its arguments.
#[inline]
pub fn is_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Installs the global sink with the given clock and starts a new
/// epoch. Returns `false` (and changes nothing) if a sink is already
/// active. Call from the thread that owns the run, before spawning
/// workers.
pub fn install<C: Clock + 'static>(clock: C) -> bool {
    let mut slot = lock_clock();
    if ACTIVE.load(Ordering::SeqCst) {
        return false;
    }
    *slot = Some(Arc::new(clock));
    lock_global().clear();
    EPOCH.fetch_add(1, Ordering::Release);
    ACTIVE.store(true, Ordering::SeqCst);
    true
}

/// Deactivates the sink and returns everything recorded this epoch.
/// Flushes the calling thread's buffer first; worker threads must
/// already be joined (the parallel runner flushes each worker as it
/// finishes). Returns `None` if no sink was active.
pub fn finish() -> Option<Trace> {
    let _slot = lock_clock(); // serialize against concurrent install()
    if !ACTIVE.swap(false, Ordering::SeqCst) {
        return None;
    }
    flush_thread();
    let events = std::mem::take(&mut *lock_global());
    Some(Trace::from_events(events))
}

/// Drains the calling thread's buffer into the global sink. The
/// parallel runner calls this as each worker closure returns so
/// worker-side events survive the join.
pub fn flush_thread() {
    let _ = TLS.try_with(|cell| cell.borrow_mut().flush());
}

#[doc(hidden)]
pub fn __span_open(name: &'static str, fields: &[(&'static str, f64)]) -> SpanGuard {
    if !is_active() {
        return SpanGuard::noop();
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let recorded = TLS.try_with(|cell| {
        let mut buf = cell.borrow_mut();
        buf.sync();
        let t_ns = buf.now();
        let parent = match buf.stack.last() {
            Some(&p) => p,
            None => 0,
        };
        buf.events.push(Event::SpanOpen {
            id,
            parent,
            name,
            t_ns,
            fields: fields.to_vec(),
        });
        buf.stack.push(id);
        buf.maybe_flush();
    });
    match recorded {
        Ok(()) => SpanGuard { id: Some(id) },
        Err(_) => SpanGuard::noop(),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(id) = self.id else { return };
        if !is_active() {
            return;
        }
        let _ = TLS.try_with(|cell| {
            let mut buf = cell.borrow_mut();
            buf.sync();
            let t_ns = buf.now();
            // Scoped guards close LIFO, so `id` is normally the top of
            // the stack; a stray out-of-order drop abandons anything
            // opened above it.
            if let Some(pos) = buf.stack.iter().rposition(|&s| s == id) {
                buf.stack.truncate(pos);
            }
            buf.events.push(Event::SpanClose { id, t_ns });
            buf.maybe_flush();
        });
    }
}

#[doc(hidden)]
pub fn __counter(name: &'static str, delta: u64) {
    if !is_active() || delta == 0 {
        return;
    }
    let _ = TLS.try_with(|cell| {
        let mut buf = cell.borrow_mut();
        buf.sync();
        buf.events.push(Event::Counter { name, delta });
        buf.maybe_flush();
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_guard_is_inert() {
        let g = SpanGuard::noop();
        drop(g);
    }
}
