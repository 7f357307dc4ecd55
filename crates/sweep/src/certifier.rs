//! The memoising certifier: key → probe → certify → store, per call.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use overrun_control::stability::{self, CertifyOptions, StabilityReport};
use overrun_control::{ContinuousSs, ControllerTable};

use crate::cache::{CacheProbe, ResultCache};
use crate::error::{ScenarioFault, SweepError};
use crate::record::ScenarioRecord;
use crate::scenario::certification_key;

/// The certification a [`MemoCertifier`] memoises: normally
/// [`overrun_control::stability::certify`]; tests substitute fakes.
pub type CertifyRunner<'a> = &'a dyn Fn(
    &ContinuousSs,
    &ControllerTable,
    &CertifyOptions,
) -> overrun_control::Result<StabilityReport>;

/// Counters of a [`MemoCertifier`] since it was opened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Certifications answered by the cache.
    pub cache_hits: u64,
    /// Certifications run (no valid record was cached).
    pub cache_misses: u64,
    /// Corrupt records found (recomputed and overwritten; also misses).
    pub corrupt_records: u64,
    /// Certifications that succeeded on the tightened-budget retry.
    pub retried: u64,
    /// Certifications that faulted on both attempts.
    pub errors: u64,
}

/// A certifier that memoises every certification in a [`ResultCache`].
pub struct MemoCertifier<'a> {
    cache: ResultCache,
    runner: CertifyRunner<'a>,
    stats: Cell<SweepStats>,
}

impl MemoCertifier<'static> {
    /// Opens (creating if necessary) the cache directory `dir` in front of
    /// [`overrun_control::stability::certify`].
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Io`] when the directory cannot be created.
    pub fn open(dir: &Path) -> Result<Self, SweepError> {
        MemoCertifier::with_runner(dir, &stability::certify)
    }
}

impl<'a> MemoCertifier<'a> {
    /// Opens the cache directory `dir` in front of `runner`.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Io`] when the directory cannot be created.
    pub fn with_runner(dir: &Path, runner: CertifyRunner<'a>) -> Result<Self, SweepError> {
        Ok(MemoCertifier {
            cache: ResultCache::open(dir)?,
            runner,
            stats: Cell::default(),
        })
    }

    /// Certifies `table` on `plant`: from the cache when it holds a valid
    /// record for these exact inputs, else by running the certification
    /// under `catch_unwind`, retrying a fault once at [`tightened_budget`],
    /// and storing the result. Bit-identical to
    /// [`overrun_control::stability::certify`].
    ///
    /// # Errors
    ///
    /// [`SweepError::Io`] when the cache cannot be read or written;
    /// [`SweepError::Fault`] when both attempts faulted (nothing is cached,
    /// so a rerun retries it).
    pub fn certify(
        &self,
        plant: &ContinuousSs,
        table: &ControllerTable,
        opts: &CertifyOptions,
    ) -> Result<StabilityReport, SweepError> {
        let key = certification_key(plant, table, opts);
        match self.cache.probe(key)? {
            CacheProbe::Hit(rec) => {
                self.count(|s| s.cache_hits += 1);
                overrun_trace::counter!("sweep.cache_hits", 1);
                return Ok(StabilityReport {
                    bounds: rec.bounds,
                    verdict: rec.verdict,
                    screen: rec.screen,
                });
            }
            CacheProbe::Miss => {}
            CacheProbe::Corrupt => {
                self.count(|s| s.corrupt_records += 1);
                overrun_trace::counter!("sweep.corrupt_records", 1);
            }
        }
        self.count(|s| s.cache_misses += 1);
        overrun_trace::counter!("sweep.cache_misses", 1);

        // A panic (in practice the `sanitize` feature poisoning a NaN at
        // the producing kernel) or an `Err` faults this one certification.
        let attempt = |opts: &CertifyOptions| {
            let run = || (self.runner)(plant, table, opts);
            match catch_unwind(AssertUnwindSafe(run)) {
                Ok(Ok(report)) => Ok(report),
                Ok(Err(e)) => Err(ScenarioFault::Failed(e.to_string())),
                Err(payload) => Err(ScenarioFault::Panicked(panic_message(&*payload))),
            }
        };
        let start = Instant::now();
        let mut attempts = 1;
        let mut result = attempt(opts);
        if result.is_err() {
            attempts = 2;
            result = attempt(&tightened_budget(opts));
        }
        let hset = table.hset();
        let (t, rmax, ts) = (hset.period(), hset.rmax(), hset.sensor_period());
        let label = format!("T={t} Rmax={rmax} Ts={ts} modes={}", table.len());
        let report = match result {
            Ok(report) => report,
            Err(fault) => {
                self.count(|s| s.errors += 1);
                overrun_trace::counter!("sweep.errors", 1);
                return Err(SweepError::Fault {
                    key,
                    label,
                    attempts,
                    fault,
                });
            }
        };
        if attempts > 1 {
            self.count(|s| s.retried += 1);
            overrun_trace::counter!("sweep.retried", 1);
        }
        self.cache.store(&ScenarioRecord {
            key,
            crate_version: env!("CARGO_PKG_VERSION").to_string(),
            label,
            verdict: report.verdict,
            bounds: report.bounds,
            screen: report.screen,
            elapsed_ms: u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX),
            attempts,
        })?;
        Ok(report)
    }

    /// The counters so far.
    pub fn stats(&self) -> SweepStats {
        self.stats.get()
    }

    fn count(&self, update: impl FnOnce(&mut SweepStats)) {
        let mut stats = self.stats.get();
        update(&mut stats);
        self.stats.set(stats);
    }
}

/// The tightened budget of the single fault retry: shallower tree, fewer
/// products, no high power lifts — terminates fast on inputs whose full
/// budget diverged or poisoned.
pub fn tightened_budget(opts: &CertifyOptions) -> CertifyOptions {
    CertifyOptions {
        delta: opts.delta.max(1e-3),
        max_depth: opts.max_depth.min(4),
        max_products: (opts.max_products / 4).max(1_000),
        max_power: opts.max_power.min(2),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
