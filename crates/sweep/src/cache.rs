//! On-disk content-addressed result cache.
//!
//! Each record lives at `<dir>/<32-hex-key>.record` in the canonical text
//! form of [`ScenarioRecord`]. Stores are atomic (write to a unique temp
//! file, then rename), so a run killed mid-store never leaves a
//! half-written record under a valid name. Loads are strict: a record that
//! fails to parse, or whose embedded key disagrees with its file name, is
//! reported as corrupt — the certifier recomputes and overwrites it.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::SweepError;
use crate::hash::ContentHash;
use crate::record::ScenarioRecord;

/// Outcome of a cache probe.
#[derive(Debug)]
pub enum CacheProbe {
    /// No record under this key.
    Miss,
    /// A valid record was found.
    Hit(ScenarioRecord),
    /// A record exists but does not parse or names another key.
    Corrupt,
}

/// Handle to a cache directory.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Opens (creating if necessary) the cache directory.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Io`] when the directory cannot be created.
    pub fn open(dir: &Path) -> Result<ResultCache, SweepError> {
        std::fs::create_dir_all(dir).map_err(|e| SweepError::io(dir, "create", e))?;
        Ok(ResultCache {
            dir: dir.to_path_buf(),
        })
    }

    /// Path of the record file for `key`.
    pub fn record_path(&self, key: ContentHash) -> PathBuf {
        self.dir.join(format!("{}.record", key.to_hex()))
    }

    /// Probes the cache for `key`, verifying record integrity.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Io`] only for I/O failures other than
    /// not-found; corruption is reported in-band as [`CacheProbe::Corrupt`].
    pub fn probe(&self, key: ContentHash) -> Result<CacheProbe, SweepError> {
        let path = self.record_path(key);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(CacheProbe::Miss),
            Err(e) => return Err(SweepError::io(&path, "read", e)),
        };
        Ok(match ScenarioRecord::parse(&text, &path) {
            Ok(rec) if rec.key == key => CacheProbe::Hit(rec),
            _ => CacheProbe::Corrupt,
        })
    }

    /// Atomically stores `record` under its key: writes a temp file named
    /// by the process id and a per-process counter, so concurrent stores of
    /// one key (threads, or processes sharing the directory) never share a
    /// temp path, then renames it over the record.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Io`] when writing or renaming fails.
    pub fn store(&self, record: &ScenarioRecord) -> Result<(), SweepError> {
        static NEXT_TMP: AtomicU64 = AtomicU64::new(0);
        let nonce = NEXT_TMP.fetch_add(1, Ordering::Relaxed);
        let key = record.key.to_hex();
        let tmp = self
            .dir
            .join(format!(".{key}.{}.{nonce}.tmp", std::process::id()));
        std::fs::write(&tmp, record.serialize()).map_err(|e| SweepError::io(&tmp, "write", e))?;
        let dst = self.record_path(record.key);
        std::fs::rename(&tmp, &dst).map_err(|e| SweepError::io(&dst, "rename", e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overrun_jsr::{JsrBounds, ScreenStats, StabilityVerdict};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "overrun-sweep-cache-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn rec(key: u128) -> ScenarioRecord {
        ScenarioRecord {
            key: ContentHash(key),
            crate_version: env!("CARGO_PKG_VERSION").to_string(),
            label: "test".to_string(),
            verdict: StabilityVerdict::Stable,
            bounds: JsrBounds {
                lower: 0.5,
                upper: 0.75,
            },
            screen: ScreenStats::default(),
            elapsed_ms: 1,
            attempts: 1,
        }
    }

    #[test]
    fn store_probe_round_trip() -> Result<(), SweepError> {
        let dir = tmp_dir("roundtrip");
        let cache = ResultCache::open(&dir)?;
        let r = rec(42);
        assert!(matches!(cache.probe(r.key)?, CacheProbe::Miss));
        cache.store(&r)?;
        let probe = cache.probe(r.key)?;
        assert!(
            matches!(&probe, CacheProbe::Hit(back) if *back == r),
            "{probe:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }

    #[test]
    fn corrupt_record_is_flagged_not_fatal() -> Result<(), SweepError> {
        let dir = tmp_dir("corrupt");
        let cache = ResultCache::open(&dir)?;
        let r = rec(7);
        cache.store(&r)?;
        // Truncate the record on disk.
        let path = cache.record_path(r.key);
        let text = std::fs::read_to_string(&path).map_err(|e| SweepError::io(&path, "read", e))?;
        std::fs::write(&path, &text[..text.len() / 2])
            .map_err(|e| SweepError::io(&path, "write", e))?;
        assert!(matches!(cache.probe(r.key)?, CacheProbe::Corrupt));

        // A record stored under the wrong name is also corrupt.
        let other = rec(8);
        let misfiled = cache.record_path(ContentHash(9));
        std::fs::write(&misfiled, other.serialize())
            .map_err(|e| SweepError::io(&misfiled, "write", e))?;
        assert!(matches!(cache.probe(ContentHash(9))?, CacheProbe::Corrupt));
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }

    #[test]
    fn concurrent_stores_of_one_key_all_succeed() -> Result<(), SweepError> {
        let dir = tmp_dir("concurrent");
        let cache = ResultCache::open(&dir)?;
        let r = rec(11);
        let barrier = std::sync::Barrier::new(8);
        let stored = std::thread::scope(|s| {
            let stores: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        cache.store(&r)
                    })
                })
                .collect();
            let joined = stores.into_iter().map(|h| h.join());
            joined.filter(|res| matches!(res, Ok(Ok(())))).count()
        });
        assert_eq!(stored, 8, "every concurrent store must succeed");
        assert!(matches!(cache.probe(r.key)?, CacheProbe::Hit(back) if back == r));
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }
}
