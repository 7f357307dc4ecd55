//! # overrun-sweep — memoised JSR certification
//!
//! The paper's design loop certifies `JSR({Ω(h) : h ∈ H}) < 1` once per
//! candidate design (plant × `Rmax` × `Ns` × policy). [`MemoCertifier`]
//! memoises those certifications across runs; its `certify` takes the
//! arguments of [`overrun_control::stability::certify`], so an experiment
//! driver takes it as its certification hook. Per call it:
//!
//! 1. computes the content key ([`certification_key`]): a framed FNV-128
//!    hash ([`Canon`]) of the plant, controller table and budget, every
//!    `f64` by exact bit pattern, plus crate version and certifier revision;
//! 2. returns the record ([`ScenarioRecord`], byte-exact round trip) on a
//!    [`ResultCache`] hit, and recomputes and overwrites a corrupt one;
//! 3. otherwise certifies under `catch_unwind`, retries a fault once at
//!    [`tightened_budget`], and stores the record atomically. A double
//!    fault is returned as [`SweepError::Fault`] and never cached.
//!
//! Each record is stored as soon as it is certified, so a run killed at any
//! point loses at most the certification in flight: a rerun on the same
//! cache replays the rest as hits. The bench binaries `table2` and
//! `ts_tradeoff` use it under `--cache DIR`, with byte-identical CSV output.
//!
//! ```
//! use overrun_control::{pi, plants, stability, IntervalSet};
//! use overrun_control::stability::CertifyOptions;
//! use overrun_sweep::MemoCertifier;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let plant = plants::unstable_second_order();
//! let table = pi::design_adaptive(&plant, &IntervalSet::from_timing(0.010, 0.013, 2)?)?;
//! let opts = CertifyOptions::default();
//! let dir = std::env::temp_dir().join(format!("overrun-sweep-doc-{}", std::process::id()));
//! let memo = MemoCertifier::open(&dir)?;
//! let cold = memo.certify(&plant, &table, &opts)?;
//! let warm = memo.certify(&plant, &table, &opts)?;
//! assert_eq!(cold.bounds, stability::certify(&plant, &table, &opts)?.bounds);
//! assert_eq!(warm.bounds, cold.bounds);
//! assert_eq!((memo.stats().cache_misses, memo.stats().cache_hits), (1, 1));
//! # std::fs::remove_dir_all(&dir)?;
//! # Ok(())
//! # }
//! ```
//!
//! Unlike the certified numeric crates, this crate *owns* wall-clock and
//! filesystem access (elapsed metadata, the on-disk cache), so it opts out
//! of the `clippy.toml` clock bans at its root — the numeric results it
//! memoizes remain bit-reproducible because the clock never feeds the
//! content key.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "owns the `elapsed_ms` wall clock; verdicts and bounds never see it"
)]

mod cache;
mod certifier;
mod error;
mod hash;
mod record;
mod scenario;

pub use cache::{CacheProbe, ResultCache};
pub use certifier::{tightened_budget, CertifyRunner, MemoCertifier, SweepStats};
pub use error::{ScenarioFault, SweepError};
pub use hash::{Canon, ContentHash};
pub use record::{ScenarioRecord, RECORD_HEADER};
pub use scenario::certification_key;
