//! Content keys of certification scenarios.
//!
//! A scenario is one `(plant, ControllerTable, CertifyOptions)` triple, the
//! inputs of [`overrun_control::stability::certify`]. Every controller
//! design in the workspace is deterministic, so the key is computed over
//! these *materialized* inputs: whoever built the table, the same inputs
//! address the same cache record.

use overrun_control::stability::CertifyOptions;
use overrun_control::{ContinuousSs, ControllerTable};

use crate::hash::{Canon, ContentHash};

/// Computes the content key of one certification: a framed FNV-128 hash
/// over the crate version, the certifier revision
/// ([`overrun_jsr::CERTIFIER_REVISION`]), the plant matrices, the
/// materialized controller table (every mode's `Ac/Bc/Cc/Dc` plus the
/// interval set), and the [`CertifyOptions`] budget — all `f64`s by exact
/// bit pattern.
///
/// The key deliberately covers only what [`overrun_control::stability::certify`]
/// reads; the certifier revision makes a cache written before a change to
/// the certification numerics miss instead of replaying stale bounds.
pub fn certification_key(
    plant: &ContinuousSs,
    table: &ControllerTable,
    opts: &CertifyOptions,
) -> ContentHash {
    key_at_revision(overrun_jsr::CERTIFIER_REVISION, plant, table, opts)
}

fn key_at_revision(
    revision: &str,
    plant: &ContinuousSs,
    table: &ControllerTable,
    opts: &CertifyOptions,
) -> ContentHash {
    let mut c = Canon::new();
    c.tag("overrun-sweep-key");
    c.str_field(env!("CARGO_PKG_VERSION"));
    c.str_field(revision);
    c.tag("plant")
        .matrix_field(&plant.a)
        .matrix_field(&plant.b)
        .matrix_field(&plant.c);
    c.tag("hset");
    let hset = table.hset();
    c.f64_field(hset.period())
        .f64_field(hset.sensor_period())
        .f64_field(hset.rmax());
    c.u64_field(hset.len() as u64);
    for &h in hset.intervals() {
        c.f64_field(h);
    }
    c.tag("table").u64_field(table.len() as u64);
    for mode in table.modes() {
        c.matrix_field(&mode.ac)
            .matrix_field(&mode.bc)
            .matrix_field(&mode.cc)
            .matrix_field(&mode.dc);
    }
    c.tag("opts")
        .f64_field(opts.delta)
        .u64_field(opts.max_depth as u64)
        .u64_field(opts.max_products as u64)
        .u64_field(opts.max_power as u64);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use overrun_control::{pi, plants, IntervalSet, Result};

    /// PI on the unstable second-order plant, `T = 10 ms`: adaptive, or
    /// fixed gains tuned for `T`.
    fn scenario(rmax: f64, ns: u32, fixed: bool) -> Result<(ContinuousSs, ControllerTable)> {
        let plant = plants::unstable_second_order();
        let hset = IntervalSet::from_timing(0.010, rmax, ns)?;
        let table = if fixed {
            pi::design_fixed(&plant, &hset, 0.010)?
        } else {
            pi::design_adaptive(&plant, &hset)?
        };
        Ok((plant, table))
    }

    fn key(rmax: f64, ns: u32, fixed: bool, opts: &CertifyOptions) -> Result<ContentHash> {
        let (plant, table) = scenario(rmax, ns, fixed)?;
        Ok(certification_key(&plant, &table, opts))
    }

    #[test]
    fn prepare_is_deterministic_and_key_stable() -> Result<()> {
        // Designing the same scenario twice addresses the same record.
        let opts = CertifyOptions::default();
        assert_eq!(key(0.013, 2, false, &opts)?, key(0.013, 2, false, &opts)?);
        Ok(())
    }

    #[test]
    fn key_separates_inputs() -> Result<()> {
        let opts = CertifyOptions::default();
        let base = key(0.013, 2, false, &opts)?;
        assert_ne!(key(0.016, 2, false, &opts)?, base, "wider Rmax");
        assert_ne!(key(0.013, 5, false, &opts)?, base, "finer Ts");
        assert_ne!(key(0.013, 2, true, &opts)?, base, "other policy");
        let other_budget = CertifyOptions {
            max_depth: 5,
            ..opts
        };
        assert_ne!(key(0.013, 2, false, &other_budget)?, base, "other budget");
        Ok(())
    }

    #[test]
    fn key_depends_on_certifier_revision() -> Result<()> {
        let (plant, table) = scenario(0.013, 2, false)?;
        let opts = CertifyOptions::default();
        let current = certification_key(&plant, &table, &opts);
        let revision = overrun_jsr::CERTIFIER_REVISION;
        assert_eq!(current, key_at_revision(revision, &plant, &table, &opts));
        let bumped = format!("{revision}+1");
        assert_ne!(current, key_at_revision(&bumped, &plant, &table, &opts));
        Ok(())
    }
}
