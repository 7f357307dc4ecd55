//! Declarative scenario grids and their content keys.
//!
//! A [`Scenario`] names one certification problem declaratively (plant,
//! period, `Rmax` factor, `Ns`, design policy, Gripenberg budget). Because
//! every controller design in the workspace is deterministic, materializing
//! a scenario always yields bit-identical matrices — so the content key is
//! computed over the *materialized* inputs (`plant`, `ControllerTable`,
//! [`CertifyOptions`]). That choice is load-bearing: the bench binaries
//! certify tables they built themselves, and [`certification_key`] lets
//! them address the very same cache entries without ever naming a policy.

use overrun_control::lqr::LqrWeights;
use overrun_control::stability::CertifyOptions;
use overrun_control::{pi, ContinuousSs, ControllerMode, ControllerTable, IntervalSet};
use overrun_linalg::Matrix;

use crate::hash::{Canon, ContentHash};

/// Which interval a fixed-gain design is tuned for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GainSchedule {
    /// Tuned for the nominal period `T`.
    Nominal,
    /// Tuned for the worst interval `Rmax`.
    Rmax,
}

/// How the controller table of a scenario is designed.
#[derive(Debug, Clone)]
pub enum DesignPolicy {
    /// Adaptive PI: per-interval integrator advance (paper Eq. 7).
    PiAdaptive,
    /// Fixed PI gains tuned for one interval, executed adaptively.
    PiFixed(GainSchedule),
    /// Adaptive delayed LQR: one Riccati solve per interval.
    LqrAdaptive {
        /// Cost weights of the LQR design.
        weights: LqrWeights,
    },
    /// Fixed LQR gains tuned for one interval, executed adaptively.
    LqrFixed {
        /// Cost weights of the LQR design.
        weights: LqrWeights,
        /// Interval the single gain is tuned for.
        schedule: GainSchedule,
    },
    /// A literal static output feedback `u = Dc · e` in every mode —
    /// handy for constructing certified-unstable scenarios in tests.
    StaticGain(Matrix),
}

impl DesignPolicy {
    /// Short policy tag used in scenario labels.
    pub fn tag(&self) -> &'static str {
        match self {
            DesignPolicy::PiAdaptive => "pi-adaptive",
            DesignPolicy::PiFixed(GainSchedule::Nominal) => "pi-fixed-t",
            DesignPolicy::PiFixed(GainSchedule::Rmax) => "pi-fixed-rmax",
            DesignPolicy::LqrAdaptive { .. } => "lqr-adaptive",
            DesignPolicy::LqrFixed {
                schedule: GainSchedule::Nominal,
                ..
            } => "lqr-fixed-t",
            DesignPolicy::LqrFixed {
                schedule: GainSchedule::Rmax,
                ..
            } => "lqr-fixed-rmax",
            DesignPolicy::StaticGain(_) => "static-gain",
        }
    }
}

/// One declarative certification problem.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Human label ("pmsm r1.6 ns2 lqr-adaptive", ...).
    pub label: String,
    /// Continuous-time plant.
    pub plant: ContinuousSs,
    /// Nominal period `T` in seconds.
    pub period: f64,
    /// `Rmax = rmax_factor · T`.
    pub rmax_factor: f64,
    /// Sensor oversampling factor (`Ts = T / ns`).
    pub ns: u32,
    /// Controller design policy.
    pub policy: DesignPolicy,
    /// Gripenberg certification budget.
    pub opts: CertifyOptions,
}

/// A scenario with its controller table materialized and key computed —
/// the unit the engine actually runs. Bench binaries that already hold a
/// `(plant, table, opts)` triple construct this directly via
/// [`PreparedScenario::new`].
#[derive(Debug, Clone)]
pub struct PreparedScenario {
    /// Human label.
    pub label: String,
    /// Continuous-time plant.
    pub plant: ContinuousSs,
    /// Materialized controller table.
    pub table: ControllerTable,
    /// Gripenberg certification budget.
    pub opts: CertifyOptions,
    /// Content key over the materialized inputs.
    pub key: ContentHash,
}

impl PreparedScenario {
    /// Wraps a pre-built `(plant, table, opts)` triple, computing its key.
    pub fn new(
        label: impl Into<String>,
        plant: ContinuousSs,
        table: ControllerTable,
        opts: CertifyOptions,
    ) -> PreparedScenario {
        let key = certification_key(&plant, &table, &opts);
        PreparedScenario {
            label: label.into(),
            plant,
            table,
            opts,
            key,
        }
    }
}

impl Scenario {
    /// Materializes the scenario's controller table and content key.
    ///
    /// # Errors
    ///
    /// Propagates design failures (invalid timing, Riccati failure, ...).
    pub fn prepare(&self) -> overrun_control::Result<PreparedScenario> {
        let rmax = self.rmax_factor * self.period;
        let hset = IntervalSet::from_timing(self.period, rmax, self.ns)?;
        let table = match &self.policy {
            DesignPolicy::PiAdaptive => pi::design_adaptive(&self.plant, &hset)?,
            DesignPolicy::PiFixed(sched) => {
                let h = match sched {
                    GainSchedule::Nominal => self.period,
                    GainSchedule::Rmax => rmax,
                };
                pi::design_fixed(&self.plant, &hset, h)?
            }
            DesignPolicy::LqrAdaptive { weights } => {
                overrun_control::lqr::design_adaptive(&self.plant, &hset, weights)?
            }
            DesignPolicy::LqrFixed { weights, schedule } => {
                let h = match schedule {
                    GainSchedule::Nominal => self.period,
                    GainSchedule::Rmax => rmax,
                };
                overrun_control::lqr::design_fixed(&self.plant, &hset, weights, h)?
            }
            DesignPolicy::StaticGain(dc) => {
                let mode = ControllerMode::static_gain(dc.clone())?;
                ControllerTable::fixed(mode, hset)?
            }
        };
        Ok(PreparedScenario::new(
            self.label.clone(),
            self.plant.clone(),
            table,
            self.opts.clone(),
        ))
    }
}

/// A declarative grid: the cartesian product of its axes.
#[derive(Debug, Clone)]
pub struct GridSpec {
    /// Named plants.
    pub plants: Vec<(String, ContinuousSs)>,
    /// Nominal periods `T` in seconds.
    pub periods: Vec<f64>,
    /// `Rmax / T` factors.
    pub rmax_factors: Vec<f64>,
    /// Sensor oversampling factors.
    pub ns_values: Vec<u32>,
    /// Named design policies.
    pub policies: Vec<(String, DesignPolicy)>,
    /// Shared certification budget.
    pub opts: CertifyOptions,
}

impl GridSpec {
    /// Expands the grid into scenarios, deterministic in axis order:
    /// plants (outermost) → periods → rmax factors → ns → policies.
    pub fn expand(&self) -> Vec<Scenario> {
        let mut out = Vec::new();
        for (pname, plant) in &self.plants {
            for &t in &self.periods {
                for &factor in &self.rmax_factors {
                    for &ns in &self.ns_values {
                        for (polname, policy) in &self.policies {
                            out.push(Scenario {
                                label: format!("{pname} t{t} r{factor} ns{ns} {polname}"),
                                plant: plant.clone(),
                                period: t,
                                rmax_factor: factor,
                                ns,
                                policy: policy.clone(),
                                opts: self.opts.clone(),
                            });
                        }
                    }
                }
            }
        }
        out
    }
}

/// Computes the content key of one certification: a framed FNV-128 hash
/// over the crate version, the certifier revision
/// ([`overrun_jsr::CERTIFIER_REVISION`]), the plant matrices, the
/// materialized controller table (every mode's `Ac/Bc/Cc/Dc` plus the
/// interval set), and the [`CertifyOptions`] budget — all `f64`s by exact
/// bit pattern.
///
/// The key deliberately covers only what [`overrun_control::stability::certify`]
/// reads, so the declarative and pre-materialized paths address identical
/// cache entries; the certifier revision makes a cache written before a
/// change to the certification numerics miss instead of replaying stale
/// bounds.
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

/// Hash identifying a whole prepared grid (order-sensitive over the
/// scenario keys) — the checkpoint's validity token.
pub fn grid_key(scenarios: &[PreparedScenario]) -> ContentHash {
    let mut c = Canon::new();
    c.tag("overrun-sweep-grid");
    c.u64_field(scenarios.len() as u64);
    for s in scenarios {
        c.u64_field(s.key.0 as u64);
        c.u64_field((s.key.0 >> 64) as u64);
    }
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use overrun_control::plants;

    fn base_scenario() -> Scenario {
        Scenario {
            label: "uso".to_string(),
            plant: plants::unstable_second_order(),
            period: 0.010,
            rmax_factor: 1.3,
            ns: 2,
            policy: DesignPolicy::PiAdaptive,
            opts: CertifyOptions::default(),
        }
    }

    #[test]
    fn prepare_is_deterministic_and_key_stable() -> overrun_control::Result<()> {
        let s = base_scenario();
        let a = s.prepare()?;
        let b = s.prepare()?;
        assert_eq!(a.key, b.key);
        // The pre-materialized path addresses the same cache entry.
        assert_eq!(a.key, certification_key(&b.plant, &b.table, &b.opts));
        Ok(())
    }

    #[test]
    fn key_separates_inputs() -> overrun_control::Result<()> {
        let s = base_scenario();
        let base = s.prepare()?.key;

        let mut wider = s.clone();
        wider.rmax_factor = 1.6;
        assert_ne!(wider.prepare()?.key, base);

        let mut finer = s.clone();
        finer.ns = 5;
        assert_ne!(finer.prepare()?.key, base);

        let mut other_policy = s.clone();
        other_policy.policy = DesignPolicy::PiFixed(GainSchedule::Nominal);
        assert_ne!(other_policy.prepare()?.key, base);

        let mut other_budget = s;
        other_budget.opts.max_depth = 5;
        assert_ne!(other_budget.prepare()?.key, base);
        Ok(())
    }

    #[test]
    fn key_depends_on_certifier_revision() -> overrun_control::Result<()> {
        let s = base_scenario().prepare()?;
        let current = certification_key(&s.plant, &s.table, &s.opts);
        assert_eq!(
            current,
            key_at_revision(overrun_jsr::CERTIFIER_REVISION, &s.plant, &s.table, &s.opts)
        );
        let bumped = format!("{}+1", overrun_jsr::CERTIFIER_REVISION);
        assert_ne!(current, key_at_revision(&bumped, &s.plant, &s.table, &s.opts));
        Ok(())
    }

    #[test]
    fn grid_expansion_shape_and_order() {
        let spec = GridSpec {
            plants: vec![
                ("uso".into(), plants::unstable_second_order()),
                ("dint".into(), plants::double_integrator()),
            ],
            periods: vec![0.010],
            rmax_factors: vec![1.1, 1.3],
            ns_values: vec![2],
            policies: vec![
                ("adaptive".into(), DesignPolicy::PiAdaptive),
                ("fixed-t".into(), DesignPolicy::PiFixed(GainSchedule::Nominal)),
            ],
            opts: CertifyOptions::default(),
        };
        let scenarios = spec.expand();
        assert_eq!(scenarios.len(), 2 * 2 * 2);
        assert_eq!(scenarios[0].label, "uso t0.01 r1.1 ns2 adaptive");
        assert_eq!(scenarios[1].label, "uso t0.01 r1.1 ns2 fixed-t");
        assert_eq!(scenarios[4].label, "dint t0.01 r1.1 ns2 adaptive");
    }
}
