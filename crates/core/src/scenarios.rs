//! End-to-end experiment drivers reproducing the paper's evaluation
//! (Sec. VI, Tables I and II).
//!
//! These functions are used both by the `overrun-bench` binaries (full
//! paper-scale runs) and by the integration tests (reduced ensembles).

use overrun_jsr::{JsrBounds, ScreenStats};
use overrun_linalg::Matrix;

use crate::lqr::LqrWeights;
use crate::metrics::{evaluate_worst_case, Ensemble, WorstCaseOptions};
use crate::sim::{ClosedLoopSim, SimScenario};
use crate::stability::{certify, CertifyOptions, StabilityReport};
use crate::{pi, ContinuousSs, ControllerTable, IntervalSet, Result};

/// The certification hook of [`granularity_sweep_with`]: same signature as
/// [`crate::stability::certify`]. The `ts_tradeoff` binary passes
/// `certify` itself; a test may pass a cheaper budget or a substitute.
pub type CertifyFn<'a> =
    &'a dyn Fn(&ContinuousSs, &ControllerTable, &CertifyOptions) -> Result<StabilityReport>;

/// Shared experiment grid: `(Rmax factor, Ns)` combinations and ensemble
/// sizes. Matches the paper with
/// `rmax_factors = [1.1, 1.3, 1.6]`, `ns_values = [2, 5]`,
/// `num_sequences = 50_000`, `jobs_per_sequence = 50`.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// `Rmax = factor · T` values to sweep.
    pub rmax_factors: Vec<f64>,
    /// Oversampling factors `Ns` (`Ts = T / Ns`).
    pub ns_values: Vec<u32>,
    /// Random sequences per configuration.
    pub num_sequences: usize,
    /// Jobs per sequence.
    pub jobs_per_sequence: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            rmax_factors: vec![1.1, 1.3, 1.6],
            ns_values: vec![2, 5],
            num_sequences: 50_000,
            jobs_per_sequence: 50,
            seed: 2021,
        }
    }
}

impl ExperimentConfig {
    /// A small configuration for tests and smoke runs.
    pub fn smoke() -> Self {
        ExperimentConfig {
            num_sequences: 200,
            ..ExperimentConfig::default()
        }
    }

    /// The worst-case evaluation options every experiment cell uses.
    fn worst_case_options(&self) -> WorstCaseOptions {
        WorstCaseOptions {
            num_sequences: self.num_sequences,
            jobs_per_sequence: self.jobs_per_sequence,
            seed: self.seed,
            rmin_fraction: 0.05,
        }
    }
}

/// The canonical LQR weights of the Table II experiment on the
/// [`crate::plants::pmsm`] plant: `Q = I`, `R = 3·10⁻³·I`. Aggressive
/// enough that the fixed-`T` design loses stability at
/// `Rmax = 1.6 T, Ts = T/2` while the adaptive design stays certified —
/// the paper's headline contrast.
pub fn pmsm_table2_weights() -> LqrWeights {
    LqrWeights::identity(3, 2, 3e-3)
}

/// One row of Table I: worst-case PI cost under adaptive periods for the
/// three control strategies.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// `Rmax / T`.
    pub rmax_factor: f64,
    /// Oversampling factor (`Ts = T / ns`).
    pub ns: u32,
    /// `J_w` of the adaptive control (per-interval gains).
    pub jw_adaptive: f64,
    /// `J_w` of the fixed controller tuned for `T`.
    pub jw_fixed_t: f64,
    /// `J_w` of the fixed controller tuned for `Rmax`.
    pub jw_fixed_rmax: f64,
}

/// Runs the Table I experiment: a PI-controlled unstable system with
/// `T = 10 ms`, sweeping `Rmax ∈ factors·T` and `Ts ∈ {T/Ns}`; for each
/// cell the worst-case cost `J_w = max_σ Σ e[k]²` over random sequences
/// (paper: 50 000 sequences of 50 jobs).
///
/// # Errors
///
/// Propagates design and simulation failures.
pub fn table1(plant: &ContinuousSs, t: f64, cfg: &ExperimentConfig) -> Result<Vec<Table1Row>> {
    let mut rows = Vec::new();
    for &factor in &cfg.rmax_factors {
        for &ns in &cfg.ns_values {
            let rmax = factor * t;
            let hset = IntervalSet::from_timing(t, rmax, ns)?;
            let adaptive = pi::design_adaptive(plant, &hset)?;
            let fixed_t = pi::design_fixed(plant, &hset, t)?;
            let fixed_rmax = pi::design_fixed(plant, &hset, rmax)?;

            let scenario = SimScenario::step(plant.state_dim(), Matrix::col_vec(&[1.0]));
            // The three designs share the interval set, so one draw serves
            // them all.
            let ensemble = Ensemble::draw(&hset, &cfg.worst_case_options())?;
            let jw = |table: &ControllerTable| -> Result<f64> {
                let sim = ClosedLoopSim::new(plant, table)?;
                Ok(ensemble.evaluate(&sim, &scenario)?.worst_cost)
            };
            rows.push(Table1Row {
                rmax_factor: factor,
                ns,
                jw_adaptive: jw(&adaptive)?,
                jw_fixed_t: jw(&fixed_t)?,
                jw_fixed_rmax: jw(&fixed_rmax)?,
            });
        }
    }
    Ok(rows)
}

/// One row of Table II: LQR on the PMSM under adaptive periods.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// `Rmax / T`.
    pub rmax_factor: f64,
    /// Oversampling factor.
    pub ns: u32,
    /// Certified JSR bounds of the adaptive design.
    pub jsr_adaptive: JsrBounds,
    /// Cost with no overruns (every job nominal).
    pub cost_no_overruns: f64,
    /// Worst-case cost, adaptive period + adaptive control.
    pub cost_adaptive: f64,
    /// Worst-case cost, adaptive period + fixed control designed for `T`
    /// (`None` when the closed loop is unstable — the paper's "unstable"
    /// cell).
    pub cost_fixed_t: Option<f64>,
    /// Worst-case cost, adaptive period + fixed control designed for `Rmax`.
    pub cost_fixed_rmax: Option<f64>,
    /// Cost of the ideal fixed-period baseline: designed **and executed**
    /// at period `Rmax` (no overruns by construction).
    pub cost_fixed_period_rmax: f64,
    /// Norm-screening statistics of the adaptive design's certification.
    pub screen_adaptive: ScreenStats,
}

/// Runs the Table II experiment: an LQR-controlled plant (the PMSM in the
/// paper) with period `t`, comparing the adaptive design against fixed-gain
/// and fixed-period baselines, and certifying the adaptive design's JSR.
///
/// Costs are the time-integrated `Σ‖e‖²·h_k` so that runs with different
/// sampling periods are comparable. Note that a fixed job count means
/// overrun-laden runs integrate over a somewhat longer physical horizon;
/// this is negligible here because the regulation error has decayed to
/// ~zero well within the 50-job window (see `EXPERIMENTS.md`, notes).
///
/// # Errors
///
/// Propagates design, certification and simulation failures.
pub fn table2(
    plant: &ContinuousSs,
    t: f64,
    weights: &LqrWeights,
    x0: &Matrix,
    cfg: &ExperimentConfig,
) -> Result<Vec<Table2Row>> {
    let mut rows = Vec::new();
    let n = plant.state_dim();
    let scenario = SimScenario::regulation(x0.clone(), n);
    for &factor in &cfg.rmax_factors {
        for &ns in &cfg.ns_values {
            let rmax = factor * t;
            let hset = IntervalSet::from_timing(t, rmax, ns)?;
            let adaptive = crate::lqr::design_adaptive(plant, &hset, weights)?;
            let fixed_t = crate::lqr::design_fixed(plant, &hset, weights, t)?;
            let fixed_rmax = crate::lqr::design_fixed(plant, &hset, weights, rmax)?;
            let certify_table = |table| certify(plant, table, &CertifyOptions::default());

            let report = certify_table(&adaptive)?;

            let ensemble = Ensemble::draw(&hset, &cfg.worst_case_options())?;
            // A strategy's cell reads "unstable" when the JSR analysis
            // certifies instability (paper methodology) or any simulated
            // sequence diverges.
            let worst = |table: &ControllerTable, cert: &StabilityReport| -> Result<Option<f64>> {
                if cert.bounds.certifies_unstable() {
                    return Ok(None);
                }
                let sim = ClosedLoopSim::new(plant, table)?;
                let rep = ensemble.evaluate(&sim, &scenario)?;
                Ok(if rep.all_stable() {
                    Some(rep.worst_integral_cost)
                } else {
                    None
                })
            };

            // Cost with no overruns: the adaptive design running nominally.
            let nominal_sim = ClosedLoopSim::new(plant, &adaptive)?;
            let nominal = nominal_sim
                .run(&scenario, &vec![0; cfg.jobs_per_sequence])?
                .cost_integral;

            // Ideal baseline: period Rmax, gain for Rmax, no overruns.
            let hset_rmax = IntervalSet::from_timing(rmax, rmax, ns)?;
            let table_rmax = crate::lqr::design_adaptive(plant, &hset_rmax, weights)?;
            let base_sim = ClosedLoopSim::new(plant, &table_rmax)?;
            let fixed_period_cost = base_sim
                .run(&scenario, &vec![0; cfg.jobs_per_sequence])?
                .cost_integral;

            rows.push(Table2Row {
                rmax_factor: factor,
                ns,
                jsr_adaptive: report.bounds,
                cost_no_overruns: nominal,
                cost_adaptive: worst(&adaptive, &report)?.unwrap_or(f64::INFINITY),
                cost_fixed_t: worst(&fixed_t, &certify_table(&fixed_t)?)?,
                cost_fixed_rmax: worst(&fixed_rmax, &certify_table(&fixed_rmax)?)?,
                cost_fixed_period_rmax: fixed_period_cost,
                screen_adaptive: report.screen,
            });
        }
    }
    Ok(rows)
}

/// One row of the sensor-granularity trade-off sweep (paper Sec. V-B: the
/// choice of `Ts` balances analysis complexity, resource efficiency and
/// stability margin).
#[derive(Debug, Clone)]
pub struct GranularityRow {
    /// Oversampling factor `Ns`.
    pub ns: u32,
    /// Cardinality of the interval set `#H`.
    pub h_count: usize,
    /// Certified JSR bounds of the adaptive design.
    pub jsr: JsrBounds,
    /// Worst-case cost of the adaptive design under adaptive periods.
    pub jw_adaptive: f64,
    /// Idle slack wasted per overrun in the worst case, in seconds:
    /// `Δmax − (Rmax − T)` (coarser grids park the processor longer).
    pub worst_idle_slack: f64,
}

/// Sweeps the sensor oversampling factor `Ns` at fixed `Rmax`, measuring
/// the three quantities the paper's Sec. V-B trades off: analysis size
/// (`#H`), stability margin (JSR upper bound) and performance (`J_w`),
/// plus the resource-efficiency proxy `Δmax − (Rmax − T)`. Each
/// adaptive design is certified through `certify_fn` (see [`CertifyFn`]).
///
/// # Errors
///
/// Propagates design, certification and simulation failures.
pub fn granularity_sweep_with(
    plant: &ContinuousSs,
    t: f64,
    rmax_factor: f64,
    ns_values: &[u32],
    cfg: &ExperimentConfig,
    certify_fn: CertifyFn<'_>,
) -> Result<Vec<GranularityRow>> {
    let mut rows = Vec::with_capacity(ns_values.len());
    let rmax = rmax_factor * t;
    for &ns in ns_values {
        let hset = IntervalSet::from_timing(t, rmax, ns)?;
        let table = pi::design_adaptive(plant, &hset)?;
        let report = certify_fn(plant, &table, &CertifyOptions::default())?;
        let sim = ClosedLoopSim::new(plant, &table)?;
        let scenario = SimScenario::step(plant.state_dim(), Matrix::col_vec(&[1.0]));
        let jw = evaluate_worst_case(&sim, &scenario, &cfg.worst_case_options())?.worst_cost;
        rows.push(GranularityRow {
            ns,
            h_count: hset.len(),
            jsr: report.bounds,
            jw_adaptive: jw,
            worst_idle_slack: (hset.max_interval() - rmax).max(0.0),
        });
    }
    Ok(rows)
}

/// Formats granularity-sweep rows as an aligned text table.
pub fn format_granularity(rows: &[GranularityRow]) -> String {
    let mut s = String::new();
    s.push_str(
        "Ns    #H   JSR [LB, UB]           Jw(adaptive)   idle slack
",
    );
    for r in rows {
        s.push_str(&format!(
            "{:<4} {:>3}   [{:.6}, {:.6}]   {:>10.4}   {:>8.2e} s
",
            r.ns, r.h_count, r.jsr.lower, r.jsr.upper, r.jw_adaptive, r.worst_idle_slack
        ));
    }
    s
}

/// Formats Table 1 rows as an aligned text table (the bench binary's
/// output).
pub fn format_table1(rows: &[Table1Row]) -> String {
    let mut s = String::new();
    s.push_str("Rmax     Ts     Adaptive     Fixed(T)     Fixed(Rmax)\n");
    for r in rows {
        s.push_str(&format!(
            "{:.1}*T   T/{}   {:>10.4}   {:>10.4}   {:>11.4}\n",
            r.rmax_factor, r.ns, r.jw_adaptive, r.jw_fixed_t, r.jw_fixed_rmax
        ));
    }
    s
}

/// Formats Table 2 rows as an aligned text table.
pub fn format_table2(rows: &[Table2Row]) -> String {
    let fmt_opt = |v: &Option<f64>| match v {
        Some(c) => format!("{c:>10.4}"),
        None => format!("{:>10}", "unstable"),
    };
    let mut s = String::new();
    s.push_str(
        "Rmax     Ts     JSR [LB, UB]             NoOvr      AdaptCtl   FixedCtl(T)  FixedCtl(Rmax)  FixedPeriod(Rmax)\n",
    );
    for r in rows {
        s.push_str(&format!(
            "{:.1}*T   T/{}   [{:.6}, {:.6}]   {:>8.4}   {:>8.4}   {}   {}   {:>10.4}\n",
            r.rmax_factor,
            r.ns,
            r.jsr_adaptive.lower,
            r.jsr_adaptive.upper,
            r.cost_no_overruns,
            r.cost_adaptive,
            fmt_opt(&r.cost_fixed_t),
            fmt_opt(&r.cost_fixed_rmax),
            r.cost_fixed_period_rmax
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plants;

    #[test]
    fn table1_smoke_has_expected_shape() {
        let plant = plants::unstable_second_order();
        let cfg = ExperimentConfig {
            rmax_factors: vec![1.3],
            ns_values: vec![2],
            num_sequences: 50,
            jobs_per_sequence: 50,
            seed: 1,
        };
        let rows = table1(&plant, 0.010, &cfg).unwrap();
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(r.jw_adaptive.is_finite());
        // The paper's headline: adaptive beats both fixed variants.
        assert!(r.jw_adaptive <= r.jw_fixed_t + 1e-9, "{r:?}");
        assert!(r.jw_adaptive <= r.jw_fixed_rmax + 1e-9, "{r:?}");
        let formatted = format_table1(&rows);
        assert!(formatted.contains("Adaptive"));
    }

    #[test]
    fn table2_smoke_has_expected_shape() {
        let plant = plants::pmsm();
        let weights = LqrWeights::identity(3, 2, 0.1);
        let x0 = Matrix::col_vec(&[1.0, 1.0, 1.0]);
        let cfg = ExperimentConfig {
            rmax_factors: vec![1.3],
            ns_values: vec![5],
            num_sequences: 50,
            jobs_per_sequence: 50,
            seed: 1,
        };
        let rows = table2(&plant, 50e-6, &weights, &x0, &cfg).unwrap();
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        // The adaptive design must be certified stable.
        assert!(r.jsr_adaptive.certifies_stable(), "{:?}", r.jsr_adaptive);
        // Cost ordering: no-overrun ≤ adaptive worst case.
        assert!(r.cost_no_overruns <= r.cost_adaptive + 1e-12);
        assert!(r.cost_adaptive.is_finite());
        let formatted = format_table2(&rows);
        assert!(formatted.contains("JSR"));
    }
}
