//! Joint-spectral-radius stability certification (paper Sec. V-A).

use overrun_jsr::{
    bruteforce_bounds, refined_bounds_with_stats, BruteforceOptions, GripenbergOptions, JsrBounds,
    MatrixSet, RefineOptions, ScreenStats, StabilityVerdict,
};

use crate::{lifted, ContinuousSs, ControllerTable, Result};

/// Options for [`certify`].
#[derive(Debug, Clone)]
pub struct CertifyOptions {
    /// Target gap `δ` of the per-level Gripenberg bounds.
    pub delta: f64,
    /// Maximum explored product length per lift level.
    pub max_depth: usize,
    /// Hard cap on the number of matrix products formed per lift level.
    pub max_products: usize,
    /// Largest power-lift level (products of length `ℓ ≤ max_power` form
    /// the lifted alphabets; higher levels tighten the ellipsoid-norm
    /// bounds on marginally contractive designs).
    pub max_power: usize,
}

impl Default for CertifyOptions {
    fn default() -> Self {
        CertifyOptions {
            delta: 1e-5,
            max_depth: 8,
            max_products: 100_000,
            max_power: 6,
        }
    }
}

/// Outcome of a stability certification.
#[derive(Debug, Clone)]
pub struct StabilityReport {
    /// Certified JSR interval `[LB, UB]` of `{Ω(h) : h ∈ H}`.
    pub bounds: JsrBounds,
    /// Stable / unstable / undecided within budget.
    pub verdict: StabilityVerdict,
    /// Norm-screening statistics of the underlying product-tree searches.
    pub screen: ScreenStats,
}

/// Builds the lifted matrix set `{Ω(h) : h ∈ H}` for a design.
fn lifted_set(plant: &ContinuousSs, table: &ControllerTable) -> Result<MatrixSet> {
    let measurement = lifted::measurement_matrix(plant, table)?;
    let omegas = lifted::build_omega_set(plant, table, &measurement)?;
    Ok(MatrixSet::new(omegas)?)
}

/// Maps certified bounds to the three-way verdict.
fn verdict_from(bounds: &JsrBounds) -> StabilityVerdict {
    if bounds.certifies_stable() {
        StabilityVerdict::Stable
    } else if bounds.certifies_unstable() {
        StabilityVerdict::Unstable
    } else {
        StabilityVerdict::Unknown
    }
}

/// Certifies closed-loop stability of a (plant, controller table) pair under
/// **every** admissible overrun pattern, by bounding the joint spectral
/// radius of the lifted matrices `{Ω(h) : h ∈ H}` with Gripenberg's
/// branch-and-bound.
///
/// `verdict == Stable` is a proof: for *all* switching sequences the closed
/// loop converges (paper Theorem context: `ρ(A) < 1` iff asymptotically
/// stable).
///
/// # Errors
///
/// Propagates lifting and JSR computation failures.
///
/// # Example
///
/// ```
/// use overrun_control::prelude::*;
///
/// # fn main() -> Result<(), overrun_control::Error> {
/// let plant = plants::unstable_second_order();
/// let hset = IntervalSet::from_timing(0.010, 0.013, 2)?;
/// let table = pi::design_adaptive(&plant, &hset)?;
/// let report = stability::certify(&plant, &table, &Default::default())?;
/// assert!(report.bounds.certifies_stable());
/// # Ok(())
/// # }
/// ```
pub fn certify(
    plant: &ContinuousSs,
    table: &ControllerTable,
    opts: &CertifyOptions,
) -> Result<StabilityReport> {
    let _sp = overrun_trace::span!("stability.certify", modes = table.len());
    let set = lifted_set(plant, table)?;
    let (bounds, screen) = refined_bounds_with_stats(
        &set,
        &RefineOptions {
            base: GripenbergOptions {
                delta: opts.delta,
                max_depth: opts.max_depth,
                max_products: opts.max_products,
                precondition: true,
                ellipsoid: true,
                screen: true,
            },
            max_power: opts.max_power,
            max_alphabet: 1024,
            decision_threshold: Some(1.0),
        },
    )?;
    let verdict = verdict_from(&bounds);
    Ok(StabilityReport {
        bounds,
        verdict,
        screen,
    })
}

/// Computes the paper-Eq.-12 brute-force bounds on the same lifted set —
/// useful for validating the Gripenberg result and for the depth-ablation
/// experiment.
///
/// # Errors
///
/// Propagates lifting and JSR computation failures.
pub fn eq12_bounds(
    plant: &ContinuousSs,
    table: &ControllerTable,
    max_depth: usize,
) -> Result<JsrBounds> {
    let set = lifted_set(plant, table)?;
    Ok(bruteforce_bounds(
        &set,
        &BruteforceOptions {
            max_depth,
            ..BruteforceOptions::default()
        },
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{pi, plants, ControllerMode, ControllerTable, IntervalSet};
    use overrun_linalg::Matrix;

    #[test]
    fn adaptive_pi_certified_stable() {
        let plant = plants::unstable_second_order();
        let hset = IntervalSet::from_timing(0.010, 0.013, 2).unwrap();
        let table = pi::design_adaptive(&plant, &hset).unwrap();
        let report = certify(&plant, &table, &CertifyOptions::default()).unwrap();
        assert_eq!(report.verdict, StabilityVerdict::Stable);
        assert!(report.bounds.lower <= report.bounds.upper);
    }

    #[test]
    fn zero_gain_on_unstable_plant_certified_unstable() {
        let plant = plants::unstable_second_order();
        let hset = IntervalSet::from_timing(0.010, 0.010, 2).unwrap();
        let zero = ControllerMode::static_gain(Matrix::zeros(1, 1)).unwrap();
        let table = ControllerTable::fixed(zero, hset).unwrap();
        let report = certify(&plant, &table, &CertifyOptions::default()).unwrap();
        assert_eq!(report.verdict, StabilityVerdict::Unstable);
    }

    #[test]
    fn gripenberg_and_eq12_agree() {
        let plant = plants::unstable_second_order();
        let hset = IntervalSet::from_timing(0.010, 0.013, 2).unwrap();
        let table = pi::design_adaptive(&plant, &hset).unwrap();
        let g = certify(&plant, &table, &CertifyOptions::default())
            .unwrap()
            .bounds;
        let bf = eq12_bounds(&plant, &table, 6).unwrap();
        // Both intervals must contain the true JSR, hence overlap.
        assert!(g.lower <= bf.upper + 1e-9, "g={g:?} bf={bf:?}");
        assert!(bf.lower <= g.upper + 1e-9, "g={g:?} bf={bf:?}");
    }
}
