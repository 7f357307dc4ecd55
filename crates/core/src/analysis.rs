//! Closed-form performance analysis of the lifted closed loop.
//!
//! For a *constant* interval (no overruns, or a worst-case constant overrun
//! pattern) the closed loop is LTI in the lifted state
//! `ξ(k+1) = Ω(h) ξ(k)`, so the infinite-horizon quadratic error cost has
//! the exact Lyapunov closed form
//!
//! ```text
//! Σ_k ‖e[k]‖² = Σ_k ξ(k)ᵀ S ξ(k) = ξ(0)ᵀ P ξ(0),   ΩᵀPΩ − P + S = 0
//! ```
//!
//! with `S = (C_m row-selector)ᵀ(C_m …)` picking the measurement error out
//! of the lifted state. This gives an analytical oracle for the simulator
//! (they must agree to machine precision on constant-mode runs) and an
//! instant, ensemble-free performance metric for design-space sweeps.

use overrun_linalg::{solve_discrete_lyapunov, Matrix};

use crate::{lifted, ContinuousSs, ControllerMode, ControllerTable, Error, Result};

/// Exact infinite-horizon error cost `Σ_k ‖e[k]‖²` of one controller mode
/// running at a constant interval `h`, from the initial plant state `x0`
/// (controller at rest, actuator at zero).
///
/// Matches [`crate::sim::ClosedLoopSim`] run with a constant mode sequence
/// in the limit of infinitely many jobs.
///
/// # Errors
///
/// * [`Error::InvalidConfig`] on dimension mismatches.
/// * [`Error::Design`] when the constant-`h` loop is not Schur stable (the
///   cost diverges).
///
/// # Example
///
/// ```
/// use overrun_control::prelude::*;
/// use overrun_control::analysis::constant_mode_cost;
/// use overrun_linalg::Matrix;
///
/// # fn main() -> Result<(), overrun_control::Error> {
/// let plant = plants::unstable_second_order();
/// let hset = IntervalSet::from_timing(0.010, 0.013, 2)?;
/// let table = pi::design_adaptive(&plant, &hset)?;
/// let x0 = Matrix::col_vec(&[1.0, 0.0]);
/// let exact = constant_mode_cost(&plant, table.mode(0), 0.010, &x0)?;
/// assert!(exact.is_finite() && exact > 0.0);
/// # Ok(())
/// # }
/// ```
pub fn constant_mode_cost(
    plant: &ContinuousSs,
    mode: &ControllerMode,
    h: f64,
    x0: &Matrix,
) -> Result<f64> {
    let n = plant.state_dim();
    let r = plant.input_dim();
    let s = mode.state_dim();
    if x0.shape() != (n, 1) {
        return Err(Error::InvalidConfig(format!(
            "x0 must be {n}x1, got {}x{}",
            x0.rows(),
            x0.cols()
        )));
    }
    let measurement = if mode.error_dim() == plant.output_dim() {
        plant.c.clone()
    } else if mode.error_dim() == n {
        Matrix::identity(n)
    } else {
        return Err(Error::InvalidConfig(format!(
            "controller error dimension {} matches neither outputs nor states",
            mode.error_dim()
        )));
    };
    let omega = lifted::build_omega(plant, mode, h, &measurement)?;
    let dim = n + s + 2 * r;

    // Stage cost on the lifted state: e[k] = −C_m x[k] ⇒
    // S = [C_m, 0, 0, 0]ᵀ [C_m, 0, 0, 0].
    let mut selector = Matrix::zeros(measurement.rows(), dim);
    selector
        .set_block(0, 0, &measurement)
        .map_err(Error::Linalg)?;
    let stage = selector.transpose().matmul(&selector)?;

    // P solves Ωᵀ P Ω − P + S = 0 (so that P = Σ (Ωᵀ)ᵏ S Ωᵏ); exists iff
    // ρ(Ω) < 1.
    let p = solve_discrete_lyapunov(&omega, &stage).map_err(|e| {
        Error::Design(format!(
            "constant-interval loop at h = {h} is not Schur stable: {e}"
        ))
    })?;

    // Initial lifted state: [x0; z̃0; ũ0; u0] where job 0 computes
    // (z1, u1) from e0 = −C_m x0 and the actuator starts at zero.
    let e0 = measurement.matmul(x0)?.scale(-1.0);
    let (z1, u1) = mode.step(&Matrix::zeros(s, 1), &e0)?;
    let mut xi0 = Matrix::zeros(dim, 1);
    xi0.set_block(0, 0, x0).map_err(Error::Linalg)?;
    if s > 0 {
        xi0.set_block(n, 0, &z1).map_err(Error::Linalg)?;
    }
    xi0.set_block(n + s, 0, &u1).map_err(Error::Linalg)?;

    Ok(xi0.transpose().matmul(&p.matmul(&xi0)?)?[(0, 0)])
}

/// Exact per-mode costs of a whole table: entry `i` is the cost of
/// permanently running interval `h_i` with its own mode — the "constant
/// worst case" diagonal of the design space.
///
/// # Errors
///
/// Propagates [`constant_mode_cost`] failures.
pub fn per_mode_costs(
    plant: &ContinuousSs,
    table: &ControllerTable,
    x0: &Matrix,
) -> Result<Vec<f64>> {
    table
        .hset()
        .intervals()
        .iter()
        .enumerate()
        .map(|(i, &h)| constant_mode_cost(plant, table.mode(i), h, x0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{ClosedLoopSim, SimScenario};
    use crate::{pi, plants, ControllerTable, IntervalSet};

    #[test]
    fn closed_form_matches_long_simulation() {
        let plant = plants::unstable_second_order();
        let hset = IntervalSet::from_timing(0.010, 0.013, 2).unwrap();
        let table = pi::design_adaptive(&plant, &hset).unwrap();
        let x0 = Matrix::col_vec(&[1.0, 0.0]);

        let exact = constant_mode_cost(&plant, table.mode(0), 0.010, &x0).unwrap();

        let sim = ClosedLoopSim::new(&plant, &table).unwrap();
        let scenario = SimScenario::regulation(x0, 1);
        // Long horizon: the tail beyond 4000 jobs is negligible.
        let traj = sim.run(&scenario, &vec![0; 4000]).unwrap();
        assert!(!traj.diverged);
        let rel = (exact - traj.cost).abs() / exact;
        assert!(rel < 1e-3, "closed form {exact} vs simulated {}", traj.cost);
        assert!(
            exact >= traj.cost - 1e-9,
            "closed form must dominate any finite prefix"
        );
    }

    #[test]
    fn per_mode_costs_cover_table() {
        let plant = plants::unstable_second_order();
        let hset = IntervalSet::from_timing(0.010, 0.016, 2).unwrap();
        let table = pi::design_adaptive(&plant, &hset).unwrap();
        let x0 = Matrix::col_vec(&[1.0, 0.0]);
        let costs = per_mode_costs(&plant, &table, &x0).unwrap();
        assert_eq!(costs.len(), hset.len());
        assert!(costs.iter().all(|c| c.is_finite() && *c > 0.0));
    }

    #[test]
    fn unstable_constant_loop_reported() {
        // Zero gains on an unstable plant: the Lyapunov equation must fail.
        let plant = plants::unstable_second_order();
        let zero = crate::ControllerMode::static_gain(Matrix::zeros(1, 1)).unwrap();
        let x0 = Matrix::col_vec(&[1.0, 0.0]);
        assert!(matches!(
            constant_mode_cost(&plant, &zero, 0.010, &x0),
            Err(Error::Design(_))
        ));
    }

    #[test]
    fn shape_validation() {
        let plant = plants::unstable_second_order();
        let hset = IntervalSet::from_timing(0.010, 0.010, 2).unwrap();
        let table = pi::design_adaptive(&plant, &hset).unwrap();
        let bad_x0 = Matrix::col_vec(&[1.0, 0.0, 0.0]);
        assert!(constant_mode_cost(&plant, table.mode(0), 0.010, &bad_x0).is_err());
        drop(ControllerTable::fixed(table.mode(0).clone(), hset));
    }

    #[test]
    fn zero_initial_state_zero_cost() {
        let plant = plants::unstable_second_order();
        let hset = IntervalSet::from_timing(0.010, 0.010, 2).unwrap();
        let table = pi::design_adaptive(&plant, &hset).unwrap();
        let cost = constant_mode_cost(&plant, table.mode(0), 0.010, &Matrix::zeros(2, 1)).unwrap();
        assert!(cost.abs() < 1e-12);
    }

    #[test]
    fn lqr_state_feedback_mode_supported() {
        let plant = plants::pmsm();
        let w = crate::lqr::LqrWeights::identity(3, 2, 0.01);
        let mode = crate::lqr::mode_for_interval(&plant, 50e-6, &w).unwrap();
        let x0 = Matrix::col_vec(&[1.0, 1.0, 1.0]);
        let cost = constant_mode_cost(&plant, &mode, 50e-6, &x0).unwrap();
        assert!(cost.is_finite() && cost > 0.0);
    }
}
