//! Adaptive output-feedback LQG design (paper Sec. IV-B, observer variant).
//!
//! The paper's LQR case assumes the full state is measurable
//! (`e[k] = x[k]`). "If the state is not measurable, an observer is added,
//! and the controller state and matrix reflect the observer behavior" —
//! this module implements that path: one steady-state Kalman observer plus
//! delayed-LQR gain per interval `h ∈ H`, realised as a controller mode
//! with internal state `z = [x̂; u_prev]`:
//!
//! ```text
//! x̂[k+1] = Φ(h) x̂[k] + Γ(h) u[k] + L(h) (y[k] − C x̂[k])
//! u[k+1] = −K_x(h) x̂[k] − K_u(h) u[k]
//! ```
//!
//! With the regulation convention `e[k] = −y[k]`, the innovation term
//! `L·y` enters through `Bc = [−L; 0]`.

use overrun_linalg::{dkalman_solution, Matrix};

use crate::lqr::LqrWeights;
use crate::{ContinuousSs, ControllerMode, ControllerTable, Error, IntervalSet, Result};

/// Process / measurement noise covariances for the Kalman observer.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseModel {
    /// Process noise covariance `W ⪰ 0` (`n × n`).
    pub process: Matrix,
    /// Measurement noise covariance `V ≻ 0` (`q × q`).
    pub measurement: Matrix,
}

impl NoiseModel {
    /// Isotropic noise: `W = w·I`, `V = v·I`.
    pub fn isotropic(state_dim: usize, output_dim: usize, w: f64, v: f64) -> Self {
        NoiseModel {
            process: Matrix::identity(state_dim) * w,
            measurement: Matrix::identity(output_dim) * v,
        }
    }
}

/// Designs the output-feedback LQG mode for one interval: a delayed LQR
/// gain (as in [`crate::lqr::mode_for_interval`]) acting on the estimate of
/// a per-interval steady-state Kalman observer.
///
/// The resulting mode has `s = n + r` internal states (`[x̂; u_prev]`) and
/// consumes the plant *output* error (`q`-dimensional), so the lifted
/// analysis and the simulator automatically use `C_m = C`.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] on shape mismatches and
/// [`Error::Design`] when either Riccati equation fails.
///
/// # Example
///
/// ```
/// use overrun_control::{lqg, lqr, plants};
///
/// # fn main() -> Result<(), overrun_control::Error> {
/// let plant = plants::dc_motor();
/// let mode = lqg::mode_for_interval(
///     &plant,
///     0.05,
///     &lqr::LqrWeights::identity(2, 1, 0.1),
///     &lqg::NoiseModel::isotropic(2, 1, 1e-3, 1e-2),
/// )?;
/// assert_eq!(mode.state_dim(), 3); // x̂ (2) + u_prev (1)
/// # Ok(())
/// # }
/// ```
pub fn mode_for_interval(
    plant: &ContinuousSs,
    h: f64,
    weights: &LqrWeights,
    noise: &NoiseModel,
) -> Result<ControllerMode> {
    let n = plant.state_dim();
    let r = plant.input_dim();
    let q = plant.output_dim();
    if noise.process.shape() != (n, n) {
        return Err(Error::InvalidConfig(format!(
            "process noise must be {n}x{n}, got {}x{}",
            noise.process.rows(),
            noise.process.cols()
        )));
    }
    if noise.measurement.shape() != (q, q) {
        return Err(Error::InvalidConfig(format!(
            "measurement noise must be {q}x{q}, got {}x{}",
            noise.measurement.rows(),
            noise.measurement.cols()
        )));
    }

    // Delayed LQR gain K = [K_x, K_u] from the state-feedback design.
    let state_mode = mode_for_interval_gains(plant, h, weights)?;
    let (kx, ku) = state_mode;

    // Steady-state predictor Kalman gain for the h-discretised plant.
    let _sp = overrun_trace::span!("lqg.mode", h_us = h * 1e6);
    let d = plant.discretize(h)?;
    let (l, _m, sol) = dkalman_solution(&d.phi, &d.c, &noise.process, &noise.measurement)
        .map_err(|e| Error::Design(format!("Kalman design failed at h = {h}: {e}")))?;
    overrun_trace::counter!("lqg.kalman_iters", sol.iterations as u64);
    overrun_trace::histogram!("lqg.kalman_residual", sol.residual);

    // z = [x̂; u_prev]:
    //   x̂' = (Φ − LC) x̂ + Γ u_prev − L e      (e = −y)
    //   u'  = −K_x x̂ − K_u u_prev
    let s = n + r;
    let mut ac = Matrix::zeros(s, s);
    let phi_lc = d.phi.sub_mat(&l.matmul(&d.c)?)?;
    ac.set_block(0, 0, &phi_lc).map_err(Error::Linalg)?;
    ac.set_block(0, n, &d.gamma).map_err(Error::Linalg)?;
    ac.set_block(n, 0, &kx.scale(-1.0)).map_err(Error::Linalg)?;
    ac.set_block(n, n, &ku.scale(-1.0)).map_err(Error::Linalg)?;

    let mut bc = Matrix::zeros(s, q);
    bc.set_block(0, 0, &l.scale(-1.0)).map_err(Error::Linalg)?;

    let mut cc = Matrix::zeros(r, s);
    cc.set_block(0, 0, &kx.scale(-1.0)).map_err(Error::Linalg)?;
    cc.set_block(0, n, &ku.scale(-1.0)).map_err(Error::Linalg)?;

    let dc = Matrix::zeros(r, q);
    ControllerMode::new(ac, bc, cc, dc)
}

/// Extracts the raw `(K_x, K_u)` pair of the delayed-LQR design (shared
/// with the state-feedback path).
fn mode_for_interval_gains(
    plant: &ContinuousSs,
    h: f64,
    weights: &LqrWeights,
) -> Result<(Matrix, Matrix)> {
    let n = plant.state_dim();
    let r = plant.input_dim();
    let mode = crate::lqr::mode_for_interval(plant, h, weights)?;
    // In the state-feedback realisation Dc = K_x and Cc = −K_u.
    let kx = mode.dc.clone();
    let ku = mode.cc.scale(-1.0);
    debug_assert_eq!(kx.shape(), (r, n));
    debug_assert_eq!(ku.shape(), (r, r));
    Ok((kx, ku))
}

/// Designs the adaptive output-feedback LQG table: one observer + gain per
/// interval in `H`.
///
/// # Errors
///
/// Propagates [`mode_for_interval`] failures.
pub fn design_adaptive(
    plant: &ContinuousSs,
    hset: &IntervalSet,
    weights: &LqrWeights,
    noise: &NoiseModel,
) -> Result<ControllerTable> {
    let _sp = overrun_trace::span!("table.lqg", modes = hset.len());
    // One Riccati + Kalman solve per interval, all independent — fan the
    // table out across threads (serial when only one is available).
    let modes = overrun_par::try_parallel_map(hset.intervals(), |_, &h| {
        mode_for_interval(plant, h, weights, noise)
    })?;
    ControllerTable::new(modes, hset.clone())
}

/// Designs a fixed output-feedback LQG table (observer and gain for
/// `h_design` replicated over `H`).
///
/// # Errors
///
/// Propagates [`mode_for_interval`] failures.
pub fn design_fixed(
    plant: &ContinuousSs,
    hset: &IntervalSet,
    weights: &LqrWeights,
    noise: &NoiseModel,
    h_design: f64,
) -> Result<ControllerTable> {
    let mode = mode_for_interval(plant, h_design, weights, noise)?;
    ControllerTable::fixed(mode, hset.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lifted, plants, stability};
    use overrun_linalg::spectral_radius;

    fn weights() -> LqrWeights {
        LqrWeights::identity(2, 1, 0.1)
    }

    fn noise() -> NoiseModel {
        NoiseModel::isotropic(2, 1, 1e-3, 1e-2)
    }

    #[test]
    fn lqg_mode_dimensions() {
        let plant = plants::dc_motor();
        let mode = mode_for_interval(&plant, 0.05, &weights(), &noise()).unwrap();
        assert_eq!(mode.state_dim(), 3);
        assert_eq!(mode.error_dim(), 1); // plant output
        assert_eq!(mode.output_dim(), 1);
    }

    #[test]
    fn lqg_stabilizes_unstable_plant_from_output() {
        let plant = plants::unstable_second_order();
        let h = 0.010;
        let mode = mode_for_interval(&plant, h, &weights(), &noise()).unwrap();
        let omega = lifted::build_omega(&plant, &mode, h, &plant.c).unwrap();
        let rho = spectral_radius(&omega).unwrap();
        assert!(rho < 1.0, "ρ = {rho}");
    }

    #[test]
    fn adaptive_lqg_certifies_on_dc_motor() {
        let plant = plants::dc_motor();
        let hset = IntervalSet::from_timing(0.05, 0.065, 2).unwrap();
        let table = design_adaptive(&plant, &hset, &weights(), &noise()).unwrap();
        assert_eq!(table.len(), hset.len());
        // Output feedback ⇒ the lifted analysis uses C automatically.
        let report = stability::certify(&plant, &table, &Default::default()).unwrap();
        assert!(report.bounds.certifies_stable(), "{:?}", report.bounds);
    }

    #[test]
    fn lqg_estimate_converges_in_simulation() {
        use crate::sim::{ClosedLoopSim, SimScenario};
        let plant = plants::unstable_second_order();
        let hset = IntervalSet::from_timing(0.010, 0.013, 2).unwrap();
        let table = design_adaptive(&plant, &hset, &weights(), &noise()).unwrap();
        let sim = ClosedLoopSim::new(&plant, &table).unwrap();
        let scenario = SimScenario::regulation(overrun_linalg::Matrix::col_vec(&[1.0, 0.0]), 1);
        let traj = sim.run(&scenario, &vec![0; 400]).unwrap();
        assert!(!traj.diverged);
        let first = traj.errors[0].max_abs();
        let last = traj.errors.last().unwrap().max_abs();
        assert!(last < 0.05 * first, "first {first}, last {last}");
    }

    #[test]
    fn noise_shape_validation() {
        let plant = plants::dc_motor();
        let bad_w = NoiseModel {
            process: Matrix::identity(3),
            measurement: Matrix::identity(1),
        };
        assert!(mode_for_interval(&plant, 0.05, &weights(), &bad_w).is_err());
        let bad_v = NoiseModel {
            process: Matrix::identity(2),
            measurement: Matrix::identity(2),
        };
        assert!(mode_for_interval(&plant, 0.05, &weights(), &bad_v).is_err());
    }

    #[test]
    fn fixed_lqg_replicates() {
        let plant = plants::dc_motor();
        let hset = IntervalSet::from_timing(0.05, 0.065, 2).unwrap();
        let table = design_fixed(&plant, &hset, &weights(), &noise(), 0.05).unwrap();
        assert_eq!(table.mode(0), table.mode(1));
    }
}
