//! Adaptive delayed LQR design (paper Sec. IV-B, LQG case).
//!
//! For each interval `h ∈ H` the plant is discretised at `h` and augmented
//! with the in-flight command (the input–output delay of the paper's
//! computational model is one full interval):
//!
//! ```text
//! ⎡x[k+1]⎤   ⎡Φ(h)  Γ(h)⎤ ⎡x[k]⎤   ⎡0⎤
//! ⎢      ⎥ = ⎢          ⎥ ⎢    ⎥ + ⎢ ⎥ u[k+1]
//! ⎣u[k+1]⎦   ⎣ 0     0  ⎦ ⎣u[k]⎦   ⎣I⎦
//! ```
//!
//! One discrete Riccati equation per interval yields the gain
//! `K(h) = [K_x(h), K_u(h)]` and the optimal delayed state feedback
//! `u[k+1] = −K_x(h) x[k] − K_u(h) u[k]`, realised as a controller mode
//! whose internal state is the previously issued command.

use overrun_linalg::{dlqr_solution, Matrix};

use crate::{ContinuousSs, ControllerMode, ControllerTable, Error, IntervalSet, Result};

/// Weights of the quadratic cost `Σ xᵀQx + uᵀRu`.
#[derive(Debug, Clone, PartialEq)]
pub struct LqrWeights {
    /// State weight `Q ⪰ 0` (`n × n`).
    pub q: Matrix,
    /// Input weight `R ≻ 0` (`r × r`).
    pub r: Matrix,
}

impl LqrWeights {
    /// Identity state weight, `ρ·I` input weight.
    pub fn identity(state_dim: usize, input_dim: usize, input_scale: f64) -> Self {
        LqrWeights {
            q: Matrix::identity(state_dim),
            r: Matrix::identity(input_dim) * input_scale,
        }
    }
}

/// Designs the delayed-LQR gain for a single interval; returns the
/// controller mode realising `u[k+1] = −K_x x[k] − K_u u[k]` with
/// `e[k] = −x[k]` as its input (full-state feedback, `C_m = I`).
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] for shape mismatches and propagates
/// Riccati failures as [`Error::Design`].
fn mode_for_interval(plant: &ContinuousSs, h: f64, weights: &LqrWeights) -> Result<ControllerMode> {
    let n = plant.state_dim();
    let r = plant.input_dim();
    if weights.q.shape() != (n, n) {
        return Err(Error::InvalidConfig(format!(
            "Q must be {n}x{n}, got {}x{}",
            weights.q.rows(),
            weights.q.cols()
        )));
    }
    if weights.r.shape() != (r, r) {
        return Err(Error::InvalidConfig(format!(
            "R must be {r}x{r}, got {}x{}",
            weights.r.rows(),
            weights.r.cols()
        )));
    }
    let d = plant.discretize(h)?;

    // Augmented plant [x; u_prev] with decision v = u[k+1].
    let mut a_aug = Matrix::zeros(n + r, n + r);
    a_aug.set_block(0, 0, &d.phi).map_err(Error::Linalg)?;
    a_aug.set_block(0, n, &d.gamma).map_err(Error::Linalg)?;
    let mut b_aug = Matrix::zeros(n + r, r);
    b_aug
        .set_block(n, 0, &Matrix::identity(r))
        .map_err(Error::Linalg)?;
    let mut q_aug = Matrix::zeros(n + r, n + r);
    q_aug.set_block(0, 0, &weights.q).map_err(Error::Linalg)?;
    // Small regularisation on the held command keeps (A_aug, Q_aug^{1/2})
    // detectable even when Q only weighs part of the state.
    q_aug
        .set_block(n, n, &(weights.r.clone() * 1e-9))
        .map_err(Error::Linalg)?;

    let _sp = overrun_trace::span!("lqr.mode", h_us = h * 1e6);
    let (k_gain, sol) = dlqr_solution(&a_aug, &b_aug, &q_aug, &weights.r)
        .map_err(|e| Error::Design(format!("delayed LQR Riccati failed at h = {h}: {e}")))?;
    overrun_trace::counter!("lqr.riccati_iters", sol.iterations as u64);
    let kx = k_gain.submatrix(0, 0, r, n).map_err(Error::Linalg)?;
    let ku = k_gain.submatrix(0, n, r, r).map_err(Error::Linalg)?;

    // e[k] = −x[k] ⇒ u[k+1] = Cc z[k] + Dc e[k] with z[k] = u[k]:
    //   Cc = −K_u, Dc = +K_x, Ac = Cc, Bc = Dc.
    let cc = ku.scale(-1.0);
    let dc = kx;
    ControllerMode::new(cc.clone(), dc.clone(), cc, dc)
}

/// Designs the **adaptive** LQR table: one optimal delayed gain per
/// interval in `H` (the paper's "collection of optimal linear quadratic
/// regulators, designed for each interval in H").
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] when the weights do not match the
/// plant, and [`Error::Design`] when an interval's Riccati solve fails.
///
/// # Example
///
/// ```
/// use overrun_control::prelude::*;
/// use overrun_control::lqr::LqrWeights;
///
/// # fn main() -> Result<(), overrun_control::Error> {
/// let plant = plants::pmsm();
/// let hset = IntervalSet::from_timing(50e-6, 65e-6, 2)?;
/// let table = lqr::design_adaptive(&plant, &hset, &LqrWeights::identity(3, 2, 0.1))?;
/// assert_eq!(table.len(), hset.len());
/// # Ok(())
/// # }
/// ```
pub fn design_adaptive(
    plant: &ContinuousSs,
    hset: &IntervalSet,
    weights: &LqrWeights,
) -> Result<ControllerTable> {
    let _sp = overrun_trace::span!("table.lqr", modes = hset.len());
    // Each interval's Riccati solve is independent, so the table is built
    // with one task per h (serial when only one thread is available).
    let modes = overrun_par::try_parallel_map(hset.intervals(), |_, &h| {
        mode_for_interval(plant, h, weights)
    })?;
    ControllerTable::new(modes, hset.clone())
}

/// Designs a **fixed** LQR table: the gain optimal for `h_design` replicated
/// over every interval — the paper's fixed-control baselines (optimal for
/// `T` or for `Rmax`, executed under the adaptive release pattern).
///
/// # Errors
///
/// As [`design_adaptive`], for the one interval `h_design`.
pub fn design_fixed(
    plant: &ContinuousSs,
    hset: &IntervalSet,
    weights: &LqrWeights,
    h_design: f64,
) -> Result<ControllerTable> {
    let mode = mode_for_interval(plant, h_design, weights)?;
    ControllerTable::fixed(mode, hset.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lifted, plants, IntervalSet};
    use overrun_linalg::spectral_radius;

    fn weights3() -> LqrWeights {
        LqrWeights::identity(3, 2, 0.1)
    }

    #[test]
    fn mode_stabilizes_its_own_interval() {
        let plant = plants::pmsm();
        let h = 50e-6;
        let mode = mode_for_interval(&plant, h, &weights3()).unwrap();
        let omega = lifted::build_omega(&plant, &mode, h, &Matrix::identity(3)).unwrap();
        let rho = spectral_radius(&omega).unwrap();
        assert!(rho < 1.0, "ρ = {rho}");
    }

    #[test]
    fn mode_structure_is_delayed_state_feedback() {
        let plant = plants::pmsm();
        let mode = mode_for_interval(&plant, 50e-6, &weights3()).unwrap();
        // z = u_prev (2 states), e = −x (3 entries), u (2 commands).
        assert_eq!(mode.state_dim(), 2);
        assert_eq!(mode.error_dim(), 3);
        assert_eq!(mode.output_dim(), 2);
        // Ac = Cc and Bc = Dc by construction (z tracks u).
        assert_eq!(mode.ac, mode.cc);
        assert_eq!(mode.bc, mode.dc);
    }

    #[test]
    fn adaptive_table_gains_vary_with_interval() {
        let plant = plants::pmsm();
        let hset = IntervalSet::from_timing(50e-6, 80e-6, 2).unwrap(); // {50,75,100} µs
        let table = design_adaptive(&plant, &hset, &weights3()).unwrap();
        assert_eq!(table.len(), 3);
        assert_ne!(table.mode(0).dc, table.mode(2).dc);
    }

    #[test]
    fn fixed_table_replicates() {
        let plant = plants::pmsm();
        let hset = IntervalSet::from_timing(50e-6, 80e-6, 2).unwrap();
        let table = design_fixed(&plant, &hset, &weights3(), 50e-6).unwrap();
        assert_eq!(table.mode(0), table.mode(2));
    }

    #[test]
    fn weight_shape_validation() {
        let plant = plants::pmsm();
        let bad_q = LqrWeights {
            q: Matrix::identity(2),
            r: Matrix::identity(2),
        };
        assert!(mode_for_interval(&plant, 50e-6, &bad_q).is_err());
        let bad_r = LqrWeights {
            q: Matrix::identity(3),
            r: Matrix::identity(3),
        };
        assert!(mode_for_interval(&plant, 50e-6, &bad_r).is_err());
    }

    #[test]
    fn works_on_unstable_siso_plant() {
        let plant = plants::unstable_second_order();
        let w = LqrWeights::identity(2, 1, 1.0);
        let mode = mode_for_interval(&plant, 0.010, &w).unwrap();
        let omega = lifted::build_omega(&plant, &mode, 0.010, &Matrix::identity(2)).unwrap();
        assert!(spectral_radius(&omega).unwrap() < 1.0);
    }

    #[test]
    fn longer_interval_gives_different_gain() {
        let plant = plants::unstable_second_order();
        let w = LqrWeights::identity(2, 1, 1.0);
        let m1 = mode_for_interval(&plant, 0.010, &w).unwrap();
        let m2 = mode_for_interval(&plant, 0.020, &w).unwrap();
        assert!((m1.dc[(0, 0)] - m2.dc[(0, 0)]).abs() > 1e-6);
    }
}
