//! The lifted closed-loop dynamics `ξ(k+1) = Ω(h_k) ξ(k)` (paper Sec. V).
//!
//! With the auxiliary variables `z̃[k] = z[k+1]`, `ũ[k] = u[k+1]` and the
//! lifted state `ξ = [x; z̃; ũ; u] ∈ ℝ^{n+s+2r}`, the closed loop under the
//! overrun policy becomes a switching linear system whose dynamic matrix
//! depends on the *current* interval `h_k` only — the key trick that keeps
//! the stability analysis over `#H` matrices instead of `#H²`.
//!
//! For the delayed LQR ([`crate::lqr`]) the controller state is the last
//! command, `z[k] = u[k]`, realised with `Ac = Cc` and `Bc = Dc`; the `z̃`
//! and `ũ` row blocks of every `Ω(h)` are then the same bit for bit, so the
//! lifted state holds the controller state twice and every `Ω(h)` maps into
//! `{z̃ = ũ}`. The JSR layer removes such repeated coordinates before it
//! certifies ([`overrun_jsr::deflate`]: the Table II sets go from 9 to 7
//! dimensions), and the simulator merges them with the same row test
//! before it steps a run ([`crate::sim::ClosedLoopSim::new`]); the
//! matrices built here keep the paper's layout.

use overrun_linalg::Matrix;

use crate::{ContinuousSs, ControllerMode, ControllerTable, DiscreteSs, Error, Result};

/// Builds the lifted closed-loop matrix `Ω(h)` for a single interval and
/// controller mode (paper Sec. V, with the regulation convention
/// `e[k] = −C_m x[k]`, i.e. reference `r = 0`):
///
/// ```text
///        ⎡    Φ(h)        0    0     Γ(h)    ⎤
/// Ω(h) = ⎢ −Bc·Cm·Φ(h)    Ac   0  −Bc·Cm·Γ(h)⎥
///        ⎢ −Dc·Cm·Φ(h)    Cc   0  −Dc·Cm·Γ(h)⎥
///        ⎣     0          0    I      0      ⎦
/// ```
///
/// `measurement` is the matrix `C_m` the controller error is formed from —
/// the plant `C` for output feedback, or the identity for full-state
/// feedback (the paper's LQR case, `e[k] = x[k]`).
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] on dimension mismatches and propagates
/// discretisation failures.
///
/// # Example
///
/// ```
/// use overrun_control::prelude::*;
/// use overrun_linalg::Matrix;
///
/// # fn main() -> Result<(), overrun_control::Error> {
/// let plant = plants::unstable_second_order();
/// let hset = IntervalSet::from_timing(0.010, 0.013, 2)?;
/// let table = pi::design_adaptive(&plant, &hset)?;
/// let omega = lifted::build_omega(&plant, table.mode(0), 0.010, &plant.c)?;
/// // n + s + 2r = 2 + 1 + 2 = 5
/// assert_eq!(omega.shape(), (5, 5));
/// # Ok(())
/// # }
/// ```
pub fn build_omega(
    plant: &ContinuousSs,
    mode: &ControllerMode,
    h: f64,
    measurement: &Matrix,
) -> Result<Matrix> {
    omega_from_discrete(&plant.discretize(h)?, mode, measurement)
}

/// [`build_omega`] from an existing discretisation `(Φ(h), Γ(h))`, for
/// callers that also need the discrete plant (the simulator discretises
/// each interval once).
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] on dimension mismatches.
pub fn omega_from_discrete(
    d: &DiscreteSs,
    mode: &ControllerMode,
    measurement: &Matrix,
) -> Result<Matrix> {
    let n = d.state_dim();
    let r = d.input_dim();
    let s = mode.state_dim();
    if measurement.cols() != n {
        return Err(Error::InvalidConfig(format!(
            "measurement matrix has {} cols, plant has {n} states",
            measurement.cols()
        )));
    }
    if mode.error_dim() != measurement.rows() {
        return Err(Error::InvalidConfig(format!(
            "controller expects {}-dim error, measurement gives {}",
            mode.error_dim(),
            measurement.rows()
        )));
    }
    if mode.output_dim() != r {
        return Err(Error::InvalidConfig(format!(
            "controller emits {} commands, plant takes {r}",
            mode.output_dim()
        )));
    }

    // −Cm·Φ and −Cm·Γ, negated once for the four blocks below.
    let mut neg_cm_phi = measurement.matmul(&d.phi)?;
    neg_cm_phi.scale_in_place(-1.0);
    let mut neg_cm_gamma = measurement.matmul(&d.gamma)?;
    neg_cm_gamma.scale_in_place(-1.0);

    let dim = n + s + 2 * r;
    let mut omega = Matrix::zeros(dim, dim);
    // Row block 1: x[k+1] = Φ x[k] + Γ u[k]
    omega.set_block(0, 0, &d.phi).map_err(Error::Linalg)?;
    omega
        .set_block(0, n + s + r, &d.gamma)
        .map_err(Error::Linalg)?;
    // Row block 2: z̃[k+1] = Ac z̃[k] − Bc Cm (Φ x[k] + Γ u[k])
    if s > 0 {
        omega
            .set_block(n, 0, &mode.bc.matmul(&neg_cm_phi)?)
            .map_err(Error::Linalg)?;
        omega.set_block(n, n, &mode.ac).map_err(Error::Linalg)?;
        omega
            .set_block(n, n + s + r, &mode.bc.matmul(&neg_cm_gamma)?)
            .map_err(Error::Linalg)?;
    }
    // Row block 3: ũ[k+1] = Cc z̃[k] − Dc Cm (Φ x[k] + Γ u[k])
    omega
        .set_block(n + s, 0, &mode.dc.matmul(&neg_cm_phi)?)
        .map_err(Error::Linalg)?;
    if s > 0 {
        omega.set_block(n + s, n, &mode.cc).map_err(Error::Linalg)?;
    }
    omega
        .set_block(n + s, n + s + r, &mode.dc.matmul(&neg_cm_gamma)?)
        .map_err(Error::Linalg)?;
    // Row block 4: u[k+1] = ũ[k]
    omega
        .set_block(n + s + r, n + s, &Matrix::identity(r))
        .map_err(Error::Linalg)?;
    Ok(omega)
}

/// Builds the full set `{Ω(h) : h ∈ H}` — job `k`'s controller mode is the
/// table entry for the same index as `h_k`.
///
/// # Errors
///
/// Propagates [`build_omega`] errors.
pub fn build_omega_set(
    plant: &ContinuousSs,
    table: &ControllerTable,
    measurement: &Matrix,
) -> Result<Vec<Matrix>> {
    table
        .hset()
        .intervals()
        .iter()
        .enumerate()
        .map(|(i, &h)| build_omega(plant, table.mode(i), h, measurement))
        .collect()
}

/// Chooses the measurement matrix `C_m` a controller table acts on: the
/// plant output matrix when the table was designed for output feedback
/// (`error_dim == q`), or the identity for full-state feedback
/// (`error_dim == n`).
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] when the table matches neither.
pub fn measurement_matrix(plant: &ContinuousSs, table: &ControllerTable) -> Result<Matrix> {
    let q = plant.output_dim();
    let n = plant.state_dim();
    let e = table.error_dim();
    if e == q {
        Ok(plant.c.clone())
    } else if e == n {
        Ok(Matrix::identity(n))
    } else {
        Err(Error::InvalidConfig(format!(
            "controller error dimension {e} matches neither outputs ({q}) nor states ({n})"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{plants, ControllerMode, IntervalSet};
    use overrun_linalg::spectral_radius;

    fn pi_mode(kp: f64, ki: f64, h: f64) -> ControllerMode {
        ControllerMode::new(
            Matrix::identity(1),
            Matrix::from_rows(&[&[h]]).unwrap(),
            Matrix::from_rows(&[&[ki]]).unwrap(),
            Matrix::from_rows(&[&[kp]]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn omega_dimensions() {
        let plant = plants::unstable_second_order();
        let mode = pi_mode(100.0, 10.0, 0.01);
        let omega = build_omega(&plant, &mode, 0.01, &plant.c).unwrap();
        assert_eq!(omega.shape(), (2 + 1 + 2, 2 + 1 + 2));
    }

    #[test]
    fn omega_static_gain_dimensions() {
        // s = 0: state feedback with e = x.
        let plant = plants::double_integrator();
        let mode = ControllerMode::static_gain(Matrix::row_vec(&[-1.0, -2.0])).unwrap();
        let eye = Matrix::identity(2);
        let omega = build_omega(&plant, &mode, 0.01, &eye).unwrap();
        assert_eq!(omega.shape(), (4, 4)); // n + s + 2r with s = 0
                                           // Last row block: u[k+1] = ũ[k].
        assert_eq!(omega[(3, 2)], 1.0);
    }

    #[test]
    fn omega_structure_matches_hand_unrolled_loop() {
        // Simulate ξ(k+1) = Ω ξ(k) and compare with the explicit recursion
        // of plant + controller + one-step actuation delay.
        let plant = plants::unstable_second_order();
        let h = 0.012;
        let mode = pi_mode(80.0, 5.0, h);
        let omega = build_omega(&plant, &mode, h, &plant.c).unwrap();
        let d = plant.discretize(h).unwrap();

        // Hand state.
        let mut x = Matrix::col_vec(&[1.0, 0.0]);
        let mut z = Matrix::col_vec(&[0.0]);
        let mut u_applied = Matrix::col_vec(&[0.0]);
        // Initialise: job 0 measures e0 and computes (z1, u1).
        let e0 = plant.c.matmul(&x).unwrap().scale(-1.0);
        let (mut z_next, mut u_next) = mode.step(&z, &e0).unwrap();

        // Lifted state ξ(0) = [x0, z̃0 = z1, ũ0 = u1, u0].
        let mut xi = Matrix::zeros(5, 1);
        xi.set_block(0, 0, &x).unwrap();
        xi.set_block(2, 0, &z_next).unwrap();
        xi.set_block(3, 0, &u_next).unwrap();
        xi.set_block(4, 0, &u_applied).unwrap();

        for _ in 0..6 {
            // Hand recursion: advance plant with u_applied, then job k+1
            // computes from the new measurement.
            x = d.step(&x, &u_applied).unwrap();
            u_applied = u_next.clone();
            z = z_next.clone();
            let e = plant.c.matmul(&x).unwrap().scale(-1.0);
            let (zn, un) = mode.step(&z, &e).unwrap();
            z_next = zn;
            u_next = un;

            // Lifted recursion.
            xi = omega.matmul(&xi).unwrap();

            assert!(
                (xi[(0, 0)] - x[(0, 0)]).abs() < 1e-9 * x.max_abs().max(1.0),
                "x mismatch"
            );
            assert!(
                (xi[(2, 0)] - z_next[(0, 0)]).abs() < 1e-9 * z_next.max_abs().max(1.0),
                "z̃ mismatch"
            );
            assert!(
                (xi[(3, 0)] - u_next[(0, 0)]).abs() < 1e-9 * u_next.max_abs().max(1.0),
                "ũ mismatch"
            );
            assert!(
                (xi[(4, 0)] - u_applied[(0, 0)]).abs() < 1e-9 * u_applied.max_abs().max(1.0),
                "u mismatch"
            );
        }
    }

    #[test]
    fn omega_set_size_matches_h() {
        let plant = plants::unstable_second_order();
        let hset = IntervalSet::from_timing(0.010, 0.016, 5).unwrap();
        let modes: Vec<_> = hset
            .intervals()
            .iter()
            .map(|&h| pi_mode(80.0, 5.0, h))
            .collect();
        let table = crate::ControllerTable::new(modes, hset.clone()).unwrap();
        let omegas = build_omega_set(&plant, &table, &plant.c).unwrap();
        assert_eq!(omegas.len(), 4);
        for o in &omegas {
            assert_eq!(o.shape(), (5, 5));
            assert!(spectral_radius(o).unwrap().is_finite());
        }
    }

    #[test]
    fn measurement_selection() {
        let plant = plants::unstable_second_order();
        let hset = IntervalSet::from_timing(0.010, 0.010, 2).unwrap();
        // Output feedback table (error dim 1 = q).
        let t_out = crate::ControllerTable::fixed(pi_mode(1.0, 1.0, 0.01), hset.clone()).unwrap();
        assert_eq!(measurement_matrix(&plant, &t_out).unwrap(), plant.c.clone());
        // State feedback table (error dim 2 = n).
        let t_state = crate::ControllerTable::fixed(
            ControllerMode::static_gain(Matrix::row_vec(&[1.0, 2.0])).unwrap(),
            hset,
        )
        .unwrap();
        assert_eq!(
            measurement_matrix(&plant, &t_state).unwrap(),
            Matrix::identity(2)
        );
    }

    /// The delayed LQR's `z̃` and `ũ` rows repeat bit for bit and deflate
    /// away (PMSM, 9 → 7); a PI loop has no repeated row and stays at 5.
    #[test]
    fn delayed_lqr_repeats_its_controller_state() {
        use overrun_jsr::{deflate, MatrixSet};

        let plant = plants::pmsm();
        let t = 50e-6;
        let hset = IntervalSet::from_timing(t, 1.6 * t, 2).unwrap();
        let weights = crate::scenarios::pmsm_table2_weights();
        for table in [
            crate::lqr::design_adaptive(&plant, &hset, &weights).unwrap(),
            crate::lqr::design_fixed(&plant, &hset, &weights, t).unwrap(),
        ] {
            let meas = measurement_matrix(&plant, &table).unwrap();
            let omegas = build_omega_set(&plant, &table, &meas).unwrap();
            for o in &omegas {
                assert_eq!(o.shape(), (9, 9));
                for i in 3..5 {
                    assert_eq!(o.row(i), o.row(i + 2), "row {i}");
                }
            }
            let set = MatrixSet::new(omegas).unwrap();
            assert_eq!(deflate(&set).unwrap().dim(), 7);
        }

        let plant = plants::unstable_second_order();
        let hset = IntervalSet::from_timing(0.010, 0.016, 5).unwrap();
        let table = crate::pi::design_adaptive(&plant, &hset).unwrap();
        let omegas = build_omega_set(&plant, &table, &plant.c).unwrap();
        let set = MatrixSet::new(omegas).unwrap();
        assert_eq!(deflate(&set).unwrap().dim(), 5);
    }

    #[test]
    fn dimension_mismatches_rejected() {
        let plant = plants::unstable_second_order();
        let mode = pi_mode(1.0, 1.0, 0.01);
        // Wrong measurement width.
        assert!(build_omega(&plant, &mode, 0.01, &Matrix::identity(3)).is_err());
        // Controller with wrong command count.
        let bad = ControllerMode::new(
            Matrix::identity(1),
            Matrix::from_rows(&[&[0.01]]).unwrap(),
            Matrix::zeros(2, 1),
            Matrix::zeros(2, 1),
        )
        .unwrap();
        assert!(build_omega(&plant, &bad, 0.01, &plant.c).is_err());
    }
}
