//! Plant zoo: the evaluation plants of the paper plus common benchmarks.
//!
//! The paper does not publish the exact parameters of its two evaluation
//! plants (the unstable PI example and the PMSM of [18, Example 2]); the
//! models here are representative substitutes with the same structure —
//! see `DESIGN.md` ("Substitutions") for the rationale.

use overrun_linalg::Matrix;

use crate::ContinuousSs;

/// Builds a plant from fixed-size `A` (`N × N`), `B` (`N × M`) and `C`
/// (`P × N`) arrays. The array types already fix the shapes that
/// [`ContinuousSs::new`] checks, so construction cannot fail.
fn plant<const N: usize, const M: usize, const P: usize>(
    a: [[f64; N]; N],
    b: [[f64; M]; N],
    c: [[f64; N]; P],
) -> ContinuousSs {
    ContinuousSs {
        a: Matrix::from_fn(N, N, |i, j| a[i][j]),
        b: Matrix::from_fn(N, M, |i, j| b[i][j]),
        c: Matrix::from_fn(P, N, |i, j| c[i][j]),
    }
}

/// The Table-I style plant: a controllable second-order system with one
/// right-half-plane pole (poles at `+5` and `−10` rad/s), sampled at
/// `T = 10 ms` in the experiments.
///
/// ```
/// let p = overrun_control::plants::unstable_second_order();
/// assert!(!p.is_hurwitz().unwrap());
/// assert!(p.is_controllable().unwrap());
/// ```
pub fn unstable_second_order() -> ContinuousSs {
    plant([[0.0, 1.0], [50.0, -5.0]], [[0.0], [1.0]], [[1.0, 0.0]])
}

/// A permanent-magnet synchronous motor (PMSM) in the rotating d–q frame,
/// linearised at standstill — the Table-II style plant, sampled at
/// `T = 50 µs` in the experiments.
///
/// States: `[i_d, i_q, ω]` (direct / quadrature currents, rotor speed);
/// inputs: `[v_d, v_q]`; outputs: full state.
///
/// Parameters (typical small drive): `R = 0.5 Ω`, `L_d = L_q = 1 mH`,
/// `ψ = 0.1 Wb`, `p = 4` pole pairs, `J = 10⁻⁴ kg·m²`, `b = 10⁻⁴`.
///
/// ```
/// let p = overrun_control::plants::pmsm();
/// assert!(p.is_hurwitz().unwrap()); // electrically stable, slow mechanics
/// assert_eq!(p.state_dim(), 3);
/// ```
pub fn pmsm() -> ContinuousSs {
    let r = 0.5_f64; // stator resistance [Ω]
    let l = 1e-3_f64; // d/q inductance [H]
    let psi = 0.1_f64; // PM flux linkage [Wb]
    let p = 4.0_f64; // pole pairs
    let j = 1e-4_f64; // rotor inertia [kg m²]
    let b = 1e-4_f64; // viscous friction

    plant(
        [
            [-r / l, 0.0, 0.0],
            [0.0, -r / l, -psi * p / l],
            [0.0, 1.5 * p * psi / j, -b / j],
        ],
        [[1.0 / l, 0.0], [0.0, 1.0 / l], [0.0, 0.0]],
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    )
}

/// The double integrator `ÿ = u` — the canonical motion-control benchmark.
///
/// ```
/// let p = overrun_control::plants::double_integrator();
/// assert_eq!(p.state_dim(), 2);
/// ```
pub fn double_integrator() -> ContinuousSs {
    plant([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]])
}

/// A brushed DC motor with angular-velocity output: states `[ω, i]`
/// (rotor speed, armature current) with electrical and mechanical poles.
///
/// ```
/// let p = overrun_control::plants::dc_motor();
/// assert!(p.is_hurwitz().unwrap());
/// ```
pub fn dc_motor() -> ContinuousSs {
    // J ω̇ = Kt i − b ω;  L i̇ = −Ke ω − R i + v
    let (j, b_f, kt, ke, r, l) = (0.01, 0.1, 0.01, 0.01, 1.0, 0.5);
    plant(
        [[-b_f / j, kt / j], [-ke / l, -r / l]],
        [[0.0], [1.0 / l]],
        [[1.0, 0.0]],
    )
}

/// Linearised inverted pendulum on a cart (upright equilibrium): states
/// `[x, ẋ, θ, θ̇]`, force input, cart position + pole angle outputs.
///
/// ```
/// let p = overrun_control::plants::inverted_pendulum();
/// assert!(!p.is_hurwitz().unwrap());
/// assert!(p.is_controllable().unwrap());
/// ```
pub fn inverted_pendulum() -> ContinuousSs {
    // Standard cart-pole linearisation (M = 0.5 kg, m = 0.2 kg, l = 0.3 m,
    // friction 0.1, g = 9.8), e.g. the CTMS example.
    let (m_cart, m_pole, b, l, g) = (0.5_f64, 0.2_f64, 0.1_f64, 0.3_f64, 9.8_f64);
    let i = m_pole * l * l / 3.0;
    let denom = i * (m_cart + m_pole) + m_cart * m_pole * l * l;
    let a22 = -(i + m_pole * l * l) * b / denom;
    let a23 = m_pole * m_pole * g * l * l / denom;
    let a42 = -m_pole * l * b / denom;
    let a43 = m_pole * g * l * (m_cart + m_pole) / denom;
    let b2 = (i + m_pole * l * l) / denom;
    let b4 = m_pole * l / denom;
    plant(
        [
            [0.0, 1.0, 0.0, 0.0],
            [0.0, a22, a23, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, a42, a43, 0.0],
        ],
        [[0.0], [b2], [0.0], [b4]],
        [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use overrun_linalg::eigenvalues;

    #[test]
    fn unstable_plant_has_one_rhp_pole() {
        let p = unstable_second_order();
        let eigs = eigenvalues(&p.a).unwrap();
        let rhp = eigs.iter().filter(|e| e.re > 0.0).count();
        assert_eq!(rhp, 1);
        assert!(p.is_controllable().unwrap());
        assert!(p.is_observable().unwrap());
    }

    #[test]
    fn pmsm_is_stable_and_controllable() {
        let p = pmsm();
        assert!(p.is_hurwitz().unwrap());
        assert!(p.is_controllable().unwrap());
        assert_eq!(p.input_dim(), 2);
        assert_eq!(p.output_dim(), 3);
        // Electrical time constant L/R = 2 ms ⇒ fastest real pole −500.
        let eigs = eigenvalues(&p.a).unwrap();
        assert!(eigs.iter().any(|e| (e.re + 500.0).abs() < 1.0));
    }

    #[test]
    fn all_plants_are_controllable() {
        for p in [
            unstable_second_order(),
            pmsm(),
            double_integrator(),
            dc_motor(),
            inverted_pendulum(),
        ] {
            assert!(p.is_controllable().unwrap());
        }
    }

    #[test]
    fn pendulum_is_unstable_with_four_states() {
        let p = inverted_pendulum();
        assert_eq!(p.state_dim(), 4);
        assert!(!p.is_hurwitz().unwrap());
        assert_eq!(p.output_dim(), 2);
    }

    #[test]
    fn dc_motor_is_stable() {
        assert!(dc_motor().is_hurwitz().unwrap());
    }
}
