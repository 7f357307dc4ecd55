//! Adaptive PI controller design (paper Eq. 7).
//!
//! The PI controller — "more than 90% of all industrial controllers" —
//! has one mode per interval `h ∈ H`:
//!
//! ```text
//! z[k+1] = z[k] + h_{k−1} · e[k]
//! u[k+1] = K̄P(h_{k−1}) e[k] + K̄I(h_{k−1}) z[k]
//! ```
//!
//! The integrator advances by the *actual* elapsed interval (forward Euler
//! over `h_{k−1}` rather than `T`), which is exactly the paper's
//! compensation of the previous job's overrun. Gains are tuned per interval
//! with a heuristic search (grid seed + Nelder–Mead polish), standing in
//! for the paper's "standard heuristic procedures".
//!
//! Only the gains `(kp, ki)` change inside one interval's search, so each
//! interval gets one evaluator: it discretises the plant and builds
//! `Ω(h)` once, then scores a gain pair by rewriting the one gain-dependent
//! row of `Ω(h)` before its eigen-solve, and by running the nominal step
//! response on flat slices, with the plant state in two arrays for a
//! 2-state plant and in one buffer the evaluator owns otherwise. The
//! margin scan keeps the radii of its 256 grid points, and the tuning scan
//! of the same interval reads them, so it solves no eigenproblem of its own.
//! Every sum keeps the accumulation order of [`Matrix::matmul`], so the
//! tuned gains are those of the generic matrix recursion, bit for bit.
//!
//! Eigen-solves of `Ω(h)` (allocation-free, see [`spectral_radius`]) take
//! most of a design's time, and the 400-job step responses most of the
//! rest.

use overrun_linalg::optimize::{nelder_mead, NelderMeadOptions};
use overrun_linalg::{spectral_radius, Matrix};

use crate::{
    lifted, ContinuousSs, ControllerMode, ControllerTable, DiscreteSs, Error, IntervalSet, Result,
};

/// Builds the PI controller mode of paper Eq. (7) for interval `h`.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] for a non-positive interval.
///
/// # Example
///
/// ```
/// use overrun_control::pi;
///
/// # fn main() -> Result<(), overrun_control::Error> {
/// let mode = pi::mode_for_gains(120.0, 200.0, 0.012)?;
/// assert_eq!(mode.state_dim(), 1);
/// # Ok(())
/// # }
/// ```
pub fn mode_for_gains(kp: f64, ki: f64, h: f64) -> Result<ControllerMode> {
    if !(h.is_finite() && h > 0.0) {
        return Err(Error::InvalidConfig(format!(
            "PI interval must be positive, got {h}"
        )));
    }
    ControllerMode::new(
        Matrix::identity(1),
        Matrix::from_rows(&[&[h]]).map_err(Error::Linalg)?,
        Matrix::from_rows(&[&[ki]]).map_err(Error::Linalg)?,
        Matrix::from_rows(&[&[kp]]).map_err(Error::Linalg)?,
    )
}

/// Hard ceiling on the spectral-radius margin used in tuning phase B.
const RHO_CEILING: f64 = 0.998;

/// Fraction of the available contraction headroom `1 − ρ_min` conceded to
/// performance tuning; the rest is kept as slack for the switching
/// (JSR) certificate.
const MARGIN_FACTOR: f64 = 0.15;

/// Jobs in the nominal step response scored by phase-2 tuning.
const COST_STEPS: usize = 400;

/// `Σ_k a[k]·x[k]` in the order of [`Matrix::matmul`]: from `0.0`, in `k`
/// order, skipping zero `a[k]`.
fn dot(a: &[f64], x: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (&a_k, &x_k) in a.iter().zip(x) {
        if a_k != 0.0 {
            acc += a_k * x_k;
        }
    }
    acc
}

/// The two tuning objectives of one `(plant, h)` pair. The plant is
/// discretised and `Ω(h)` built once, and an evaluation allocates nothing
/// up to nine plant states; above that (a lift beyond 12 × 12) the
/// eigen-solve takes one heap workspace per call.
struct Evaluator {
    d: DiscreteSs,
    /// `Ω(h)` of the last gains passed to [`Evaluator::rho`].
    omega: Matrix,
    /// `−C·Φ(h)` and `−C·Γ(h)`, as [`lifted::omega_from_discrete`] forms them.
    neg_cm_phi: Matrix,
    neg_cm_gamma: f64,
    /// `ρ(Ω(h))` at every point of the signed gain grid, in scan order, once
    /// the margin scan has run; the tuning scan at the same `h` reads them.
    grid_rho: Option<[f64; GRID_POINTS]>,
    /// The plant states `x` and `x_next` of [`Evaluator::step_cost`], one
    /// after the other, for plants of other than two states (empty for two).
    state: Vec<f64>,
}

impl Evaluator {
    fn new(plant: &ContinuousSs, h: f64) -> Result<Self> {
        if plant.input_dim() != 1 || plant.output_dim() != 1 {
            return Err(Error::InvalidConfig(
                "PI design requires a SISO plant".into(),
            ));
        }
        let d = plant.discretize(h)?;
        let omega = lifted::omega_from_discrete(&d, &mode_for_gains(0.0, 0.0, h)?, &d.c)?;
        let mut neg_cm_phi = d.c.matmul(&d.phi)?;
        neg_cm_phi.scale_in_place(-1.0);
        let neg_cm_gamma = -dot(d.c.as_slice(), d.gamma.as_slice());
        let n = d.state_dim();
        let state = if n == 2 { Vec::new() } else { vec![0.0; 2 * n] };
        Ok(Evaluator {
            d,
            omega,
            neg_cm_phi,
            neg_cm_gamma,
            grid_rho: None,
            state,
        })
    }

    /// Spectral radius of `Ω(h)` under the gains `(kp, ki)` (`∞` when the
    /// eigen-solve fails). Only the `ũ` row `[−kp·CΦ, ki, 0, −kp·CΓ]`
    /// depends on the gains; the `z̃` row depends on `h` alone.
    fn rho(&mut self, kp: f64, ki: f64) -> f64 {
        let n = self.d.state_dim();
        let row = &mut self.omega.as_mut_slice()[(n + 1) * (n + 3)..(n + 2) * (n + 3)];
        for (o, &v) in row.iter_mut().zip(self.neg_cm_phi.as_slice()) {
            *o = dot(&[kp], &[v]);
        }
        row[n] = ki;
        row[n + 2] = dot(&[kp], &[self.neg_cm_gamma]);
        spectral_radius(&self.omega).unwrap_or(f64::INFINITY)
    }

    /// Phase-2 objective: the nominal step cost of `(kp, ki)`, or a penalty
    /// growing with `ρ(Ω(h))` once it reaches `margin`. `rho` is that
    /// radius when it is already known.
    fn tracking_cost(&mut self, kp: f64, ki: f64, margin: f64, rho: Option<f64>) -> f64 {
        let rho = rho.unwrap_or_else(|| self.rho(kp, ki));
        if rho >= margin {
            return 1e6 * rho.min(10.0);
        }
        self.step_cost(kp, ki, COST_STEPS)
    }

    /// Nominal closed-loop cost of the gains `(kp, ki)` running at the
    /// constant interval `h`: the step-response integral square error over
    /// `steps` jobs plus a terminal penalty weighting the residual
    /// steady-state error, and `∞` once the plant state leaves `±1e9`.
    ///
    /// The 2-state plant that every PI workload tunes keeps its state in
    /// two arrays; any other plant in the halves of [`Evaluator::state`].
    fn step_cost(&mut self, kp: f64, ki: f64, steps: usize) -> f64 {
        let n = self.d.state_dim();
        if n == 2 {
            return step_cost_in(&self.d, kp, ki, steps, [0.0; 2], [0.0; 2]);
        }
        self.state.fill(0.0);
        let (x, x_next) = self.state.split_at_mut(n);
        step_cost_in(&self.d, kp, ki, steps, x, x_next)
    }
}

/// [`Evaluator::step_cost`] of the discretised plant `d` from the zeroed
/// plant states `x` and `x_next`, which it swaps every job.
fn step_cost_in<S: AsRef<[f64]> + AsMut<[f64]>>(
    d: &DiscreteSs,
    kp: f64,
    ki: f64,
    steps: usize,
    mut x: S,
    mut x_next: S,
) -> f64 {
    let phi = d.phi.as_slice();
    let gamma = d.gamma.as_slice();
    let c = d.c.as_slice();
    let (n, h) = (x.as_ref().len(), d.h);
    let (mut z, mut u_applied) = (0.0, 0.0);
    let mut cost = 0.0;
    let mut e = 0.0;
    for _ in 0..steps {
        e = 1.0 - dot(c, x.as_ref());
        // `ControllerMode::step` term for term, with `Ac = 1`, `Bc = h`,
        // `Cc = ki` and `Dc = kp`.
        let u_new = dot(&[ki], &[z]) + dot(&[kp], &[e]);
        z = dot(&[1.0], &[z]) + dot(&[h], &[e]);
        cost += e * e;
        let rows = phi.chunks_exact(n).zip(gamma);
        for (x_i, (phi_i, gamma_i)) in x_next.as_mut().iter_mut().zip(rows) {
            *x_i = dot(phi_i, x.as_ref()) + dot(&[*gamma_i], &[u_applied]);
        }
        // The command computed by job k applies from the next release on.
        u_applied = u_new;
        if !x_next.as_ref().iter().all(|v| v.abs() <= 1e9) {
            return f64::INFINITY;
        }
        std::mem::swap(&mut x, &mut x_next);
    }
    // Terminal penalty: an O(steps) weight on the residual error makes a
    // biased proportional-only solution (which minimises the short-window
    // ISE) lose against true integral action.
    cost + steps as f64 * e * e
}

/// Signed log-grid of candidate gain magnitudes shared by both tuning
/// phases.
const GAIN_GRID: [f64; 8] = [0.5, 2.0, 8.0, 30.0, 100.0, 300.0, 1000.0, 3000.0];

/// Points of the signed gain grid: every magnitude pair, four sign pairs.
const GRID_POINTS: usize = 4 * GAIN_GRID.len() * GAIN_GRID.len();

/// Scans the signed gain grid with an objective that also receives the
/// point's index in scan order, returning the best `(value, kp, ki)`
/// triple.
fn grid_scan<F: FnMut(usize, f64, f64) -> f64>(mut objective: F) -> (f64, f64, f64) {
    let mut best = (f64::INFINITY, 0.0, 0.0);
    let mut index = 0;
    for &kp_mag in &GAIN_GRID {
        for &ki_mag in &GAIN_GRID {
            for &sp in &[1.0, -1.0] {
                for &si in &[1.0, -1.0] {
                    let (kp, ki) = (sp * kp_mag, si * ki_mag);
                    let f = objective(index, kp, ki);
                    if f < best.0 {
                        best = (f, kp, ki);
                    }
                    index += 1;
                }
            }
        }
    }
    best
}

/// Smallest achievable constant-`h` closed-loop spectral radius for the PI
/// structure on this plant (signed log-grid seed + Nelder–Mead polish), and
/// the derived tuning margin. Keeps the grid's radii in `ev.grid_rho`.
fn contraction_margin(ev: &mut Evaluator) -> Result<f64> {
    let h = ev.d.h;
    let _sp = overrun_trace::span!("pi.margin", h_us = h * 1e6);
    let mut radii = [0.0; GRID_POINTS];
    let seed = grid_scan(|i, kp, ki| {
        radii[i] = ev.rho(kp, ki);
        radii[i]
    });
    ev.grid_rho = Some(radii);
    if seed.0 >= 1.0 {
        return Err(Error::Design(format!(
            "no stabilising PI gains found for interval h = {h}"
        )));
    }
    let rho_opt = nelder_mead(
        |x| ev.rho(x[0], x[1]),
        &[seed.1, seed.2],
        &NelderMeadOptions {
            max_evals: 300,
            f_tol: 1e-10,
            initial_step: 0.3,
        },
    )?;
    overrun_trace::counter!("pi.margin_evals", rho_opt.evals as u64);
    let rho_min = rho_opt.f.min(seed.0);
    Ok((rho_min + MARGIN_FACTOR * (1.0 - rho_min)).min(RHO_CEILING))
}

/// Tunes `(K̄P, K̄I)` for one interval in two phases:
///
/// 1. **Margin discovery** — a signed log-grid seed plus Nelder–Mead
///    minimisation of the constant-`h` closed-loop spectral radius, yielding
///    the smallest achievable `ρ_min` for the PI structure on this plant.
/// 2. **Performance tuning** — Nelder–Mead on the nominal step cost,
///    constrained (by penalty) to
///    `ρ < ρ_min + MARGIN_FACTOR·(1 − ρ_min)` with `MARGIN_FACTOR = 0.15`
///    (capped at 0.998), so the mode keeps contraction slack for the
///    switching-stability certificate without sacrificing tracking.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] for non-SISO plants or an invalid
/// interval, and [`Error::Design`] when no stabilising gain pair exists on
/// the search grid (e.g. the plant is not PI-stabilisable at this
/// interval).
pub fn tune_for_interval(plant: &ContinuousSs, h: f64) -> Result<(f64, f64)> {
    let mut ev = Evaluator::new(plant, h)?;
    let margin = contraction_margin(&mut ev)?;
    tune_with_margin(&mut ev, margin, None)
}

/// Phase-2 tuning: minimise the tracking cost at constant `h` subject (by
/// penalty) to `ρ(Ω(h)) < margin`. An optional seed skips the grid scan,
/// which reads the radii of the margin scan when `ev` kept them.
fn tune_with_margin(
    ev: &mut Evaluator,
    margin: f64,
    seed: Option<(f64, f64)>,
) -> Result<(f64, f64)> {
    let h = ev.d.h;
    let _sp = overrun_trace::span!("pi.tune", h_us = h * 1e6);
    let mut best = match seed {
        Some((kp, ki)) => (ev.tracking_cost(kp, ki, margin, None), kp, ki),
        None => (f64::INFINITY, 0.0, 0.0),
    };
    if seed.is_none() || !best.0.is_finite() || best.0 >= 1e6 {
        let radii = ev.grid_rho.take();
        let grid_best =
            grid_scan(|i, kp, ki| ev.tracking_cost(kp, ki, margin, radii.as_ref().map(|r| r[i])));
        if grid_best.0 < best.0 {
            best = grid_best;
        }
    }
    let result = nelder_mead(
        |x| ev.tracking_cost(x[0], x[1], margin, None),
        &[best.1, best.2],
        &NelderMeadOptions {
            max_evals: 400,
            f_tol: 1e-9,
            initial_step: 0.25,
        },
    )?;
    overrun_trace::counter!("pi.nm_evals", result.evals as u64);
    if result.f >= 1e6 && best.0 >= 1e6 {
        return Err(Error::Design(format!(
            "no PI gains satisfy the contraction margin {margin:.4} at h = {h}"
        )));
    }
    if result.f < best.0 {
        Ok((result.x[0], result.x[1]))
    } else {
        Ok((best.1, best.2))
    }
}

/// Designs the **adaptive** PI table: one `(K̄P(h), K̄I(h))` pair per
/// interval, each with its integrator stepped by the matching `h`.
///
/// # Errors
///
/// Propagates [`tune_for_interval`] failures.
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
/// assert_eq!(table.len(), 2);
/// # Ok(())
/// # }
/// ```
pub fn design_adaptive(plant: &ContinuousSs, hset: &IntervalSet) -> Result<ControllerTable> {
    let _sp = overrun_trace::span!("table.pi", modes = hset.len());
    // One contraction margin for the whole schedule (computed at the
    // nominal interval): every mode keeps the same slack, so chained
    // refinement cannot drift toward the stability boundary. Each longer
    // interval is tuned seeded from its predecessor, yielding the smooth
    // gain schedule K̄(h) of the paper's Eq. (7).
    let intervals = hset.intervals();
    let mut ev = Evaluator::new(plant, intervals[0])?;
    let margin = contraction_margin(&mut ev)?;
    let (mut kp, mut ki) = tune_with_margin(&mut ev, margin, None)?;
    let mut modes = vec![mode_for_gains(kp, ki, intervals[0])?];
    for &h in &intervals[1..] {
        (kp, ki) = tune_with_margin(&mut Evaluator::new(plant, h)?, margin, Some((kp, ki)))?;
        modes.push(mode_for_gains(kp, ki, h)?);
    }
    ControllerTable::new(modes, hset.clone())
}

/// Designs a **fixed** PI table: gains tuned for a single design interval
/// `h_design` (the paper's "as if the control period was given — either `T`
/// or `Rmax`"), replicated over every interval in `H`. The integrator also
/// steps by `h_design` regardless of the actual elapsed time — that is
/// precisely the inconsistency the adaptive design removes.
///
/// # Errors
///
/// Propagates [`tune_for_interval`] failures.
pub fn design_fixed(
    plant: &ContinuousSs,
    hset: &IntervalSet,
    h_design: f64,
) -> Result<ControllerTable> {
    let (kp, ki) = tune_for_interval(plant, h_design)?;
    let mode = mode_for_gains(kp, ki, h_design)?;
    ControllerTable::fixed(mode, hset.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plants;

    /// The allocating matrix recursion that [`Evaluator::step_cost`]
    /// replaces: `C·x`, `ControllerMode::step` and `DiscreteSs::step`, one
    /// job at a time.
    fn reference_step_cost(plant: &ContinuousSs, kp: f64, ki: f64, h: f64) -> f64 {
        let d = plant.discretize(h).unwrap();
        let mode = mode_for_gains(kp, ki, h).unwrap();
        let mut x = Matrix::zeros(plant.state_dim(), 1);
        let mut z = Matrix::zeros(1, 1);
        let mut u_applied = Matrix::zeros(1, 1);
        let (mut cost, mut e) = (0.0, 0.0);
        for _ in 0..COST_STEPS {
            e = 1.0 - plant.c.matmul(&x).unwrap()[(0, 0)];
            let (z_new, u_new) = mode.step(&z, &Matrix::col_vec(&[e])).unwrap();
            z = z_new;
            cost += e * e;
            let x_next = d.step(&x, &u_applied).unwrap();
            u_applied = u_new;
            if !x_next.is_finite() || x_next.max_abs() > 1e9 {
                return f64::INFINITY;
            }
            x = x_next;
        }
        cost + COST_STEPS as f64 * e * e
    }

    /// `ρ(Ω(h))` from a freshly built mode and lift.
    fn reference_rho(plant: &ContinuousSs, kp: f64, ki: f64, h: f64) -> f64 {
        let mode = mode_for_gains(kp, ki, h).unwrap();
        spectral_radius(&lifted::build_omega(plant, &mode, h, &plant.c).unwrap())
            .unwrap_or(f64::INFINITY)
    }

    #[test]
    fn evaluator_matches_matrix_recursion_bit_for_bit() {
        // Every signed grid pair, each gain zero on its own and both zero
        // (both signs): the zero-skips of `Matrix::matmul` must match.
        let mut gains = vec![(0.0, 0.0), (-0.0, -0.0)];
        for &p in &GAIN_GRID {
            gains.extend([(p, 0.0), (-p, 0.0), (0.0, p), (0.0, -p)]);
            for &i in &GAIN_GRID {
                gains.extend([(p, i), (-p, i), (p, -i), (-p, -i)]);
            }
        }
        // Two 2-state plants on the state arrays of `step_cost`; a 1-state
        // plant, so `Φ·x` takes the 1 × 1 `small` kernel, a 3-state one,
        // whose sums of three or more terms depend on order, and a 10-state
        // lag chain, with a 13 × 13 lift on the heap path of the
        // eigen-solve, all three on the evaluator's state buffer.
        let first_order = ContinuousSs::new(
            Matrix::from_rows(&[&[0.8]]).unwrap(),
            Matrix::col_vec(&[2.0]),
            Matrix::row_vec(&[1.5]),
        )
        .unwrap();
        let third_order = ContinuousSs::new(
            Matrix::from_rows(&[&[-1.0, 1.0, 0.0], &[0.0, -2.0, 1.0], &[0.3, 0.0, -3.0]]).unwrap(),
            Matrix::col_vec(&[0.0, 0.0, 1.0]),
            Matrix::row_vec(&[1.0, 0.5, 0.25]),
        )
        .unwrap();
        let lag_chain = ContinuousSs::new(
            Matrix::from_fn(10, 10, |i, j| match j.wrapping_sub(i) {
                0 => -1.0 - 0.1 * i as f64,
                1 => 1.0,
                _ => 0.0,
            }),
            Matrix::from_fn(10, 1, |i, _| if i == 9 { 1.0 } else { 0.0 }),
            Matrix::from_fn(1, 10, |_, j| [1.0, 0.5].get(j).copied().unwrap_or(0.0)),
        )
        .unwrap();
        let cases = [
            (
                "unstable_second_order",
                plants::unstable_second_order(),
                0.010,
            ),
            ("dc_motor", plants::dc_motor(), 0.05),
            ("first_order", first_order, 0.02),
            ("third_order", third_order, 0.05),
            ("lag_chain", lag_chain, 0.05),
        ];
        for (name, plant, h) in cases {
            let mut ev = Evaluator::new(&plant, h).unwrap();
            let mut diverged = 0;
            for &(kp, ki) in &gains {
                let want = reference_step_cost(&plant, kp, ki, h);
                let got = ev.step_cost(kp, ki, COST_STEPS);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{name}: cost at ({kp}, {ki})"
                );
                diverged += usize::from(want.is_infinite());
                let want = reference_rho(&plant, kp, ki, h);
                let got = ev.rho(kp, ki);
                assert_eq!(got.to_bits(), want.to_bits(), "{name}: ρ at ({kp}, {ki})");
            }
            assert!(
                0 < diverged && diverged < gains.len(),
                "{name}: {diverged} of {} gain pairs diverge",
                gains.len()
            );

            // The margin scan keeps each grid point's ρ at its scan index,
            // and a tuning scan that reads them tunes the gains of one that
            // solves every ρ again.
            let margin = contraction_margin(&mut ev).unwrap();
            let radii = ev.grid_rho.unwrap();
            grid_scan(|i, kp, ki| {
                let want = reference_rho(&plant, kp, ki, h);
                assert_eq!(radii[i].to_bits(), want.to_bits(), "{name}: ρ[{i}]");
                0.0
            });
            ev.grid_rho = None;
            let recomputed = tune_with_margin(&mut ev, margin, None).unwrap();
            let reused = tune_for_interval(&plant, h).unwrap();
            assert_eq!(
                (reused.0.to_bits(), reused.1.to_bits()),
                (recomputed.0.to_bits(), recomputed.1.to_bits()),
                "{name}: gains {reused:?} vs {recomputed:?}"
            );
        }
    }

    /// The gains of the 18 Table I designs (`T = 10 ms`, `Rmax ∈ {1.1,
    /// 1.3, 1.6}·T`, `Ns ∈ {2, 5}`; adaptive, fixed at `T`, fixed at
    /// `Rmax`), as one FNV-1a digest of their bits: a change to the
    /// eigen-solve, the step response or the scans that moves one gain bit
    /// fails here.
    #[test]
    fn table1_gains_are_pinned() {
        let plant = plants::unstable_second_order();
        let t = 0.010;
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        for factor in [1.1, 1.3, 1.6] {
            for ns in [2, 5] {
                let rmax = factor * t;
                let hset = IntervalSet::from_timing(t, rmax, ns).unwrap();
                for table in [
                    design_adaptive(&plant, &hset).unwrap(),
                    design_fixed(&plant, &hset, t).unwrap(),
                    design_fixed(&plant, &hset, rmax).unwrap(),
                ] {
                    for mode in table.modes() {
                        for gain in [mode.dc[(0, 0)], mode.cc[(0, 0)]] {
                            for byte in gain.to_bits().to_le_bytes() {
                                digest = (digest ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(digest, 0x716c_219d_d5cb_7ea0, "{digest:#018x}");
    }

    #[test]
    fn mode_matches_eq7_structure() {
        let m = mode_for_gains(2.0, 3.0, 0.012).unwrap();
        assert_eq!(m.ac, Matrix::identity(1));
        assert_eq!(m.bc[(0, 0)], 0.012);
        assert_eq!(m.cc[(0, 0)], 3.0);
        assert_eq!(m.dc[(0, 0)], 2.0);
        assert!(mode_for_gains(1.0, 1.0, 0.0).is_err());
        assert!(mode_for_gains(1.0, 1.0, f64::NAN).is_err());
    }

    #[test]
    fn tuned_gains_stabilize_unstable_plant() {
        let plant = plants::unstable_second_order();
        let (kp, ki) = tune_for_interval(&plant, 0.010).unwrap();
        let mode = mode_for_gains(kp, ki, 0.010).unwrap();
        let omega = lifted::build_omega(&plant, &mode, 0.010, &plant.c).unwrap();
        let rho = spectral_radius(&omega).unwrap();
        assert!(rho < 1.0, "ρ = {rho} with gains ({kp}, {ki})");
    }

    #[test]
    fn adaptive_design_covers_all_intervals() {
        let plant = plants::unstable_second_order();
        let hset = IntervalSet::from_timing(0.010, 0.016, 2).unwrap(); // {10,15,20} ms
        let table = design_adaptive(&plant, &hset).unwrap();
        assert_eq!(table.len(), 3);
        // Each mode must stabilise its own constant-interval loop.
        for (i, &h) in hset.intervals().iter().enumerate() {
            let omega = lifted::build_omega(&plant, table.mode(i), h, &plant.c).unwrap();
            assert!(
                spectral_radius(&omega).unwrap() < 1.0,
                "mode {i} unstable at its own interval"
            );
        }
        // Integrator steps differ across modes (they encode h).
        assert!(table.mode(0).bc[(0, 0)] < table.mode(2).bc[(0, 0)]);
    }

    #[test]
    fn fixed_design_replicates_one_mode() {
        let plant = plants::unstable_second_order();
        let hset = IntervalSet::from_timing(0.010, 0.013, 2).unwrap();
        let table = design_fixed(&plant, &hset, 0.010).unwrap();
        assert_eq!(table.len(), 2);
        assert_eq!(table.mode(0), table.mode(1));
        assert_eq!(table.mode(0).bc[(0, 0)], 0.010);
    }

    #[test]
    fn pi_rejects_mimo_plants() {
        let plant = plants::pmsm();
        assert!(tune_for_interval(&plant, 0.001).is_err());
    }

    #[test]
    fn stable_plant_also_tunable() {
        let plant = plants::dc_motor();
        let (kp, ki) = tune_for_interval(&plant, 0.05).unwrap();
        let mode = mode_for_gains(kp, ki, 0.05).unwrap();
        let omega = lifted::build_omega(&plant, &mode, 0.05, &plant.c).unwrap();
        assert!(spectral_radius(&omega).unwrap() < 1.0);
    }
}
