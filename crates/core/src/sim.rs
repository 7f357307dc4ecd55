//! Closed-loop simulation driven by interval sequences.
//!
//! The simulator implements the paper's computational model exactly:
//! job `k`, released at `a_k`, samples the plant, computes its command with
//! the controller mode selected by the *previous* interval `h_{k−1}`, and
//! the command takes effect at the next release `a_{k+1} = a_k + h_k`.
//!
//! It steps that loop as the switched affine system of paper Sec. V (see
//! [`lifted`]): with `ξ = [x; z̃; ũ; u]`, job `k` forms `e[k] = r − C_m x[k]`
//! and its cost terms, then `ξ ← Ω(h_k) ξ + b(h_k)`, where
//! `b(h) = [0; Bc(h)·r; Dc(h)·r; 0]` carries the reference into the
//! controller rows. A run starts from `ξ(0) = [x0; z1; u1; 0]`, `(z1, u1)`
//! being job 0's controller step from rest. A run forms the offset
//! `b(h)` of every interval once, before the job loop, which then only
//! indexes them. Lifts up to `D = 12` over up to 8 intervals (every plant,
//! controller and interval set of the paper and the examples) step with a
//! const-generic dense kernel on stack buffers.

use overrun_linalg::Matrix;

use crate::{lifted, ContinuousSs, ControllerTable, Error, Result};

/// Initial condition and reference of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimScenario {
    /// Initial plant state `x(0)`.
    pub x0: Matrix,
    /// Constant reference `r` on the controller's measurement
    /// (`e[k] = r − C_m x[k]`). Use zeros for pure regulation.
    pub reference: Matrix,
}

impl SimScenario {
    /// Regulation from a given initial state (`r = 0`).
    pub fn regulation(x0: Matrix, error_dim: usize) -> Self {
        SimScenario {
            x0,
            reference: Matrix::zeros(error_dim, 1),
        }
    }

    /// Step-reference tracking from the origin.
    pub fn step(state_dim: usize, reference: Matrix) -> Self {
        SimScenario {
            x0: Matrix::zeros(state_dim, 1),
            reference,
        }
    }
}

/// One simulated closed-loop trajectory.
#[derive(Debug, Clone)]
pub struct Trajectory {
    /// Error samples `e[k]` (one per job).
    pub errors: Vec<Matrix>,
    /// Plant states `x[k]` at the release instants.
    pub states: Vec<Matrix>,
    /// Applied commands `u[k]`.
    pub commands: Vec<Matrix>,
    /// Interval indices used (`h_k` per job).
    pub mode_sequence: Vec<usize>,
    /// Quadratic error cost `Σ_k ‖e[k]‖²` (the paper's `J` summand).
    pub cost: f64,
    /// Time-weighted quadratic cost `Σ_k ‖e[k]‖² · h_k` — an approximation
    /// of `∫‖e‖² dt` that stays comparable across different sampling
    /// periods (used for the fixed-period baselines of Table II).
    pub cost_integral: f64,
    /// `true` when the state norm exceeded the divergence threshold.
    pub diverged: bool,
}

/// Cost and stability outcome of a trajectory, without the per-job records
/// — the return type of the allocation-free [`ClosedLoopSim::run_cost`]
/// fast path used by Monte Carlo ensembles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostSummary {
    /// Quadratic error cost `Σ_k ‖e[k]‖²` (`∞` on divergence).
    pub cost: f64,
    /// Time-weighted quadratic cost `Σ_k ‖e[k]‖² · h_k` (`∞` on divergence).
    pub cost_integral: f64,
    /// `true` when the state norm exceeded the divergence threshold.
    pub diverged: bool,
}

/// A reusable closed-loop simulator: plant + controller table with the
/// lifted `Ω(h)` of every interval precomputed.
///
/// # Example
///
/// ```
/// use overrun_control::prelude::*;
/// use overrun_control::sim::{ClosedLoopSim, SimScenario};
/// use overrun_linalg::Matrix;
///
/// # fn main() -> Result<(), overrun_control::Error> {
/// let plant = plants::unstable_second_order();
/// let hset = IntervalSet::from_timing(0.010, 0.013, 2)?;
/// let table = pi::design_adaptive(&plant, &hset)?;
/// let sim = ClosedLoopSim::new(&plant, &table)?;
/// let scenario = SimScenario::regulation(Matrix::col_vec(&[1.0, 0.0]), 1);
/// // 50 nominal jobs (mode 0 = no overruns).
/// let traj = sim.run(&scenario, &vec![0; 50])?;
/// assert!(!traj.diverged);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ClosedLoopSim {
    plant: ContinuousSs,
    table: ControllerTable,
    measurement: Matrix,
    /// Every `Ω(h)`, column by column, in interval order.
    omegas: Vec<f64>,
    /// Every `[Bc; Dc]` (`(s + r) × p`, row-major), in interval order.
    gains: Vec<f64>,
    divergence_threshold: f64,
}

impl ClosedLoopSim {
    /// Builds the simulator, precomputing the lifted `Ω(h)` for every
    /// `h ∈ H` from one discretisation `Φ(h), Γ(h)` each.
    ///
    /// # Errors
    ///
    /// Propagates discretisation and dimension errors.
    pub fn new(plant: &ContinuousSs, table: &ControllerTable) -> Result<Self> {
        let _sp = overrun_trace::span!("sim.build", modes = table.len());
        let measurement = lifted::measurement_matrix(plant, table)?;
        let mut omegas = Vec::new();
        let mut gains = Vec::new();
        for (&h, mode) in table.hset().intervals().iter().zip(table.modes()) {
            let d = plant.discretize(h)?;
            let omega = lifted::omega_from_discrete(&d, mode, &measurement)?;
            for j in 0..omega.cols() {
                omegas.extend((0..omega.rows()).map(|i| omega[(i, j)]));
            }
            gains.extend_from_slice(mode.bc.as_slice());
            gains.extend_from_slice(mode.dc.as_slice());
        }
        Ok(ClosedLoopSim {
            plant: plant.clone(),
            table: table.clone(),
            measurement,
            omegas,
            gains,
            divergence_threshold: 1e9,
        })
    }

    /// Overrides the state-norm divergence threshold (default `1e9`).
    #[must_use]
    pub fn with_divergence_threshold(mut self, threshold: f64) -> Self {
        self.divergence_threshold = threshold;
        self
    }

    /// The controller table in use.
    pub fn table(&self) -> &ControllerTable {
        &self.table
    }

    /// The plant under control.
    pub fn plant(&self) -> &ContinuousSs {
        &self.plant
    }

    /// Simulates one trajectory along a sequence of interval indices
    /// (`modes[k]` selects `h_k ∈ H`).
    ///
    /// Job `k` computes with the controller mode of `h_{k−1}`; mode 0 — the
    /// nominal period — is assumed for the virtual job before the first
    /// (use [`ClosedLoopSim::run_with_initial_mode`] to override).
    /// Divergence does not abort the run; it is flagged on the returned
    /// [`Trajectory`] and the state is frozen to avoid overflow.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for an out-of-range mode index or a
    /// scenario with mismatched dimensions.
    pub fn run(&self, scenario: &SimScenario, modes: &[usize]) -> Result<Trajectory> {
        self.run_with_initial_mode(scenario, modes, 0)
    }

    /// Like [`ClosedLoopSim::run`], but the virtual interval before the
    /// first job is `H[initial_mode]` instead of the nominal period — the
    /// exact constant-mode loop when `initial_mode == modes[k]` for all `k`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for an out-of-range mode index or a
    /// scenario with mismatched dimensions.
    pub fn run_with_initial_mode(
        &self,
        scenario: &SimScenario,
        modes: &[usize],
        initial_mode: usize,
    ) -> Result<Trajectory> {
        let mut errors = Vec::with_capacity(modes.len());
        let mut states = Vec::with_capacity(modes.len());
        let mut commands = Vec::with_capacity(modes.len());
        let (cost, cost_integral, diverged) =
            self.run_core(scenario, modes, initial_mode, |e, x, u| {
                errors.push(Matrix::col_vec(e));
                states.push(Matrix::col_vec(x));
                commands.push(Matrix::col_vec(u));
            })?;
        let recorded = states.len();
        Ok(Trajectory {
            errors,
            states,
            commands,
            mode_sequence: modes[..recorded].to_vec(),
            cost,
            cost_integral,
            diverged,
        })
    }

    /// Cost-only fast path: identical dynamics to [`ClosedLoopSim::run`]
    /// but no per-job trajectory records and no allocation (for lifts up
    /// to `D = 12`) — the entry point Monte Carlo ensembles should use.
    /// Costs are bit-identical to the recording path (same core).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ClosedLoopSim::run`].
    pub fn run_cost(&self, scenario: &SimScenario, modes: &[usize]) -> Result<CostSummary> {
        self.run_cost_with_initial_mode(scenario, modes, 0)
    }

    /// Like [`ClosedLoopSim::run_cost`] with an explicit virtual interval
    /// before the first job (see [`ClosedLoopSim::run_with_initial_mode`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ClosedLoopSim::run`].
    pub fn run_cost_with_initial_mode(
        &self,
        scenario: &SimScenario,
        modes: &[usize],
        initial_mode: usize,
    ) -> Result<CostSummary> {
        let (cost, cost_integral, diverged) =
            self.run_core(scenario, modes, initial_mode, |_, _, _| {})?;
        Ok(CostSummary {
            cost,
            cost_integral,
            diverged,
        })
    }

    /// The shared core behind [`ClosedLoopSim::run`] and
    /// [`ClosedLoopSim::run_cost`]: validates the scenario, then runs the
    /// job loop. `observe(e, x, u_applied)` is called once per simulated
    /// job, before the state update.
    fn run_core<F: FnMut(&[f64], &[f64], &[f64])>(
        &self,
        scenario: &SimScenario,
        modes: &[usize],
        initial_mode: usize,
        observe: F,
    ) -> Result<(f64, f64, bool)> {
        let n = self.plant.state_dim();
        let p = self.table.error_dim();
        if scenario.x0.shape() != (n, 1) {
            return Err(Error::InvalidConfig(format!(
                "x0 must be {n}x1, got {}x{}",
                scenario.x0.rows(),
                scenario.x0.cols()
            )));
        }
        if scenario.reference.shape() != (p, 1) {
            return Err(Error::InvalidConfig(format!(
                "reference must be {p}x1, got {}x{}",
                scenario.reference.rows(),
                scenario.reference.cols()
            )));
        }
        if initial_mode >= self.table.len() {
            return Err(Error::InvalidConfig(format!(
                "initial mode {initial_mode} out of range (H has {} entries)",
                self.table.len()
            )));
        }
        // Lifts up to D = 12 over up to 8 intervals step with the
        // fixed-dimension kernel on a stack buffer; others with its runtime
        // twin on a heap buffer.
        let q = self.table.len();
        macro_rules! dispatch {
            ($($d:literal)*) => {
                match n + self.table.state_dim() + 2 * self.plant.input_dim() {
                    $($d if p <= $d && q <= MAX_STACK_MODES => {
                        let buf = &mut [0.0; (MAX_STACK_MODES + 3) * $d];
                        let step = affine_step::<$d>;
                        self.run_lifted($d, buf, step, scenario, modes, initial_mode, observe)
                    })*
                    d => {
                        let (buf, step) = (&mut vec![0.0; (q + 2) * d + p], affine_step_dyn);
                        self.run_lifted(d, buf, step, scenario, modes, initial_mode, observe)
                    }
                }
            };
        }
        dispatch!(1 2 3 4 5 6 7 8 9 10 11 12)
    }

    /// The job loop on the lifted state of dimension `d`. `buf` is zeroed
    /// scratch: `d` entries each for `ξ` and its successor, `d` for the
    /// offset `b(h)` of each of the `q` intervals, then at least `p` for
    /// `e`. `step(Ω, ξ, b, out)` writes `Ω ξ + b` into `out`.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn run_lifted<K, F>(
        &self,
        d: usize,
        buf: &mut [f64],
        step: K,
        scenario: &SimScenario,
        modes: &[usize],
        initial_mode: usize,
        mut observe: F,
    ) -> Result<(f64, f64, bool)>
    where
        K: Fn(&[f64], &[f64], &[f64], &mut [f64]),
        F: FnMut(&[f64], &[f64], &[f64]),
    {
        let (n, p) = (self.plant.state_dim(), self.table.error_dim());
        // Rows of `z̃` and `ũ`: the controller block of `ξ` and `b`.
        let ctl = n..n + self.table.state_dim() + self.plant.input_dim();
        // `[Bc; Dc]` of the mode of interval `m`.
        let gain_len = ctl.len() * p;
        let gains = |m: usize| &self.gains[m * gain_len..(m + 1) * gain_len];
        let cm = self.measurement.as_slice();
        let reference = scenario.reference.as_slice();
        let intervals = self.table.hset().intervals();

        let (mut xi, rest) = buf.split_at_mut(d);
        let (mut next, rest) = rest.split_at_mut(d);
        let (offsets, e) = rest.split_at_mut(intervals.len() * d);
        let e = &mut e[..p];
        // b(h_m) = [0; Bc(h_m)·r; Dc(h_m)·r; 0] for every interval, formed
        // once per run. Under pure regulation they stay zero.
        if reference.iter().any(|&v| v != 0.0) {
            for (m, b) in offsets.chunks_exact_mut(d).enumerate() {
                mat_vec(gains(m), reference, &mut b[ctl.clone()]);
            }
        }
        // ξ(0) = [x0; z1; u1; 0]: job 0's controller step from rest, in the
        // virtual previous interval's mode.
        xi[..n].copy_from_slice(scenario.x0.as_slice());
        error_into(cm, reference, &xi[..n], e);
        mat_vec(gains(initial_mode), e, &mut xi[ctl.clone()]);

        let mut cost = 0.0;
        let mut cost_integral = 0.0;
        let mut diverged = false;
        for (k, &m) in modes.iter().enumerate() {
            let Some(&h) = intervals.get(m) else {
                return Err(Error::InvalidConfig(format!(
                    "mode index {m} out of range at job {k} (H has {} entries)",
                    intervals.len()
                )));
            };
            error_into(cm, reference, &xi[..n], e);
            observe(e, &xi[..n], &xi[ctl.end..]);
            let e_sq = e.iter().map(|v| v * v).sum::<f64>();
            cost += e_sq;
            cost_integral += e_sq * h;

            // ξ ← Ω(h_k) ξ + b(h_k). Job k+1 computes with the mode of h_k,
            // so b(h_k) carries the reference into its controller rows; the
            // command of job k takes effect at a_{k+1} (paper Sec. III).
            let (omega, b) = (m * d * d..(m + 1) * d * d, m * d..(m + 1) * d);
            step(&self.omegas[omega], xi, &offsets[b], next);
            std::mem::swap(&mut xi, &mut next);

            let bounded = |v: &f64| v.is_finite() && v.abs() <= self.divergence_threshold;
            if !xi[..n].iter().all(bounded) {
                diverged = true;
                // Freeze the state: the trajectory is already classified.
                break;
            }
        }
        if diverged {
            cost = f64::INFINITY;
            cost_integral = f64::INFINITY;
        }
        Ok((cost, cost_integral, diverged))
    }
}

/// The most intervals whose offsets `b(h)` a run keeps on the stack: every
/// interval set of the paper's tables and of `ts_tradeoff` (`#H ≤ 7`).
const MAX_STACK_MODES: usize = 8;

/// `out = Ω ξ + b` for one `D × D` matrix `Ω` stored column by column.
/// Each `out[i]` sums `Ω_ij ξ_j` in increasing `j` from `0.0` and then adds
/// `b_i`, the order of a row-wise dot product, but the inner loop runs down
/// a column, so it vectorises. No zero-skip: measured slower than the dense
/// loop, as a branch per entry costs more than the multiply it saves.
#[inline(always)]
// Index loops, as in `overrun_linalg::small`: measured faster here than
// zipped iterators.
#[allow(clippy::needless_range_loop)]
fn affine_step<const D: usize>(omega: &[f64], xi: &[f64], b: &[f64], out: &mut [f64]) {
    let (omega, xi) = (&omega.as_chunks::<D>().0[..D], &xi[..D]);
    let (b, out) = (&b[..D], &mut out[..D]);
    let mut acc = [0.0; D];
    for j in 0..D {
        for i in 0..D {
            acc[i] += omega[j][i] * xi[j];
        }
    }
    for i in 0..D {
        out[i] = acc[i] + b[i];
    }
}

/// [`affine_step`] with a runtime dimension `d = ξ.len()`: the same loops,
/// in the same order, accumulating in `out`.
fn affine_step_dyn(omega: &[f64], xi: &[f64], b: &[f64], out: &mut [f64]) {
    let d = xi.len();
    out.fill(0.0);
    for (j, &xj) in xi.iter().enumerate() {
        for (o, &w) in out.iter_mut().zip(&omega[j * d..(j + 1) * d]) {
            *o += w * xj;
        }
    }
    for (o, &bi) in out.iter_mut().zip(b) {
        *o += bi;
    }
}

/// `out = a x` for a row-major `out.len() × x.len()` matrix `a`, each
/// entry accumulated left to right from `0.0`.
#[inline(always)]
fn mat_vec(a: &[f64], x: &[f64], out: &mut [f64]) {
    let c = x.len();
    for (i, o) in out.iter_mut().enumerate() {
        *o = a[i * c..(i + 1) * c].iter().zip(x).fold(0.0, |acc, (w, v)| acc + w * v);
    }
}

/// `e = r − C_m x` for a row-major `e.len() × x.len()` measurement `C_m`.
#[inline(always)]
fn error_into(cm: &[f64], reference: &[f64], x: &[f64], e: &mut [f64]) {
    mat_vec(cm, x, e);
    for (ei, &ri) in e.iter_mut().zip(reference) {
        *ei = ri - *ei;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lqr, pi, plants, scenarios, ControllerMode, ControllerTable, IntervalSet};

    fn setup() -> (ContinuousSs, ControllerTable) {
        let plant = plants::unstable_second_order();
        let hset = IntervalSet::from_timing(0.010, 0.013, 2).unwrap();
        let table = pi::design_adaptive(&plant, &hset).unwrap();
        (plant, table)
    }

    #[test]
    fn nominal_regulation_converges() {
        let (plant, table) = setup();
        let sim = ClosedLoopSim::new(&plant, &table).unwrap();
        let scenario = SimScenario::regulation(Matrix::col_vec(&[1.0, 0.0]), 1);
        let traj = sim.run(&scenario, &vec![0; 600]).unwrap();
        assert!(!traj.diverged);
        assert!(traj.cost.is_finite());
        // The error must shrink substantially from its initial value. The
        // achievable contraction for PI on this unstable plant is ρ ≈ 0.99
        // per job, so full decay needs several hundred jobs.
        let first = traj.errors[0].max_abs();
        let last = traj.errors.last().unwrap().max_abs();
        assert!(last < 0.1 * first, "first {first}, last {last}");
    }

    #[test]
    fn zero_initial_state_stays_at_rest() {
        let (plant, table) = setup();
        let sim = ClosedLoopSim::new(&plant, &table).unwrap();
        let scenario = SimScenario::regulation(Matrix::zeros(2, 1), 1);
        let traj = sim.run(&scenario, &vec![0; 50]).unwrap();
        assert!(traj.cost.abs() < 1e-20);
        assert!(traj.states.iter().all(|x| x.max_abs() < 1e-12));
    }

    #[test]
    fn overruns_degrade_but_do_not_destabilize() {
        let (plant, table) = setup();
        let sim = ClosedLoopSim::new(&plant, &table).unwrap();
        let scenario = SimScenario::regulation(Matrix::col_vec(&[1.0, 0.0]), 1);
        let nominal = sim.run(&scenario, &vec![0; 100]).unwrap();
        // Alternating worst-case overruns.
        let modes: Vec<usize> = (0..100).map(|k| if k % 2 == 0 { 1 } else { 0 }).collect();
        let stressed = sim.run(&scenario, &modes).unwrap();
        assert!(!stressed.diverged);
        assert!(stressed.cost >= nominal.cost * 0.5);
    }

    #[test]
    fn open_loop_unstable_plant_diverges_without_control() {
        let plant = plants::unstable_second_order();
        let hset = IntervalSet::from_timing(0.010, 0.010, 2).unwrap();
        // Zero-gain "controller": u = 0 forever.
        let zero = ControllerMode::static_gain(Matrix::zeros(1, 1)).unwrap();
        let table = ControllerTable::fixed(zero, hset).unwrap();
        let sim = ClosedLoopSim::new(&plant, &table)
            .unwrap()
            .with_divergence_threshold(1e6);
        let scenario = SimScenario::regulation(Matrix::col_vec(&[1.0, 0.0]), 1);
        let traj = sim.run(&scenario, &vec![0; 4000]).unwrap();
        assert!(traj.diverged);
        assert!(traj.cost.is_infinite());
    }

    #[test]
    fn run_cost_matches_run_bitwise() {
        let (plant, table) = setup();
        let sim = ClosedLoopSim::new(&plant, &table).unwrap();
        let scenario = SimScenario::step(2, Matrix::col_vec(&[1.0]));
        let modes: Vec<usize> = (0..200).map(|k| usize::from(k % 3 == 1)).collect();
        let traj = sim.run(&scenario, &modes).unwrap();
        let fast = sim.run_cost(&scenario, &modes).unwrap();
        assert_eq!(fast.cost.to_bits(), traj.cost.to_bits());
        assert_eq!(fast.cost_integral.to_bits(), traj.cost_integral.to_bits());
        assert_eq!(fast.diverged, traj.diverged);
        // With an explicit initial mode, too.
        let traj = sim.run_with_initial_mode(&scenario, &modes, 1).unwrap();
        let fast = sim.run_cost_with_initial_mode(&scenario, &modes, 1).unwrap();
        assert_eq!(fast.cost.to_bits(), traj.cost.to_bits());
    }

    /// The runtime-dimension kernel runs the fixed kernels' loops in the
    /// same order: every cost and recorded value is bit-identical.
    #[test]
    fn dynamic_kernel_matches_fixed_kernel_bitwise() {
        let (plant, table) = setup();
        let pmsm = plants::pmsm();
        let hset = IntervalSet::from_timing(50e-6, 1.6 * 50e-6, 2).unwrap();
        let lqr = lqr::design_adaptive(&pmsm, &hset, &scenarios::pmsm_table2_weights()).unwrap();
        // PI (D = 5) tracking a step, LQR on the PMSM (D = 9) regulating.
        let step = SimScenario::step(2, Matrix::col_vec(&[1.0]));
        let regulation = SimScenario::regulation(Matrix::col_vec(&[1.0; 3]), 3);
        let cases = [
            (5, ClosedLoopSim::new(&plant, &table).unwrap(), step),
            (9, ClosedLoopSim::new(&pmsm, &lqr).unwrap(), regulation),
        ];
        let modes: Vec<usize> = (0..200).map(|k| usize::from(k % 3 == 1)).collect();
        for (d, sim, scenario) in &cases {
            for initial_mode in [0, 1] {
                let run = |dynamic: bool| {
                    let mut bits = Vec::new();
                    let record = |e: &[f64], x: &[f64], u: &[f64]| {
                        bits.extend(e.iter().chain(x).chain(u).map(|v| v.to_bits()));
                    };
                    let (cost, integral, diverged) = if dynamic {
                        let len = (sim.table().len() + 3) * d;
                        let (buf, step) = (&mut vec![0.0; len], affine_step_dyn);
                        sim.run_lifted(*d, buf, step, scenario, &modes, initial_mode, record)
                    } else {
                        sim.run_core(scenario, &modes, initial_mode, record)
                    }
                    .unwrap();
                    (cost.to_bits(), integral.to_bits(), diverged, bits)
                };
                assert_eq!(run(false), run(true));
            }
        }
    }

    #[test]
    fn mode_index_validation() {
        let (plant, table) = setup();
        let sim = ClosedLoopSim::new(&plant, &table).unwrap();
        let scenario = SimScenario::regulation(Matrix::col_vec(&[1.0, 0.0]), 1);
        assert!(sim.run(&scenario, &[0, 9]).is_err());
    }

    #[test]
    fn scenario_shape_validation() {
        let (plant, table) = setup();
        let sim = ClosedLoopSim::new(&plant, &table).unwrap();
        assert!(sim
            .run(&SimScenario::regulation(Matrix::zeros(3, 1), 1), &[0])
            .is_err());
        let bad_ref = SimScenario {
            x0: Matrix::zeros(2, 1),
            reference: Matrix::zeros(2, 1),
        };
        assert!(sim.run(&bad_ref, &[0]).is_err());
    }

    #[test]
    fn trajectory_records_match_requested_length() {
        let (plant, table) = setup();
        let sim = ClosedLoopSim::new(&plant, &table).unwrap();
        let scenario = SimScenario::regulation(Matrix::col_vec(&[0.1, 0.0]), 1);
        let traj = sim.run(&scenario, &vec![0; 37]).unwrap();
        assert_eq!(traj.errors.len(), 37);
        assert_eq!(traj.states.len(), 37);
        assert_eq!(traj.commands.len(), 37);
        assert_eq!(traj.mode_sequence.len(), 37);
    }

    #[test]
    fn step_tracking_reaches_reference() {
        let (plant, table) = setup();
        let sim = ClosedLoopSim::new(&plant, &table).unwrap();
        let scenario = SimScenario::step(2, Matrix::col_vec(&[1.0]));
        let traj = sim.run(&scenario, &vec![0; 400]).unwrap();
        assert!(!traj.diverged);
        let final_err = traj.errors.last().unwrap().max_abs();
        assert!(final_err < 0.05, "steady-state error {final_err}");
    }
}
