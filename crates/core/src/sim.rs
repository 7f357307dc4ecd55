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
//! indexes them.
//!
//! A controller row that every `Ω(h)` and every `[Bc; Dc]` repeat holds
//! the same value as the row it repeats along every run, so
//! [`ClosedLoopSim::new`] merges it away ([`overrun_jsr::repeated_rows`],
//! the row test of the JSR layer's [`overrun_jsr::deflate`]). The delayed
//! LQR's `z̃` is its `ũ`: the Table II loops step 7 coordinates instead of
//! 9; PI loops repeat no row. The merge moves `ũ` columns, each nonzero
//! only in a `u` row where it stands alone, so it computes the same costs
//! bit for bit as the full lift.
//!
//! Lifts up to `D = 12` over up to 8 intervals (every plant, controller
//! and interval set of the paper and the examples) step with a
//! const-generic dense kernel on stack buffers.
//!
//! [`PrefixRuns`] runs many sequences in turn with the same job step,
//! restarting each from the state its longest common prefix with the
//! previous sequence left: the Monte Carlo ensembles of [`crate::metrics`]
//! walk their sequences in sorted order through it.

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
    /// `D`, the dimension of the stepped `ξ`: `n + s + 2r` less the
    /// controller rows merged away.
    dim: usize,
    /// Every `S·Ω(h)·E` (`D × D`), column by column, in interval order.
    omegas: Vec<f64>,
    /// The kept rows of every `[Bc; Dc]` (`(D − n − r) × p`, row-major), in
    /// interval order.
    gains: Vec<f64>,
    divergence_threshold: f64,
}

impl ClosedLoopSim {
    /// Builds the simulator, precomputing the lifted `Ω(h)` for every
    /// `h ∈ H` from one discretisation `Φ(h), Γ(h)` each.
    ///
    /// A controller row `j` that repeats an earlier controller row `k` in
    /// every `Ω(h)` and every `[Bc; Dc]` keeps `ξ_j = ξ_k` along every run:
    /// `ξ(0)`, each offset `b(h)` and each step preserve it. Such rows are
    /// merged away, as [`overrun_jsr::deflate`] does: with `E` copying `ξ_k`
    /// into `ξ_j` and `S` deleting row `j`, the run steps `S·Ω(h)·E`. The
    /// delayed LQR (`Ac = Cc`, `Bc = Dc`) repeats all of `z̃` in `ũ`. Where
    /// `j` is a `ũ` row, as there, column `j` is nonzero only in a `u` row,
    /// alone in it, so the merge moves a lone term: every partial sum of a
    /// step stays the same bit for bit (up to the sign of a zero).
    ///
    /// # Errors
    ///
    /// Propagates discretisation and dimension errors.
    pub fn new(plant: &ContinuousSs, table: &ControllerTable) -> Result<Self> {
        let _sp = overrun_trace::span!("sim.build", modes = table.len());
        let measurement = lifted::measurement_matrix(plant, table)?;
        let (n, s, r) = (plant.state_dim(), table.state_dim(), plant.input_dim());
        let (full, p) = (n + s + 2 * r, table.error_dim());
        // Ω(h), then B(h) = [0; Bc; Dc; 0] (b(h) = B(h)·r), of every interval.
        let mut lifts = Vec::with_capacity(2 * table.len());
        for (&h, mode) in table.hset().intervals().iter().zip(table.modes()) {
            let d = plant.discretize(h)?;
            lifts.push(lifted::omega_from_discrete(&d, mode, &measurement)?);
            let mut b = Matrix::zeros(full, p);
            let rows = b.as_mut_slice()[n * p..].split_at_mut(s * p);
            rows.0.copy_from_slice(mode.bc.as_slice());
            rows.1[..r * p].copy_from_slice(mode.dc.as_slice());
            lifts.push(b);
        }
        let repeats: Vec<_> = overrun_jsr::repeated_rows(&lifts, n..n + s + r).collect();
        let kept: Vec<usize> = (0..full)
            .filter(|i| repeats.iter().all(|&(j, _)| j != *i))
            .collect();
        let dim = kept.len();
        let mut omegas = Vec::with_capacity(table.len() * dim * dim);
        let mut gains = Vec::with_capacity(table.len() * (dim - n - r) * p);
        for lift in lifts.chunks_exact(2) {
            let (omega, b) = (lift[0].as_slice(), &lift[1]);
            for &c in &kept {
                let col = omegas.len();
                omegas.extend(kept.iter().map(|&i| omega[i * full + c]));
                // Column c of Ω·E: add every column merged into it, in turn.
                for &(j, _) in repeats.iter().filter(|&&(_, k)| k == c) {
                    for (o, &i) in omegas[col..].iter_mut().zip(&kept) {
                        *o += omega[i * full + j];
                    }
                }
            }
            for &i in &kept[n..dim - r] {
                gains.extend_from_slice(b.row(i));
            }
        }
        Ok(ClosedLoopSim {
            plant: plant.clone(),
            table: table.clone(),
            measurement,
            dim,
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

    /// Cost-only runs of many sequences that share prefixes, from job 0's
    /// nominal mode (as [`ClosedLoopSim::run_cost`]): see [`PrefixRuns`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for a scenario with mismatched
    /// dimensions.
    pub fn prefix_runs<'a>(&'a self, scenario: &'a SimScenario) -> Result<PrefixRuns<'a>> {
        self.check_scenario(scenario, 0)?;
        let d = self.dim;
        let (q, p) = (self.table.len(), self.table.error_dim());
        let mut fixed = vec![0.0; q * d + p];
        let mut states = vec![0.0; d];
        let (offsets, e) = fixed.split_at_mut(q * d);
        self.start(scenario, d, 0, offsets, &mut states, e);
        Ok(PrefixRuns {
            sim: self,
            scenario,
            d,
            fixed,
            states,
            sums: vec![[0.0; 2]],
            prev: Vec::new(),
            diverged_at: usize::MAX,
            steps: 0,
        })
    }

    /// Checks a scenario's shapes and the virtual job's mode against the
    /// simulator.
    fn check_scenario(&self, scenario: &SimScenario, initial_mode: usize) -> Result<()> {
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
        Ok(())
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
        self.check_scenario(scenario, initial_mode)?;
        // Lifts up to D = 12 over up to 8 intervals step with the
        // fixed-dimension kernel on a stack buffer; others with its runtime
        // twin on a heap buffer.
        let (q, p) = (self.table.len(), self.table.error_dim());
        macro_rules! dispatch {
            ($($d:literal)*) => {
                match self.dim {
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
        let (q, p) = (self.table.len(), self.table.error_dim());
        let (mut xi, rest) = buf.split_at_mut(d);
        let (mut next, rest) = rest.split_at_mut(d);
        let (offsets, e) = rest.split_at_mut(q * d);
        let e = &mut e[..p];
        self.start(scenario, d, initial_mode, offsets, xi, e);
        let jobs = self.job_loop(scenario, d, offsets, step);

        let mut cost = 0.0;
        let mut cost_integral = 0.0;
        let mut diverged = false;
        for (k, &m) in modes.iter().enumerate() {
            let (e_sq, h, bounded) = jobs.job(k, m, xi, next, e, &mut observe)?;
            cost += e_sq;
            cost_integral += e_sq * h;
            std::mem::swap(&mut xi, &mut next);
            if !bounded {
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

    /// Forms the offset `b(h_m)` of every interval into `offsets` (`q·d`
    /// zeroed entries) and `ξ(0)` into `xi` (`d` zeroed entries), with `e`
    /// (`p` entries) as scratch.
    #[inline(always)]
    fn start(
        &self,
        scenario: &SimScenario,
        d: usize,
        initial_mode: usize,
        offsets: &mut [f64],
        xi: &mut [f64],
        e: &mut [f64],
    ) {
        let n = self.plant.state_dim();
        let ctl = self.controller_rows();
        let reference = scenario.reference.as_slice();
        // b(h_m) = [0; Bc(h_m)·r; Dc(h_m)·r; 0] (its kept rows) for every
        // interval, formed once per run. Under pure regulation they stay
        // zero.
        if reference.iter().any(|&v| v != 0.0) {
            for (m, b) in offsets.chunks_exact_mut(d).enumerate() {
                mat_vec(self.gains(m), reference, &mut b[ctl.clone()]);
            }
        }
        // ξ(0) = [x0; z1; u1; 0]: job 0's controller step from rest, in the
        // virtual previous interval's mode.
        xi[..n].copy_from_slice(scenario.x0.as_slice());
        error_into(self.measurement.as_slice(), reference, &xi[..n], e);
        mat_vec(self.gains(initial_mode), e, &mut xi[ctl]);
    }

    /// The kept rows of `z̃` and `ũ`: the controller block of `ξ` and `b`,
    /// between `x` and the last `r` rows, `u`.
    fn controller_rows(&self) -> std::ops::Range<usize> {
        self.plant.state_dim()..self.dim - self.plant.input_dim()
    }

    /// The kept rows of `[Bc; Dc]` of the mode of interval `m`.
    fn gains(&self, m: usize) -> &[f64] {
        let len = self.controller_rows().len() * self.table.error_dim();
        &self.gains[m * len..(m + 1) * len]
    }

    /// The job loop's constants for one run on the lifted state of
    /// dimension `d`, with the `offsets` formed by [`ClosedLoopSim::start`].
    #[inline(always)]
    fn job_loop<'a, K>(
        &'a self,
        scenario: &'a SimScenario,
        d: usize,
        offsets: &'a [f64],
        step: K,
    ) -> JobLoop<'a, K> {
        JobLoop {
            d,
            n: self.plant.state_dim(),
            u_at: self.controller_rows().end,
            cm: self.measurement.as_slice(),
            reference: scenario.reference.as_slice(),
            intervals: self.table.hset().intervals(),
            omegas: &self.omegas,
            offsets,
            threshold: self.divergence_threshold,
            step,
        }
    }
}

/// What every job of a run reads: shared by the flat job loop and by
/// [`PrefixRuns`], so both take each step with the same operations, in the
/// same order, on the same values.
struct JobLoop<'a, K> {
    d: usize,
    n: usize,
    /// Where the applied command `u` starts in `ξ`.
    u_at: usize,
    cm: &'a [f64],
    reference: &'a [f64],
    intervals: &'a [f64],
    omegas: &'a [f64],
    offsets: &'a [f64],
    threshold: f64,
    step: K,
}

impl<K: Fn(&[f64], &[f64], &[f64], &mut [f64])> JobLoop<'_, K> {
    /// Job `k` in interval `m` from the state `xi`: forms `e = r − C_m x`,
    /// calls `observe(e, x, u_applied)` and writes
    /// `ξ ← Ω(h_m) ξ + b(h_m)` into `next`. Returns `‖e‖²`, `h_m`, and
    /// whether the plant state in `next` stays bounded.
    #[inline(always)]
    fn job<F: FnMut(&[f64], &[f64], &[f64])>(
        &self,
        k: usize,
        m: usize,
        xi: &[f64],
        next: &mut [f64],
        e: &mut [f64],
        observe: &mut F,
    ) -> Result<(f64, f64, bool)> {
        let Some(&h) = self.intervals.get(m) else {
            return Err(Error::InvalidConfig(format!(
                "mode index {m} out of range at job {k} (H has {} entries)",
                self.intervals.len()
            )));
        };
        let n = self.n;
        error_into(self.cm, self.reference, &xi[..n], e);
        observe(e, &xi[..n], &xi[self.u_at..]);
        let e_sq = e.iter().map(|v| v * v).sum::<f64>();
        // ξ ← Ω(h_k) ξ + b(h_k). Job k+1 computes with the mode of h_k,
        // so b(h_k) carries the reference into its controller rows; the
        // command of job k takes effect at a_{k+1} (paper Sec. III).
        let d = self.d;
        let (omega, b) = (m * d * d..(m + 1) * d * d, m * d..(m + 1) * d);
        (self.step)(&self.omegas[omega], xi, &self.offsets[b], next);
        let bounded = next[..n]
            .iter()
            .all(|v| v.is_finite() && v.abs() <= self.threshold);
        Ok((e_sq, h, bounded))
    }
}

/// Cost-only runs of many mode sequences, in turn, that restart each
/// sequence at its longest common prefix with the previous one (built by
/// [`ClosedLoopSim::prefix_runs`]).
///
/// The state after a prefix of modes depends only on that prefix. So the
/// runs keep `ξ` and the two running cost sums at every depth, slot `k`
/// holding them before job `k`, and a sequence steps only the jobs past
/// that common prefix. A prefix that diverged is recorded by its depth:
/// every later sequence sharing it is diverged too, as the flat loop
/// stops at the same job. Each step is the flat loop's, so every
/// [`CostSummary`] is bit for bit that of [`ClosedLoopSim::run_cost`] on
/// the same modes; sequences in lexicographic order share the most.
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
/// let sim = ClosedLoopSim::new(&plant, &pi::design_adaptive(&plant, &hset)?)?;
/// let scenario = SimScenario::step(2, Matrix::col_vec(&[1.0]));
/// let mut runs = sim.prefix_runs(&scenario)?;
/// let first = runs.run_cost(&[0, 0, 1, 0])?;
/// let second = runs.run_cost(&[0, 0, 1, 1])?; // restarts at job 3
/// assert_eq!(runs.steps(), 5);
/// assert_eq!(second, sim.run_cost(&scenario, &[0, 0, 1, 1])?);
/// assert_ne!(first, second);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PrefixRuns<'a> {
    sim: &'a ClosedLoopSim,
    scenario: &'a SimScenario,
    d: usize,
    /// The offsets `b(h)` of every interval (`q·d`), then scratch for `e`.
    fixed: Vec<f64>,
    /// `ξ` at every depth of `prev`, `d` entries per slot.
    states: Vec<f64>,
    /// The running `[Σ‖e‖², Σ‖e‖²·h]` at every depth of `prev`.
    sums: Vec<[f64; 2]>,
    /// The previous sequence: the slots hold its prefixes.
    prev: Vec<u8>,
    /// The depth at which `prev`'s prefix diverged (`usize::MAX` if it
    /// did not).
    diverged_at: usize,
    steps: u64,
}

impl PrefixRuns<'_> {
    /// The cost of one sequence (`modes[k]` selects `h_k ∈ H`), from job 0's
    /// nominal mode: bit for bit [`ClosedLoopSim::run_cost`]'s.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for an out-of-range mode index at a
    /// job this sequence simulates; the next sequence then starts afresh.
    pub fn run_cost(&mut self, modes: &[u8]) -> Result<CostSummary> {
        macro_rules! dispatch {
            ($($d:literal)*) => {
                match self.d {
                    $($d => self.walk($d, modes, affine_step::<$d>),)*
                    d => self.walk(d, modes, affine_step_dyn),
                }
            };
        }
        let out = dispatch!(1 2 3 4 5 6 7 8 9 10 11 12);
        if out.is_err() {
            // The slots past the common prefix are half overwritten.
            self.prev.clear();
            self.diverged_at = usize::MAX;
        }
        out
    }

    /// Jobs simulated so far, over all sequences: the jobs that the
    /// shared prefixes saved are not counted.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// [`PrefixRuns::run_cost`] with the step kernel `step` on the lifted
    /// state of dimension `d`.
    #[inline(always)]
    fn walk<K>(&mut self, d: usize, modes: &[u8], step: K) -> Result<CostSummary>
    where
        K: Fn(&[f64], &[f64], &[f64], &mut [f64]),
    {
        let len = modes.len();
        if self.sums.len() <= len {
            self.states.resize((len + 1) * d, 0.0);
            self.sums.resize(len + 1, [0.0; 2]);
        }
        let shared = self
            .prev
            .iter()
            .zip(modes)
            .take_while(|(a, b)| a == b)
            .count();
        if shared < self.diverged_at {
            self.diverged_at = usize::MAX;
            let (offsets, e) = self.fixed.split_at_mut(self.sim.table.len() * d);
            let jobs = self.sim.job_loop(self.scenario, d, offsets, step);
            let [mut cost, mut cost_integral] = self.sums[shared];
            let (states, sums) = (&mut self.states[..(len + 1) * d], &mut self.sums[..=len]);
            let mut steps = 0;
            for k in shared..len {
                // Job `k` steps slot `k` into slot `k + 1`.
                let (done, later) = states.split_at_mut((k + 1) * d);
                let m = usize::from(modes[k]);
                let (e_sq, h, bounded) =
                    jobs.job(k, m, &done[k * d..], &mut later[..d], e, &mut |_, _, _| {})?;
                cost += e_sq;
                cost_integral += e_sq * h;
                sums[k + 1] = [cost, cost_integral];
                steps += 1;
                if !bounded {
                    self.diverged_at = k + 1;
                    break;
                }
            }
            self.steps += steps;
        }
        self.prev.truncate(shared);
        self.prev.extend_from_slice(&modes[shared..]);
        Ok(if self.diverged_at <= len {
            CostSummary {
                cost: f64::INFINITY,
                cost_integral: f64::INFINITY,
                diverged: true,
            }
        } else {
            let [cost, cost_integral] = self.sums[len];
            CostSummary {
                cost,
                cost_integral,
                diverged: false,
            }
        })
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
        *o = a[i * c..(i + 1) * c]
            .iter()
            .zip(x)
            .fold(0.0, |acc, (w, v)| acc + w * v);
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
    use crate::{
        lqr, metrics, pi, plants, scenarios, ControllerMode, ControllerTable, IntervalSet,
    };

    fn setup() -> (ContinuousSs, ControllerTable) {
        let plant = plants::unstable_second_order();
        let hset = IntervalSet::from_timing(0.010, 0.013, 2).unwrap();
        let table = pi::design_adaptive(&plant, &hset).unwrap();
        (plant, table)
    }

    /// Two decoupled copies of `plant` (block-diagonal `A`, `B` and `C`).
    fn pair(plant: &ContinuousSs) -> ContinuousSs {
        let block = |m: &Matrix| {
            let mut out = Matrix::zeros(2 * m.rows(), 2 * m.cols());
            out.set_block(0, 0, m).unwrap();
            out.set_block(m.rows(), m.cols(), m).unwrap();
            out
        };
        ContinuousSs::new(block(&plant.a), block(&plant.b), block(&plant.c)).unwrap()
    }

    /// Two inverted pendulums under one adaptive delayed LQR:
    /// `n + s + 2r = 8 + 2 + 4 = 14`, stepped on `D = 12` once `ũ` is
    /// merged into `z̃` — the largest fixed-dimension kernel.
    fn pendulum_pair() -> (ContinuousSs, ControllerTable) {
        let plant = pair(&plants::inverted_pendulum());
        let hset = IntervalSet::from_timing(0.005, 1.3 * 0.005, 5).unwrap();
        let weights = lqr::LqrWeights::identity(8, 2, 0.1);
        let table = lqr::design_adaptive(&plant, &hset, &weights).unwrap();
        (plant, table)
    }

    /// A hand-built 3-state dynamic output feedback on the PMSM, one mode
    /// per interval of `hset`, no two alike: a general `(Ac, Bc, Cc, Dc)`,
    /// neither PI nor the delayed LQR, whose lift
    /// `n + s + 2r = 3 + 3 + 2·2 = 10` repeats no row.
    fn pmsm_output_feedback(hset: &IntervalSet) -> ControllerTable {
        let mode = |g: f64| {
            let m = |rows: &[&[f64]]| Matrix::from_rows(rows).unwrap();
            ControllerMode::new(
                m(&[&[0.6, 0.1, 0.0], &[0.0, 0.5 * g, 0.1], &[0.05, 0.0, 0.4]]),
                m(&[&[0.3, 0.0, 0.0], &[0.0, 0.4, 0.02], &[0.0, 0.1 * g, 0.3]]),
                m(&[&[0.5, 0.1, 0.0], &[0.0, 0.6 * g, 0.2]]),
                m(&[&[1.0, 0.0, 0.0], &[0.0, 1.2 * g, 0.01]]),
            )
            .unwrap()
        };
        let modes = (0..hset.len()).map(|i| mode(1.0 - 0.2 * i as f64));
        ControllerTable::new(modes.collect(), hset.clone()).unwrap()
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
        let fast = sim
            .run_cost_with_initial_mode(&scenario, &modes, 1)
            .unwrap();
        assert_eq!(fast.cost.to_bits(), traj.cost.to_bits());
    }

    /// The runtime-dimension kernel runs the fixed kernels' loops in the
    /// same order: every cost and recorded value is bit-identical. Covers
    /// the lifts of PI (`D = 5`, nothing merged), the PMSM LQR (`D = 7`,
    /// its `ũ` rows merged into `z̃`), a hand-built 3-state output feedback
    /// on the PMSM (`D = 10`, nothing merged), two pendulums under one LQR
    /// (`D = 12` of 14, the largest fixed kernel) and two PMSMs under one
    /// LQR (`D = 14` of 18, which `run_core` steps on the runtime arm).
    #[test]
    fn dynamic_kernel_matches_fixed_kernel_bitwise() {
        let (plant, table) = setup();
        let pmsm = plants::pmsm();
        let t = 50e-6;
        let hset = IntervalSet::from_timing(t, 1.6 * t, 2).unwrap();
        let weights = scenarios::pmsm_table2_weights();
        let lqr = lqr::design_adaptive(&pmsm, &hset, &weights).unwrap();
        let dynamic = pmsm_output_feedback(&hset);
        let (pendulums, pendulum_lqr) = pendulum_pair();
        let pmsms = pair(&pmsm);
        let weights = lqr::LqrWeights::identity(6, 4, 3e-3);
        let pmsms_lqr = lqr::design_adaptive(&pmsms, &hset, &weights).unwrap();
        // PI tracking a step, LQR regulating and the output feedback
        // tracking on the PMSM, LQR tracking a step on the pendulum pair
        // and regulating the PMSM pair.
        let step = SimScenario::step(2, Matrix::col_vec(&[1.0]));
        let regulation = SimScenario::regulation(Matrix::col_vec(&[1.0; 3]), 3);
        let mut reference = [0.0; 8];
        reference[0] = 1.0;
        let cases = [
            (5, ClosedLoopSim::new(&plant, &table).unwrap(), step),
            (7, ClosedLoopSim::new(&pmsm, &lqr).unwrap(), regulation),
            (
                10,
                ClosedLoopSim::new(&pmsm, &dynamic).unwrap(),
                SimScenario::step(3, Matrix::col_vec(&[1.0, 0.0, 0.0])),
            ),
            (
                12,
                ClosedLoopSim::new(&pendulums, &pendulum_lqr).unwrap(),
                SimScenario::step(8, Matrix::col_vec(&reference)),
            ),
            (
                14,
                ClosedLoopSim::new(&pmsms, &pmsms_lqr).unwrap(),
                SimScenario::regulation(Matrix::col_vec(&[1.0, 1.0, 1.0, -1.0, 0.5, 0.0]), 6),
            ),
        ];
        let modes: Vec<usize> = (0..200).map(|k| usize::from(k % 3 == 1)).collect();
        for (lift, sim, scenario) in &cases {
            let d = sim.dim;
            assert_eq!(d, *lift);
            for initial_mode in [0, 1] {
                let run = |dynamic: bool| {
                    let mut bits = Vec::new();
                    let record = |e: &[f64], x: &[f64], u: &[f64]| {
                        bits.extend(e.iter().chain(x).chain(u).map(|v| v.to_bits()));
                    };
                    let (cost, integral, diverged) = if dynamic {
                        let len = (sim.table().len() + 3) * d;
                        let (buf, step) = (&mut vec![0.0; len], affine_step_dyn);
                        sim.run_lifted(d, buf, step, scenario, &modes, initial_mode, record)
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

    /// The cost of `modes` on the loop as the paper lifts it: every `Ω(h)`
    /// of [`lifted::build_omega_set`], all `n + s + 2r` rows, stepped by
    /// [`affine_step_dyn`] from `ξ(0)` and offsets formed as
    /// [`ClosedLoopSim::start`] forms them.
    fn undeflated_cost(
        plant: &ContinuousSs,
        table: &ControllerTable,
        scenario: &SimScenario,
        modes: &[u8],
        threshold: f64,
    ) -> CostSummary {
        let meas = lifted::measurement_matrix(plant, table).unwrap();
        let omegas: Vec<Vec<f64>> = lifted::build_omega_set(plant, table, &meas)
            .unwrap()
            .iter()
            .map(|o| o.transpose().into_vec())
            .collect();
        let (n, r) = (plant.state_dim(), scenario.reference.as_slice());
        let d = n + table.state_dim() + 2 * plant.input_dim();
        let ctl = n..d - plant.input_dim();
        let gains = |m: usize| {
            let mode = table.mode(m);
            [mode.bc.as_slice(), mode.dc.as_slice()].concat()
        };
        let offsets: Vec<Vec<f64>> = (0..table.len())
            .map(|m| {
                let mut b = vec![0.0; d];
                if r.iter().any(|&v| v != 0.0) {
                    mat_vec(&gains(m), r, &mut b[ctl.clone()]);
                }
                b
            })
            .collect();
        let (mut xi, mut next, mut e) = (vec![0.0; d], vec![0.0; d], vec![0.0; r.len()]);
        xi[..n].copy_from_slice(scenario.x0.as_slice());
        error_into(meas.as_slice(), r, &xi[..n], &mut e);
        mat_vec(&gains(0), &e, &mut xi[ctl]);
        let (mut cost, mut cost_integral) = (0.0, 0.0);
        for &m in modes {
            let m = usize::from(m);
            error_into(meas.as_slice(), r, &xi[..n], &mut e);
            let e_sq = e.iter().map(|v| v * v).sum::<f64>();
            cost += e_sq;
            cost_integral += e_sq * table.hset().intervals()[m];
            affine_step_dyn(&omegas[m], &xi, &offsets[m], &mut next);
            std::mem::swap(&mut xi, &mut next);
            if !xi[..n]
                .iter()
                .all(|v| v.is_finite() && v.abs() <= threshold)
            {
                return CostSummary {
                    cost: f64::INFINITY,
                    cost_integral: f64::INFINITY,
                    diverged: true,
                };
            }
        }
        CostSummary {
            cost,
            cost_integral,
            diverged: false,
        }
    }

    /// Asserts that `run_cost` and [`PrefixRuns`] on the `lift`-dimensional
    /// simulator return bit for bit the [`undeflated_cost`] of every sorted
    /// sequence, for each scenario, at the default divergence threshold
    /// and at one of 2. Returns how many runs diverged and how many did not.
    fn assert_deflated_bit_for_bit(
        plant: &ContinuousSs,
        table: &ControllerTable,
        lift: usize,
        scenarios: &[SimScenario],
        sequences: &[Vec<u8>],
    ) -> [usize; 2] {
        let mut counts = [0, 0];
        for threshold in [1e9, 2.0] {
            let sim = ClosedLoopSim::new(plant, table)
                .unwrap()
                .with_divergence_threshold(threshold);
            assert_eq!(sim.dim, lift);
            for scenario in scenarios {
                let mut runs = sim.prefix_runs(scenario).unwrap();
                for modes in sequences {
                    let want = undeflated_cost(plant, table, scenario, modes, threshold);
                    let wide: Vec<usize> = modes.iter().map(|&m| m.into()).collect();
                    for got in [
                        sim.run_cost(scenario, &wide).unwrap(),
                        runs.run_cost(modes).unwrap(),
                    ] {
                        assert_eq!(got.cost.to_bits(), want.cost.to_bits(), "{modes:?}");
                        let integral = [got.cost_integral, want.cost_integral].map(f64::to_bits);
                        assert_eq!(integral[0], integral[1], "{modes:?}");
                        assert_eq!(got.diverged, want.diverged, "{modes:?}");
                    }
                    counts[usize::from(!want.diverged)] += 1;
                }
            }
        }
        counts
    }

    /// 48 sorted random sequences of 50 jobs over `hset`, as an ensemble
    /// draws them.
    fn sorted_sequences(hset: &IntervalSet, seed: u64) -> Vec<Vec<u8>> {
        use rand::{rngs::SmallRng, SeedableRng};

        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sequences: Vec<Vec<u8>> = (0..48)
            .map(|_| {
                let modes = metrics::random_mode_sequence(hset, 50, &mut rng, 0.05).unwrap();
                modes.iter().map(|&m| u8::try_from(m).unwrap()).collect()
            })
            .collect();
        sequences.sort();
        sequences
    }

    /// Every Table II design (3 `Rmax` × 2 `Ns` × adaptive, fixed-`T`,
    /// fixed-`Rmax`) simulates on 7 dimensions, bit for bit as the
    /// undeflated 9-dimensional loop: under regulation from
    /// `x(0) = [1, 1, 1]` (the table's scenario) and tracking a step
    /// (nonzero offsets `b(h)`).
    #[test]
    fn table2_designs_simulate_deflated_bit_for_bit() {
        let (plant, t) = (plants::pmsm(), 50e-6);
        let weights = scenarios::pmsm_table2_weights();
        let cfg = scenarios::ExperimentConfig::default();
        let scenarios = [
            SimScenario::regulation(Matrix::col_vec(&[1.0; 3]), 3),
            SimScenario::step(3, Matrix::col_vec(&[1.0, -0.5, 0.0])),
        ];
        let (mut designs, mut counts) = (0, [0, 0]);
        for &factor in &cfg.rmax_factors {
            for &ns in &cfg.ns_values {
                let rmax = factor * t;
                let hset = IntervalSet::from_timing(t, rmax, ns).unwrap();
                let sequences = sorted_sequences(&hset, cfg.seed + designs);
                for table in [
                    lqr::design_adaptive(&plant, &hset, &weights).unwrap(),
                    lqr::design_fixed(&plant, &hset, &weights, t).unwrap(),
                    lqr::design_fixed(&plant, &hset, &weights, rmax).unwrap(),
                ] {
                    designs += 1;
                    let [d, b] =
                        assert_deflated_bit_for_bit(&plant, &table, 7, &scenarios, &sequences);
                    counts = [counts[0] + d, counts[1] + b];
                }
            }
        }
        assert_eq!(designs, 18);
        assert!(
            counts[0] > 0 && counts[1] > 0,
            "[diverged, bounded] {counts:?}"
        );
    }

    /// The pendulum pair steps on 12 of 14 dimensions through
    /// `affine_step::<12>`, bit for bit as the undeflated loop stepped by
    /// `affine_step_dyn`.
    #[test]
    fn pendulum_pair_simulates_deflated_bit_for_bit() {
        let (plant, table) = pendulum_pair();
        let x0 = [0.1, 0.0, 0.05, 0.0, -0.1, 0.0, 0.02, 0.0];
        let mut reference = [0.0; 8];
        reference[0] = 1.0;
        let scenarios = [
            SimScenario::regulation(Matrix::col_vec(&x0), 8),
            SimScenario::step(8, Matrix::col_vec(&reference)),
        ];
        let sequences = sorted_sequences(table.hset(), 2021);
        let counts = assert_deflated_bit_for_bit(&plant, &table, 12, &scenarios, &sequences);
        assert!(counts[1] > 0, "[diverged, bounded] {counts:?}");
    }

    /// Prefix runs agree with `run_cost` bit for bit on sequences of
    /// varying length: repeats, a prefix of the previous sequence, the
    /// empty sequence, a sequence after one with a bad mode, and on a loop
    /// that diverges, where a shared diverged prefix is inherited.
    #[test]
    fn prefix_runs_match_run_cost_bitwise() {
        let (plant, table) = setup();
        let zero = ControllerMode::static_gain(Matrix::zeros(1, 1)).unwrap();
        let fixed = ControllerTable::fixed(zero, table.hset().clone()).unwrap();
        let cases = [
            (ClosedLoopSim::new(&plant, &table).unwrap(), false),
            // Regulation from x0 = [1, 0] crosses 1.5 within a few jobs.
            (
                ClosedLoopSim::new(&plant, &fixed)
                    .unwrap()
                    .with_divergence_threshold(1.5),
                true,
            ),
        ];
        let bad = [0, 1, 7, 0];
        let sequences: [&[u8]; 10] = [
            &[0, 1, 1, 0, 1, 0],
            &[0, 1, 1, 0, 1, 0],
            &[0, 1, 1],
            &[0, 1, 1, 1, 1, 1, 1, 1],
            &[],
            &[1, 0, 0, 1],
            &bad,
            &[0, 1, 0, 0],
            &[0, 1, 0, 0, 1, 1, 0, 1, 0, 0],
            &[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
        ];
        for (sim, diverges) in &cases {
            let scenario = SimScenario::regulation(Matrix::col_vec(&[1.0, 0.0]), 1);
            let mut runs = sim.prefix_runs(&scenario).unwrap();
            let mut diverged = 0;
            for modes in sequences {
                let wide: Vec<usize> = modes.iter().map(|&m| m.into()).collect();
                let got = runs.run_cost(modes);
                let Ok(want) = sim.run_cost(&scenario, &wide) else {
                    assert!(got.is_err(), "{modes:?}");
                    continue;
                };
                let got = got.unwrap();
                assert_eq!(got.cost.to_bits(), want.cost.to_bits(), "{modes:?}");
                assert_eq!(got.cost_integral.to_bits(), want.cost_integral.to_bits());
                assert_eq!(got.diverged, want.diverged, "{modes:?}");
                diverged += usize::from(got.diverged);
            }
            assert_eq!(diverged > 0, *diverges, "{diverged} runs diverged");
        }
        // A sequence that stays bounded after one that diverged deeper
        // than their common prefix: over a range of thresholds, eight long
        // intervals cross one that six short ones do not.
        let scenario = SimScenario::regulation(Matrix::col_vec(&[1.0, 0.0]), 1);
        let mut seen = false;
        for threshold in [1.1, 1.5, 2.0, 3.0, 5.0, 10.0] {
            let sim = ClosedLoopSim::new(&plant, &fixed)
                .unwrap()
                .with_divergence_threshold(threshold);
            let mut runs = sim.prefix_runs(&scenario).unwrap();
            let got = [
                runs.run_cost(&[1; 8]).unwrap(),
                runs.run_cost(&[0; 6]).unwrap(),
            ];
            let want = [
                sim.run_cost(&scenario, &[1; 8]).unwrap(),
                sim.run_cost(&scenario, &[0; 6]).unwrap(),
            ];
            assert_eq!(got, want, "threshold {threshold}");
            seen |= want[0].diverged && !want[1].diverged;
        }
        assert!(seen, "no threshold separates the two sequences");
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
