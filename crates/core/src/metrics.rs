//! Performance metrics: the paper's worst-case cost
//! `J_w = max_σ Σ_k ‖e[k]‖²` over ensembles of random job sequences
//! (Sec. VI), plus exhaustive small-horizon search.
//!
//! # The draw contract
//!
//! Job `k` of a sequence draws its response time uniformly from
//! `[rmin, Rmax]` with `rng.gen_range(rmin..=rmax)` and maps it to an
//! interval index with [`IntervalSet::mode_for_response`]. Every draw
//! consumes exactly one RNG word. `gen_range` forms the response as
//! `r(k) = rmin + (Rmax − rmin)·(k·2⁻⁵³)` from the word's top 53 bits
//! `k`, and every step of that formula and of `mode_for_response` rounds
//! monotonically, so the mode is a non-decreasing step function of `k`.
//! The ensembles therefore draw through a `ModeSampler`, built once per
//! ensemble: it finds the exact integer thresholds `t_j = min{k : mode >
//! j}` by bisection against `mode_for_response` itself, and a draw is one
//! RNG word, a shift and one integer compare per threshold. The modes are
//! the ones the floating-point rule gives, bit for bit.
//!
//! # Evaluation order
//!
//! An [`Ensemble`] draws every sequence once, one byte per job (so at most
//! 256 intervals), in chunks of 64 sequences in parallel, and sorts the
//! sequences lexicographically by their modes: the sort key packs the
//! first `⌊64/⌈log₂ #H⌉⌋` modes into a `u64`, ties broken by index. It
//! keeps the sorted sequences in blocks of 64, one buffer each.
//! [`Ensemble::evaluate`] then simulates those fixed blocks in parallel,
//! each block through one
//! [`PrefixRuns`](crate::sim::PrefixRuns): a stack of `ξ` and the two
//! running cost sums at every depth, from which each sequence restarts at
//! its longest common prefix with the previous one (the shared prefixes
//! are found on the modes themselves, past the key). A prefix that
//! diverged marks every sequence sharing it as diverged. Each step is the
//! flat loop's, so every sequence's `(cost, integral, diverged)` is bit
//! for bit that of [`ClosedLoopSim::run_cost`]. The results are stored by
//! original index and folded as the flat loop folded them: chunks of 64
//! sequences in index order, each from zero, then the chunks in order. The
//! block boundaries depend on no thread count, so neither do the report
//! nor the trace counters; a boundary only costs its first sequence the
//! prefix it shares with the block before. One draw serves every design on
//! the same interval set: `scenarios::table1` and `table2` evaluate their
//! three designs per row on one ensemble.

use overrun_par::{derive_seed, try_parallel_map};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

use crate::sim::{ClosedLoopSim, CostSummary, SimScenario};
use crate::{Error, IntervalSet, Result};

/// Options for [`evaluate_worst_case`].
#[derive(Debug, Clone)]
pub struct WorstCaseOptions {
    /// Number of random sequences (the paper uses 50 000).
    pub num_sequences: usize,
    /// Jobs per sequence (the paper uses 50).
    pub jobs_per_sequence: usize,
    /// RNG seed for reproducibility.
    pub seed: u64,
    /// Smallest response time drawn, as a fraction of `Rmax`. Default 0.05.
    pub rmin_fraction: f64,
}

impl Default for WorstCaseOptions {
    fn default() -> Self {
        WorstCaseOptions {
            num_sequences: 1000,
            jobs_per_sequence: 50,
            seed: 0,
            rmin_fraction: 0.05,
        }
    }
}

/// Result of a worst-case evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorstCaseReport {
    /// The paper's `J_w`: the largest cost over all sequences
    /// (`∞` when any sequence diverged).
    pub worst_cost: f64,
    /// Largest time-weighted cost `Σ‖e‖²·h` over all sequences — comparable
    /// across sampling periods.
    pub worst_integral_cost: f64,
    /// Mean cost over all non-diverged sequences (`NaN` if all diverged).
    pub mean_cost: f64,
    /// Number of sequences whose trajectory diverged.
    pub diverged: usize,
    /// Number of sequences evaluated.
    pub sequences: usize,
}

impl WorstCaseReport {
    /// `true` when every evaluated sequence stayed bounded.
    pub fn all_stable(&self) -> bool {
        self.diverged == 0
    }
}

/// Draws a random response-time sequence (uniform in
/// `[rmin_fraction·Rmax, Rmax]`, the paper's methodology) and maps it to
/// interval indices via the release rule.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] for an `rmin_fraction` outside
/// `[0, 1]` and propagates [`IntervalSet::mode_for_response`] failures.
pub fn random_mode_sequence(
    hset: &IntervalSet,
    len: usize,
    rng: &mut SmallRng,
    rmin_fraction: f64,
) -> Result<Vec<usize>> {
    let mut modes = vec![0; len];
    fill_mode_sequence(hset, rng, rmin_fraction, &mut modes)?;
    Ok(modes)
}

/// [`random_mode_sequence`] into a caller buffer: fills every slot of
/// `modes` from the same stream, one RNG word per slot. Builds a sampler
/// per call (its threshold table is the only allocation); an ensemble
/// builds one for all its sequences.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] for an `rmin_fraction` outside
/// `[0, 1]` and propagates [`IntervalSet::mode_for_response`] failures.
fn fill_mode_sequence(
    hset: &IntervalSet,
    rng: &mut SmallRng,
    rmin_fraction: f64,
    modes: &mut [usize],
) -> Result<()> {
    ModeSampler::new(hset, rmin_fraction)?.fill(rng, modes)
}

/// `2⁵³`: `gen_range` draws from the top 53 bits of a word, so
/// `k ∈ [0, K_END)`.
const K_END: u64 = 1 << 53;

/// Uniform response-time draws mapped to interval indices, exactly as
/// `hset.mode_for_response(rng.gen_range(rmin..=rmax))` maps them, from
/// integer thresholds on the drawn word (see the module docs).
struct ModeSampler<'a> {
    hset: &'a IntervalSet,
    rmin: f64,
    rmax: f64,
    /// `thresholds[j] = min{k : mode(r(k)) > j}` for `j < #H − 1`.
    thresholds: Vec<u64>,
    /// The smallest `k` whose response `mode_for_response` rejects
    /// ([`K_END`] when none is); those draws take the rule itself.
    reject_from: u64,
}

impl<'a> ModeSampler<'a> {
    /// Finds the thresholds of `hset` for draws from
    /// `[max(rmin_fraction·Rmax, 10⁻⁶·Rmax), Rmax]`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for an `rmin_fraction` outside
    /// `[0, 1]` (NaN included).
    fn new(hset: &'a IntervalSet, rmin_fraction: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&rmin_fraction) {
            return Err(Error::InvalidConfig(format!(
                "rmin_fraction {rmin_fraction} outside [0, 1]"
            )));
        }
        let rmax = hset.rmax();
        let rmin = (rmin_fraction * rmax).max(rmax * 1e-6);
        // `level(k)`: the mode of `r(k)`, and `#H` where the rule rejects
        // it. `r(k) ≥ rmin > 0`, so only the top of the range can be
        // rejected and `level` is non-decreasing in `k`.
        let q = hset.len();
        let level = |k: u64| hset.mode_for_response(response(rmin, rmax, k)).unwrap_or(q);
        // `min{k : level(k) > j}`, searched from the `k` of the response
        // `edge`.
        let scale = K_END as f64 / (rmax - rmin);
        let search =
            |j: usize, edge: f64| first_above(((edge - rmin) * scale) as i64, |k| level(k) > j);
        // The rule puts the edge between modes `j` and `j + 1` at
        // `T + j·Ts/(1 − 10⁻⁹)`, and rejects responses beyond `Rmax`.
        let (t, ts) = (hset.period(), hset.sensor_period());
        Ok(ModeSampler {
            hset,
            rmin,
            rmax,
            thresholds: (0..q - 1)
                .map(|j| search(j, t + j as f64 * ts / (1.0 - 1e-9)))
                .collect(),
            reject_from: search(q - 1, rmax),
        })
    }

    /// Fills `modes` with one draw per slot.
    ///
    /// # Errors
    ///
    /// Propagates [`IntervalSet::mode_for_response`] failures.
    fn fill<R: RngCore>(&self, rng: &mut R, modes: &mut [usize]) -> Result<()> {
        for m in modes {
            *m = self.draw(rng)?;
        }
        Ok(())
    }

    /// One mode, from one RNG word.
    ///
    /// # Errors
    ///
    /// Propagates [`IntervalSet::mode_for_response`] failures.
    #[inline(always)]
    fn draw<R: RngCore>(&self, rng: &mut R) -> Result<usize> {
        let k = rng.next_u64() >> 11;
        if k < self.reject_from {
            Ok(self.thresholds.iter().map(|&t| usize::from(k >= t)).sum())
        } else {
            self.hset
                .mode_for_response(response(self.rmin, self.rmax, k))
        }
    }
}

/// The response `gen_range(rmin..=rmax)` draws from a word whose top 53
/// bits are `k`: the vendored `rand`'s formula, operation for operation.
fn response(rmin: f64, rmax: f64, k: u64) -> f64 {
    rmin + (rmax - rmin) * (k as f64 * (1.0 / K_END as f64))
}

/// The smallest `k ∈ [0, K_END]` with `above(k)`, for a predicate that is
/// `false` then `true` on `[0, K_END)` and taken as `true` at `K_END`.
/// Gallops out from `guess` (clamped into range) to a bracket, then
/// bisects it.
fn first_above(guess: i64, above: impl Fn(u64) -> bool) -> u64 {
    let end = K_END as i64;
    // `k < 0` is below every threshold, `K_END` above.
    let test = |k: i64| k >= end || (k >= 0 && above(k as u64));
    // Bracket with `!test(lo)` and `test(hi)`, galloping away from the
    // guess on whichever side it fell.
    let start = guess.clamp(0, end);
    let mut step = 1;
    let (mut lo, mut hi);
    if test(start) {
        (lo, hi) = (start - 1, start);
        while lo >= 0 && test(lo) {
            hi = lo;
            step *= 2;
            lo = (hi - step).max(-1);
        }
    } else {
        (lo, hi) = (start, start + 1);
        while !test(hi) {
            lo = hi;
            step *= 2;
            hi = (lo + step).min(end);
        }
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if test(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi as u64
}

/// Evaluates the worst-case cost `J_w = max_σ Σ‖e[k]‖²` over an ensemble of
/// random sequences, mirroring the paper's 50 000 × 50-job experiment:
/// [`Ensemble::draw`] then [`Ensemble::evaluate`].
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] for zero-sized ensembles, an
/// `rmin_fraction` outside `[0, 1]` or an interval set of more than 256
/// intervals, and propagates simulation failures.
///
/// # Example
///
/// ```
/// use overrun_control::prelude::*;
/// use overrun_control::metrics::{evaluate_worst_case, WorstCaseOptions};
/// use overrun_control::sim::{ClosedLoopSim, SimScenario};
/// use overrun_linalg::Matrix;
///
/// # fn main() -> Result<(), overrun_control::Error> {
/// let plant = plants::unstable_second_order();
/// let hset = IntervalSet::from_timing(0.010, 0.013, 2)?;
/// let table = pi::design_adaptive(&plant, &hset)?;
/// let sim = ClosedLoopSim::new(&plant, &table)?;
/// let scenario = SimScenario::step(2, Matrix::col_vec(&[1.0]));
/// let report = evaluate_worst_case(&sim, &scenario, &WorstCaseOptions {
///     num_sequences: 50, ..Default::default()
/// })?;
/// assert!(report.all_stable());
/// # Ok(())
/// # }
/// ```
pub fn evaluate_worst_case(
    sim: &ClosedLoopSim,
    scenario: &SimScenario,
    opts: &WorstCaseOptions,
) -> Result<WorstCaseReport> {
    Ensemble::draw(sim.table().hset(), opts)?.evaluate(sim, scenario)
}

/// Sequences per chunk of the draw and of the fold, and per block of the
/// sorted order that one worker simulates. The boundaries (and therefore
/// every f64 operation order) depend only on this constant, never on the
/// thread count.
const ENSEMBLE_CHUNK: usize = 64;

/// The most intervals an [`Ensemble`] can store a mode of in one byte.
const MAX_ENSEMBLE_MODES: usize = 1 << u8::BITS;

/// A drawn Monte Carlo ensemble: every sequence's modes, one byte per job,
/// and the sequences' lexicographic order (see the module docs). Draw it
/// once per interval set and evaluate every design on that set with it.
///
/// # Example
///
/// ```
/// use overrun_control::prelude::*;
/// use overrun_control::metrics::{evaluate_worst_case, Ensemble, WorstCaseOptions};
/// use overrun_control::sim::{ClosedLoopSim, SimScenario};
/// use overrun_linalg::Matrix;
///
/// # fn main() -> Result<(), overrun_control::Error> {
/// let plant = plants::unstable_second_order();
/// let hset = IntervalSet::from_timing(0.010, 0.013, 2)?;
/// let opts = WorstCaseOptions { num_sequences: 50, ..Default::default() };
/// let ensemble = Ensemble::draw(&hset, &opts)?;
/// let scenario = SimScenario::step(2, Matrix::col_vec(&[1.0]));
/// for table in [pi::design_adaptive(&plant, &hset)?, pi::design_fixed(&plant, &hset, 0.010)?] {
///     let sim = ClosedLoopSim::new(&plant, &table)?;
///     let report = ensemble.evaluate(&sim, &scenario)?;
///     assert_eq!(report, evaluate_worst_case(&sim, &scenario, &opts)?);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Ensemble {
    hset: IntervalSet,
    jobs: usize,
    /// Every sequence's modes in lexicographic order, one buffer per block
    /// of [`ENSEMBLE_CHUNK`] sequences: sorted position `s` holds the modes
    /// of sequence `order[s]`.
    blocks: Vec<Vec<u8>>,
    /// The original index of the sequence at each sorted position.
    order: Vec<usize>,
}

impl Ensemble {
    /// Draws `opts.num_sequences` sequences of `opts.jobs_per_sequence`
    /// modes on `hset`. Sequence `i` draws from its own generator, seeded
    /// with `derive_seed(opts.seed, i)`, so the streams do not depend on
    /// how the draw is scheduled across threads. The sequences are drawn
    /// in chunks of 64 in parallel, then sorted (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for zero-sized ensembles, an
    /// `rmin_fraction` outside `[0, 1]` or more than 256 intervals.
    pub fn draw(hset: &IntervalSet, opts: &WorstCaseOptions) -> Result<Ensemble> {
        let sampler = ModeSampler::new(hset, opts.rmin_fraction)?;
        let (n, jobs) = (opts.num_sequences, opts.jobs_per_sequence);
        if n == 0 || jobs == 0 {
            return Err(Error::InvalidConfig(
                "worst-case evaluation needs at least one sequence and one job".into(),
            ));
        }
        if hset.len() > MAX_ENSEMBLE_MODES {
            return Err(Error::InvalidConfig(format!(
                "{} intervals: an ensemble stores a mode in one byte, so at most \
                 {MAX_ENSEMBLE_MODES}",
                hset.len()
            )));
        }
        if n.checked_mul(jobs).is_none() {
            return Err(Error::InvalidConfig(format!(
                "{n} sequences of {jobs} jobs overflow the mode buffer"
            )));
        }
        let _sp = overrun_trace::span!("mc.draw", sequences = n, jobs = jobs);
        // Sort by the first modes packed into a `u64` (as many as fit at
        // ⌈log₂ #H⌉ bits each), ties by index: sequences that agree that
        // far rarely share more, and the shared prefixes are found on the
        // modes themselves.
        let bits = usize::BITS - (hset.len().max(2) - 1).leading_zeros();
        let depth = ((u64::BITS / bits) as usize).min(jobs);
        let chunks: Vec<usize> = (0..n.div_ceil(ENSEMBLE_CHUNK)).collect();
        let drawn = try_parallel_map(&chunks, |_, &c| {
            let lo = c * ENSEMBLE_CHUNK;
            let hi = (lo + ENSEMBLE_CHUNK).min(n);
            let mut modes = vec![0; (hi - lo) * jobs];
            let mut keys = Vec::with_capacity(hi - lo);
            for (i, seq) in (lo..hi).zip(modes.chunks_exact_mut(jobs)) {
                let mut rng = SmallRng::seed_from_u64(derive_seed(opts.seed, i as u64));
                for m in seq.iter_mut() {
                    // At most 256 intervals, checked above.
                    *m = sampler.draw(&mut rng)? as u8;
                }
                let key = seq[..depth]
                    .iter()
                    .fold(0, |key, &m| (key << bits) | u64::from(m));
                keys.push((key, i));
            }
            Ok::<_, Error>((modes, keys))
        })?;
        let mut keyed: Vec<(u64, usize)> =
            drawn.iter().flat_map(|(_, keys)| keys).copied().collect();
        keyed.sort_unstable();
        let order: Vec<usize> = keyed.into_iter().map(|(_, i)| i).collect();
        // Each block of the sorted order gathers its sequences, so that an
        // evaluation reads them front to back.
        let sequence = |i: usize| {
            let at = i % ENSEMBLE_CHUNK * jobs;
            &drawn[i / ENSEMBLE_CHUNK].0[at..at + jobs]
        };
        let sorted: Vec<&[usize]> = order.chunks(ENSEMBLE_CHUNK).collect();
        let blocks = try_parallel_map(&sorted, |_, block| {
            let mut modes = Vec::with_capacity(block.len() * jobs);
            for &i in *block {
                modes.extend_from_slice(sequence(i));
            }
            Ok::<_, Error>(modes)
        })?;
        Ok(Ensemble {
            hset: hset.clone(),
            jobs,
            blocks,
            order,
        })
    }

    /// Evaluates the worst-case cost of `sim` under `scenario` over the
    /// ensemble: every sequence is simulated from its shared prefix in
    /// blocks of the sorted order, and the per-sequence costs are folded
    /// in the original order. The report is bit-identical for any thread
    /// count, and to one sequence at a time through
    /// [`ClosedLoopSim::run_cost`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `sim` runs on another interval
    /// set than the ensemble was drawn on, and propagates simulation
    /// failures.
    pub fn evaluate(&self, sim: &ClosedLoopSim, scenario: &SimScenario) -> Result<WorstCaseReport> {
        if sim.table().hset() != &self.hset {
            return Err(Error::InvalidConfig(
                "the simulator's interval set is not the one the ensemble was drawn on".into(),
            ));
        }
        let n = self.order.len();
        let _sp = overrun_trace::span!(
            "mc.ensemble",
            sequences = n,
            jobs = self.jobs,
            chunks = n.div_ceil(ENSEMBLE_CHUNK)
        );
        Ok(fold(&self.summaries(sim, scenario)?, self.jobs))
    }

    /// Every sequence's cost, by original index: fixed blocks of the
    /// sorted order simulated in parallel, each from its shared prefixes.
    fn summaries(&self, sim: &ClosedLoopSim, scenario: &SimScenario) -> Result<Vec<CostSummary>> {
        let runs = try_parallel_map(&self.blocks, |_, block| {
            let mut runs = sim.prefix_runs(scenario)?;
            let mut costs = Vec::with_capacity(ENSEMBLE_CHUNK);
            for modes in block.chunks_exact(self.jobs) {
                costs.push(runs.run_cost(modes)?);
            }
            overrun_trace::counter!("mc.steps", runs.steps());
            Ok::<_, Error>(costs)
        })?;
        // Every slot is written: `order` is a permutation.
        let unset = CostSummary {
            cost: f64::NAN,
            cost_integral: f64::NAN,
            diverged: false,
        };
        let mut summaries = vec![unset; self.order.len()];
        for (&i, cost) in self.order.iter().zip(runs.into_iter().flatten()) {
            summaries[i] = cost;
        }
        Ok(summaries)
    }
}

/// Running accumulator of one ensemble chunk, and of the chunks in order.
#[derive(Clone, Copy)]
struct EnsembleAcc {
    worst: f64,
    worst_integral: f64,
    sum: f64,
    diverged: usize,
}

impl EnsembleAcc {
    const EMPTY: EnsembleAcc = EnsembleAcc {
        worst: 0.0,
        worst_integral: 0.0,
        sum: 0.0,
        diverged: 0,
    };

    fn push(mut self, summary: &CostSummary) -> Self {
        if summary.diverged {
            self.diverged += 1;
            self.worst = f64::INFINITY;
            self.worst_integral = f64::INFINITY;
        } else {
            self.worst = self.worst.max(summary.cost);
            self.worst_integral = self.worst_integral.max(summary.cost_integral);
            self.sum += summary.cost;
        }
        self
    }

    fn merge(self, chunk: EnsembleAcc) -> Self {
        EnsembleAcc {
            worst: self.worst.max(chunk.worst),
            worst_integral: self.worst_integral.max(chunk.worst_integral),
            sum: self.sum + chunk.sum,
            diverged: self.diverged + chunk.diverged,
        }
    }
}

/// Folds per-sequence costs into the report: chunks of
/// [`ENSEMBLE_CHUNK`] sequences in index order, each from zero, then the
/// chunks in order.
fn fold(summaries: &[CostSummary], jobs: usize) -> WorstCaseReport {
    let mut total = EnsembleAcc::EMPTY;
    for chunk in summaries.chunks(ENSEMBLE_CHUNK) {
        let acc = chunk.iter().fold(EnsembleAcc::EMPTY, EnsembleAcc::push);
        // Instrumentation batches at chunk granularity: one counter event
        // per chunk, never per sequence or per simulation step.
        overrun_trace::counter!("mc.sequences", chunk.len() as u64);
        overrun_trace::counter!("mc.jobs", (chunk.len() * jobs) as u64);
        overrun_trace::counter!("mc.divergence_exits", acc.diverged as u64);
        total = total.merge(acc);
    }
    let completed = summaries.len() - total.diverged;
    WorstCaseReport {
        worst_cost: total.worst,
        worst_integral_cost: total.worst_integral,
        mean_cost: if completed > 0 {
            total.sum / completed as f64
        } else {
            f64::NAN
        },
        diverged: total.diverged,
        sequences: summaries.len(),
    }
}

/// Exhaustively evaluates **all** `#H^m` mode sequences of length `m` and
/// returns the worst cost — the true adversarial `J_w` for short horizons
/// (use for validation; exponential in `m`). The sequences run in odometer
/// order, the last job varying fastest, so each restarts from its
/// predecessor's state at the last job it changed (see
/// [`crate::sim::PrefixRuns`]).
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] when the enumeration would exceed
/// `max_sequences` or the set has more than 256 intervals, and propagates
/// simulation failures.
pub fn exhaustive_worst_case(
    sim: &ClosedLoopSim,
    scenario: &SimScenario,
    m: usize,
    max_sequences: usize,
) -> Result<f64> {
    let q = sim.table().len();
    let total = q.checked_pow(m as u32).unwrap_or(usize::MAX);
    if total > max_sequences {
        return Err(Error::InvalidConfig(format!(
            "{q}^{m} = {total} sequences exceed the cap {max_sequences}"
        )));
    }
    if q > MAX_ENSEMBLE_MODES {
        return Err(Error::InvalidConfig(format!(
            "{q} intervals: modes are enumerated in one byte, so at most {MAX_ENSEMBLE_MODES}"
        )));
    }
    let _sp = overrun_trace::span!("mc.exhaustive", horizon = m, total = total);
    let mut runs = sim.prefix_runs(scenario)?;
    let mut worst = 0.0_f64;
    let mut modes = vec![0u8; m];
    for _ in 0..total {
        let run = runs.run_cost(&modes)?;
        if run.diverged {
            return Ok(f64::INFINITY);
        }
        worst = worst.max(run.cost);
        for slot in modes.iter_mut().rev() {
            if usize::from(*slot) + 1 < q {
                *slot += 1;
                break;
            }
            *slot = 0;
        }
    }
    Ok(worst)
}

#[cfg(test)]
mod test_fixtures {
    use super::*;
    use crate::{pi, plants};
    use overrun_linalg::Matrix;

    pub(super) fn sim() -> ClosedLoopSim {
        let plant = plants::unstable_second_order();
        let hset = IntervalSet::from_timing(0.010, 0.013, 2).unwrap();
        let table = pi::design_adaptive(&plant, &hset).unwrap();
        ClosedLoopSim::new(&plant, &table).unwrap()
    }

    pub(super) fn scenario() -> SimScenario {
        SimScenario::step(2, Matrix::col_vec(&[1.0]))
    }
}

#[cfg(test)]
mod tests {
    use super::test_fixtures::{scenario, sim};
    use super::*;

    #[test]
    fn random_sequences_are_valid_modes() {
        let hset = IntervalSet::from_timing(0.010, 0.016, 5).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        let modes = random_mode_sequence(&hset, 500, &mut rng, 0.05).unwrap();
        assert_eq!(modes.len(), 500);
        assert!(modes.iter().all(|&m| m < hset.len()));
        // With Rmax = 1.6T and uniform R, a healthy share must be overruns.
        let overruns = modes.iter().filter(|&&m| m > 0).count();
        assert!(overruns > 100, "only {overruns} overruns in 500 draws");
    }

    #[test]
    fn worst_case_exceeds_mean() {
        let report = evaluate_worst_case(
            &sim(),
            &scenario(),
            &WorstCaseOptions {
                num_sequences: 100,
                jobs_per_sequence: 50,
                seed: 7,
                rmin_fraction: 0.05,
            },
        )
        .unwrap();
        assert!(report.all_stable());
        assert!(report.worst_cost >= report.mean_cost);
        assert!(report.worst_cost.is_finite());
        assert_eq!(report.sequences, 100);
    }

    #[test]
    fn deterministic_given_seed() {
        let opts = WorstCaseOptions {
            num_sequences: 30,
            seed: 11,
            ..WorstCaseOptions::default()
        };
        let a = evaluate_worst_case(&sim(), &scenario(), &opts).unwrap();
        let b = evaluate_worst_case(&sim(), &scenario(), &opts).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn option_validation() {
        let s = sim();
        assert!(evaluate_worst_case(
            &s,
            &scenario(),
            &WorstCaseOptions {
                num_sequences: 0,
                ..WorstCaseOptions::default()
            }
        )
        .is_err());
        assert!(evaluate_worst_case(
            &s,
            &scenario(),
            &WorstCaseOptions {
                rmin_fraction: 2.0,
                ..WorstCaseOptions::default()
            }
        )
        .is_err());
    }

    #[test]
    fn exhaustive_bounds_random() {
        let s = sim();
        let sc = scenario();
        // All 2^6 sequences of length 6.
        let exact = exhaustive_worst_case(&s, &sc, 6, 100).unwrap();
        // Random search over the same horizon can never beat the exhaustive
        // maximum.
        let report = evaluate_worst_case(
            &s,
            &sc,
            &WorstCaseOptions {
                num_sequences: 40,
                jobs_per_sequence: 6,
                seed: 3,
                rmin_fraction: 0.05,
            },
        )
        .unwrap();
        assert!(report.worst_cost <= exact + 1e-12);
    }

    #[test]
    fn exhaustive_cap_enforced() {
        let s = sim();
        assert!(exhaustive_worst_case(&s, &scenario(), 40, 1000).is_err());
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let s = sim();
        let sc = scenario();
        let opts = WorstCaseOptions {
            num_sequences: 130, // spans three chunks, last one partial
            jobs_per_sequence: 40,
            seed: 19,
            rmin_fraction: 0.05,
        };
        overrun_par::set_thread_override(Some(1));
        let serial = evaluate_worst_case(&s, &sc, &opts).unwrap();
        overrun_par::set_thread_override(Some(4));
        let parallel = evaluate_worst_case(&s, &sc, &opts).unwrap();
        overrun_par::set_thread_override(None);
        assert_eq!(serial.worst_cost.to_bits(), parallel.worst_cost.to_bits());
        assert_eq!(serial.mean_cost.to_bits(), parallel.mean_cost.to_bits());
        assert_eq!(
            serial.worst_integral_cost.to_bits(),
            parallel.worst_integral_cost.to_bits()
        );
        assert_eq!(serial.diverged, parallel.diverged);
    }
}

#[cfg(test)]
mod sampler_tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;

    /// The per-draw rule the sampler replaces: a uniform response from
    /// `gen_range`, mapped by `mode_for_response`.
    fn fill_reference<R: RngCore>(
        hset: &IntervalSet,
        rng: &mut R,
        rmin_fraction: f64,
        modes: &mut [usize],
    ) -> Result<()> {
        let rmax = hset.rmax();
        let rmin = (rmin_fraction * rmax).max(rmax * 1e-6);
        for m in modes {
            *m = hset.mode_for_response(rng.gen_range(rmin..=rmax))?;
        }
        Ok(())
    }

    /// A generator that returns one fixed word.
    struct Word(u64);

    impl RngCore for Word {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    /// One draw from the word whose top 53 bits are `k` (the low 11 bits
    /// set, which both sides must ignore), by the sampler and by the rule.
    fn draw_both(sampler: &ModeSampler, k: u64, rmin_fraction: f64) -> (usize, usize) {
        let word = (k << 11) | 0x7ff;
        let (mut fast, mut slow) = ([0], [0]);
        sampler.fill(&mut Word(word), &mut fast).unwrap();
        fill_reference(sampler.hset, &mut Word(word), rmin_fraction, &mut slow).unwrap();
        (fast[0], slow[0])
    }

    /// Checks the sampler against the rule on `draws` random words and on
    /// every `k` within `window` of each threshold.
    fn check_sampler(hset: &IntervalSet, rmin_fraction: f64, draws: usize, window: u64) {
        let sampler = ModeSampler::new(hset, rmin_fraction).unwrap();
        let at = format!("{hset:?}, rmin_fraction {rmin_fraction}");
        assert_eq!(sampler.thresholds.len(), hset.len() - 1, "{at}");
        assert!(sampler.thresholds.windows(2).all(|w| w[0] <= w[1]), "{at}");
        // Draws stay inside [rmin, Rmax], which the rule always accepts.
        assert_eq!(sampler.reject_from, K_END, "{at}");

        let mut fast = vec![0; draws];
        let mut slow = vec![0; draws];
        let mut a = SmallRng::seed_from_u64(hset.len() as u64);
        let mut b = a.clone();
        sampler.fill(&mut a, &mut fast).unwrap();
        fill_reference(hset, &mut b, rmin_fraction, &mut slow).unwrap();
        assert!(fast == slow, "{at}: random draws differ");
        assert_eq!(a.next_u64(), b.next_u64(), "{at}: one word per draw");

        for &t in &sampler.thresholds {
            for k in t.saturating_sub(window)..(t + window + 1).min(K_END) {
                let (fast, slow) = draw_both(&sampler, k, rmin_fraction);
                assert_eq!(fast, slow, "{at}: k = {k}, threshold {t}");
            }
        }
    }

    /// Every interval set the experiment binaries draw from: the Table I
    /// and II grids (and Table II's `T = Rmax` baselines), and
    /// `ts_tradeoff`'s `Ns` sweep at `1.6 T`; then sets whose `Rmax` lies
    /// on the sensor grid or far beyond it.
    #[test]
    fn sampler_matches_rule_on_fixed_sets() {
        let mut sets = Vec::new();
        for t in [0.010, 50e-6] {
            for factor in [1.1, 1.3, 1.6] {
                for ns in [2, 5] {
                    sets.push(IntervalSet::from_timing(t, factor * t, ns).unwrap());
                    sets.push(IntervalSet::from_timing(factor * t, factor * t, ns).unwrap());
                }
            }
        }
        for ns in [1, 2, 4, 5, 10] {
            sets.push(IntervalSet::from_timing(0.010, 1.6 * 0.010, ns).unwrap());
        }
        for (t, factor, ns) in [(0.010, 1.2, 5), (0.010, 3.0, 5), (0.008, 2.0, 8)] {
            sets.push(IntervalSet::from_timing(t, factor * t, ns).unwrap());
        }
        for hset in &sets {
            for rmin_fraction in [0.0, 0.05, 0.5, 1.0] {
                check_sampler(hset, rmin_fraction, 100_000, 1 << 12);
            }
        }
    }

    #[test]
    fn first_above_finds_the_edge_from_any_guess() {
        for edge in [0, 1, 2, 1000, K_END - 1, K_END] {
            for guess in [
                i64::MIN,
                -5,
                0,
                1,
                999,
                1000,
                1001,
                (K_END - 1) as i64,
                i64::MAX,
            ] {
                assert_eq!(first_above(guess, |k| k >= edge), edge, "guess {guess}");
            }
        }
    }

    #[test]
    fn bad_rmin_fraction_is_an_error() {
        let hset = IntervalSet::from_timing(0.010, 0.013, 2).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        for bad in [1.5, -0.1, f64::NAN, f64::INFINITY] {
            let res = random_mode_sequence(&hset, 10, &mut rng, bad);
            assert!(
                matches!(res, Err(Error::InvalidConfig(_))),
                "{bad}: {res:?}"
            );
            let res = fill_mode_sequence(&hset, &mut rng, bad, &mut [0; 10]);
            assert!(
                matches!(res, Err(Error::InvalidConfig(_))),
                "{bad}: {res:?}"
            );
        }
        for ok in [0.0, 1.0] {
            assert!(random_mode_sequence(&hset, 10, &mut rng, ok).is_ok());
        }
        // All draws at Rmax: the last interval.
        let modes = random_mode_sequence(&hset, 10, &mut rng, 1.0).unwrap();
        assert!(modes.iter().all(|&m| m == hset.len() - 1));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random periods, `Rmax/T`, `Ns` and `rmin_fraction`: the sampler
        /// agrees with the rule on random words and around every threshold.
        #[test]
        fn sampler_matches_rule_on_random_sets(
            units in 1u64..=20_000,
            ns in 1u32..=10,
            factor in 0.5..4.0f64,
            rmin_fraction in 0.0..=1.0f64,
        ) {
            // `T` in whole microseconds, a multiple of `Ns` nanoseconds.
            let t = (units * u64::from(ns)) as f64 * 1e-6;
            let hset = IntervalSet::from_timing(t, factor * t, ns).unwrap();
            check_sampler(&hset, rmin_fraction, 2_000, 64);
        }
    }
}

#[cfg(test)]
mod ensemble_tests {
    use super::test_fixtures::{scenario, sim};
    use super::*;
    use crate::{lqr, pi, plants, scenarios, ControllerMode, ControllerTable};
    use overrun_linalg::Matrix;

    /// The ensemble's sequences in sorted order.
    fn sorted(ensemble: &Ensemble) -> impl Iterator<Item = &[u8]> {
        let jobs = ensemble.jobs;
        ensemble
            .blocks
            .iter()
            .flat_map(move |b| b.chunks_exact(jobs))
    }

    /// The flat ensemble loop the shared-prefix evaluator replaces: every
    /// sequence through `run_cost` in index order, folded in chunks of
    /// [`ENSEMBLE_CHUNK`] and then chunk by chunk.
    fn flat_reference(
        ensemble: &Ensemble,
        sim: &ClosedLoopSim,
        scenario: &SimScenario,
    ) -> (Vec<CostSummary>, WorstCaseReport) {
        let n = ensemble.order.len();
        let mut sequences = vec![Vec::new(); n];
        for (&i, modes) in ensemble.order.iter().zip(sorted(ensemble)) {
            sequences[i] = modes.iter().map(|&m| usize::from(m)).collect();
        }
        let summaries: Vec<CostSummary> = sequences
            .iter()
            .map(|modes| sim.run_cost(scenario, modes).unwrap())
            .collect();
        let (mut worst, mut worst_integral, mut sum, mut diverged) = (0.0_f64, 0.0_f64, 0.0, 0);
        for chunk in summaries.chunks(ENSEMBLE_CHUNK) {
            let (mut w, mut wi, mut s, mut dv) = (0.0_f64, 0.0_f64, 0.0, 0);
            for run in chunk {
                if run.diverged {
                    dv += 1;
                    w = f64::INFINITY;
                    wi = f64::INFINITY;
                } else {
                    w = w.max(run.cost);
                    wi = wi.max(run.cost_integral);
                    s += run.cost;
                }
            }
            worst = worst.max(w);
            worst_integral = worst_integral.max(wi);
            sum += s;
            diverged += dv;
        }
        let report = WorstCaseReport {
            worst_cost: worst,
            worst_integral_cost: worst_integral,
            mean_cost: if diverged < n {
                sum / (n - diverged) as f64
            } else {
                f64::NAN
            },
            diverged,
            sequences: n,
        };
        (summaries, report)
    }

    fn bits(s: &CostSummary) -> (u64, u64, bool) {
        (s.cost.to_bits(), s.cost_integral.to_bits(), s.diverged)
    }

    /// Checks the shared-prefix evaluator against the flat loop, bit for
    /// bit, at 1 and 4 threads. Returns the report.
    fn check(label: &str, sim: &ClosedLoopSim, scenario: &SimScenario) -> WorstCaseReport {
        let opts = WorstCaseOptions {
            num_sequences: 300, // five blocks, the last one partial
            jobs_per_sequence: 50,
            seed: 2021,
            rmin_fraction: 0.05,
        };
        let ensemble = Ensemble::draw(sim.table().hset(), &opts).unwrap();
        let (want, want_report) = flat_reference(&ensemble, sim, scenario);
        let want_bits: Vec<_> = want.iter().map(bits).collect();
        for threads in [1, 4] {
            overrun_par::set_thread_override(Some(threads));
            let got = ensemble.summaries(sim, scenario).unwrap();
            let report = ensemble.evaluate(sim, scenario).unwrap();
            let wrapper = evaluate_worst_case(sim, scenario, &opts).unwrap();
            overrun_par::set_thread_override(None);
            let at = format!("{label}, {threads} threads");
            let got_bits: Vec<_> = got.iter().map(bits).collect();
            assert!(got_bits == want_bits, "{at}: per-sequence summaries differ");
            for (name, a, b) in [
                ("worst", report.worst_cost, want_report.worst_cost),
                (
                    "integral",
                    report.worst_integral_cost,
                    want_report.worst_integral_cost,
                ),
                ("mean", report.mean_cost, want_report.mean_cost),
            ] {
                assert_eq!(a.to_bits(), b.to_bits(), "{at}: {name} {a} vs {b}");
            }
            assert_eq!(report.diverged, want_report.diverged, "{at}: diverged");
            assert_eq!(report.sequences, want_report.sequences, "{at}");
            assert_eq!(
                format!("{wrapper:?}"),
                format!("{report:?}"),
                "{at}: wrapper"
            );
        }
        want_report
    }

    /// Every Table I and Table II interval set: PI step tracking on the
    /// Table-I plant (gains tuned once at `T`, the integrator stepping by
    /// each interval) and LQR regulation of the PMSM from Table II's
    /// initial state.
    #[test]
    fn shared_prefix_evaluator_matches_flat_loop_bitwise() {
        let plant = plants::unstable_second_order();
        let (kp, ki) = pi::tune_for_interval(&plant, 0.010).unwrap();
        let pmsm = plants::pmsm();
        let x0 = Matrix::col_vec(&[1.0, 1.0, 1.0]);
        for factor in [1.1, 1.3, 1.6] {
            for ns in [2, 5] {
                let hset = IntervalSet::from_timing(0.010, factor * 0.010, ns).unwrap();
                let modes = hset
                    .intervals()
                    .iter()
                    .map(|&h| pi::mode_for_gains(kp, ki, h));
                let table =
                    ControllerTable::new(modes.collect::<Result<_>>().unwrap(), hset).unwrap();
                let sim = ClosedLoopSim::new(&plant, &table).unwrap();
                let step = SimScenario::step(2, Matrix::col_vec(&[1.0]));
                let report = check(&format!("pi {factor}T, Ns {ns}"), &sim, &step);
                assert!(report.all_stable());

                let hset = IntervalSet::from_timing(50e-6, factor * 50e-6, ns).unwrap();
                let weights = scenarios::pmsm_table2_weights();
                let table = lqr::design_adaptive(&pmsm, &hset, &weights).unwrap();
                let sim = ClosedLoopSim::new(&pmsm, &table).unwrap();
                let regulation = SimScenario::regulation(x0.clone(), 3);
                check(&format!("lqr {factor}T, Ns {ns}"), &sim, &regulation);
            }
        }
    }

    /// The zero-gain loop on the open-loop unstable plant diverges at a
    /// threshold it crosses part-way through (as in `tests/sim_oracle.rs`)
    /// and at one it crosses within three jobs, where the sequences sharing
    /// a diverged prefix are classified without a step of their own.
    #[test]
    fn shared_prefix_evaluator_matches_flat_loop_on_divergence() {
        let plant = plants::unstable_second_order();
        let hset = IntervalSet::from_timing(0.010, 0.016, 5).unwrap();
        let zero = ControllerMode::static_gain(Matrix::zeros(1, 1)).unwrap();
        let table = ControllerTable::fixed(zero, hset).unwrap();
        let regulation = SimScenario::regulation(Matrix::col_vec(&[1.0, 0.0]), 1);
        for threshold in [20.0, 1.02] {
            let sim = ClosedLoopSim::new(&plant, &table)
                .unwrap()
                .with_divergence_threshold(threshold);
            let report = check(
                &format!("zero gain, threshold {threshold}"),
                &sim,
                &regulation,
            );
            assert!(
                report.diverged > 0,
                "threshold {threshold}: nothing diverged"
            );
        }
        // At the low threshold every sequence diverges within three jobs,
        // in fewer steps than there are sequences: most inherit it.
        let sim = ClosedLoopSim::new(&plant, &table)
            .unwrap()
            .with_divergence_threshold(1.02);
        let opts = WorstCaseOptions {
            num_sequences: 300,
            ..WorstCaseOptions::default()
        };
        let ensemble = Ensemble::draw(sim.table().hset(), &opts).unwrap();
        let mut runs = sim.prefix_runs(&regulation).unwrap();
        for modes in sorted(&ensemble) {
            assert!(runs.run_cost(modes).unwrap().diverged);
        }
        assert!(runs.steps() < 300, "{} steps", runs.steps());
    }

    #[test]
    fn more_than_256_intervals_is_an_error() {
        let hset = IntervalSet::from_timing(0.010, 0.030, 200).unwrap();
        assert!(hset.len() > MAX_ENSEMBLE_MODES, "{} intervals", hset.len());
        let opts = WorstCaseOptions {
            num_sequences: 10,
            ..WorstCaseOptions::default()
        };
        let res = Ensemble::draw(&hset, &opts);
        assert!(matches!(res, Err(Error::InvalidConfig(_))), "{res:?}");
        let zero = ControllerMode::static_gain(Matrix::zeros(1, 1)).unwrap();
        let table = ControllerTable::fixed(zero, hset).unwrap();
        let sim = ClosedLoopSim::new(&plants::unstable_second_order(), &table).unwrap();
        let res = evaluate_worst_case(&sim, &scenario(), &opts);
        assert!(matches!(res, Err(Error::InvalidConfig(_))), "{res:?}");
        let res = exhaustive_worst_case(&sim, &scenario(), 1, 1000);
        assert!(matches!(res, Err(Error::InvalidConfig(_))), "{res:?}");
    }

    #[test]
    fn ensemble_rejects_another_interval_set() {
        let hset = IntervalSet::from_timing(0.010, 0.016, 5).unwrap();
        let opts = WorstCaseOptions {
            num_sequences: 10,
            ..WorstCaseOptions::default()
        };
        let res = Ensemble::draw(&hset, &opts)
            .unwrap()
            .evaluate(&sim(), &scenario());
        assert!(matches!(res, Err(Error::InvalidConfig(_))), "{res:?}");
    }

    /// The enumeration it replaces: job 0 varying fastest, each sequence
    /// through the recording simulator.
    fn exhaustive_reference(sim: &ClosedLoopSim, scenario: &SimScenario, m: usize) -> f64 {
        let q = sim.table().len();
        let mut worst = 0.0_f64;
        let mut modes = vec![0usize; m];
        for index in 0..q.pow(m as u32) {
            let mut x = index;
            for slot in modes.iter_mut() {
                *slot = x % q;
                x /= q;
            }
            let traj = sim.run(scenario, &modes).unwrap();
            if traj.diverged {
                return f64::INFINITY;
            }
            worst = worst.max(traj.cost);
        }
        worst
    }

    #[test]
    fn exhaustive_matches_flat_enumeration_bitwise() {
        let plant = plants::unstable_second_order();
        for (ns, q, m) in [(2, 2, 8), (5, 3, 5)] {
            let hset = IntervalSet::from_timing(0.010, 0.013, ns).unwrap();
            assert_eq!(hset.len(), q);
            let table = pi::design_adaptive(&plant, &hset).unwrap();
            let sim = ClosedLoopSim::new(&plant, &table).unwrap();
            for sc in [
                scenario(),
                SimScenario::regulation(Matrix::col_vec(&[1.0, -0.5]), 1),
            ] {
                let got = exhaustive_worst_case(&sim, &sc, m, 10_000).unwrap();
                let want = exhaustive_reference(&sim, &sc, m);
                assert_eq!(got.to_bits(), want.to_bits(), "#H = {q}: {got} vs {want}");
                assert!(got.is_finite());
            }
        }
        // A diverging loop returns ∞ on both sides.
        let hset = IntervalSet::from_timing(0.010, 0.014, 5).unwrap();
        let zero = ControllerMode::static_gain(Matrix::zeros(1, 1)).unwrap();
        let table = ControllerTable::fixed(zero, hset).unwrap();
        let sim = ClosedLoopSim::new(&plant, &table)
            .unwrap()
            .with_divergence_threshold(1.5);
        let sc = SimScenario::regulation(Matrix::col_vec(&[1.0, 0.0]), 1);
        assert_eq!(
            exhaustive_worst_case(&sim, &sc, 6, 10_000).unwrap(),
            f64::INFINITY
        );
        assert_eq!(exhaustive_reference(&sim, &sc, 6), f64::INFINITY);
    }
}
