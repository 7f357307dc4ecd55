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

use overrun_par::{derive_seed, try_parallel_map};
use overrun_rtsim::{ResponseTimeModel, SequenceGenerator, Span};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

use crate::sim::{ClosedLoopSim, SimScenario};
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
pub fn fill_mode_sequence(
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

    /// Fills `modes` with one draw per slot, one RNG word each.
    ///
    /// # Errors
    ///
    /// Propagates [`IntervalSet::mode_for_response`] failures.
    fn fill<R: RngCore>(&self, rng: &mut R, modes: &mut [usize]) -> Result<()> {
        for m in modes {
            let k = rng.next_u64() >> 11;
            *m = if k < self.reject_from {
                self.thresholds.iter().map(|&t| usize::from(k >= t)).sum()
            } else {
                let r = response(self.rmin, self.rmax, k);
                self.hset.mode_for_response(r)?
            };
        }
        Ok(())
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
/// random sequences, mirroring the paper's 50 000 × 50-job experiment.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] for zero-sized ensembles or an
/// `rmin_fraction` outside `[0, 1]`, and propagates simulation failures.
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
    let sampler = ModeSampler::new(sim.table().hset(), opts.rmin_fraction)?;
    // Each sequence draws from its own generator, seeded from the master
    // seed and the sequence index — streams are independent of how the
    // ensemble is scheduled across threads.
    run_ensemble(sim, scenario, opts, |i, modes| {
        let mut rng = SmallRng::seed_from_u64(derive_seed(opts.seed, i as u64));
        sampler.fill(&mut rng, modes)
    })
}

/// Sequences folded per chunk before chunks are combined in order — the
/// boundaries (and therefore every f64 operation order) depend only on
/// this constant, never on the thread count.
const ENSEMBLE_CHUNK: usize = 64;

/// Running accumulator of one ensemble chunk.
#[derive(Clone, Copy)]
struct EnsembleAcc {
    worst: f64,
    worst_integral: f64,
    sum: f64,
    diverged: usize,
}

/// Shared ensemble loop behind both worst-case evaluators:
/// `next_modes(i, buf)` draws sequence `i` into a buffer reused across the
/// chunk, which is simulated (cost-only fast path) and accumulated into
/// the report. Chunks of [`ENSEMBLE_CHUNK`] sequences are evaluated in
/// parallel and combined in chunk order, so the report is bit-identical
/// for any thread count.
fn run_ensemble<F>(
    sim: &ClosedLoopSim,
    scenario: &SimScenario,
    opts: &WorstCaseOptions,
    next_modes: F,
) -> Result<WorstCaseReport>
where
    F: Fn(usize, &mut [usize]) -> Result<()> + Sync,
{
    if opts.num_sequences == 0 || opts.jobs_per_sequence == 0 {
        return Err(Error::InvalidConfig(
            "worst-case evaluation needs at least one sequence and one job".into(),
        ));
    }
    let n_chunks = opts.num_sequences.div_ceil(ENSEMBLE_CHUNK);
    let _sp = overrun_trace::span!(
        "mc.ensemble",
        sequences = opts.num_sequences,
        jobs = opts.jobs_per_sequence,
        chunks = n_chunks
    );
    let chunks: Vec<usize> = (0..n_chunks).collect();
    let partials: Vec<EnsembleAcc> = try_parallel_map(&chunks, |_, &c| {
        let lo = c * ENSEMBLE_CHUNK;
        let hi = (lo + ENSEMBLE_CHUNK).min(opts.num_sequences);
        let mut acc = EnsembleAcc {
            worst: 0.0,
            worst_integral: 0.0,
            sum: 0.0,
            diverged: 0,
        };
        let mut modes = vec![0; opts.jobs_per_sequence];
        for i in lo..hi {
            next_modes(i, &mut modes)?;
            let summary = sim.run_cost(scenario, &modes)?;
            if summary.diverged {
                acc.diverged += 1;
                acc.worst = f64::INFINITY;
                acc.worst_integral = f64::INFINITY;
            } else {
                acc.worst = acc.worst.max(summary.cost);
                acc.worst_integral = acc.worst_integral.max(summary.cost_integral);
                acc.sum += summary.cost;
            }
        }
        // Instrumentation batches at chunk granularity: one counter event
        // per chunk, never per sequence or per simulation step.
        overrun_trace::counter!("mc.sequences", (hi - lo) as u64);
        overrun_trace::counter!("mc.jobs", ((hi - lo) * opts.jobs_per_sequence) as u64);
        overrun_trace::counter!("mc.divergence_exits", acc.diverged as u64);
        overrun_trace::histogram!("mc.chunk_worst", acc.worst);
        Ok::<_, Error>(acc)
    })?;

    // Serial fold in chunk order — the only place partials meet.
    let mut worst = 0.0_f64;
    let mut worst_integral = 0.0_f64;
    let mut sum = 0.0_f64;
    let mut diverged = 0usize;
    for acc in partials {
        worst = worst.max(acc.worst);
        worst_integral = worst_integral.max(acc.worst_integral);
        sum += acc.sum;
        diverged += acc.diverged;
    }
    let completed = opts.num_sequences - diverged;
    Ok(WorstCaseReport {
        worst_cost: worst,
        worst_integral_cost: worst_integral,
        mean_cost: if completed > 0 {
            sum / completed as f64
        } else {
            f64::NAN
        },
        diverged,
        sequences: opts.num_sequences,
    })
}

/// Evaluates the worst-case cost over sequences drawn from an explicit
/// [`ResponseTimeModel`] (e.g. the bursty Markov model) instead of the
/// default uniform law — overruns may then cluster, which is the regime
/// where delay compensation matters most.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] for zero-sized ensembles or a model
/// whose `Rmax` exceeds the design `Rmax` of the simulator's interval set,
/// and propagates simulation failures.
///
/// # Example
///
/// ```
/// use overrun_control::prelude::*;
/// use overrun_control::metrics::{evaluate_worst_case_with_model, WorstCaseOptions};
/// use overrun_control::sim::{ClosedLoopSim, SimScenario};
/// use overrun_linalg::Matrix;
/// use overrun_rtsim::{ResponseTimeModel, Span};
///
/// # fn main() -> Result<(), overrun_control::Error> {
/// let plant = plants::unstable_second_order();
/// let hset = IntervalSet::from_timing(0.010, 0.013, 2)?;
/// let table = pi::design_adaptive(&plant, &hset)?;
/// let sim = ClosedLoopSim::new(&plant, &table)?;
/// let scenario = SimScenario::step(2, Matrix::col_vec(&[1.0]));
/// let bursty = ResponseTimeModel::Markov {
///     min: Span::from_millis(1),
///     period: Span::from_millis(10),
///     max: Span::from_millis(13),
///     enter_prob: 0.05,
///     leave_prob: 0.4,
/// };
/// let report = evaluate_worst_case_with_model(&sim, &scenario, &bursty,
///     &WorstCaseOptions { num_sequences: 50, ..Default::default() })?;
/// assert!(report.all_stable());
/// # Ok(())
/// # }
/// ```
pub fn evaluate_worst_case_with_model(
    sim: &ClosedLoopSim,
    scenario: &SimScenario,
    model: &ResponseTimeModel,
    opts: &WorstCaseOptions,
) -> Result<WorstCaseReport> {
    let hset = sim.table().hset().clone();
    if model.rmax() > Span::from_secs_f64(hset.rmax()) + Span::from_nanos(1) {
        return Err(Error::InvalidConfig(format!(
            "workload Rmax {} exceeds the design Rmax {:.6} s",
            model.rmax(),
            hset.rmax()
        )));
    }
    run_ensemble(sim, scenario, opts, |i, modes| {
        // Independent sequences: one generator per sequence, seeded
        // deterministically.
        let mut gen = SequenceGenerator::new(model.clone(), opts.seed.wrapping_add(i as u64))?;
        let responses = gen.sequence(modes.len());
        for (m, r) in modes.iter_mut().zip(responses) {
            *m = hset.mode_for_response(r.as_secs_f64().min(hset.rmax()))?;
        }
        Ok(())
    })
}

/// Exhaustively evaluates **all** `#H^m` mode sequences of length `m` and
/// returns the worst cost — the true adversarial `J_w` for short horizons
/// (use for validation; exponential in `m`).
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] when the enumeration would exceed
/// `max_sequences`, and propagates simulation failures.
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
    let _sp = overrun_trace::span!("mc.exhaustive", horizon = m, total = total);
    let mut worst = 0.0_f64;
    let mut modes = vec![0usize; m];
    for index in 0..total {
        let mut x = index;
        for slot in modes.iter_mut() {
            *slot = x % q;
            x /= q;
        }
        let traj = sim.run(scenario, &modes)?;
        if traj.diverged {
            return Ok(f64::INFINITY);
        }
        worst = worst.max(traj.cost);
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
            for guess in [i64::MIN, -5, 0, 1, 999, 1000, 1001, (K_END - 1) as i64, i64::MAX] {
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
            assert!(matches!(res, Err(Error::InvalidConfig(_))), "{bad}: {res:?}");
            let res = fill_mode_sequence(&hset, &mut rng, bad, &mut [0; 10]);
            assert!(matches!(res, Err(Error::InvalidConfig(_))), "{bad}: {res:?}");
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
mod model_tests {
    use super::test_fixtures::{scenario, sim};
    use super::*;

    fn bursty(max_ms: u64) -> ResponseTimeModel {
        ResponseTimeModel::Markov {
            min: Span::from_millis(1),
            period: Span::from_millis(10),
            max: Span::from_millis(max_ms),
            enter_prob: 0.05,
            leave_prob: 0.4,
        }
    }

    #[test]
    fn bursty_workload_stays_stable() {
        let report = evaluate_worst_case_with_model(
            &sim(),
            &scenario(),
            &bursty(13),
            &WorstCaseOptions {
                num_sequences: 100,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(report.all_stable());
        assert!(report.worst_cost.is_finite());
        assert!(report.worst_cost >= report.mean_cost);
    }

    #[test]
    fn workload_beyond_design_rmax_rejected() {
        let res = evaluate_worst_case_with_model(
            &sim(),
            &scenario(),
            &bursty(20), // design Rmax is 13 ms
            &WorstCaseOptions::default(),
        );
        assert!(res.is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let opts = WorstCaseOptions {
            num_sequences: 20,
            seed: 3,
            ..Default::default()
        };
        let a = evaluate_worst_case_with_model(&sim(), &scenario(), &bursty(13), &opts).unwrap();
        let b = evaluate_worst_case_with_model(&sim(), &scenario(), &bursty(13), &opts).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn sporadic_model_also_supported() {
        let model = ResponseTimeModel::Sporadic {
            min: Span::from_millis(1),
            period: Span::from_millis(10),
            max: Span::from_millis(13),
            overrun_prob: 0.15,
        };
        let report = evaluate_worst_case_with_model(
            &sim(),
            &scenario(),
            &model,
            &WorstCaseOptions {
                num_sequences: 50,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(report.all_stable());
    }
}
