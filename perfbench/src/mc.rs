//! The Monte Carlo layer: the paper's worst-case cost `J_w` over an
//! ensemble of random job sequences, run either through the library's
//! `evaluate_worst_case` or replayed here one layer at a time (mode-sequence
//! drawing, closed-loop simulation) with a timer around each.

use std::time::Instant;

use overrun_control::metrics::{evaluate_worst_case, random_mode_sequence, WorstCaseOptions};
use overrun_control::Result;
use overrun_par::derive_seed;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::grid::DesignPoint;

/// Jobs per simulated sequence, as in the paper.
const JOBS_PER_SEQUENCE: usize = 50;

/// Time spent in each Monte Carlo layer, and the work it did.
#[derive(Debug, Default, Clone, Copy)]
pub struct McLayers {
    /// Seconds spent drawing mode sequences.
    pub draw_s: f64,
    /// Seconds spent simulating the closed loop.
    pub sim_s: f64,
    /// Jobs simulated.
    pub jobs: u64,
}

/// The outcome of one ensemble that both evaluation paths must agree on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ensemble {
    /// Largest `Σ‖e‖²` over the sequences (`∞` once any diverged).
    pub worst: f64,
    /// Largest time-weighted cost `Σ‖e‖²·h` (`∞` once any diverged).
    pub worst_integral: f64,
    /// Mean cost over the sequences that stayed bounded.
    pub mean: f64,
    /// Sequences whose trajectory diverged.
    pub diverged: usize,
}

impl Ensemble {
    /// Bitwise equality, so that a repeated ensemble proves determinism.
    pub fn same_bits(&self, other: &Ensemble) -> bool {
        self.worst.to_bits() == other.worst.to_bits()
            && self.worst_integral.to_bits() == other.worst_integral.to_bits()
            && self.mean.to_bits() == other.mean.to_bits()
            && self.diverged == other.diverged
    }
}

/// The ensemble options of one run: `sequences` × [`JOBS_PER_SEQUENCE`]
/// jobs, response times drawn from the run's master `seed`.
pub fn options(sequences: usize, seed: u64) -> WorstCaseOptions {
    WorstCaseOptions {
        num_sequences: sequences,
        jobs_per_sequence: JOBS_PER_SEQUENCE,
        seed,
        ..WorstCaseOptions::default()
    }
}

/// Runs the ensemble through the library, as the experiment drivers do.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn ensemble(point: &DesignPoint, opts: &WorstCaseOptions) -> Result<Ensemble> {
    let report = evaluate_worst_case(&point.sim, &point.scenario, opts)?;
    Ok(Ensemble {
        worst: report.worst_cost,
        worst_integral: report.worst_integral_cost,
        mean: report.mean_cost,
        diverged: report.diverged,
    })
}

/// Replays the same ensemble from outside the library: sequence `i` draws
/// from its own generator seeded with `derive_seed(seed, i)`, exactly the
/// stream `evaluate_worst_case` documents, and each layer is timed.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn ensemble_by_layer(
    point: &DesignPoint,
    opts: &WorstCaseOptions,
    layers: &mut McLayers,
) -> Result<Ensemble> {
    let hset = point.table.hset();
    let mut out = Ensemble {
        worst: 0.0,
        worst_integral: 0.0,
        mean: 0.0,
        diverged: 0,
    };
    let mut sum = 0.0;
    for i in 0..opts.num_sequences {
        let t0 = Instant::now();
        let mut rng = SmallRng::seed_from_u64(derive_seed(opts.seed, i as u64));
        let modes =
            random_mode_sequence(hset, opts.jobs_per_sequence, &mut rng, opts.rmin_fraction)?;
        let t1 = Instant::now();
        let run = point.sim.run_cost(&point.scenario, &modes)?;
        let t2 = Instant::now();
        layers.draw_s += (t1 - t0).as_secs_f64();
        layers.sim_s += (t2 - t1).as_secs_f64();
        if run.diverged {
            out.diverged += 1;
            out.worst = f64::INFINITY;
            out.worst_integral = f64::INFINITY;
        } else {
            out.worst = out.worst.max(run.cost);
            out.worst_integral = out.worst_integral.max(run.cost_integral);
            sum += run.cost;
        }
    }
    layers.jobs += (opts.num_sequences * opts.jobs_per_sequence) as u64;
    let completed = opts.num_sequences - out.diverged;
    out.mean = if completed > 0 {
        sum / completed as f64
    } else {
        f64::NAN
    };
    Ok(out)
}

/// `true` when two evaluations of one ensemble agree: the maxima exactly
/// (a max-fold does not depend on order), the mean to `1e-9` relative (the
/// library sums in chunks, so its rounding may differ).
pub fn agree(a: &Ensemble, b: &Ensemble) -> bool {
    a.worst.to_bits() == b.worst.to_bits()
        && a.worst_integral.to_bits() == b.worst_integral.to_bits()
        && a.diverged == b.diverged
        && crate::stats::close(a.mean, b.mean)
}

/// `true` when an ensemble looks like a valid `J_w` estimate: no sequence
/// diverged, and `0 < mean ≤ worst < ∞`.
pub fn plausible(e: &Ensemble) -> bool {
    e.diverged == 0 && e.worst.is_finite() && e.mean > 0.0 && e.mean <= e.worst
}
