//! Random response-time sequence generation (the paper's evaluation
//! workload: 50 000 random sequences of 50 jobs each).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{Error, Result, Span};

/// Distribution of per-job response times.
///
/// The paper's evaluation draws response times directly (it deliberately
/// avoids assuming anything about *how* they arise); these models mirror
/// that methodology.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ResponseTimeModel {
    /// Uniform over `[min, max]` — the paper's random sequences.
    Uniform {
        /// Best-case response time `Rmin`.
        min: Span,
        /// Worst-case response time `Rmax`.
        max: Span,
    },
    /// Sporadic overruns: with probability `overrun_prob` uniform over
    /// `(period, max]`, otherwise uniform over `[min, period]`.
    Sporadic {
        /// Best-case response time.
        min: Span,
        /// Nominal period `T` (the overrun threshold).
        period: Span,
        /// Worst-case response time `Rmax > T`.
        max: Span,
        /// Probability that a job overruns.
        overrun_prob: f64,
    },
    /// A fixed, repeating sequence (for adversarial or recorded patterns).
    Fixed(Vec<Span>),
    /// Two-state Markov-modulated response times: a *nominal* regime with
    /// responses uniform in `[min, period]` and a *degraded* regime
    /// (uniform in `(period, max]`) that persists — capturing bursty
    /// interference (cache storms, interrupt floods) where overruns
    /// cluster instead of arriving independently.
    Markov {
        /// Best-case response time.
        min: Span,
        /// Nominal period `T` (the overrun threshold).
        period: Span,
        /// Worst-case response time `Rmax > T`.
        max: Span,
        /// Probability of entering the degraded regime from nominal.
        enter_prob: f64,
        /// Probability of leaving the degraded regime back to nominal.
        leave_prob: f64,
    },
}

impl ResponseTimeModel {
    /// Validates the model parameters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for inverted ranges, zero bounds, an
    /// out-of-range probability, or an empty fixed sequence.
    pub fn validate(&self) -> Result<()> {
        match self {
            ResponseTimeModel::Uniform { min, max } => {
                if min.is_zero() {
                    return Err(Error::InvalidConfig("Rmin must be positive".into()));
                }
                if min > max {
                    return Err(Error::InvalidConfig(format!(
                        "response range inverted: {min} > {max}"
                    )));
                }
            }
            ResponseTimeModel::Sporadic {
                min,
                period,
                max,
                overrun_prob,
            } => {
                validate_overrun_range(*min, *period, *max)?;
                validate_probability("overrun", *overrun_prob)?;
            }
            ResponseTimeModel::Fixed(seq) => {
                if seq.is_empty() {
                    return Err(Error::InvalidConfig("fixed sequence is empty".into()));
                }
                if seq.iter().any(|s| s.is_zero()) {
                    return Err(Error::InvalidConfig(
                        "fixed sequence contains a zero response time".into(),
                    ));
                }
            }
            ResponseTimeModel::Markov {
                min,
                period,
                max,
                enter_prob,
                leave_prob,
            } => {
                validate_overrun_range(*min, *period, *max)?;
                validate_probability("enter", *enter_prob)?;
                validate_probability("leave", *leave_prob)?;
            }
        }
        Ok(())
    }

    /// The largest response time the model can produce.
    pub fn rmax(&self) -> Span {
        match self {
            ResponseTimeModel::Uniform { max, .. } => *max,
            ResponseTimeModel::Sporadic { max, .. } => *max,
            ResponseTimeModel::Fixed(seq) => seq.iter().copied().fold(Span::ZERO, Span::max),
            ResponseTimeModel::Markov { max, .. } => *max,
        }
    }
}

/// Seeded generator of response-time sequences.
///
/// # Example
///
/// ```
/// use overrun_rtsim::{ResponseTimeModel, SequenceGenerator, Span};
///
/// # fn main() -> Result<(), overrun_rtsim::Error> {
/// let model = ResponseTimeModel::Uniform {
///     min: Span::from_millis(1),
///     max: Span::from_millis(13),
/// };
/// let mut gen = SequenceGenerator::new(model, 42)?;
/// let seq = gen.sequence(50);
/// assert_eq!(seq.len(), 50);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SequenceGenerator {
    model: ResponseTimeModel,
    rng: SmallRng,
    cursor: usize,
    degraded: bool,
}

impl SequenceGenerator {
    /// Creates a generator with a validated model and deterministic seed.
    ///
    /// # Errors
    ///
    /// Propagates [`ResponseTimeModel::validate`].
    pub fn new(model: ResponseTimeModel, seed: u64) -> Result<Self> {
        model.validate()?;
        Ok(SequenceGenerator {
            model,
            rng: SmallRng::seed_from_u64(seed),
            cursor: 0,
            degraded: false,
        })
    }

    /// Draws the next response time.
    pub fn next_response(&mut self) -> Span {
        match &self.model {
            ResponseTimeModel::Uniform { min, max } => uniform(&mut self.rng, *min, *max),
            ResponseTimeModel::Sporadic {
                min,
                period,
                max,
                overrun_prob,
            } => {
                if self.rng.gen_bool(*overrun_prob) {
                    // (T, Rmax]: offset by one nanosecond to stay strictly
                    // above the period.
                    uniform(&mut self.rng, *period + Span::from_nanos(1), *max)
                } else {
                    uniform(&mut self.rng, *min, *period)
                }
            }
            ResponseTimeModel::Fixed(seq) => {
                let v = seq[self.cursor % seq.len()];
                self.cursor += 1;
                v
            }
            ResponseTimeModel::Markov {
                min,
                period,
                max,
                enter_prob,
                leave_prob,
            } => {
                if self.degraded {
                    if self.rng.gen_bool(*leave_prob) {
                        self.degraded = false;
                    }
                } else if self.rng.gen_bool(*enter_prob) {
                    self.degraded = true;
                }
                if self.degraded {
                    uniform(&mut self.rng, *period + Span::from_nanos(1), *max)
                } else {
                    uniform(&mut self.rng, *min, *period)
                }
            }
        }
    }

    /// Draws a sequence of `len` response times.
    pub fn sequence(&mut self, len: usize) -> Vec<Span> {
        // Counted once per sequence, never per draw, so the hot RNG loop
        // stays trace-free.
        overrun_trace::counter!("rtsim.draws", len as u64);
        (0..len).map(|_| self.next_response()).collect()
    }

    /// The underlying model.
    pub fn model(&self) -> &ResponseTimeModel {
        &self.model
    }
}

/// Common validation of the `Rmin ≤ T < Rmax` envelope shared by the
/// overrun-capable models.
fn validate_overrun_range(min: Span, period: Span, max: Span) -> Result<()> {
    if min.is_zero() {
        return Err(Error::InvalidConfig("Rmin must be positive".into()));
    }
    if min > period {
        return Err(Error::InvalidConfig("Rmin exceeds the period".into()));
    }
    if max <= period {
        return Err(Error::InvalidConfig(
            "overrun models require Rmax > T".into(),
        ));
    }
    Ok(())
}

fn validate_probability(name: &str, p: f64) -> Result<()> {
    if !(0.0..=1.0).contains(&p) {
        return Err(Error::InvalidConfig(format!(
            "{name} probability {p} outside [0, 1]"
        )));
    }
    Ok(())
}

fn uniform(rng: &mut SmallRng, min: Span, max: Span) -> Span {
    if min >= max {
        return min;
    }
    Span::from_nanos(rng.gen_range(min.as_nanos()..=max.as_nanos()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_stays_in_range() {
        let mut g = SequenceGenerator::new(
            ResponseTimeModel::Uniform {
                min: Span::from_millis(2),
                max: Span::from_millis(13),
            },
            1,
        )
        .unwrap();
        for r in g.sequence(1000) {
            assert!(r >= Span::from_millis(2) && r <= Span::from_millis(13));
        }
    }

    #[test]
    fn sporadic_overrun_fraction() {
        let mut g = SequenceGenerator::new(
            ResponseTimeModel::Sporadic {
                min: Span::from_millis(1),
                period: Span::from_millis(10),
                max: Span::from_millis(16),
                overrun_prob: 0.2,
            },
            7,
        )
        .unwrap();
        let n = 10_000;
        let seq = g.sequence(n);
        let overruns = seq.iter().filter(|r| **r > Span::from_millis(10)).count();
        let frac = overruns as f64 / n as f64;
        assert!((frac - 0.2).abs() < 0.02, "overrun fraction {frac}");
        assert!(seq.iter().all(|r| *r <= Span::from_millis(16)));
    }

    #[test]
    fn fixed_sequence_cycles() {
        let pattern = vec![Span::from_millis(5), Span::from_millis(11)];
        let mut g = SequenceGenerator::new(ResponseTimeModel::Fixed(pattern.clone()), 0).unwrap();
        let seq = g.sequence(5);
        assert_eq!(seq[0], pattern[0]);
        assert_eq!(seq[1], pattern[1]);
        assert_eq!(seq[2], pattern[0]);
        assert_eq!(seq[4], pattern[0]);
    }

    #[test]
    fn validation() {
        assert!(ResponseTimeModel::Uniform {
            min: Span::ZERO,
            max: Span::from_millis(1),
        }
        .validate()
        .is_err());
        assert!(ResponseTimeModel::Uniform {
            min: Span::from_millis(5),
            max: Span::from_millis(1),
        }
        .validate()
        .is_err());
        assert!(ResponseTimeModel::Sporadic {
            min: Span::from_millis(1),
            period: Span::from_millis(10),
            max: Span::from_millis(10), // not > T
            overrun_prob: 0.5,
        }
        .validate()
        .is_err());
        assert!(ResponseTimeModel::Fixed(vec![]).validate().is_err());
        assert!(ResponseTimeModel::Fixed(vec![Span::ZERO])
            .validate()
            .is_err());
    }

    #[test]
    fn rmax_accessor() {
        assert_eq!(
            ResponseTimeModel::Fixed(vec![Span::from_millis(3), Span::from_millis(9)]).rmax(),
            Span::from_millis(9)
        );
        assert_eq!(
            ResponseTimeModel::Uniform {
                min: Span::from_millis(1),
                max: Span::from_millis(4),
            }
            .rmax(),
            Span::from_millis(4)
        );
    }

    #[test]
    fn deterministic_with_seed() {
        let model = ResponseTimeModel::Uniform {
            min: Span::from_millis(1),
            max: Span::from_millis(20),
        };
        let a = SequenceGenerator::new(model.clone(), 5)
            .unwrap()
            .sequence(100);
        let b = SequenceGenerator::new(model, 5).unwrap().sequence(100);
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod markov_tests {
    use super::*;

    fn model() -> ResponseTimeModel {
        ResponseTimeModel::Markov {
            min: Span::from_millis(1),
            period: Span::from_millis(10),
            max: Span::from_millis(16),
            enter_prob: 0.05,
            leave_prob: 0.5,
        }
    }

    #[test]
    fn markov_validation() {
        model().validate().unwrap();
        assert!(ResponseTimeModel::Markov {
            min: Span::from_millis(1),
            period: Span::from_millis(10),
            max: Span::from_millis(10), // not > T
            enter_prob: 0.1,
            leave_prob: 0.5,
        }
        .validate()
        .is_err());
        assert!(ResponseTimeModel::Markov {
            min: Span::from_millis(1),
            period: Span::from_millis(10),
            max: Span::from_millis(16),
            enter_prob: 1.5,
            leave_prob: 0.5,
        }
        .validate()
        .is_err());
        assert_eq!(model().rmax(), Span::from_millis(16));
    }

    #[test]
    fn markov_overruns_cluster() {
        // With enter = 0.05 and leave = 0.5, overruns arrive in short
        // bursts: the probability that an overrun is followed by another
        // must exceed the marginal overrun probability.
        let mut g = SequenceGenerator::new(model(), 3).unwrap();
        let seq = g.sequence(50_000);
        let over: Vec<bool> = seq.iter().map(|r| *r > Span::from_millis(10)).collect();
        let marginal = over.iter().filter(|&&o| o).count() as f64 / over.len() as f64;
        let mut after_over = 0usize;
        let mut over_over = 0usize;
        for w in over.windows(2) {
            if w[0] {
                after_over += 1;
                if w[1] {
                    over_over += 1;
                }
            }
        }
        let conditional = over_over as f64 / after_over.max(1) as f64;
        assert!(
            conditional > 2.0 * marginal,
            "no clustering: conditional {conditional:.3} vs marginal {marginal:.3}"
        );
        // Envelope respected.
        assert!(seq
            .iter()
            .all(|r| *r >= Span::from_millis(1) && *r <= Span::from_millis(16)));
    }

    #[test]
    fn markov_deterministic_per_seed() {
        let a = SequenceGenerator::new(model(), 9).unwrap().sequence(200);
        let b = SequenceGenerator::new(model(), 9).unwrap().sequence(200);
        assert_eq!(a, b);
    }
}
