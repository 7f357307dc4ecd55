//! Stochastic execution-time models.

use rand::Rng;

use crate::{Error, Result, Span};

/// Per-job execution-time model of a task.
///
/// The paper deliberately avoids assuming a stochastic characterisation of
/// the *response* time; these models live one level below — they describe
/// the *execution demand* a job places on the processor, from which the
/// scheduler derives response times. The [`ExecutionModel::Bimodal`] variant
/// captures the paper's motivating scenario: a nominal mode that fits the
/// period comfortably, plus a rare heavy mode (data-dependent path, cache
/// storm, interrupt burst) that triggers an overrun.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ExecutionModel {
    /// Every job takes exactly this long.
    Constant(Span),
    /// Uniformly distributed in `[min, max]`.
    Uniform {
        /// Best-case execution time.
        min: Span,
        /// Worst-case execution time.
        max: Span,
    },
    /// With probability `heavy_prob` the job takes a value uniform in
    /// `[heavy_min, heavy_max]`, otherwise uniform in `[min, max]` — the
    /// "sporadic overrun" demand profile.
    Bimodal {
        /// Nominal best case.
        min: Span,
        /// Nominal worst case.
        max: Span,
        /// Heavy-mode best case.
        heavy_min: Span,
        /// Heavy-mode worst case (the true WCET).
        heavy_max: Span,
        /// Probability of the heavy mode, in `[0, 1]`.
        heavy_prob: f64,
    },
}

impl ExecutionModel {
    /// Validates the model parameters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for empty ranges, a zero WCET, an
    /// out-of-range probability, or a heavy range below the nominal range.
    pub fn validate(&self) -> Result<()> {
        match self {
            ExecutionModel::Constant(c) => {
                if c.is_zero() {
                    return Err(Error::InvalidConfig(
                        "constant execution time is zero".into(),
                    ));
                }
            }
            ExecutionModel::Uniform { min, max } => {
                if min > max {
                    return Err(Error::InvalidConfig(format!(
                        "uniform range inverted: {min} > {max}"
                    )));
                }
                if min.is_zero() {
                    // A zero-demand job would complete with response time
                    // zero, which the overrun release policy rejects.
                    return Err(Error::InvalidConfig("uniform BCET is zero".into()));
                }
            }
            ExecutionModel::Bimodal {
                min,
                max,
                heavy_min,
                heavy_max,
                heavy_prob,
            } => {
                if min > max || heavy_min > heavy_max {
                    return Err(Error::InvalidConfig("bimodal range inverted".into()));
                }
                if min.is_zero() {
                    return Err(Error::InvalidConfig("bimodal BCET is zero".into()));
                }
                if max > heavy_min {
                    return Err(Error::InvalidConfig(
                        "bimodal heavy range must lie above the nominal range".into(),
                    ));
                }
                if !(0.0..=1.0).contains(heavy_prob) {
                    return Err(Error::InvalidConfig(format!(
                        "heavy probability {heavy_prob} outside [0, 1]"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Worst-case execution time implied by the model.
    pub fn wcet(&self) -> Span {
        match self {
            ExecutionModel::Constant(c) => *c,
            ExecutionModel::Uniform { max, .. } => *max,
            ExecutionModel::Bimodal { heavy_max, .. } => *heavy_max,
        }
    }

    /// Best-case execution time implied by the model.
    pub fn bcet(&self) -> Span {
        match self {
            ExecutionModel::Constant(c) => *c,
            ExecutionModel::Uniform { min, .. } => *min,
            ExecutionModel::Bimodal { min, .. } => *min,
        }
    }

    /// Draws one job's execution time.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Span {
        match self {
            ExecutionModel::Constant(c) => *c,
            ExecutionModel::Uniform { min, max } => sample_uniform(rng, *min, *max),
            ExecutionModel::Bimodal {
                min,
                max,
                heavy_min,
                heavy_max,
                heavy_prob,
            } => {
                if rng.gen_bool(*heavy_prob) {
                    sample_uniform(rng, *heavy_min, *heavy_max)
                } else {
                    sample_uniform(rng, *min, *max)
                }
            }
        }
    }
}

fn sample_uniform<R: Rng + ?Sized>(rng: &mut R, min: Span, max: Span) -> Span {
    if min == max {
        return min;
    }
    Span::from_nanos(rng.gen_range(min.as_nanos()..=max.as_nanos()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn constant_model() {
        let m = ExecutionModel::Constant(Span::from_millis(3));
        m.validate().unwrap();
        assert_eq!(m.wcet(), Span::from_millis(3));
        assert_eq!(m.bcet(), Span::from_millis(3));
        assert_eq!(m.sample(&mut rng()), Span::from_millis(3));
    }

    #[test]
    fn uniform_model_within_range() {
        let m = ExecutionModel::Uniform {
            min: Span::from_millis(2),
            max: Span::from_millis(5),
        };
        m.validate().unwrap();
        let mut r = rng();
        for _ in 0..1000 {
            let s = m.sample(&mut r);
            assert!(s >= Span::from_millis(2) && s <= Span::from_millis(5));
        }
    }

    #[test]
    fn bimodal_hits_both_modes() {
        let m = ExecutionModel::Bimodal {
            min: Span::from_millis(1),
            max: Span::from_millis(2),
            heavy_min: Span::from_millis(8),
            heavy_max: Span::from_millis(9),
            heavy_prob: 0.3,
        };
        m.validate().unwrap();
        assert_eq!(m.wcet(), Span::from_millis(9));
        assert_eq!(m.bcet(), Span::from_millis(1));
        let mut r = rng();
        let mut heavy = 0usize;
        let n = 5000;
        for _ in 0..n {
            let s = m.sample(&mut r);
            if s >= Span::from_millis(8) {
                heavy += 1;
            } else {
                assert!(s <= Span::from_millis(2));
            }
        }
        let frac = heavy as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.03, "heavy fraction {frac}");
    }

    #[test]
    fn validation_catches_bad_configs() {
        assert!(ExecutionModel::Constant(Span::ZERO).validate().is_err());
        assert!(ExecutionModel::Uniform {
            min: Span::from_millis(5),
            max: Span::from_millis(2),
        }
        .validate()
        .is_err());
        assert!(ExecutionModel::Bimodal {
            min: Span::from_millis(1),
            max: Span::from_millis(4),
            heavy_min: Span::from_millis(3), // overlaps nominal
            heavy_max: Span::from_millis(9),
            heavy_prob: 0.1,
        }
        .validate()
        .is_err());
        assert!(ExecutionModel::Bimodal {
            min: Span::from_millis(1),
            max: Span::from_millis(2),
            heavy_min: Span::from_millis(3),
            heavy_max: Span::from_millis(9),
            heavy_prob: 1.5,
        }
        .validate()
        .is_err());
    }

    #[test]
    fn deterministic_under_same_seed() {
        let m = ExecutionModel::Uniform {
            min: Span::from_millis(1),
            max: Span::from_millis(9),
        };
        let a: Vec<Span> = {
            let mut r = SmallRng::seed_from_u64(7);
            (0..50).map(|_| m.sample(&mut r)).collect()
        };
        let b: Vec<Span> = {
            let mut r = SmallRng::seed_from_u64(7);
            (0..50).map(|_| m.sample(&mut r)).collect()
        };
        assert_eq!(a, b);
    }
}
