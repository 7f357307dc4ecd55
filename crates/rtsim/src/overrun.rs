//! The paper's overrun-adaptive release policy (Sec. IV-A).

use crate::{Error, Result, Span, Time};

/// The continuous-stream-inspired release policy of the paper.
///
/// A control task with nominal period `T` samples sensors on a grid of
/// period `Ts = T / Ns`. When job `k` finishes within `T`, the next job is
/// released at `a_k + T`. When it overruns (`R_k > T`), the overrunning job
/// is allowed to complete and the next job is released at the first sensor
/// instant after the finishing time: `a_{k+1} = a_k + ⌈R_k / Ts⌉ · Ts`
/// (paper Sec. IV-A). The resulting inter-release interval is
/// `h_k = T + Δ_k ∈ H` with `H = {T + i·Ts : 0 ≤ i ≤ ⌈(Rmax − T)/Ts⌉}`
/// (paper Eq. 3).
///
/// # Example
///
/// ```
/// use overrun_rtsim::{OverrunPolicy, Span};
///
/// # fn main() -> Result<(), overrun_rtsim::Error> {
/// let policy = OverrunPolicy::new(Span::from_millis(10), 2)?;
/// let h = policy.interval_set(Span::from_millis(16))?;
/// // H = {10, 15, 20} ms (Ts = 5 ms, ⌈6/5⌉ = 2)
/// assert_eq!(h, vec![Span::from_millis(10), Span::from_millis(15), Span::from_millis(20)]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverrunPolicy {
    period: Span,
    sensor_period: Span,
    ns: u32,
}

impl OverrunPolicy {
    /// Creates a policy with control period `period` and oversampling factor
    /// `ns` (`Ts = period / ns`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `period` is zero, `ns` is zero,
    /// or `period` is not divisible by `ns` (the sensor grid must be exact).
    pub fn new(period: Span, ns: u32) -> Result<Self> {
        if period.is_zero() {
            return Err(Error::InvalidConfig("control period is zero".into()));
        }
        if ns == 0 {
            return Err(Error::InvalidConfig(
                "oversampling factor Ns is zero".into(),
            ));
        }
        let sensor_period = match period.checked_div_exact(Span::from_nanos(ns as u64)) {
            Some(q) => Span::from_nanos(q),
            None => {
                return Err(Error::InvalidConfig(format!(
                    "period {period} is not divisible by Ns = {ns}"
                )))
            }
        };
        Ok(OverrunPolicy {
            period,
            sensor_period,
            ns,
        })
    }

    /// Nominal control period `T`.
    pub fn period(&self) -> Span {
        self.period
    }

    /// Sensor sampling period `Ts = T / Ns`.
    pub fn sensor_period(&self) -> Span {
        self.sensor_period
    }

    /// Oversampling factor `Ns`.
    pub fn ns(&self) -> u32 {
        self.ns
    }

    /// The inter-release interval `h_k` induced by a job with response time
    /// `response` (paper Eq. 2).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for a zero response time.
    pub fn next_interval(&self, response: Span) -> Result<Span> {
        if response.is_zero() {
            return Err(Error::InvalidConfig("job response time is zero".into()));
        }
        if response <= self.period {
            Ok(self.period)
        } else {
            Ok(self.sensor_period * response.div_ceil(self.sensor_period))
        }
    }

    /// The overrun-induced extra delay `Δ_k = h_k − T`.
    ///
    /// # Errors
    ///
    /// Propagates [`OverrunPolicy::next_interval`] errors.
    pub fn delta(&self, response: Span) -> Result<Span> {
        Ok(self.next_interval(response)? - self.period)
    }

    /// The full set `H` of admissible inter-release intervals for a given
    /// worst-case response time (paper Eq. 3).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `rmax` is zero.
    pub fn interval_set(&self, rmax: Span) -> Result<Vec<Span>> {
        let i_max = self.max_extra_ticks(rmax)?;
        Ok((0..=i_max)
            .map(|i| self.period + self.sensor_period * i)
            .collect())
    }

    /// `⌈(Rmax − T)/Ts⌉`, the index of the largest interval in `H`.
    fn max_extra_ticks(&self, rmax: Span) -> Result<u64> {
        if rmax.is_zero() {
            return Err(Error::InvalidConfig("Rmax is zero".into()));
        }
        Ok(if rmax <= self.period {
            0
        } else {
            (rmax - self.period).div_ceil(self.sensor_period)
        })
    }

    /// Maximum extra delay `Δmax = ⌈(Rmax − T)/Ts⌉ · Ts`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `rmax` is zero.
    pub fn delta_max(&self, rmax: Span) -> Result<Span> {
        Ok(self.sensor_period * self.max_extra_ticks(rmax)?)
    }

    /// The deployment check of paper Sec. V-B: a controller certified for
    /// worst-case response time `designed_rmax` remains certified on a
    /// platform whose actual worst case is `actual_rmax` iff the actual
    /// interval set is a subset of the designed one.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when either bound is zero.
    pub fn deployment_compatible(&self, designed_rmax: Span, actual_rmax: Span) -> Result<bool> {
        let designed = self.interval_set(designed_rmax)?;
        let actual = self.interval_set(actual_rmax)?;
        Ok(actual.iter().all(|h| designed.contains(h)))
    }

    /// Applies the policy to a whole sequence of response times, producing
    /// the release/finish timeline (the discrete skeleton of Figure 1).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for zero response times.
    pub fn apply(&self, responses: &[Span]) -> Result<ReleaseTrace> {
        let mut jobs = Vec::with_capacity(responses.len());
        let mut release = Time::ZERO;
        for (index, &response) in responses.iter().enumerate() {
            let interval = self.next_interval(response)?;
            let record = JobRecord {
                index,
                release,
                finish: release + response,
                response,
                interval,
                delta: interval - self.period,
                overran: response > self.period,
            };
            release += interval;
            jobs.push(record);
        }
        // Batched per call so the per-job loop above stays trace-free.
        overrun_trace::counter!("rtsim.jobs", jobs.len() as u64);
        overrun_trace::counter!(
            "rtsim.overruns",
            jobs.iter().filter(|j| j.overran).count() as u64
        );
        Ok(ReleaseTrace {
            jobs,
            period: self.period,
            sensor_period: self.sensor_period,
        })
    }
}

/// One control job in a release timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobRecord {
    /// Zero-based job index (`k`).
    pub index: usize,
    /// Release instant `a_k`.
    pub release: Time,
    /// Finishing instant `f_k = a_k + R_k`.
    pub finish: Time,
    /// Response time `R_k`.
    pub response: Span,
    /// Inter-release interval `h_k = a_{k+1} − a_k`.
    pub interval: Span,
    /// Overrun-induced delay `Δ_k = h_k − T`.
    pub delta: Span,
    /// Whether the job overran its nominal period.
    pub overran: bool,
}

/// A sequence of control jobs produced by [`OverrunPolicy::apply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReleaseTrace {
    /// Jobs in release order.
    pub jobs: Vec<JobRecord>,
    /// Nominal control period `T`.
    pub period: Span,
    /// Sensor period `Ts`.
    pub sensor_period: Span,
}

impl ReleaseTrace {
    /// The `h_k` sequence, ready to drive the control-layer simulation.
    pub fn intervals(&self) -> Vec<Span> {
        self.jobs.iter().map(|j| j.interval).collect()
    }

    /// Checks the structural invariants the paper's analysis relies on:
    /// every release lies on the sensor grid, intervals belong to
    /// `{T + i·Ts}`, and releases never precede the previous finish when the
    /// previous job overran.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invariant`] describing the first violation.
    pub fn check_invariants(&self) -> Result<()> {
        for (k, job) in self.jobs.iter().enumerate() {
            if job.release.as_nanos() % self.sensor_period.as_nanos() != 0 {
                return Err(Error::Invariant(format!(
                    "job {k} released off the sensor grid at {}",
                    job.release
                )));
            }
            if job.interval < self.period {
                return Err(Error::Invariant(format!(
                    "job {k} has interval {} below the period {}",
                    job.interval, self.period
                )));
            }
            let excess = job.interval - self.period;
            if !excess
                .as_nanos()
                .is_multiple_of(self.sensor_period.as_nanos())
            {
                return Err(Error::Invariant(format!(
                    "job {k} interval {} is not on the T + i·Ts grid",
                    job.interval
                )));
            }
            if k + 1 < self.jobs.len() {
                let next = &self.jobs[k + 1];
                if next.release != job.release + job.interval {
                    return Err(Error::Invariant(format!(
                        "job {} release does not match job {k} interval",
                        k + 1
                    )));
                }
                if job.overran && next.release < job.finish {
                    return Err(Error::Invariant(format!(
                        "job {} released before job {k} finished",
                        k + 1
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy_10ms_ns5() -> OverrunPolicy {
        OverrunPolicy::new(Span::from_millis(10), 5).unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(OverrunPolicy::new(Span::ZERO, 5).is_err());
        assert!(OverrunPolicy::new(Span::from_millis(10), 0).is_err());
        assert!(OverrunPolicy::new(Span::from_nanos(10), 3).is_err()); // 10 % 3 != 0
        let p = policy_10ms_ns5();
        assert_eq!(p.sensor_period(), Span::from_millis(2));
        assert_eq!(p.ns(), 5);
        assert_eq!(p.period(), Span::from_millis(10));
    }

    #[test]
    fn nominal_jobs_keep_period() {
        let p = policy_10ms_ns5();
        assert_eq!(
            p.next_interval(Span::from_millis(3)).unwrap(),
            Span::from_millis(10)
        );
        assert_eq!(
            p.next_interval(Span::from_millis(10)).unwrap(),
            Span::from_millis(10)
        );
        assert_eq!(p.delta(Span::from_millis(3)).unwrap(), Span::ZERO);
    }

    #[test]
    fn overruns_round_up_to_sensor_grid() {
        let p = policy_10ms_ns5();
        // R = 10.5 ms ⇒ ⌈10.5/2⌉·2 = 12 ms
        assert_eq!(
            p.next_interval(Span::from_micros(10_500)).unwrap(),
            Span::from_millis(12)
        );
        // R = 12 ms exactly ⇒ 12 ms
        assert_eq!(
            p.next_interval(Span::from_millis(12)).unwrap(),
            Span::from_millis(12)
        );
        // R = 12.001 ms ⇒ 14 ms
        assert_eq!(
            p.next_interval(Span::from_micros(12_001)).unwrap(),
            Span::from_millis(14)
        );
        assert_eq!(
            p.delta(Span::from_micros(10_500)).unwrap(),
            Span::from_millis(2)
        );
    }

    #[test]
    fn zero_response_rejected() {
        assert!(policy_10ms_ns5().next_interval(Span::ZERO).is_err());
    }

    #[test]
    fn interval_set_matches_eq3() {
        let p = policy_10ms_ns5();
        // Rmax = 1.3 T = 13 ms: i_max = ⌈3/2⌉ = 2 ⇒ H = {10, 12, 14} ms
        let h = p.interval_set(Span::from_millis(13)).unwrap();
        assert_eq!(
            h,
            vec![
                Span::from_millis(10),
                Span::from_millis(12),
                Span::from_millis(14)
            ]
        );
        // Rmax below T: H = {T}
        assert_eq!(
            p.interval_set(Span::from_millis(5)).unwrap(),
            vec![Span::from_millis(10)]
        );
        assert_eq!(
            p.delta_max(Span::from_millis(13)).unwrap(),
            Span::from_millis(4)
        );
        assert!(p.interval_set(Span::ZERO).is_err());
    }

    #[test]
    fn skip_next_when_ns_is_one() {
        // Ns = 1 reduces to the skip-next strategy: intervals are multiples
        // of T.
        let p = OverrunPolicy::new(Span::from_millis(10), 1).unwrap();
        assert_eq!(
            p.next_interval(Span::from_millis(11)).unwrap(),
            Span::from_millis(20)
        );
        assert_eq!(
            p.next_interval(Span::from_millis(21)).unwrap(),
            Span::from_millis(30)
        );
    }

    #[test]
    fn every_response_maps_into_interval_set() {
        let p = policy_10ms_ns5();
        let rmax = Span::from_millis(16);
        let h = p.interval_set(rmax).unwrap();
        for r_us in (1_000..=16_000).step_by(37) {
            let r = Span::from_micros(r_us);
            let interval = p.next_interval(r).unwrap();
            assert!(
                h.contains(&interval),
                "R = {r} gave h = {interval} not in H"
            );
        }
    }

    #[test]
    fn apply_builds_figure1_skeleton() {
        // Reproduce the Figure 1 scenario: job 2 overruns past 2T.
        let p = OverrunPolicy::new(Span::from_millis(8), 8).unwrap(); // Ts = 1 ms
        let responses = [
            Span::from_millis(6),     // fits
            Span::from_micros(9_500), // overruns: next release at ⌈9.5⌉ = 10 ms after a_2
            Span::from_millis(7),
        ];
        let trace = p.apply(&responses).unwrap();
        trace.check_invariants().unwrap();
        assert_eq!(trace.jobs[0].release, Time::ZERO);
        assert_eq!(trace.jobs[1].release, Time::from_nanos(8_000_000));
        // a_3 = a_2 + 10 ms = 18 ms
        assert_eq!(trace.jobs[2].release, Time::from_nanos(18_000_000));
        let overran: Vec<bool> = trace.jobs.iter().map(|j| j.overran).collect();
        assert_eq!(overran, [false, true, false]);
        assert_eq!(trace.intervals()[1], Span::from_millis(10));
    }

    #[test]
    fn deployment_check_subset_rule() {
        let p = policy_10ms_ns5();
        // Designed for Rmax = 16 ms; actual platform reaches only 13 ms.
        assert!(p
            .deployment_compatible(Span::from_millis(16), Span::from_millis(13))
            .unwrap());
        // Actual worse than designed: incompatible.
        assert!(!p
            .deployment_compatible(Span::from_millis(13), Span::from_millis(16))
            .unwrap());
        // Equal grids compatible.
        assert!(p
            .deployment_compatible(Span::from_millis(13), Span::from_millis(13))
            .unwrap());
    }

    #[test]
    fn invariant_checker_catches_corruption() {
        let p = policy_10ms_ns5();
        let mut trace = p
            .apply(&[Span::from_millis(5), Span::from_millis(5)])
            .unwrap();
        trace.jobs[1].release = Time::from_nanos(1); // off-grid
        assert!(trace.check_invariants().is_err());
    }
}
