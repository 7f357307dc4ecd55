//! The admissible inter-release interval set `H` (paper Eq. 3).

use overrun_rtsim::{OverrunPolicy, Span};

use crate::{Error, Result};

/// The finite set `H = {T + i·Ts : 0 ≤ i ≤ ⌈(Rmax − T)/Ts⌉}` of
/// inter-release intervals the overrun policy can produce, in seconds.
///
/// `IntervalSet` is the bridge between the exact integer-time world of
/// [`overrun_rtsim`] and the floating-point world of control design: it is
/// constructed from exact nanosecond timing and exposes the `h` values as
/// `f64` seconds for discretisation and gain design.
///
/// # Example
///
/// ```
/// use overrun_control::IntervalSet;
///
/// # fn main() -> Result<(), overrun_control::Error> {
/// // T = 10 ms, Rmax = 1.3 T, Ns = 5 (Ts = 2 ms) ⇒ H = {10, 12, 14} ms.
/// let hset = IntervalSet::from_timing(0.010, 0.013, 5)?;
/// assert_eq!(hset.len(), 3);
/// assert!((hset.intervals()[1] - 0.012).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalSet {
    period: f64,
    sensor_period: f64,
    rmax: f64,
    intervals: Vec<f64>,
    max_interval: f64,
}

impl IntervalSet {
    /// Builds `H` from the control period `t` (seconds), worst-case response
    /// time `rmax` (seconds) and oversampling factor `ns`.
    ///
    /// Times are rounded to whole nanoseconds, so `t` must be a multiple of
    /// `ns` nanoseconds.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for non-positive values or an
    /// inexact sensor grid, and propagates [`overrun_rtsim`] errors.
    pub fn from_timing(t: f64, rmax: f64, ns: u32) -> Result<Self> {
        if !(t.is_finite() && t > 0.0) {
            return Err(Error::InvalidConfig(format!(
                "period must be positive, got {t}"
            )));
        }
        if !(rmax.is_finite() && rmax > 0.0) {
            return Err(Error::InvalidConfig(format!(
                "Rmax must be positive, got {rmax}"
            )));
        }
        let policy = OverrunPolicy::new(Span::from_secs_f64(t), ns)?;
        Self::from_policy(&policy, Span::from_secs_f64(rmax))
    }

    /// Builds `H` from an existing [`OverrunPolicy`] and a worst-case
    /// response time.
    ///
    /// # Errors
    ///
    /// Propagates [`overrun_rtsim`] validation errors.
    pub fn from_policy(policy: &OverrunPolicy, rmax: Span) -> Result<Self> {
        let intervals = policy
            .interval_set(rmax)?
            .iter()
            .map(|s| s.as_secs_f64())
            .collect();
        let max_interval = (policy.period() + policy.delta_max(rmax)?).as_secs_f64();
        Ok(IntervalSet {
            period: policy.period().as_secs_f64(),
            sensor_period: policy.sensor_period().as_secs_f64(),
            rmax: rmax.as_secs_f64(),
            intervals,
            max_interval,
        })
    }

    /// Nominal control period `T` in seconds.
    pub fn period(&self) -> f64 {
        self.period
    }

    /// Sensor period `Ts = T / Ns` in seconds.
    pub fn sensor_period(&self) -> f64 {
        self.sensor_period
    }

    /// The worst-case response time this set was built for, in seconds.
    pub fn rmax(&self) -> f64 {
        self.rmax
    }

    /// The interval values `h ∈ H` in increasing order, in seconds.
    pub fn intervals(&self) -> &[f64] {
        &self.intervals
    }

    /// Number of intervals (`#H`).
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// Always `false`: `H` contains at least `T`.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The largest interval `T + Δmax`.
    pub fn max_interval(&self) -> f64 {
        self.max_interval
    }

    /// Index of the mode whose interval matches `h` (to within half a
    /// sensor period), or `None` when `h` is off-grid.
    pub fn index_of(&self, h: f64) -> Option<usize> {
        let tol = self.sensor_period * 0.5;
        self.intervals.iter().position(|&v| (v - h).abs() < tol)
    }

    /// Maps a response time (seconds) to the index of the induced interval
    /// `h_k` — the paper's release rule in the `f64` domain.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for a non-positive response or one
    /// exceeding `Rmax` (the design contract `R̃max ≤ Rmax` is violated).
    pub fn mode_for_response(&self, response: f64) -> Result<usize> {
        if !(response.is_finite() && response > 0.0) {
            return Err(Error::InvalidConfig(format!(
                "response time must be positive, got {response}"
            )));
        }
        if response <= self.period {
            return Ok(0);
        }
        if response > self.rmax + 1e-12 {
            return Err(Error::InvalidConfig(format!(
                "response time {response} exceeds the design Rmax {}",
                self.rmax
            )));
        }
        let excess = response - self.period;
        // Relative tolerance: a response lying exactly on the sensor grid
        // must not be pushed to the next-longer interval by one ulp of
        // floating-point noise (the integer-time rule in
        // `overrun_rtsim::OverrunPolicy::next_interval` is exact).
        let ratio = excess / self.sensor_period;
        let i = ((ratio - 1e-9 * ratio.max(1.0)).ceil().max(1.0)) as usize;
        Ok(i.min(self.intervals.len() - 1))
    }

    /// The deployment check of paper Sec. V-B: every interval this set can
    /// produce must be covered by the designed set `other`.
    pub fn is_subset_of(&self, other: &IntervalSet) -> bool {
        self.intervals.iter().all(|&h| other.index_of(h).is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_configurations_match_paper() {
        // Table I / II grid: T = 10 ms.
        // Rmax = 1.1T, Ts = T/2 ⇒ i_max = ⌈1/5⌉ = 1 ⇒ {10, 15} ms.
        let h = IntervalSet::from_timing(0.010, 0.011, 2).unwrap();
        assert_eq!(h.len(), 2);
        assert!((h.intervals()[1] - 0.015).abs() < 1e-12);
        // Rmax = 1.3T, Ts = T/5 ⇒ i_max = ⌈3/2⌉ = 2 ⇒ {10, 12, 14} ms.
        let h = IntervalSet::from_timing(0.010, 0.013, 5).unwrap();
        assert_eq!(h.len(), 3);
        // Rmax = 1.6T, Ts = T/2 ⇒ i_max = ⌈6/5⌉ = 2 ⇒ {10, 15, 20} ms.
        let h = IntervalSet::from_timing(0.010, 0.016, 2).unwrap();
        assert_eq!(h.len(), 3);
        assert!((h.max_interval() - 0.020).abs() < 1e-12);
        // Rmax = 1.6T, Ts = T/5 ⇒ i_max = 3 ⇒ {10, 12, 14, 16} ms.
        let h = IntervalSet::from_timing(0.010, 0.016, 5).unwrap();
        assert_eq!(h.len(), 4);
    }

    #[test]
    fn accessors() {
        let h = IntervalSet::from_timing(0.010, 0.013, 5).unwrap();
        assert!((h.period() - 0.010).abs() < 1e-12);
        assert!((h.sensor_period() - 0.002).abs() < 1e-12);
        assert!((h.rmax() - 0.013).abs() < 1e-12);
        assert!(!h.is_empty());
    }

    #[test]
    fn index_of_tolerant_matching() {
        let h = IntervalSet::from_timing(0.010, 0.013, 5).unwrap();
        assert_eq!(h.index_of(0.012), Some(1));
        assert_eq!(h.index_of(0.0121), Some(1)); // within Ts/2
        assert_eq!(h.index_of(0.0131), Some(2)); // closer to 14 ms
        assert_eq!(h.index_of(0.5), None);
        assert_eq!(h.index_of(0.005), None);
    }

    #[test]
    fn mode_for_response_rule() {
        let h = IntervalSet::from_timing(0.010, 0.013, 5).unwrap(); // {10,12,14} ms
        assert_eq!(h.mode_for_response(0.004).unwrap(), 0);
        assert_eq!(h.mode_for_response(0.010).unwrap(), 0);
        assert_eq!(h.mode_for_response(0.0105).unwrap(), 1); // → 12 ms
        assert_eq!(h.mode_for_response(0.012).unwrap(), 1);
        assert_eq!(h.mode_for_response(0.0125).unwrap(), 2); // → 14 ms
        assert!(h.mode_for_response(0.014).is_err()); // beyond Rmax
        assert!(h.mode_for_response(0.0).is_err());
    }

    #[test]
    fn subset_deployment_check() {
        let designed = IntervalSet::from_timing(0.010, 0.016, 5).unwrap();
        let actual = IntervalSet::from_timing(0.010, 0.013, 5).unwrap();
        assert!(actual.is_subset_of(&designed));
        assert!(!designed.is_subset_of(&actual));
        // Different grids are incompatible.
        let coarse = IntervalSet::from_timing(0.010, 0.016, 2).unwrap();
        assert!(!coarse.is_subset_of(&designed));
    }

    #[test]
    fn invalid_inputs() {
        assert!(IntervalSet::from_timing(0.0, 0.01, 2).is_err());
        assert!(IntervalSet::from_timing(0.01, -1.0, 2).is_err());
        assert!(IntervalSet::from_timing(0.01, 0.013, 0).is_err());
        assert!(IntervalSet::from_timing(f64::NAN, 0.013, 2).is_err());
    }

    #[test]
    fn rmax_below_period_gives_singleton() {
        let h = IntervalSet::from_timing(0.010, 0.005, 2).unwrap();
        assert_eq!(h.len(), 1);
        assert!((h.max_interval() - 0.010).abs() < 1e-12);
    }
}
