//! Exact integer time arithmetic.
//!
//! All simulator time is counted in whole nanoseconds so that sensor grids
//! (`Ts = T / Ns`) and release instants compare exactly — floating-point
//! drift in release arithmetic would corrupt the very `h_k ∈ H` invariant
//! the paper's analysis relies on.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// An instant on the simulation clock, in nanoseconds since time zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

/// A non-negative time span, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Span(u64);

impl Time {
    /// The simulation origin (`t = 0`).
    pub const ZERO: Time = Time(0);

    /// Creates an instant from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Time(ns)
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Value in seconds as `f64` (for handing to the control layer).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }
}

impl Span {
    /// The zero-length span.
    pub const ZERO: Span = Span(0);

    /// Creates a span from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Span(ns)
    }

    /// Creates a span from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Span(us * 1_000)
    }

    /// Creates a span from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Span(ms * 1_000_000)
    }

    /// Creates a span from seconds given as `f64`, rounding to the nearest
    /// nanosecond.
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite input.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0,
            "span seconds must be finite and non-negative, got {s}"
        );
        Span((s * 1e9).round() as u64)
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Value in seconds as `f64`.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// `true` when the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Ceiling division: the smallest integer `k` with `k · rhs >= self`.
    ///
    /// This is exactly the `⌈R_k / T_s⌉` operation of the paper's release
    /// rule (Sec. IV-A).
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    pub fn div_ceil(self, rhs: Span) -> u64 {
        assert!(rhs.0 > 0, "division by zero span");
        self.0.div_ceil(rhs.0)
    }

    /// Exact integer division when `self` is a multiple of `rhs`.
    pub fn checked_div_exact(self, rhs: Span) -> Option<u64> {
        if rhs.0 == 0 || !self.0.is_multiple_of(rhs.0) {
            None
        } else {
            Some(self.0 / rhs.0)
        }
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Span) -> Span {
        Span(self.0.saturating_sub(rhs.0))
    }

    /// The smaller of two spans.
    pub fn min(self, rhs: Span) -> Span {
        Span(self.0.min(rhs.0))
    }

    /// The larger of two spans.
    pub fn max(self, rhs: Span) -> Span {
        Span(self.0.max(rhs.0))
    }
}

impl Add<Span> for Time {
    type Output = Time;
    fn add(self, rhs: Span) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Span> for Time {
    fn add_assign(&mut self, rhs: Span) {
        self.0 += rhs.0;
    }
}

impl Sub<Span> for Time {
    type Output = Time;
    #[expect(
        clippy::expect_used,
        reason = "`Sub` fixes the return type, so an underflow (a caller bug) can only panic"
    )]
    fn sub(self, rhs: Span) -> Time {
        Time(self.0.checked_sub(rhs.0).expect("time underflow"))
    }
}

impl Add for Span {
    type Output = Span;
    fn add(self, rhs: Span) -> Span {
        Span(self.0 + rhs.0)
    }
}

impl AddAssign for Span {
    fn add_assign(&mut self, rhs: Span) {
        self.0 += rhs.0;
    }
}

impl Sub for Span {
    type Output = Span;
    #[expect(
        clippy::expect_used,
        reason = "`Sub` fixes the return type, so an underflow (a caller bug) can only panic"
    )]
    fn sub(self, rhs: Span) -> Span {
        Span(self.0.checked_sub(rhs.0).expect("span underflow"))
    }
}

impl SubAssign for Span {
    #[expect(
        clippy::expect_used,
        reason = "`SubAssign` fixes the signature, so an underflow (a caller bug) can only panic"
    )]
    fn sub_assign(&mut self, rhs: Span) {
        self.0 = self.0.checked_sub(rhs.0).expect("span underflow");
    }
}

impl Mul<u64> for Span {
    type Output = Span;
    fn mul(self, rhs: u64) -> Span {
        Span(self.0 * rhs)
    }
}

impl Mul<Span> for u64 {
    type Output = Span;
    fn mul(self, rhs: Span) -> Span {
        Span(self * rhs.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", format_ns(self.0))
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}

fn format_ns(ns: u64) -> String {
    if ns == 0 {
        "0s".to_string()
    } else if ns.is_multiple_of(1_000_000_000) {
        format!("{}s", ns / 1_000_000_000)
    } else if ns.is_multiple_of(1_000_000) {
        format!("{}ms", ns / 1_000_000)
    } else if ns.is_multiple_of(1_000) {
        format!("{}us", ns / 1_000)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        assert_eq!(Span::from_millis(10).as_nanos(), 10_000_000);
        assert_eq!(Span::from_micros(50).as_nanos(), 50_000);
        assert_eq!(Span::from_secs_f64(0.01).as_nanos(), 10_000_000);
        assert!((Span::from_millis(10).as_secs_f64() - 0.01).abs() < 1e-15);
        assert_eq!(Time::from_nanos(5).as_nanos(), 5);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_seconds_panic() {
        let _ = Span::from_secs_f64(-1.0);
    }

    #[test]
    fn arithmetic() {
        let t = Time::ZERO + Span::from_millis(10);
        assert_eq!(t.as_nanos(), 10_000_000);
        assert_eq!((t - Span::from_millis(4)).as_nanos(), 6_000_000);
        assert_eq!(Span::from_millis(3) * 4, Span::from_millis(12));
        assert_eq!(4 * Span::from_millis(3), Span::from_millis(12));
    }

    #[test]
    fn div_ceil_matches_paper_rule() {
        // T = 10 ms, Ts = 2 ms: R = 11 ms ⇒ ⌈11/2⌉·2 = 12 ms
        let ts = Span::from_millis(2);
        assert_eq!(Span::from_millis(11).div_ceil(ts), 6);
        assert_eq!(Span::from_millis(12).div_ceil(ts), 6);
        assert_eq!(Span::from_millis(13).div_ceil(ts), 7);
        assert_eq!(Span::from_millis(10).div_ceil(ts), 5);
    }

    #[test]
    fn exact_division() {
        assert_eq!(
            Span::from_millis(10).checked_div_exact(Span::from_millis(2)),
            Some(5)
        );
        assert_eq!(
            Span::from_millis(10).checked_div_exact(Span::from_millis(3)),
            None
        );
        assert_eq!(Span::from_millis(10).checked_div_exact(Span::ZERO), None);
    }

    #[test]
    fn saturating_and_minmax() {
        let a = Span::from_millis(3);
        let b = Span::from_millis(5);
        assert_eq!(a.saturating_sub(b), Span::ZERO);
        assert_eq!(b.saturating_sub(a), Span::from_millis(2));
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Span::from_millis(1_000).to_string(), "1s");
        assert_eq!(Span::from_millis(10).to_string(), "10ms");
        assert_eq!(Span::from_micros(50).to_string(), "50us");
        assert_eq!(Span::from_nanos(7).to_string(), "7ns");
        assert_eq!(Span::ZERO.to_string(), "0s");
        assert!(Time::from_nanos(1_000_000).to_string().contains("1ms"));
    }

    #[test]
    #[should_panic(expected = "time underflow")]
    fn time_underflow_panics() {
        let _ = Time::ZERO - Span::from_nanos(1);
    }

    #[test]
    fn ordering() {
        assert!(Time::ZERO < Time::from_nanos(1));
        assert!(Span::from_millis(1) < Span::from_millis(2));
    }
}
