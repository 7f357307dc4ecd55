//! Weakly-hard characterisation of overrun traces.
//!
//! The weakly-hard model (Bernat et al., paper ref. \[16\]) bounds how many
//! deadline misses — here: overruns — may occur in any window of `K`
//! consecutive jobs. The paper positions its approach against
//! weakly-hard-based stability tests (refs. \[17\], \[18\]); this module
//! extracts the empirical weakly-hard contract from a simulated trace and
//! builds the matching transition constraint for
//! `overrun_jsr::constrained_bounds`-style analyses.

use crate::ReleaseTrace;

/// An `(m, K)` weakly-hard constraint: at most `m` overruns in any window
/// of `K` consecutive jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WeaklyHard {
    /// Maximum number of overruns tolerated per window.
    pub m: u32,
    /// Window length in jobs.
    pub k: u32,
}

impl WeaklyHard {
    /// Creates an `(m, K)` constraint.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `m > k`.
    pub fn new(m: u32, k: u32) -> Self {
        assert!(k > 0, "window length K must be positive");
        assert!(m <= k, "m = {m} overruns cannot exceed the window K = {k}");
        WeaklyHard { m, k }
    }

    /// Checks whether a boolean overrun pattern satisfies the constraint.
    pub fn is_satisfied_by(&self, overruns: &[bool]) -> bool {
        let k = self.k as usize;
        if overruns.len() < k {
            return overruns.iter().filter(|&&o| o).count() <= self.m as usize;
        }
        let mut in_window = overruns[..k].iter().filter(|&&o| o).count();
        if in_window > self.m as usize {
            return false;
        }
        for i in k..overruns.len() {
            in_window += usize::from(overruns[i]);
            in_window -= usize::from(overruns[i - k]);
            if in_window > self.m as usize {
                return false;
            }
        }
        true
    }
}

impl std::fmt::Display for WeaklyHard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.m, self.k)
    }
}

/// The tightest `m` such that the trace satisfies `(m, K)` for the given
/// window `K` (i.e. the maximum number of overruns observed in any window
/// of `K` consecutive jobs).
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn max_overruns_in_window(trace: &ReleaseTrace, k: u32) -> u32 {
    assert!(k > 0, "window length K must be positive");
    let flags: Vec<bool> = trace.jobs.iter().map(|j| j.overran).collect();
    let k = (k as usize).min(flags.len().max(1));
    if flags.is_empty() {
        return 0;
    }
    let mut in_window = flags[..k.min(flags.len())].iter().filter(|&&o| o).count();
    let mut worst = in_window;
    for i in k..flags.len() {
        in_window += usize::from(flags[i]);
        in_window -= usize::from(flags[i - k]);
        worst = worst.max(in_window);
    }
    worst as u32
}

/// Extracts the empirical weakly-hard contract of a trace for a window `K`.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn empirical_contract(trace: &ReleaseTrace, k: u32) -> WeaklyHard {
    WeaklyHard::new(max_overruns_in_window(trace, k).min(k), k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OverrunPolicy, Span};

    fn trace_from_pattern(pattern: &[bool]) -> ReleaseTrace {
        let policy = OverrunPolicy::new(Span::from_millis(10), 5).unwrap();
        let responses: Vec<Span> = pattern
            .iter()
            .map(|&over| {
                if over {
                    Span::from_millis(12)
                } else {
                    Span::from_millis(5)
                }
            })
            .collect();
        policy.apply(&responses).unwrap()
    }

    #[test]
    fn constraint_checking() {
        let wh = WeaklyHard::new(1, 3);
        assert!(wh.is_satisfied_by(&[false, true, false, false, true, false]));
        assert!(!wh.is_satisfied_by(&[true, false, true, false]));
        assert!(wh.is_satisfied_by(&[true])); // short pattern
        assert!(!WeaklyHard::new(0, 2).is_satisfied_by(&[false, true]));
    }

    #[test]
    #[should_panic(expected = "cannot exceed")]
    fn invalid_constraint_panics() {
        let _ = WeaklyHard::new(4, 3);
    }

    #[test]
    fn window_maximum() {
        let t = trace_from_pattern(&[false, true, true, false, false, true, false]);
        assert_eq!(max_overruns_in_window(&t, 2), 2); // the adjacent pair
        assert_eq!(max_overruns_in_window(&t, 7), 3);
        assert_eq!(max_overruns_in_window(&t, 1), 1);
    }

    #[test]
    fn empirical_contract_is_tight() {
        let t = trace_from_pattern(&[false, true, false, true, false, true]);
        let wh = empirical_contract(&t, 3);
        assert_eq!(wh, WeaklyHard::new(2, 3));
        let flags: Vec<bool> = t.jobs.iter().map(|j| j.overran).collect();
        assert!(wh.is_satisfied_by(&flags));
        // One tighter must fail.
        assert!(!WeaklyHard::new(1, 3).is_satisfied_by(&flags));
    }

    #[test]
    fn no_overruns_gives_zero_contract() {
        let t = trace_from_pattern(&[false; 10]);
        assert_eq!(empirical_contract(&t, 4), WeaklyHard::new(0, 4));
        assert_eq!(max_overruns_in_window(&t, 20), 0);
    }

    #[test]
    fn display_format() {
        assert_eq!(WeaklyHard::new(1, 5).to_string(), "(1, 5)");
    }
}
