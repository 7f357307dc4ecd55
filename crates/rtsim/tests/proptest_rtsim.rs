//! Property-based tests for the overrun release policy and the
//! response-time sequence generators: structural invariants of the
//! intervals, traces and sequences they produce.

use overrun_rtsim::{OverrunPolicy, ResponseTimeModel, SequenceGenerator, Span};
use proptest::prelude::*;

prop_compose! {
    /// A valid overrun policy: period divisible by the grid.
    fn policy()(ns in 1u32..10, ts_us in 100u64..5000) -> OverrunPolicy {
        OverrunPolicy::new(Span::from_micros(ts_us * ns as u64), ns).expect("divisible grid")
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every induced interval lies in the predicted set `H` and on the
    /// sensor grid; `h ≥ T`; `h ≥ R` for overruns.
    #[test]
    fn intervals_always_in_h(policy in policy(), r_us in 1u64..100_000) {
        let r = Span::from_micros(r_us);
        let h = policy.next_interval(r).unwrap();
        prop_assert!(h >= policy.period());
        // On the grid: (h − T) is a multiple of Ts.
        let excess = h - policy.period();
        prop_assert_eq!(excess.as_nanos() % policy.sensor_period().as_nanos(), 0);
        // The overrunning job always completes before the next release.
        if r > policy.period() {
            prop_assert!(h >= r);
        } else {
            prop_assert_eq!(h, policy.period());
        }
        // Membership in H computed from any Rmax ≥ R.
        let hset = policy.interval_set(r.max(policy.period())).unwrap();
        prop_assert!(hset.contains(&h));
    }

    /// `interval_set` is monotone in `Rmax` (prefix property) — the
    /// foundation of the deployment check.
    #[test]
    fn interval_set_monotone(policy in policy(), a_us in 1u64..50_000, b_us in 1u64..50_000) {
        let (small, large) = if a_us <= b_us { (a_us, b_us) } else { (b_us, a_us) };
        let hs = policy.interval_set(Span::from_micros(small)).unwrap();
        let hl = policy.interval_set(Span::from_micros(large)).unwrap();
        prop_assert!(hs.len() <= hl.len());
        prop_assert_eq!(&hl[..hs.len()], &hs[..]);
        prop_assert!(policy.deployment_compatible(Span::from_micros(large), Span::from_micros(small)).unwrap());
    }

    /// Applying the policy to any response sequence yields a trace that
    /// passes its own invariant checker.
    #[test]
    fn traces_satisfy_invariants(policy in policy(),
                                 responses_us in prop::collection::vec(1u64..60_000, 1..40)) {
        let responses: Vec<Span> = responses_us.iter().map(|&u| Span::from_micros(u)).collect();
        let trace = policy.apply(&responses).unwrap();
        trace.check_invariants().unwrap();
        prop_assert_eq!(trace.jobs.len(), responses.len());
        // Releases are strictly increasing.
        for w in trace.jobs.windows(2) {
            prop_assert!(w[1].release > w[0].release);
        }
    }

    /// Generated response sequences respect their model envelope.
    #[test]
    fn sequence_generator_envelope(seed in 0u64..1000, min_us in 100u64..1000, spread_us in 1u64..20_000) {
        let min = Span::from_micros(min_us);
        let max = Span::from_micros(min_us + spread_us);
        let mut g = SequenceGenerator::new(ResponseTimeModel::Uniform { min, max }, seed).unwrap();
        for r in g.sequence(200) {
            prop_assert!(r >= min && r <= max);
        }
    }
}
