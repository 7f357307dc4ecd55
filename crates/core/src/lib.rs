//! Adaptive real-time control design under sporadic overruns.
//!
//! This crate is a from-scratch Rust reproduction of
//! *"Adaptive Design of Real-Time Control Systems subject to Sporadic
//! Overruns"* (P. Pazzaglia, A. Hamann, D. Ziegenbein, M. Maggio — DATE
//! 2021). It implements the paper's primary contribution end-to-end:
//!
//! 1. **System model** (paper Sec. III) — continuous LTI plants
//!    ([`ContinuousSs`]) sampled with zero-order hold over the admissible
//!    inter-release intervals `h ∈ H` ([`IntervalSet`], paper Eq. 3/5).
//! 2. **Adaptive control design** (Sec. IV) — one controller mode per
//!    interval in `H` ([`ControllerTable`]): an adaptive [`pi`] controller
//!    whose integrator advances by the *actual* elapsed interval (Eq. 7),
//!    and an adaptive delayed-[`lqr`] design solving one Riccati equation
//!    per interval.
//! 3. **Exact stability analysis** (Sec. V) — the lifted closed loop
//!    `ξ(k+1) = Ω(h_k) ξ(k)` ([`lifted::build_omega`]) and a joint-spectral-
//!    radius certificate ([`stability::certify`]) via `overrun-jsr`.
//! 4. **Evaluation machinery** (Sec. VI) — a closed-loop simulator driven by
//!    response-time sequences ([`sim::ClosedLoopSim`]), worst-case cost
//!    metrics ([`metrics`]), and the full Table I / Table II scenario
//!    drivers ([`scenarios`]).
//!
//! # Quickstart
//!
//! ```
//! use overrun_control::prelude::*;
//!
//! # fn main() -> Result<(), overrun_control::Error> {
//! // An unstable plant controlled with T = 10 ms, overruns up to 1.3 T,
//! // sensor oversampling Ts = T/2.
//! let plant = plants::unstable_second_order();
//! let hset = IntervalSet::from_timing(0.010, 0.013, 2)?;
//! let table = pi::design_adaptive(&plant, &hset)?;
//! let report = stability::certify(&plant, &table, &Default::default())?;
//! assert!(report.bounds.certifies_stable());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod controller;
mod error;
mod hset;
mod lti;

pub mod lifted;
pub mod lqr;
pub mod metrics;
pub mod pi;
pub mod plants;
pub mod scenarios;
pub mod sim;
pub mod stability;

pub use controller::{ControllerMode, ControllerTable};
pub use error::Error;
pub use hset::IntervalSet;
pub use lti::{ContinuousSs, DiscreteSs};

/// Convenience alias for `Result<T, overrun_control::Error>`.
pub type Result<T> = std::result::Result<T, Error>;

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use crate::{
        lifted, lqr, metrics, pi, plants, scenarios, sim, stability, ContinuousSs, ControllerMode,
        ControllerTable, DiscreteSs, IntervalSet,
    };
}
