//! Exact-time model of the paper's **overrun-adaptive release policy**
//! (Sec. IV-A) for a control task whose worst-case response time `Rmax`
//! is given:
//!
//! * exact integer-nanosecond time arithmetic ([`Time`], [`Span`]),
//! * the continuous-stream-inspired release policy ([`OverrunPolicy`])
//!   producing per-job intervals `h_k = T + Δ_k ∈ H` (Eq. 3), with the
//!   Sec. V-B deployment check `H̃ ⊆ H`
//!   ([`OverrunPolicy::deployment_compatible`]), and
//! * timeline rendering ([`render_timeline`]) reproducing Figure 1.
//!
//! # Example
//!
//! ```
//! use overrun_rtsim::{OverrunPolicy, Span};
//!
//! # fn main() -> Result<(), overrun_rtsim::Error> {
//! let policy = OverrunPolicy::new(Span::from_millis(10), 5)?; // T = 10 ms, Ns = 5
//! // A job that finishes within T keeps the nominal period...
//! assert_eq!(policy.next_interval(Span::from_millis(7))?, Span::from_millis(10));
//! // ...an overrunning job defers the next release to the sensor grid.
//! assert_eq!(policy.next_interval(Span::from_millis(11))?, Span::from_millis(12));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod error;
mod overrun;
mod time;
mod trace;

pub use error::Error;
pub use overrun::{JobRecord, OverrunPolicy, ReleaseTrace};
pub use time::{Span, Time};
pub use trace::{render_timeline, trace_to_csv, TimelineOptions};

/// Convenience alias for `Result<T, overrun_rtsim::Error>`.
pub type Result<T> = std::result::Result<T, Error>;
