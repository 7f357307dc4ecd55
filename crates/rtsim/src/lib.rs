//! A small real-time systems simulator for control-task timing studies.
//!
//! This crate provides the *platform substrate* of the DATE 2021 paper
//! reproduction: everything needed to generate realistic response-time
//! sequences for a control task running on a shared, fixed-priority,
//! preemptive single-core platform, plus the paper's **overrun-adaptive
//! release policy** (Sec. IV-A):
//!
//! * exact integer-nanosecond time arithmetic ([`Time`], [`Span`]),
//! * task models with stochastic execution times ([`Task`],
//!   [`ExecutionModel`] — including a bimodal "sporadic overrun" model),
//! * an event-driven fixed-priority preemptive [`Scheduler`],
//! * classical response-time analysis ([`response_time_analysis`]) to obtain
//!   the worst-case response time `Rmax` that parameterises the set `H`,
//! * the continuous-stream-inspired release policy ([`OverrunPolicy`])
//!   producing per-job intervals `h_k = T + Δ_k`, and
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
mod exec;
mod overrun;
mod rta;
mod scheduler;
mod sequence;
mod task;
mod time;
mod trace;
pub mod weakly_hard;

pub use error::Error;
pub use exec::ExecutionModel;
pub use overrun::{JobRecord, OverrunPolicy, ReleaseTrace};
pub use rta::{response_time_analysis, utilization};
pub use scheduler::{ScheduleTrace, Scheduler, SchedulerConfig, TaskStats};
pub use sequence::{ResponseTimeModel, SequenceGenerator};
pub use task::{ArrivalModel, Task, TaskId};
pub use time::{Span, Time};
pub use trace::{gantt, render_timeline, trace_to_csv, TimelineOptions};
pub use weakly_hard::{empirical_contract, max_overruns_in_window, WeaklyHard};

/// Convenience alias for `Result<T, overrun_rtsim::Error>`.
pub type Result<T> = std::result::Result<T, Error>;
