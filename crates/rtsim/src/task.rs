//! Task model for the fixed-priority platform.

use rand::Rng;

use crate::{Error, ExecutionModel, Result, Span};

/// Opaque identifier of a task inside a [`crate::Scheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub(crate) usize);

impl TaskId {
    /// Index of the task in its task set (creation order).
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task#{}", self.0)
    }
}

/// Release pattern of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ArrivalModel {
    /// Strictly periodic releases.
    Periodic,
    /// Periodic releases delayed by a per-job random jitter uniform in
    /// `[0, jitter]` (release jitter never moves a release earlier, so the
    /// RTA bound with the jitter term stays valid).
    Jittered {
        /// Maximum release jitter.
        jitter: Span,
    },
    /// Sporadic releases: consecutive releases separated by the *minimum*
    /// inter-arrival time (the task period) plus a random slack uniform in
    /// `[0, max_slack]`. The period acts as the minimum inter-arrival time
    /// of the classic sporadic model, so periodic RTA remains a safe bound.
    Sporadic {
        /// Maximum extra separation beyond the minimum inter-arrival time.
        max_slack: Span,
    },
}

/// A recurrent task on the shared platform.
///
/// Priorities follow the usual real-time convention: **lower number = higher
/// priority**. The control task under study is typically *not* the highest
/// priority task — that is precisely how it accumulates interference and
/// sporadically overruns.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Human-readable name (used in error messages and traces).
    pub name: String,
    /// Activation period (minimum inter-arrival time for sporadic tasks).
    pub period: Span,
    /// Release offset of the first job.
    pub offset: Span,
    /// Fixed priority; lower value preempts higher value.
    pub priority: u32,
    /// Execution-time model sampled per job.
    pub execution: ExecutionModel,
    /// Release pattern.
    pub arrival: ArrivalModel,
}

impl Task {
    /// Creates a periodic task with zero offset.
    pub fn new(
        name: impl Into<String>,
        period: Span,
        priority: u32,
        execution: ExecutionModel,
    ) -> Self {
        Task {
            name: name.into(),
            period,
            offset: Span::ZERO,
            priority,
            execution,
            arrival: ArrivalModel::Periodic,
        }
    }

    /// Builder-style setter for the release offset.
    #[must_use]
    pub fn with_offset(mut self, offset: Span) -> Self {
        self.offset = offset;
        self
    }

    /// Builder-style setter for the arrival model.
    #[must_use]
    pub fn with_arrival(mut self, arrival: ArrivalModel) -> Self {
        self.arrival = arrival;
        self
    }

    /// Draws the separation between one nominal release and the next
    /// according to the arrival model.
    pub(crate) fn next_separation<R: Rng + ?Sized>(&self, rng: &mut R) -> Span {
        match self.arrival {
            ArrivalModel::Periodic | ArrivalModel::Jittered { .. } => self.period,
            ArrivalModel::Sporadic { max_slack } => {
                if max_slack.is_zero() {
                    self.period
                } else {
                    self.period + Span::from_nanos(rng.gen_range(0..=max_slack.as_nanos()))
                }
            }
        }
    }

    /// Draws the release jitter added on top of the nominal release.
    pub(crate) fn release_jitter<R: Rng + ?Sized>(&self, rng: &mut R) -> Span {
        match self.arrival {
            ArrivalModel::Jittered { jitter } if !jitter.is_zero() => {
                Span::from_nanos(rng.gen_range(0..=jitter.as_nanos()))
            }
            _ => Span::ZERO,
        }
    }

    /// Validates the task parameters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for a zero period or an invalid
    /// execution model.
    pub fn validate(&self) -> Result<()> {
        if self.period.is_zero() {
            return Err(Error::InvalidConfig(format!(
                "task `{}` has zero period",
                self.name
            )));
        }
        self.execution.validate()
    }

    /// Worst-case utilisation `C_max / T`.
    pub fn utilization(&self) -> f64 {
        self.execution.wcet().as_secs_f64() / self.period.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_validation() {
        let t = Task::new(
            "ctl",
            Span::from_millis(10),
            2,
            ExecutionModel::Constant(Span::from_millis(4)),
        )
        .with_offset(Span::from_millis(1));
        t.validate().unwrap();
        assert_eq!(t.offset, Span::from_millis(1));
        assert!((t.utilization() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn zero_period_rejected() {
        let t = Task::new(
            "bad",
            Span::ZERO,
            1,
            ExecutionModel::Constant(Span::from_millis(1)),
        );
        assert!(t.validate().is_err());
    }

    #[test]
    fn task_id_display() {
        assert_eq!(TaskId(3).to_string(), "task#3");
        assert_eq!(TaskId(3).index(), 3);
    }
}
