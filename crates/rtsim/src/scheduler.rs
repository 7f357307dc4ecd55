//! Event-driven fixed-priority preemptive scheduler.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::{Error, OverrunPolicy, ReleaseTrace, Result, Span, Task, TaskId, Time};

/// Configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Jobs are released while their release instant is strictly before the
    /// horizon; the run then drains the pending queue.
    pub horizon: Span,
    /// Seed for the per-run execution-time RNG (runs are reproducible).
    pub seed: u64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            horizon: Span::from_secs(1),
            seed: 0,
        }
    }
}

/// A completed job as recorded by the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedJob {
    /// Task that owns this job.
    pub task: TaskId,
    /// Release instant.
    pub release: Time,
    /// Completion instant.
    pub finish: Time,
    /// Response time (`finish − release`).
    pub response: Span,
    /// Execution demand that was served.
    pub executed: Span,
}

/// Per-task aggregate statistics of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskStats {
    /// Number of completed jobs.
    pub jobs: usize,
    /// Smallest observed response time.
    pub min_response: Span,
    /// Largest observed response time.
    pub max_response: Span,
    /// Mean response time in seconds.
    pub avg_response_secs: f64,
    /// Jobs whose response time exceeded the task period.
    pub overruns: usize,
}

/// Full result of a simulation run.
#[derive(Debug, Clone)]
pub struct ScheduleTrace {
    /// All completed jobs in completion order.
    pub jobs: Vec<CompletedJob>,
    task_count: usize,
}

impl ScheduleTrace {
    /// Response-time sequence of one task, in release order.
    pub fn response_times(&self, task: TaskId) -> Vec<Span> {
        let mut jobs: Vec<&CompletedJob> = self.jobs.iter().filter(|j| j.task == task).collect();
        jobs.sort_by_key(|j| j.release);
        jobs.iter().map(|j| j.response).collect()
    }

    /// Aggregate statistics for one task, or `None` when it completed no
    /// jobs.
    pub fn stats(&self, task: TaskId, period: Span) -> Option<TaskStats> {
        let responses = self.response_times(task);
        if responses.is_empty() {
            return None;
        }
        let min = responses.iter().copied().fold(responses[0], Span::min);
        let max = responses.iter().copied().fold(Span::ZERO, Span::max);
        let avg = responses.iter().map(|r| r.as_secs_f64()).sum::<f64>() / responses.len() as f64;
        let overruns = responses.iter().filter(|r| **r > period).count();
        Some(TaskStats {
            jobs: responses.len(),
            min_response: min,
            max_response: max,
            avg_response_secs: avg,
            overruns,
        })
    }

    /// Number of tasks that participated in the run.
    pub fn task_count(&self) -> usize {
        self.task_count
    }
}

/// Run state of one task.
struct TaskState {
    /// Next (pending) release instant, `None` once past the horizon or, for
    /// the adaptive task, while a job is still in flight.
    next_release: Option<Time>,
    /// Next nominal activation (the jitter-free grid point); release jitter
    /// is re-drawn per job relative to this, so it never accumulates.
    next_nominal: Time,
    /// Queue of released-but-unfinished jobs: (release, remaining,
    /// total-demand). Interferers may queue several; the adaptive control
    /// task never has more than one.
    queue: std::collections::VecDeque<(Time, Span, Span)>,
}

/// An event-driven, fixed-priority, preemptive single-core scheduler.
///
/// One task may be designated *adaptive* via
/// [`Scheduler::with_adaptive_task`]: its releases then follow the paper's
/// [`OverrunPolicy`] instead of strict periodicity — an overrunning job
/// suppresses the next release until the first sensor tick after its
/// completion.
///
/// # Example
///
/// ```
/// use overrun_rtsim::{ExecutionModel, Scheduler, SchedulerConfig, Span, Task};
///
/// # fn main() -> Result<(), overrun_rtsim::Error> {
/// let tasks = vec![
///     Task::new("interrupt", Span::from_millis(5), 0,
///               ExecutionModel::Constant(Span::from_millis(1))),
///     Task::new("control", Span::from_millis(10), 1,
///               ExecutionModel::Constant(Span::from_millis(4))),
/// ];
/// let sched = Scheduler::new(tasks)?;
/// let trace = sched.run(&SchedulerConfig { horizon: Span::from_millis(100), seed: 1 })?;
/// let ctl = sched.task_id("control").expect("task exists");
/// // Worst case: 4 ms own demand + 2 preemptions of 1 ms = 6 ms.
/// assert!(trace.response_times(ctl).iter().all(|r| *r <= Span::from_millis(6)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Scheduler {
    tasks: Vec<Task>,
    adaptive: Option<(TaskId, OverrunPolicy)>,
}

impl Scheduler {
    /// Creates a scheduler over a validated task set.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for an empty set or any invalid
    /// task.
    pub fn new(tasks: Vec<Task>) -> Result<Self> {
        if tasks.is_empty() {
            return Err(Error::InvalidConfig("empty task set".into()));
        }
        for t in &tasks {
            t.validate()?;
        }
        Ok(Scheduler {
            tasks,
            adaptive: None,
        })
    }

    /// Designates `task` as the overrun-adaptive control task with
    /// oversampling factor `ns`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for an unknown task id or an invalid
    /// grid (see [`OverrunPolicy::new`]).
    pub fn with_adaptive_task(mut self, task: TaskId, ns: u32) -> Result<Self> {
        let t = self
            .tasks
            .get(task.0)
            .ok_or_else(|| Error::InvalidConfig(format!("unknown task id {task}")))?;
        // The paper assumes the first sensor sampling is synchronised with
        // the first control release; an offset would put every release off
        // the sensor grid (and the rebuilt release timeline in
        // `run_control_trace` starts at t = 0).
        if !t.offset.is_zero() {
            return Err(Error::InvalidConfig(format!(
                "adaptive task `{}` must have zero offset (sensor-grid sync)",
                t.name
            )));
        }
        if !matches!(t.arrival, crate::ArrivalModel::Periodic) {
            return Err(Error::InvalidConfig(format!(
                "adaptive task `{}` must use the periodic arrival model;                  its releases are governed by the overrun policy",
                t.name
            )));
        }
        let policy = OverrunPolicy::new(t.period, ns)?;
        self.adaptive = Some((task, policy));
        Ok(self)
    }

    /// Looks up a task id by name.
    pub fn task_id(&self, name: &str) -> Option<TaskId> {
        self.tasks.iter().position(|t| t.name == name).map(TaskId)
    }

    /// The task definitions, in id order.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Runs the simulation.
    ///
    /// Jobs are released while their release instant is before
    /// `config.horizon`; the pending queue is then drained so every recorded
    /// job is complete.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invariant`] if the run exceeds an internal event
    /// budget (a sign of runaway utilisation).
    pub fn run(&self, config: &SchedulerConfig) -> Result<ScheduleTrace> {
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let horizon = Time::ZERO + config.horizon;
        let n = self.tasks.len();
        let mut states: Vec<TaskState> = self
            .tasks
            .iter()
            .map(|t| TaskState {
                next_release: Some(Time::ZERO + t.offset),
                next_nominal: Time::ZERO + t.offset,
                queue: std::collections::VecDeque::new(),
            })
            .collect();
        let mut jobs = Vec::new();
        let mut now = Time::ZERO;
        let mut events = 0usize;
        let event_budget = 100_000_000usize;

        loop {
            events += 1;
            if events > event_budget {
                return Err(Error::Invariant(
                    "event budget exceeded; task set appears overloaded beyond recovery".into(),
                ));
            }
            // Release every job due at or before `now`.
            for (i, st) in states.iter_mut().enumerate() {
                while let Some(rel) = st.next_release {
                    if rel > now || rel >= horizon {
                        break;
                    }
                    let demand = self.tasks[i].execution.sample(&mut rng);
                    st.queue.push_back((rel, demand, demand));
                    match &self.adaptive {
                        Some((id, _)) if id.0 == i => {
                            // Adaptive task: next release decided at completion.
                            st.next_release = None;
                        }
                        _ => {
                            // Advance the nominal grid by the (possibly
                            // random) separation, then add fresh jitter —
                            // jitter is relative to the grid and never
                            // accumulates.
                            let sep = self.tasks[i].next_separation(&mut rng);
                            let jitter = self.tasks[i].release_jitter(&mut rng);
                            st.next_nominal += sep;
                            st.next_release = Some(st.next_nominal + jitter);
                        }
                    }
                }
            }

            // Highest-priority pending job (priority, then release, then id).
            let running = (0..n)
                .filter(|i| !states[*i].queue.is_empty())
                .min_by_key(|i| {
                    let (rel, _, _) = states[*i].queue[0];
                    (self.tasks[*i].priority, rel, *i)
                });

            // Earliest strictly-future release event.
            let next_release = states
                .iter()
                .filter_map(|s| s.next_release)
                .filter(|r| *r < horizon)
                .min();

            match running {
                None => match next_release {
                    Some(r) => {
                        now = now.max(r);
                    }
                    None => break, // idle and nothing left to release
                },
                Some(i) => {
                    let (release, remaining, demand) = states[i].queue[0];
                    let completion = now + remaining;
                    // Run until completion or the next release (which may
                    // preempt), whichever comes first.
                    let until = match next_release {
                        Some(r) if r < completion && r > now => r,
                        _ => completion,
                    };
                    let ran = until.duration_since(now);
                    if until == completion {
                        states[i].queue.pop_front();
                        jobs.push(CompletedJob {
                            task: TaskId(i),
                            release,
                            finish: completion,
                            response: completion.duration_since(release),
                            executed: demand,
                        });
                        // Adaptive task: compute the next release now.
                        if let Some((id, policy)) = &self.adaptive {
                            if id.0 == i {
                                let response = completion.duration_since(release);
                                let interval = policy.next_interval(response)?;
                                let next = release + interval;
                                if next < horizon {
                                    states[i].next_release = Some(next);
                                }
                            }
                        }
                    } else {
                        states[i].queue[0] = (release, remaining - ran, demand);
                    }
                    now = until;
                }
            }
        }

        Ok(ScheduleTrace {
            jobs,
            task_count: n,
        })
    }

    /// Runs the simulation and extracts the adaptive control task's release
    /// trace (requires [`Scheduler::with_adaptive_task`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when no adaptive task is configured,
    /// plus any [`Scheduler::run`] error.
    pub fn run_control_trace(&self, config: &SchedulerConfig) -> Result<ReleaseTrace> {
        let (id, policy) = self
            .adaptive
            .as_ref()
            .ok_or_else(|| Error::InvalidConfig("no adaptive task configured".into()))?;
        let trace = self.run(config)?;
        let responses = trace.response_times(*id);
        policy.apply(&responses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExecutionModel;

    fn constant(ms: u64) -> ExecutionModel {
        ExecutionModel::Constant(Span::from_millis(ms))
    }

    #[test]
    fn single_task_runs_periodically() {
        let sched =
            Scheduler::new(vec![Task::new("t", Span::from_millis(10), 0, constant(3))]).unwrap();
        let trace = sched
            .run(&SchedulerConfig {
                horizon: Span::from_millis(100),
                seed: 0,
            })
            .unwrap();
        let id = sched.task_id("t").unwrap();
        let rs = trace.response_times(id);
        assert_eq!(rs.len(), 10);
        assert!(rs.iter().all(|r| *r == Span::from_millis(3)));
        let stats = trace.stats(id, Span::from_millis(10)).unwrap();
        assert_eq!(stats.jobs, 10);
        assert_eq!(stats.overruns, 0);
        assert_eq!(stats.min_response, Span::from_millis(3));
        assert_eq!(stats.max_response, Span::from_millis(3));
        assert!((stats.avg_response_secs - 0.003).abs() < 1e-12);
    }

    #[test]
    fn blocking_shifts_low_priority_start() {
        // High-priority 1 ms every 5 ms; low-priority 4 ms every 10 ms.
        // t=0: hp runs [0,1), lp runs [1,5) and completes exactly as the
        // second hp job arrives ⇒ R_lp = 5 ms (hp demand 1 ms + own 4 ms).
        let sched = Scheduler::new(vec![
            Task::new("hp", Span::from_millis(5), 0, constant(1)),
            Task::new("lp", Span::from_millis(10), 1, constant(4)),
        ])
        .unwrap();
        let trace = sched
            .run(&SchedulerConfig {
                horizon: Span::from_millis(50),
                seed: 0,
            })
            .unwrap();
        let lp = sched.task_id("lp").unwrap();
        let rs = trace.response_times(lp);
        assert!(!rs.is_empty());
        assert!(rs.iter().all(|r| *r == Span::from_millis(5)), "{rs:?}");
    }

    #[test]
    fn preemption_inflates_low_priority_response() {
        // hp: 2 ms every 5 ms; lp: 4 ms every 10 ms.
        // t=0: hp [0,2), lp [2,5), preempted by hp [5,7), lp [7,8) ⇒ R = 8.
        let sched = Scheduler::new(vec![
            Task::new("hp", Span::from_millis(5), 0, constant(2)),
            Task::new("lp", Span::from_millis(10), 1, constant(4)),
        ])
        .unwrap();
        let trace = sched
            .run(&SchedulerConfig {
                horizon: Span::from_millis(50),
                seed: 0,
            })
            .unwrap();
        let lp = sched.task_id("lp").unwrap();
        let rs = trace.response_times(lp);
        assert!(!rs.is_empty());
        assert!(rs.iter().all(|r| *r == Span::from_millis(8)), "{rs:?}");
    }

    #[test]
    fn response_times_match_rta_bound() {
        let tasks = vec![
            Task::new("t0", Span::from_millis(4), 0, constant(1)),
            Task::new("t1", Span::from_millis(6), 1, constant(2)),
            Task::new("t2", Span::from_millis(20), 2, constant(3)),
        ];
        let wcrt = crate::response_time_analysis(&tasks).unwrap();
        let sched = Scheduler::new(tasks).unwrap();
        let trace = sched
            .run(&SchedulerConfig {
                horizon: Span::from_millis(600),
                seed: 0,
            })
            .unwrap();
        for (i, bound) in wcrt.iter().enumerate() {
            let rs = trace.response_times(TaskId(i));
            assert!(
                rs.iter().all(|r| *r <= *bound),
                "task {i}: observed {:?} > bound {bound}",
                rs.iter().max(),
            );
        }
        // The synchronous release (critical instant) is simulated at t = 0,
        // so the first job of the lowest-priority task attains its WCRT.
        let rs2 = trace.response_times(TaskId(2));
        assert_eq!(rs2[0], wcrt[2]);
    }

    #[test]
    fn adaptive_task_defers_release_after_overrun() {
        // Control task alone with a demand that exceeds its period on the
        // first job only (uniform degenerate via bimodal not needed — use a
        // high-priority interferer burst instead).
        let tasks = vec![
            Task::new("burst", Span::from_millis(100), 0, constant(8)),
            Task::new("ctl", Span::from_millis(10), 1, constant(4)),
        ];
        let sched = Scheduler::new(tasks).unwrap();
        let ctl = sched.task_id("ctl").unwrap();
        let sched = sched.with_adaptive_task(ctl, 5).unwrap();
        let trace = sched
            .run(&SchedulerConfig {
                horizon: Span::from_millis(100),
                seed: 0,
            })
            .unwrap();
        let rs = trace.response_times(ctl);
        // First job: preempted by 8 ms burst ⇒ R = 12 ms (> T = 10 ms).
        assert_eq!(rs[0], Span::from_millis(12));
        // Its successor must be released at ⌈12/2⌉·2 = 12 ms, not at 10 ms.
        let jobs: Vec<_> = trace.jobs.iter().filter(|j| j.task == ctl).collect();
        assert_eq!(jobs[1].release, Time::from_nanos(12_000_000));
        // Subsequent jobs are undisturbed.
        assert!(rs[1..].iter().all(|r| *r == Span::from_millis(4)));
    }

    #[test]
    fn run_control_trace_satisfies_invariants() {
        let tasks = vec![
            Task::new(
                "noise",
                Span::from_millis(7),
                0,
                ExecutionModel::Uniform {
                    min: Span::from_millis(1),
                    max: Span::from_millis(3),
                },
            ),
            Task::new("ctl", Span::from_millis(10), 1, constant(5)),
        ];
        let sched = Scheduler::new(tasks).unwrap();
        let ctl = sched.task_id("ctl").unwrap();
        let sched = sched.with_adaptive_task(ctl, 5).unwrap();
        let trace = sched
            .run_control_trace(&SchedulerConfig {
                horizon: Span::from_secs(2),
                seed: 3,
            })
            .unwrap();
        assert!(trace.jobs.len() > 100);
        trace.check_invariants().unwrap();
    }

    #[test]
    fn run_control_trace_requires_adaptive_task() {
        let sched =
            Scheduler::new(vec![Task::new("t", Span::from_millis(10), 0, constant(1))]).unwrap();
        assert!(sched
            .run_control_trace(&SchedulerConfig::default())
            .is_err());
    }

    #[test]
    fn empty_task_set_rejected() {
        assert!(Scheduler::new(vec![]).is_err());
    }

    #[test]
    fn unknown_adaptive_id_rejected() {
        let sched =
            Scheduler::new(vec![Task::new("t", Span::from_millis(10), 0, constant(1))]).unwrap();
        assert!(sched.with_adaptive_task(TaskId(5), 2).is_err());
    }

    #[test]
    fn deterministic_runs_same_seed() {
        let mk = || {
            let tasks = vec![
                Task::new(
                    "a",
                    Span::from_millis(5),
                    0,
                    ExecutionModel::Uniform {
                        min: Span::from_micros(500),
                        max: Span::from_millis(2),
                    },
                ),
                Task::new("b", Span::from_millis(10), 1, constant(3)),
            ];
            Scheduler::new(tasks).unwrap()
        };
        let cfg = SchedulerConfig {
            horizon: Span::from_millis(500),
            seed: 99,
        };
        let t1 = mk().run(&cfg).unwrap();
        let t2 = mk().run(&cfg).unwrap();
        assert_eq!(t1.jobs, t2.jobs);
        assert_eq!(t1.task_count(), 2);
    }

    #[test]
    fn offsets_shift_first_release() {
        let tasks =
            vec![Task::new("t", Span::from_millis(10), 0, constant(1))
                .with_offset(Span::from_millis(4))];
        let sched = Scheduler::new(tasks).unwrap();
        let trace = sched
            .run(&SchedulerConfig {
                horizon: Span::from_millis(30),
                seed: 0,
            })
            .unwrap();
        assert_eq!(trace.jobs[0].release, Time::from_nanos(4_000_000));
    }
}

#[cfg(test)]
mod arrival_tests {
    use super::*;
    use crate::{ArrivalModel, ExecutionModel};

    #[test]
    fn jitter_does_not_accumulate() {
        // One jittered task: every release must lie in [kT, kT + J].
        let period = Span::from_millis(10);
        let jitter = Span::from_millis(2);
        let tasks = vec![Task::new(
            "j",
            period,
            0,
            ExecutionModel::Constant(Span::from_millis(1)),
        )
        .with_arrival(ArrivalModel::Jittered { jitter })];
        let sched = Scheduler::new(tasks).unwrap();
        let trace = sched
            .run(&SchedulerConfig {
                horizon: Span::from_secs(2),
                seed: 5,
            })
            .unwrap();
        let id = sched.task_id("j").unwrap();
        let mut releases: Vec<Time> = trace
            .jobs
            .iter()
            .filter(|j| j.task == id)
            .map(|j| j.release)
            .collect();
        releases.sort();
        assert!(releases.len() > 150);
        for (k, rel) in releases.iter().enumerate() {
            let nominal = Time::ZERO + period * k as u64;
            assert!(*rel >= nominal, "release {k} before its grid point");
            assert!(
                *rel <= nominal + jitter,
                "release {k} drifted: {rel} vs nominal {nominal}"
            );
        }
    }

    #[test]
    fn sporadic_separations_respect_minimum() {
        let period = Span::from_millis(10);
        let tasks = vec![Task::new(
            "s",
            period,
            0,
            ExecutionModel::Constant(Span::from_millis(1)),
        )
        .with_arrival(ArrivalModel::Sporadic {
            max_slack: Span::from_millis(5),
        })];
        let sched = Scheduler::new(tasks).unwrap();
        let trace = sched
            .run(&SchedulerConfig {
                horizon: Span::from_secs(2),
                seed: 9,
            })
            .unwrap();
        let id = sched.task_id("s").unwrap();
        let mut releases: Vec<Time> = trace
            .jobs
            .iter()
            .filter(|j| j.task == id)
            .map(|j| j.release)
            .collect();
        releases.sort();
        assert!(releases.len() > 100);
        let mut saw_slack = false;
        for w in releases.windows(2) {
            let sep = w[1].duration_since(w[0]);
            assert!(sep >= period, "separation {sep} below the minimum");
            assert!(sep <= period + Span::from_millis(5));
            if sep > period {
                saw_slack = true;
            }
        }
        assert!(saw_slack, "sporadic slack never drawn");
    }

    #[test]
    fn jittered_interference_still_bounded_by_rta_with_jitter_term() {
        // Jittered high-priority task: the control task's worst response is
        // bounded by RTA with the interferer's jitter folded in
        // (R = C + Σ ⌈(R + J)/T⌉ C). We check against the simulated worst.
        let tasks = vec![
            Task::new(
                "hp",
                Span::from_millis(5),
                0,
                ExecutionModel::Constant(Span::from_millis(1)),
            )
            .with_arrival(ArrivalModel::Jittered {
                jitter: Span::from_millis(1),
            }),
            Task::new(
                "ctl",
                Span::from_millis(10),
                1,
                ExecutionModel::Constant(Span::from_millis(4)),
            ),
        ];
        let sched = Scheduler::new(tasks).unwrap();
        let trace = sched
            .run(&SchedulerConfig {
                horizon: Span::from_secs(5),
                seed: 13,
            })
            .unwrap();
        let ctl = sched.task_id("ctl").unwrap();
        let worst = trace
            .response_times(ctl)
            .into_iter()
            .fold(Span::ZERO, Span::max);
        // Jitter-aware RTA: R = 4 + ⌈(R+1)/5⌉·1 → R = 6.
        assert!(worst <= Span::from_millis(6), "worst = {worst}");
    }
}

#[cfg(test)]
mod adaptive_validation_tests {
    use super::*;
    use crate::{ArrivalModel, ExecutionModel};

    #[test]
    fn adaptive_task_with_offset_rejected() {
        let tasks = vec![Task::new(
            "ctl",
            Span::from_millis(10),
            0,
            ExecutionModel::Constant(Span::from_millis(2)),
        )
        .with_offset(Span::from_millis(3))];
        let sched = Scheduler::new(tasks).unwrap();
        let id = sched.task_id("ctl").unwrap();
        assert!(sched.with_adaptive_task(id, 5).is_err());
    }

    #[test]
    fn adaptive_task_with_jitter_rejected() {
        let tasks = vec![Task::new(
            "ctl",
            Span::from_millis(10),
            0,
            ExecutionModel::Constant(Span::from_millis(2)),
        )
        .with_arrival(ArrivalModel::Jittered {
            jitter: Span::from_millis(1),
        })];
        let sched = Scheduler::new(tasks).unwrap();
        let id = sched.task_id("ctl").unwrap();
        assert!(sched.with_adaptive_task(id, 5).is_err());
    }

    #[test]
    fn zero_bcet_models_rejected_at_task_validation() {
        let t = Task::new(
            "z",
            Span::from_millis(10),
            0,
            ExecutionModel::Uniform {
                min: Span::ZERO,
                max: Span::from_millis(2),
            },
        );
        assert!(t.validate().is_err());
    }
}
