//! Classical response-time analysis (RTA) for fixed-priority scheduling.

use crate::{Error, Result, Span, Task};

/// Total worst-case utilisation of a task set.
pub fn utilization(tasks: &[Task]) -> f64 {
    tasks.iter().map(Task::utilization).sum()
}

/// Worst-case response times under fixed-priority preemptive scheduling
/// (Joseph & Pandya / Audsley iteration), with the release-jitter extension:
///
/// ```text
/// R_i = C_i + Σ_{j ∈ hp(i)} ⌈(R_i + J_j) / T_j⌉ · C_j
/// ```
///
/// `J_j` is task `j`'s maximum release jitter
/// ([`crate::ArrivalModel::Jittered`]); sporadic slack only *increases*
/// separations beyond the minimum inter-arrival time, so the periodic term
/// remains a safe bound for [`crate::ArrivalModel::Sporadic`] interferers.
/// Tasks of **equal priority** are counted as mutual interference (the
/// scheduler breaks ties FIFO by release instant, so either task can delay
/// the other).
///
/// The iteration for a task is abandoned (and the task reported
/// unschedulable) when its response time exceeds `64 × period` — the paper's
/// setting tolerates overruns, so we deliberately allow `R > T`, but a
/// response time that keeps growing indicates an overloaded set for which
/// `Rmax` does not exist.
///
/// Returns one bound per task, in input order.
///
/// # Errors
///
/// * [`Error::InvalidConfig`] for an empty or invalid task set.
/// * [`Error::Unschedulable`] when an iteration diverges.
pub fn response_time_analysis(tasks: &[Task]) -> Result<Vec<Span>> {
    let Some(worst) = tasks.iter().max_by_key(|t| t.priority) else {
        return Err(Error::InvalidConfig("empty task set".into()));
    };
    for t in tasks {
        t.validate()?;
    }
    // With U > 1 the backlog grows without bound; the RTA fixed point (when
    // one exists) is meaningless because it only describes the first job of
    // a busy period that never ends.
    if utilization(tasks) > 1.0 + 1e-12 {
        return Err(Error::Unschedulable {
            task: worst.name.clone(),
        });
    }
    let mut result = Vec::with_capacity(tasks.len());
    for (i, task) in tasks.iter().enumerate() {
        let c_i = task.execution.wcet();
        let bound = task.period * 64;
        let mut r = c_i;
        loop {
            let mut next = c_i;
            for (j, other) in tasks.iter().enumerate() {
                if j != i && other.priority <= task.priority {
                    let jitter = match other.arrival {
                        crate::ArrivalModel::Jittered { jitter } => jitter,
                        _ => Span::ZERO,
                    };
                    let interference = other.execution.wcet() * (r + jitter).div_ceil(other.period);
                    next += interference;
                }
            }
            if next == r {
                break;
            }
            if next > bound {
                return Err(Error::Unschedulable {
                    task: task.name.clone(),
                });
            }
            r = next;
        }
        result.push(r);
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExecutionModel;

    fn task(name: &str, period_ms: u64, prio: u32, wcet_ms: u64) -> Task {
        Task::new(
            name,
            Span::from_millis(period_ms),
            prio,
            ExecutionModel::Constant(Span::from_millis(wcet_ms)),
        )
    }

    #[test]
    fn single_task_wcrt_is_wcet() {
        let r = response_time_analysis(&[task("t", 10, 0, 3)]).unwrap();
        assert_eq!(r, vec![Span::from_millis(3)]);
    }

    #[test]
    fn textbook_example() {
        // Classic Liu–Layland style set.
        let tasks = vec![
            task("t1", 4, 0, 1),
            task("t2", 6, 1, 2),
            task("t3", 20, 2, 3),
        ];
        let r = response_time_analysis(&tasks).unwrap();
        assert_eq!(r[0], Span::from_millis(1));
        // R2 = 2 + ⌈R2/4⌉·1 → R2 = 3
        assert_eq!(r[1], Span::from_millis(3));
        // R3 = 3 + ⌈R3/4⌉·1 + ⌈R3/6⌉·2 → fixed point:
        // try 3: 3+1+2=6; 6: 3+2+2=7; 7: 3+2+4=9; 9: 3+3+4=10; 10: 3+3+4=10 ✓
        assert_eq!(r[2], Span::from_millis(10));
    }

    #[test]
    fn response_can_exceed_period() {
        // Over-period response (an overrun in the paper's sense) is allowed
        // as long as total utilisation stays below one (U = 0.96 here).
        let tasks = vec![task("hp", 10, 0, 6), task("ctl", 25, 1, 9)];
        let r = response_time_analysis(&tasks).unwrap();
        // R_ctl = 9 + ⌈R/10⌉·6: 9→15→21→27→27 ✓
        assert_eq!(r[1], Span::from_millis(27));
        assert!(r[1] > tasks[1].period);
    }

    #[test]
    fn overload_detected() {
        let tasks = vec![task("a", 10, 0, 8), task("b", 10, 1, 8)];
        assert!(matches!(
            response_time_analysis(&tasks),
            Err(Error::Unschedulable { .. })
        ));
    }

    #[test]
    fn utilization_sum() {
        let tasks = vec![task("a", 10, 0, 2), task("b", 20, 1, 5)];
        assert!((utilization(&tasks) - 0.45).abs() < 1e-12);
    }

    #[test]
    fn empty_set_rejected() {
        assert!(response_time_analysis(&[]).is_err());
    }

    #[test]
    fn equal_priority_mutual_interference() {
        // Same priority: the scheduler breaks ties FIFO by release, so both
        // tasks can delay each other — RTA must count both directions.
        let tasks = vec![task("a", 10, 0, 2), task("b", 10, 0, 2)];
        let r = response_time_analysis(&tasks).unwrap();
        assert_eq!(r[0], Span::from_millis(4));
        assert_eq!(r[1], Span::from_millis(4));
    }

    #[test]
    fn jittered_interferer_inflates_bound() {
        use crate::ArrivalModel;
        // hp: C=1, T=5, J=1; ctl: C=4, T=10.
        // R = 4 + ceil((R+1)/5)*1: 4→5; ceil(6/5)=2→6; ceil(7/5)=2→6 ✓
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
            task("ctl", 10, 1, 4),
        ];
        let r = response_time_analysis(&tasks).unwrap();
        assert_eq!(r[1], Span::from_millis(6));
        // Without jitter the bound would be 5.
        let tasks_nj = vec![task("hp", 5, 0, 1), task("ctl", 10, 1, 4)];
        let r_nj = response_time_analysis(&tasks_nj).unwrap();
        assert_eq!(r_nj[1], Span::from_millis(5));
    }
}
