//! Timeline rendering (reproduces Figure 1 of the paper).

use crate::{ReleaseTrace, Result};

/// Options for [`render_timeline`].
#[derive(Debug, Clone)]
pub struct TimelineOptions {
    /// Characters per sensor period `Ts` (horizontal resolution).
    pub cols_per_sensor_tick: usize,
    /// Maximum number of jobs rendered.
    pub max_jobs: usize,
}

impl Default for TimelineOptions {
    fn default() -> Self {
        TimelineOptions {
            cols_per_sensor_tick: 3,
            max_jobs: 12,
        }
    }
}

/// Renders an ASCII timeline of a control-job trace in the style of the
/// paper's Figure 1: a `sensing` row with the oversampled grid, a
/// `computing` row with job executions (`#` = running, `.` = waiting past an
/// overrun), and a `releases` row marking the release instants.
///
/// # Errors
///
/// Propagates invariant violations from [`ReleaseTrace::check_invariants`].
///
/// # Example
///
/// ```
/// use overrun_rtsim::{render_timeline, OverrunPolicy, Span, TimelineOptions};
///
/// # fn main() -> Result<(), overrun_rtsim::Error> {
/// let policy = OverrunPolicy::new(Span::from_millis(8), 8)?;
/// let trace = policy.apply(&[
///     Span::from_millis(6),
///     Span::from_micros(9_500), // overrun
///     Span::from_millis(7),
/// ])?;
/// let art = render_timeline(&trace, &TimelineOptions::default())?;
/// assert!(art.contains("sensing"));
/// assert!(art.contains("computing"));
/// # Ok(())
/// # }
/// ```
pub fn render_timeline(trace: &ReleaseTrace, opts: &TimelineOptions) -> Result<String> {
    trace.check_invariants()?;
    let jobs = &trace.jobs[..trace.jobs.len().min(opts.max_jobs)];
    let Some(end) = jobs
        .iter()
        .map(|j| (j.release + j.interval).as_nanos().max(j.finish.as_nanos()))
        .max()
    else {
        return Ok(String::from("(empty trace)\n"));
    };
    let ts: crate::Span = trace.sensor_period;
    let cols_per_tick = opts.cols_per_sensor_tick.max(1);
    let total_ticks = (end.div_ceil(ts.as_nanos())) as usize + 1;
    let width = total_ticks * cols_per_tick + 1;

    let col_of = |ns: u64| -> usize {
        ((ns as u128 * cols_per_tick as u128) / ts.as_nanos() as u128) as usize
    };

    let mut sensing = vec![' '; width];
    for t in 0..total_ticks {
        sensing[t * cols_per_tick] = '|';
    }

    let mut computing = vec![' '; width];
    let mut releases = vec![' '; width];
    for job in jobs {
        let rel = col_of(job.release.as_nanos());
        let fin = col_of(job.finish.as_nanos());
        releases[rel.min(width - 1)] = '^';
        for c in computing.iter_mut().take(fin.min(width - 1) + 1).skip(rel) {
            *c = '#';
        }
        // Waiting gap after an overrun: finish .. next release.
        if job.overran {
            let next_rel = col_of((job.release + job.interval).as_nanos());
            for c in computing
                .iter_mut()
                .take(next_rel.min(width - 1))
                .skip(fin + 1)
            {
                *c = '.';
            }
        }
    }

    let mut out = String::new();
    out.push_str(&format!(
        "T = {}, Ts = {} (Ns = {}), {} jobs, {} overruns\n",
        trace.period,
        ts,
        trace.period.checked_div_exact(ts).unwrap_or_default(),
        jobs.len(),
        jobs.iter().filter(|j| j.overran).count(),
    ));
    for (label, row) in [
        ("sensing   ", sensing),
        ("computing ", computing),
        ("releases  ", releases),
    ] {
        out.push_str(label);
        out.extend(row);
        out.push('\n');
    }
    Ok(out)
}

/// Serialises a trace as CSV (`job,release_s,finish_s,response_s,h_s,delta_s,overrun`).
pub fn trace_to_csv(trace: &ReleaseTrace) -> String {
    let mut out = String::from("job,release_s,finish_s,response_s,h_s,delta_s,overrun\n");
    for j in &trace.jobs {
        out.push_str(&format!(
            "{},{:.9},{:.9},{:.9},{:.9},{:.9},{}\n",
            j.index,
            j.release.as_secs_f64(),
            j.finish.as_secs_f64(),
            j.response.as_secs_f64(),
            j.interval.as_secs_f64(),
            j.delta.as_secs_f64(),
            j.overran as u8,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OverrunPolicy, Span};

    fn example_trace() -> ReleaseTrace {
        let policy = OverrunPolicy::new(Span::from_millis(8), 8).unwrap();
        policy
            .apply(&[
                Span::from_millis(6),
                Span::from_micros(9_500),
                Span::from_millis(7),
            ])
            .unwrap()
    }

    #[test]
    fn renders_rows() {
        let art = render_timeline(&example_trace(), &TimelineOptions::default()).unwrap();
        assert!(art.contains("sensing"));
        assert!(art.contains("computing"));
        assert!(art.contains("releases"));
        assert!(art.contains("1 overruns"));
        assert!(art.contains('#'));
        assert!(art.contains('^'));
    }

    #[test]
    fn overrun_gap_marked() {
        let art = render_timeline(&example_trace(), &TimelineOptions::default()).unwrap();
        // The deferred-release wait appears as dots.
        assert!(art.contains('.'), "timeline missing wait marker:\n{art}");
    }

    #[test]
    fn respects_max_jobs() {
        let policy = OverrunPolicy::new(Span::from_millis(10), 2).unwrap();
        let responses = vec![Span::from_millis(5); 100];
        let trace = policy.apply(&responses).unwrap();
        let art = render_timeline(
            &trace,
            &TimelineOptions {
                cols_per_sensor_tick: 2,
                max_jobs: 4,
            },
        )
        .unwrap();
        assert!(art.contains("4 jobs"));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = trace_to_csv(&example_trace());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("job,"));
        assert!(lines[2].contains(",1")); // the overrun flag on job 1
    }
}
