//! The CSV data of each paper table: its column header and one line per
//! row. The binaries write exactly this below their run-header comment,
//! and `tests/golden_csv.rs` pins it, so both read one format. Fig. 1's
//! job trace is formatted by [`overrun_rtsim::trace_to_csv`].

use overrun_control::scenarios::{GranularityRow, Table1Row, Table2Row};

/// Table I: `J_w` of the adaptive and the two fixed-gain PI designs per
/// `(Rmax, Ns)` configuration.
#[must_use]
pub fn table1(rows: &[Table1Row]) -> String {
    let mut csv = String::from("rmax_factor,ns,jw_adaptive,jw_fixed_t,jw_fixed_rmax\n");
    for r in rows {
        csv.push_str(&format!(
            "{},{},{},{},{}\n",
            r.rmax_factor, r.ns, r.jw_adaptive, r.jw_fixed_t, r.jw_fixed_rmax
        ));
    }
    csv
}

/// Table II: the adaptive design's certified JSR bounds and the five
/// costs per `(Rmax, Ns)` configuration; an unstable fixed-gain loop reads
/// `unstable`.
#[must_use]
pub fn table2(rows: &[Table2Row]) -> String {
    let mut csv = String::from(
        "rmax_factor,ns,jsr_lb,jsr_ub,cost_no_overruns,cost_adaptive,cost_fixed_t,cost_fixed_rmax,cost_fixed_period_rmax\n",
    );
    let opt = |v: &Option<f64>| v.map_or("unstable".to_string(), |c| c.to_string());
    for r in rows {
        csv.push_str(&format!(
            "{},{},{},{},{},{},{},{},{}\n",
            r.rmax_factor,
            r.ns,
            r.jsr_adaptive.lower,
            r.jsr_adaptive.upper,
            r.cost_no_overruns,
            r.cost_adaptive,
            opt(&r.cost_fixed_t),
            opt(&r.cost_fixed_rmax),
            r.cost_fixed_period_rmax
        ));
    }
    csv
}

/// The Sec. V-B `Ts` trade-off: `#H`, certified JSR bounds, `J_w` and the
/// worst idle slack per oversampling factor `Ns`.
#[must_use]
pub fn ts_tradeoff(rows: &[GranularityRow]) -> String {
    let mut csv = String::from("ns,h_count,jsr_lb,jsr_ub,jw_adaptive,worst_idle_slack_s\n");
    for r in rows {
        csv.push_str(&format!(
            "{},{},{},{},{},{}\n",
            r.ns, r.h_count, r.jsr.lower, r.jsr.upper, r.jw_adaptive, r.worst_idle_slack
        ));
    }
    csv
}
