//! The deployment-decoupling workflow of paper Sec. V-B: certify a
//! controller once for a designed `Rmax`, then re-deploy on platforms with
//! other measured worst-case response times by checking only `H̃ ⊆ H` —
//! no controller retuning.
//!
//! ```text
//! cargo run -p overrun-control --example deployment_check
//! ```
#![allow(clippy::print_stdout)] // examples exist to print

use overrun_control::prelude::*;
use overrun_rtsim::{OverrunPolicy, Span};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let plant = plants::unstable_second_order();
    let (t, ns) = (Span::from_millis(10), 5);
    let designed_rmax = Span::from_millis(16);

    // Design-time: budget Rmax = 1.6 T and certify once.
    let policy = OverrunPolicy::new(t, ns)?;
    let designed = IntervalSet::from_policy(&policy, designed_rmax)?;
    let table = pi::design_adaptive(&plant, &designed)?;
    let report = stability::certify(&plant, &table, &Default::default())?;
    println!(
        "designed for Rmax = {designed_rmax}: JSR = {} => {}",
        report.bounds, report.verdict
    );

    // Deployment-time: each candidate platform comes with its measured
    // worst-case response time of the control task; the certificate
    // transfers when the interval set it induces is a subset of H.
    for measured in [9, 13, 16, 19].map(Span::from_millis) {
        let actual = IntervalSet::from_policy(&policy, measured)?;
        let ok = policy.deployment_compatible(designed_rmax, measured)?;
        assert_eq!(ok, actual.is_subset_of(&designed));
        println!(
            "platform with Rmax = {measured}: H~ has {} intervals, deployable = {ok}",
            actual.len(),
        );
    }
    println!(
        "\nThe certificate transfers to every platform whose interval set is a \
         subset of the designed one — no retuning, no re-analysis (paper Sec. V-B)."
    );
    Ok(())
}
