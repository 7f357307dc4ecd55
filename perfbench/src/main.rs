//! End-to-end benchmark of the overrun reproduction.
//!
//! ```text
//! overrun-perfbench --workload <pi_mc|lqr_mc|table2_cert> --seed N --seconds S --trace 0|1
//! ```
//!
//! A workload is one of the paper's design grids (see `grid.rs`) and a task
//! run on each of its 18 design points:
//!
//! * `pi_mc` — the worst-case cost ensemble (Monte Carlo) of a Table I PI
//!   design;
//! * `lqr_mc` — the same for a Table II LQR design;
//! * `table2_cert` — the JSR stability certification of a Table II design.
//!
//! The run sets the grid up (controller synthesis and simulator
//! construction), then runs whole rounds — every design point once, in an
//! order drawn from the seed, with the set-up repeated between some rounds
//! — until `S` seconds have passed, and finally checks the outputs. With
//! `--trace 0` each task goes through the library's own entry point and the
//! run reports end-to-end metrics; with `--trace 1` each task is replayed
//! layer by layer from this crate, with a timer around every layer, and the
//! run reports per-layer metrics. Times are normalised to machine speed
//! (see `calib.rs`); wall-clock figures go to stderr. All work runs on one
//! thread. The last line of stdout is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`.

mod calib;
mod cert;
mod grid;
mod mc;
mod stats;

use std::process::ExitCode;
use std::time::Instant;

use overrun_control::stability::CertifyOptions;
use overrun_jsr::JsrBounds;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use calib::Clock;
use cert::CertLayers;
use grid::{Design, DesignPoint, Family};
use mc::{Ensemble, McLayers};

/// Sequences per timed Monte Carlo ensemble (each of 50 jobs).
const MC_SEQUENCES: usize = 1024;
/// Sequences of the ensemble that checks each certified-stable design of
/// the certification workload.
const CHECK_SEQUENCES: usize = 256;
/// Set-ups per run: one before the first round, more between rounds while
/// they take at most `SETUP_SHARE` of the elapsed time, and at least
/// `MIN_SETUPS` in all.
const MIN_SETUPS: usize = 3;
const SETUP_SHARE: f64 = 0.1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PiMc,
    LqrMc,
    Table2Cert,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "pi_mc" => Some(Workload::PiMc),
            "lqr_mc" => Some(Workload::LqrMc),
            "table2_cert" => Some(Workload::Table2Cert),
            _ => None,
        }
    }

    fn family(self) -> Family {
        match self {
            Workload::PiMc => Family::Pi,
            Workload::LqrMc | Workload::Table2Cert => Family::Lqr,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = || format!("invalid value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one task produced; a repeat of the task must reproduce it bit for
/// bit.
#[derive(Debug, Clone, Copy)]
enum Outcome {
    Mc(Ensemble),
    Cert(JsrBounds),
}

impl Outcome {
    fn same_bits(&self, other: &Outcome) -> bool {
        match (self, other) {
            (Outcome::Mc(a), Outcome::Mc(b)) => a.same_bits(b),
            (Outcome::Cert(a), Outcome::Cert(b)) => {
                a.lower.to_bits() == b.lower.to_bits() && a.upper.to_bits() == b.upper.to_bits()
            }
            _ => false,
        }
    }
}

/// Wall and normalised times (see `calib.rs`) of repeated work, in seconds.
#[derive(Debug, Default, Clone)]
struct Samples {
    wall: Vec<f64>,
    normalised: Vec<f64>,
}

impl Samples {
    fn push(&mut self, wall: f64, normalised: f64) {
        self.wall.push(wall);
        self.normalised.push(normalised);
    }
}

/// Everything a run measured and checked.
struct Run {
    clock: Clock,
    setup: Samples,
    /// Controller synthesis time per table, one entry per set-up.
    synthesis_s: Vec<f64>,
    /// Times of the timed tasks, per design point.
    tasks: Vec<Samples>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    mc: McLayers,
    cert: CertLayers,
}

impl Run {
    fn new() -> Self {
        Run {
            clock: Clock::new(),
            setup: Samples::default(),
            synthesis_s: Vec::new(),
            tasks: Vec::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            mc: McLayers::default(),
            cert: CertLayers::default(),
        }
    }

    fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    // One worker thread: timings then measure the code, not the scheduler
    // or whatever else shares the machine's cores.
    overrun_par::set_thread_override(Some(1));
    match run(&args) {
        Ok(run) => {
            for p in &run.problems {
                eprintln!("check failed: {p}");
            }
            println!("{}", report(&args, &run));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> overrun_control::Result<Run> {
    let mut run = Run::new();
    let family = args.workload.family();

    let points = set_up(family, &mut run)?;
    let mc_opts = mc::options(MC_SEQUENCES, args.seed);
    let cert_opts = CertifyOptions::default();
    let mut mc_layers = McLayers::default();
    let mut cert_layers = CertLayers::default();
    let mut task = |p: &DesignPoint| -> overrun_control::Result<Outcome> {
        Ok(match (args.workload, args.trace) {
            (Workload::Table2Cert, false) => Outcome::Cert(cert::certify(p, &cert_opts)?),
            (Workload::Table2Cert, true) => {
                Outcome::Cert(cert::certify_by_layer(p, &cert_opts, &mut cert_layers)?)
            }
            (_, false) => Outcome::Mc(mc::ensemble(p, &mc_opts)?),
            (_, true) => Outcome::Mc(mc::ensemble_by_layer(p, &mc_opts, &mut mc_layers)?),
        })
    };

    // Warm-up (Monte Carlo only: one certification already lasts far
    // longer than any one-off cost it could absorb).
    if args.workload != Workload::Table2Cert {
        for p in &points {
            task(p)?;
        }
    }

    // Timed rounds: every design point once per round, in a seeded order.
    let mut order: Vec<usize> = (0..points.len()).collect();
    let mut rng = SmallRng::seed_from_u64(args.seed);
    let mut first: Vec<Option<Outcome>> = vec![None; points.len()];
    run.tasks = vec![Samples::default(); points.len()];
    let mut rounds = 0;
    let started = Instant::now();
    while rounds == 0 || started.elapsed().as_secs_f64() < args.seconds {
        // Set up again between rounds, for up to SETUP_SHARE of the run, so
        // that the set-up samples span the same stretch of time as the
        // tasks' and a slow spell of the machine cannot claim them all.
        if run.setup.wall.iter().sum::<f64>() <= SETUP_SHARE * started.elapsed().as_secs_f64() {
            std::hint::black_box(set_up(family, &mut run)?);
        }
        shuffle(&mut order, &mut rng);
        for &i in &order {
            let (outcome, wall, normalised) = run.clock.time(|| task(&points[i]));
            run.attempted += 1;
            match outcome {
                Err(e) => run.fail(format!("{}: {e}", points[i].label(family))),
                Ok(o) => {
                    run.tasks[i].push(wall, normalised);
                    match &first[i] {
                        Some(f) if !f.same_bits(&o) => run.fail(format!(
                            "{}: repeat gave {o:?}, first run {f:?}",
                            points[i].label(family)
                        )),
                        Some(_) => {}
                        None => first[i] = Some(o),
                    }
                }
            }
        }
        rounds += 1;
    }
    while run.setup.wall.len() < MIN_SETUPS {
        std::hint::black_box(set_up(family, &mut run)?);
    }
    eprintln!(
        "{rounds} rounds, {} tasks and {} set-ups in {:.2} s",
        run.attempted,
        run.setup.wall.len(),
        started.elapsed().as_secs_f64()
    );
    run.mc = mc_layers;
    run.cert = cert_layers;

    // Checks, untimed.
    for (i, p) in points.iter().enumerate() {
        let Some(outcome) = first[i] else { continue };
        let label = p.label(family);
        match outcome {
            Outcome::Mc(e) => check_ensemble(&mut run, args, p, &label, &e, &mc_opts)?,
            Outcome::Cert(b) => check_certificate(&mut run, args, p, &label, &b, &cert_opts)?,
        }
    }
    Ok(run)
}

/// Designs the workload's grid and builds its simulators, recording the
/// time of the whole set-up and of controller synthesis per table.
fn set_up(family: Family, run: &mut Run) -> overrun_control::Result<Vec<DesignPoint>> {
    let (built, wall, normalised) = run.clock.time(|| grid::build(family));
    let (points, synthesis_s) = built?;
    run.setup.push(wall, normalised);
    run.synthesis_s.push(synthesis_s / points.len() as f64);
    Ok(points)
}

/// A Monte Carlo result must match its design's JSR certificate: no design
/// the (short) certificate leaves possibly stable may diverge or report an
/// implausible cost. With `--trace 1` the layer-by-layer replay must also
/// match the library.
fn check_ensemble(
    run: &mut Run,
    args: &Args,
    p: &DesignPoint,
    label: &str,
    e: &Ensemble,
    opts: &overrun_control::metrics::WorstCaseOptions,
) -> overrun_control::Result<()> {
    let short = CertifyOptions {
        max_power: 1,
        max_depth: 3,
        ..CertifyOptions::default()
    };
    let bounds = cert::certify_by_layer(p, &short, &mut run.cert)?;
    if !cert::plausible(&bounds) {
        run.fail(format!("{label}: malformed JSR interval {bounds}"));
    }
    if !bounds.certifies_unstable() && !mc::plausible(e) {
        run.fail(format!(
            "{label}: implausible ensemble {e:?} (JSR in {bounds})"
        ));
    }
    if args.trace {
        let library = mc::ensemble(p, opts)?;
        if !mc::agree(e, &library) {
            run.fail(format!("{label}: replay {e:?} != library {library:?}"));
        }
    }
    Ok(())
}

/// A Table II certificate must reach the paper's verdict — every design
/// stable except the gain tuned for `T` at `Rmax = 1.6 T, Ts = T/2` — and a
/// stable design must stay bounded in simulation. With `--trace 1` the
/// layer-by-layer replay must also agree with the library.
fn check_certificate(
    run: &mut Run,
    args: &Args,
    p: &DesignPoint,
    label: &str,
    b: &JsrBounds,
    opts: &CertifyOptions,
) -> overrun_control::Result<()> {
    let expect_unstable = p.design == Design::FixedT && p.rmax_factor == 1.6 && p.ns == 2;
    let (ok, expected) = if expect_unstable {
        (b.certifies_unstable(), "unstable")
    } else {
        (b.certifies_stable(), "stable")
    };
    if !ok || !cert::plausible(b) {
        run.fail(format!("{label}: JSR in {b}, expected {expected}"));
    }
    if b.certifies_stable() {
        let e = mc::ensemble_by_layer(p, &mc::options(CHECK_SEQUENCES, args.seed), &mut run.mc)?;
        if !mc::plausible(&e) {
            run.fail(format!("{label}: certified stable, but simulated {e:?}"));
        }
    }
    if args.trace {
        let library = cert::certify(p, opts)?;
        if !cert::agree(b, &library) {
            run.fail(format!("{label}: replay {b} != library {library}"));
        }
    }
    Ok(())
}

/// Fisher–Yates shuffle.
fn shuffle(items: &mut [usize], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// The result line: end-to-end metrics, or with `--trace 1` per-layer ones.
fn report(args: &Args, run: &Run) -> String {
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let (mc, cert) = (&run.mc, &run.cert);
        // Layer times accumulate over the whole run, so they are normalised
        // by the run's median kernel time.
        let per =
            |total_s: f64, count: u64| run.clock.normalise_by_median(total_s) / count.max(1) as f64;
        metrics.extend([
            (
                "design_ms",
                per(stats::median(&run.synthesis_s), 1) * 1e3,
                "ms",
            ),
            ("lift_ms", per(cert.lift_s, cert.certifications) * 1e3, "ms"),
            (
                "precondition_ms",
                per(cert.precondition_s, cert.levels) * 1e3,
                "ms",
            ),
            (
                "ellipsoid_ms",
                per(cert.ellipsoid_s, cert.levels) * 1e3,
                "ms",
            ),
            ("search_ms", per(cert.search_s, cert.levels) * 1e3, "ms"),
            ("draw_ns_per_job", per(mc.draw_s, mc.jobs) * 1e9, "ns"),
            ("sim_ns_per_job", per(mc.sim_s, mc.jobs) * 1e9, "ns"),
            ("jobs", mc.jobs as f64, "count"),
            ("lift_levels", cert.levels as f64, "count"),
            ("search_nodes", cert.nodes as f64, "count"),
            ("schur_evals", cert.schur_evals as f64, "count"),
            ("schur_skipped", cert.schur_skipped as f64, "count"),
        ]);
    } else {
        let point = |pick: fn(&Samples) -> &Vec<f64>| -> Vec<f64> {
            run.tasks.iter().map(|s| stats::median(pick(s))).collect()
        };
        let (normalised, wall) = (point(|s| &s.normalised), point(|s| &s.wall));
        eprintln!(
            "wall clock: grid {:.4} s, point {:.4} ms, set-up {:.6} s, kernel {:.4} ms",
            wall.iter().sum::<f64>(),
            stats::median(&wall) * 1e3,
            stats::median(&run.setup.wall),
            run.clock.kernel_median_s() * 1e3
        );
        metrics.extend([
            ("grid_s", normalised.iter().sum(), "s"),
            ("point_ms", stats::median(&normalised) * 1e3, "ms"),
            ("setup_s", stats::median(&run.setup.normalised), "s"),
        ]);
    }
    let mut correct = run.failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            correct &= value.is_finite();
            let value = if value.is_finite() { *value } else { 0.0 };
            eprintln!("{name:>16} = {value} {unit}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted,
        run.failed,
        body.join(", ")
    )
}
