//! Machine-speed calibration.
//!
//! On a shared virtual machine the speed of one core swings by half again
//! within seconds, as other tenants come and go, and a slow spell can last
//! a whole run. So every timed piece of work is bracketed by runs of a
//! fixed calibration kernel — this crate's own code, which no change to the
//! library can touch — and reported normalised: its wall time divided by
//! the mean of the two kernel times around it, times [`NOMINAL_S`]. A
//! normalised time reads as seconds on a machine where the kernel takes
//! `NOMINAL_S` between tasks — about what it takes on a quiet core of a
//! 2-vCPU Intel Xeon VM, so there normalised and wall-clock times are
//! close.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's nominal wall time, in seconds.
pub const NOMINAL_S: f64 = 5e-4;

/// Steps of the two parts of the kernel; together they last about
/// [`NOMINAL_S`], three quarters of it in the first part.
const PRODUCT_STEPS: usize = 345;
const RECURRENCE_STEPS: usize = 230;

/// The calibration kernel, in two parts shaped like the library's two
/// kinds of work, because contention from other tenants slows them by
/// different factors: 5×5 matrix products on a freshly allocated operand
/// (certification: products, heap traffic), and a 5-state linear
/// recurrence with a running quadratic cost in registers (simulation).
/// The 3:1 split tracked the slow spells of both the ensembles and the
/// certifications to within a few percent on the VM above; either part
/// alone was off by 10–20% for one of them. Values depend on the step, so
/// nothing can be hoisted or folded away.
fn kernel() -> f64 {
    let entry = |i: usize, j: usize, step: usize| ((i * 7 + j * 3 + step) % 13) as f64;
    let mut acc = 0.0;
    let mut x = [[0.0_f64; 5]; 5];
    for step in 0..black_box(PRODUCT_STEPS) {
        let m: Vec<[f64; 5]> = (0..5)
            .map(|i| std::array::from_fn(|j| entry(i, j, step) * 0.015))
            .collect();
        for _ in 0..20 {
            let mut y = [[0.001_f64; 5]; 5];
            for (yi, mi) in y.iter_mut().zip(&m) {
                for (j, yij) in yi.iter_mut().enumerate() {
                    for (l, mil) in mi.iter().enumerate() {
                        *yij += mil * x[l][j];
                    }
                }
            }
            x = y;
        }
        acc += black_box(&m)[0][0] + x[0][0];
    }
    for step in 0..black_box(RECURRENCE_STEPS) {
        let a: [[f64; 5]; 5] =
            std::array::from_fn(|i| std::array::from_fn(|j| entry(i, j, step) * 0.03));
        let mut v = [1.0_f64; 5];
        for _ in 0..50 {
            let mut w = [0.01_f64; 5];
            for (wi, ai) in w.iter_mut().zip(&a) {
                for (aij, vj) in ai.iter().zip(&v) {
                    *wi += aij * vj;
                }
            }
            acc += w.iter().map(|c| c * c).sum::<f64>();
            v = w;
        }
    }
    acc
}

/// Times pieces of work and normalises them to machine speed.
pub struct Clock {
    last_kernel_s: f64,
    kernel_s: Vec<f64>,
}

impl Clock {
    /// Starts with one kernel run, the first bracket.
    pub fn new() -> Self {
        let mut clock = Clock {
            last_kernel_s: 0.0,
            kernel_s: Vec::new(),
        };
        clock.last_kernel_s = clock.run_kernel();
        clock
    }

    fn run_kernel(&mut self) -> f64 {
        let started = Instant::now();
        black_box(kernel());
        let s = started.elapsed().as_secs_f64();
        self.kernel_s.push(s);
        s
    }

    /// Runs `work`, then the kernel; returns `work`'s result, its wall time
    /// and its normalised time, both in seconds.
    pub fn time<T>(&mut self, work: impl FnOnce() -> T) -> (T, f64, f64) {
        let started = Instant::now();
        let out = work();
        let wall = started.elapsed().as_secs_f64();
        let before = self.last_kernel_s;
        self.last_kernel_s = self.run_kernel();
        let speed = 0.5 * (before + self.last_kernel_s);
        (out, wall, wall / speed * NOMINAL_S)
    }

    /// The median wall time of the kernel runs so far.
    pub fn kernel_median_s(&self) -> f64 {
        crate::stats::median(&self.kernel_s)
    }

    /// Normalises a time spread over the whole run by the median kernel
    /// time of the run.
    pub fn normalise_by_median(&self, wall: f64) -> f64 {
        wall / self.kernel_median_s() * NOMINAL_S
    }
}
