//! Controller modes and the per-interval controller table (paper Eq. 6).

use overrun_linalg::Matrix;

use crate::{Error, IntervalSet, Result};

/// One controller mode in state-space form (paper Eq. 6):
///
/// ```text
/// z[k+1] = Ac z[k] + Bc e[k]
/// u[k+1] = Cc z[k] + Dc e[k]
/// ```
///
/// where `e[k] = r − y_m[k]` is the error on the controller's measurement
/// and `z ∈ ℝˢ` is the controller state. The command computed by job `k` is
/// applied one interval later (`u[k+1]`), exactly as in the paper's
/// input–output model.
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerMode {
    /// Controller state matrix `Ac ∈ ℝˢˣˢ`.
    pub ac: Matrix,
    /// Controller input matrix `Bc ∈ ℝ^{s×q}`.
    pub bc: Matrix,
    /// Controller output matrix `Cc ∈ ℝ^{r×s}`.
    pub cc: Matrix,
    /// Direct feedthrough `Dc ∈ ℝ^{r×q}`.
    pub dc: Matrix,
}

impl ControllerMode {
    /// Creates and validates a controller mode.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for inconsistent dimensions.
    pub fn new(ac: Matrix, bc: Matrix, cc: Matrix, dc: Matrix) -> Result<Self> {
        if !ac.is_square() {
            return Err(Error::InvalidConfig(format!(
                "Ac must be square, got {}x{}",
                ac.rows(),
                ac.cols()
            )));
        }
        let s = ac.rows();
        if bc.rows() != s {
            return Err(Error::InvalidConfig(format!(
                "Bc has {} rows, expected {s}",
                bc.rows()
            )));
        }
        if cc.cols() != s {
            return Err(Error::InvalidConfig(format!(
                "Cc has {} cols, expected {s}",
                cc.cols()
            )));
        }
        if dc.rows() != cc.rows() {
            return Err(Error::InvalidConfig(format!(
                "Dc has {} rows but Cc has {}",
                dc.rows(),
                cc.rows()
            )));
        }
        if dc.cols() != bc.cols() {
            return Err(Error::InvalidConfig(format!(
                "Dc has {} cols but Bc has {}",
                dc.cols(),
                bc.cols()
            )));
        }
        Ok(ControllerMode { ac, bc, cc, dc })
    }

    /// A purely static gain `u[k+1] = Dc e[k]` with no controller state.
    ///
    /// # Errors
    ///
    /// Never fails for a non-empty gain; kept fallible for uniformity.
    pub fn static_gain(dc: Matrix) -> Result<Self> {
        let r = dc.rows();
        let q = dc.cols();
        ControllerMode::new(
            Matrix::zeros(0, 0),
            Matrix::zeros(0, q),
            Matrix::zeros(r, 0),
            dc,
        )
    }

    /// Controller state dimension `s`.
    pub fn state_dim(&self) -> usize {
        self.ac.rows()
    }

    /// Measurement dimension `q` the controller expects.
    pub fn error_dim(&self) -> usize {
        self.bc.cols()
    }

    /// Command dimension `r`.
    pub fn output_dim(&self) -> usize {
        self.cc.rows()
    }

    /// One controller update: `(z[k+1], u[k+1])` from `(z[k], e[k])`.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches.
    pub fn step(&self, z: &Matrix, e: &Matrix) -> Result<(Matrix, Matrix)> {
        let z_next = if self.state_dim() == 0 {
            Matrix::zeros(0, 1)
        } else {
            self.ac.matmul(z)?.add_mat(&self.bc.matmul(e)?)?
        };
        let u_next = if self.state_dim() == 0 {
            self.dc.matmul(e)?
        } else {
            self.cc.matmul(z)?.add_mat(&self.dc.matmul(e)?)?
        };
        Ok((z_next, u_next))
    }
}

/// A table of controller modes, one per interval in `H` — the paper's
/// "timer plus table of control parameters" implementation (Sec. I).
///
/// Job `k` selects the mode indexed by the *previous* job's interval
/// `h_{k−1}`, compensating the overrun-induced delay.
///
/// # Example
///
/// ```
/// use overrun_control::prelude::*;
///
/// # fn main() -> Result<(), overrun_control::Error> {
/// let plant = plants::unstable_second_order();
/// let hset = IntervalSet::from_timing(0.010, 0.013, 2)?;
/// let table = pi::design_adaptive(&plant, &hset)?;
/// assert_eq!(table.len(), hset.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerTable {
    modes: Vec<ControllerMode>,
    hset: IntervalSet,
}

impl ControllerTable {
    /// Creates a table from one mode per interval in `hset`, in interval
    /// order.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the mode count differs from
    /// `#H` or modes have inconsistent dimensions.
    pub fn new(modes: Vec<ControllerMode>, hset: IntervalSet) -> Result<Self> {
        if modes.len() != hset.len() {
            return Err(Error::InvalidConfig(format!(
                "{} modes for {} intervals",
                modes.len(),
                hset.len()
            )));
        }
        let (s, q, r) = (
            modes[0].state_dim(),
            modes[0].error_dim(),
            modes[0].output_dim(),
        );
        for (i, m) in modes.iter().enumerate() {
            if (m.state_dim(), m.error_dim(), m.output_dim()) != (s, q, r) {
                return Err(Error::InvalidConfig(format!(
                    "mode {i} dimensions differ from mode 0"
                )));
            }
        }
        Ok(ControllerTable { modes, hset })
    }

    /// A table that uses the *same* mode for every interval — the "fixed
    /// control" baselines of the paper's evaluation.
    ///
    /// # Errors
    ///
    /// Propagates [`ControllerTable::new`] validation.
    pub fn fixed(mode: ControllerMode, hset: IntervalSet) -> Result<Self> {
        let modes = vec![mode; hset.len()];
        ControllerTable::new(modes, hset)
    }

    /// The interval set this table is designed for.
    pub fn hset(&self) -> &IntervalSet {
        &self.hset
    }

    /// Number of modes (`#H`).
    pub fn len(&self) -> usize {
        self.modes.len()
    }

    /// Always `false`.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The mode for interval index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn mode(&self, i: usize) -> &ControllerMode {
        &self.modes[i]
    }

    /// All modes in interval order.
    pub fn modes(&self) -> &[ControllerMode] {
        &self.modes
    }

    /// Controller state dimension `s`.
    pub fn state_dim(&self) -> usize {
        self.modes[0].state_dim()
    }

    /// Measurement dimension `q`.
    pub fn error_dim(&self) -> usize {
        self.modes[0].error_dim()
    }

    /// Command dimension `r`.
    pub fn output_dim(&self) -> usize {
        self.modes[0].output_dim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hset() -> IntervalSet {
        IntervalSet::from_timing(0.010, 0.013, 5).unwrap() // {10,12,14} ms
    }

    fn pi_mode(kp: f64, ki: f64, h: f64) -> ControllerMode {
        ControllerMode::new(
            Matrix::identity(1),
            Matrix::from_rows(&[&[h]]).unwrap(),
            Matrix::from_rows(&[&[ki]]).unwrap(),
            Matrix::from_rows(&[&[kp]]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn mode_validation() {
        assert!(ControllerMode::new(
            Matrix::zeros(1, 2),
            Matrix::zeros(1, 1),
            Matrix::zeros(1, 1),
            Matrix::zeros(1, 1)
        )
        .is_err());
        assert!(ControllerMode::new(
            Matrix::identity(1),
            Matrix::zeros(2, 1),
            Matrix::zeros(1, 1),
            Matrix::zeros(1, 1)
        )
        .is_err());
        assert!(ControllerMode::new(
            Matrix::identity(1),
            Matrix::zeros(1, 1),
            Matrix::zeros(1, 2),
            Matrix::zeros(1, 1)
        )
        .is_err());
        assert!(ControllerMode::new(
            Matrix::identity(1),
            Matrix::zeros(1, 1),
            Matrix::zeros(1, 1),
            Matrix::zeros(1, 2)
        )
        .is_err());
    }

    #[test]
    fn pi_mode_step() {
        let m = pi_mode(2.0, 0.5, 0.01);
        let z = Matrix::col_vec(&[1.0]);
        let e = Matrix::col_vec(&[3.0]);
        let (z1, u1) = m.step(&z, &e).unwrap();
        // z' = z + h e = 1 + 0.03; u' = Kp e + Ki z = 6 + 0.5
        assert!((z1[(0, 0)] - 1.03).abs() < 1e-15);
        assert!((u1[(0, 0)] - 6.5).abs() < 1e-15);
    }

    #[test]
    fn static_gain_mode() {
        let m = ControllerMode::static_gain(Matrix::from_rows(&[&[-2.0, 1.0]]).unwrap()).unwrap();
        assert_eq!(m.state_dim(), 0);
        assert_eq!(m.error_dim(), 2);
        assert_eq!(m.output_dim(), 1);
        let (z, u) = m
            .step(&Matrix::zeros(0, 1), &Matrix::col_vec(&[1.0, 2.0]))
            .unwrap();
        assert_eq!(z.rows(), 0);
        assert!((u[(0, 0)] - 0.0).abs() < 1e-15);
    }

    #[test]
    fn table_construction() {
        let hs = hset();
        let modes = vec![
            pi_mode(1.0, 0.1, 0.010),
            pi_mode(1.0, 0.1, 0.012),
            pi_mode(1.0, 0.1, 0.014),
        ];
        let table = ControllerTable::new(modes, hs.clone()).unwrap();
        assert_eq!(table.len(), 3);
        assert!(!table.is_empty());
        assert_eq!(table.state_dim(), 1);
        assert_eq!(table.error_dim(), 1);
        assert_eq!(table.output_dim(), 1);
        assert_eq!(table.hset(), &hs);
        assert_eq!(table.modes().len(), 3);
    }

    #[test]
    fn table_rejects_wrong_count_or_dims() {
        let hs = hset();
        assert!(ControllerTable::new(vec![pi_mode(1.0, 0.1, 0.010)], hs.clone()).is_err());
        let mixed = vec![
            pi_mode(1.0, 0.1, 0.010),
            pi_mode(1.0, 0.1, 0.012),
            ControllerMode::static_gain(Matrix::from_rows(&[&[1.0]]).unwrap()).unwrap(),
        ];
        assert!(ControllerTable::new(mixed, hs).is_err());
    }

    #[test]
    fn fixed_table_replicates_mode() {
        let hs = hset();
        let table = ControllerTable::fixed(pi_mode(2.0, 0.3, 0.010), hs).unwrap();
        assert_eq!(table.len(), 3);
        assert_eq!(table.mode(0), table.mode(2));
    }
}
