//! Runtime poison detection for the matrix kernels (the `sanitize`
//! feature).
//!
//! A NaN or Inf that slips into the JSR pipeline does not crash anything —
//! it flows through norms and eigenvalue solves and quietly corrupts a
//! certificate. With `--features sanitize`, every core kernel
//! ([`Matrix::matmul_add_into`](crate::Matrix::matmul_add_into),
//! [`Matrix::mul_vec_acc_into`](crate::Matrix::mul_vec_acc_into), the
//! entry-wise ops, [`Matrix::scale_in_place`](crate::Matrix::scale_in_place))
//! checks its inputs and its output and panics with a `[sanitize]` message
//! naming the op:
//!
//! * an *output* failure with clean inputs means **this op produced the
//!   poison** (overflow, 0·∞, …) — the exact site to debug;
//! * an *input* failure means the poison was produced upstream by an
//!   unchecked path (or injected from outside) and has just reached the
//!   checked kernels.
//!
//! Dimension mismatches are already typed errors on every kernel
//! ([`Error::DimensionMismatch`](crate::Error::DimensionMismatch)), so
//! this module only has to handle value poison.
//!
//! The feature is strictly a debugging tool: when it is off (the default)
//! this module is not compiled and the kernels carry no checks at all —
//! zero code, zero branches.

#![expect(
    clippy::panic,
    reason = "the feature's contract is to panic at the op that produced the poison"
)]

/// Index and value of the first non-finite entry, if any.
fn first_nonfinite(data: &[f64]) -> Option<(usize, f64)> {
    data.iter()
        .enumerate()
        .find(|(_, v)| !v.is_finite())
        .map(|(i, &v)| (i, v))
}

/// Panics if `data` contains a non-finite entry: poison *reached* `op`
/// from upstream or from external input.
pub fn check_input(op: &str, role: &str, data: &[f64]) {
    if let Some((i, v)) = first_nonfinite(data) {
        panic!(
            "[sanitize] poison reached `{op}`: non-finite value {v} in {role}[{i}] \
             (produced upstream of the checked kernels, or injected from outside)"
        );
    }
}

/// Panics if `s` is non-finite: a poisoned scalar operand of `op`.
pub fn check_scalar(op: &str, role: &str, s: f64) {
    if !s.is_finite() {
        panic!("[sanitize] poison reached `{op}`: non-finite {role} {s}");
    }
}

/// Panics if `data` contains a non-finite entry *after* `op` ran on clean
/// inputs: this op produced the poison (overflow, invalid operation).
pub fn check_output(op: &str, data: &[f64]) {
    if let Some((i, v)) = first_nonfinite(data) {
        panic!(
            "[sanitize] `{op}` produced non-finite value {v} at output[{i}] \
             — overflow or invalid operation at this op"
        );
    }
}

#[cfg(test)]
mod tests {
    use crate::Matrix;

    fn message(err: Box<dyn std::any::Any + Send>) -> String {
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn nan_input_reported_as_reached() {
        let mut a = Matrix::zeros(2, 2);
        a[(0, 1)] = f64::NAN;
        let b = Matrix::identity(2);
        let err = std::panic::catch_unwind(|| a.matmul(&b))
            .expect_err("NaN input must trip the input check");
        let msg = message(err);
        assert!(msg.contains("[sanitize]"), "{msg}");
        assert!(msg.contains("poison reached"), "{msg}");
        assert!(msg.contains("matmul_add_into"), "{msg}");
    }

    #[test]
    fn overflow_reported_as_produced() {
        let a = Matrix::from_rows(&[&[1e200]]).unwrap();
        let err = std::panic::catch_unwind(|| a.matmul(&a))
            .expect_err("1e400 overflows: output check must fire");
        let msg = message(err);
        assert!(msg.contains("produced non-finite"), "{msg}");
        assert!(msg.contains("matmul_add_into"), "{msg}");
    }

    #[test]
    fn clean_ops_stay_silent() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = a.matmul(&a).unwrap();
        assert_eq!(b[(0, 0)], 7.0);
        let mut c = a.clone();
        c.scale_in_place(2.0);
        assert_eq!(c[(1, 1)], 8.0);
        assert!(a.add_mat(&a).is_ok());
    }
}
