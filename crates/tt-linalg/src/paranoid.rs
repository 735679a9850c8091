//! Numeric-hygiene assertions for kernel entry points.
//!
//! Corrupted buffers (NaN/Inf from an upstream bug, mismatched unfoldings)
//! otherwise propagate silently through `gemm`-class kernels and only
//! surface sweeps later as a nonsensical truncation or a non-converging
//! eigensolve. The checks here run at the *entry* of every hot kernel so the
//! failure is reported where the bad data is produced.
//!
//! Gating: checks are active in debug builds and under the `paranoid`
//! feature (which release CI enables for one job); plain release builds
//! compile them out entirely — [`enabled`] is `const`, so the loops vanish.
//! Downstream crates (`tt-core`, `tt-solvers`) re-export their own
//! `paranoid` feature forwarding to this one, so
//! `cargo test --features paranoid` arms the whole stack.

/// Whether paranoid checks are compiled in.
#[inline]
pub const fn enabled() -> bool {
    cfg!(any(debug_assertions, feature = "paranoid"))
}

/// Asserts every element of `data` is finite (no NaN/Inf).
///
/// `kernel` and `operand` name the entry point and argument for the
/// diagnostic, e.g. `check_finite("gemm", "A", a.as_slice())`.
#[inline]
#[expect(
    clippy::panic,
    reason = "the paranoid layer's whole job is to abort at the first non-finite value instead of letting NaN propagate"
)]
pub fn check_finite(kernel: &str, operand: &str, data: &[f64]) {
    if !enabled() {
        return;
    }
    for (i, &x) in data.iter().enumerate() {
        if !x.is_finite() {
            panic!(
                "{kernel}: paranoid check failed: non-finite value {x} at flat \
                 index {i} of operand {operand} (len {}) — the buffer was \
                 corrupted before this kernel ran",
                data.len()
            );
        }
    }
}

/// Asserts a finite scalar parameter (scale factors, tolerances).
#[inline]
#[expect(
    clippy::panic,
    reason = "the paranoid layer's whole job is to abort at the first non-finite value instead of letting NaN propagate"
)]
pub fn check_finite_scalar(kernel: &str, name: &str, value: f64) {
    if enabled() && !value.is_finite() {
        panic!("{kernel}: paranoid check failed: parameter {name} = {value} is not finite");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finite_data_passes() {
        check_finite("test_kernel", "A", &[0.0, -1.5, f64::MAX]);
        check_finite_scalar("test_kernel", "alpha", 2.0);
    }

    // The negative tests only make sense when the checks are compiled in
    // (debug builds or the `paranoid` feature); a plain release test run
    // compiles the checks out, so the tests are gated the same way.
    #[cfg(any(debug_assertions, feature = "paranoid"))]
    mod armed {
        use super::*;

        #[test]
        #[should_panic(expected = "non-finite value")]
        fn nan_is_caught() {
            check_finite("test_kernel", "A", &[1.0, f64::NAN, 3.0]);
        }

        #[test]
        #[should_panic(expected = "non-finite value")]
        fn infinity_is_caught() {
            check_finite("test_kernel", "A", &[f64::INFINITY]);
        }

        #[test]
        #[should_panic(expected = "alpha")]
        fn non_finite_scalar_is_caught() {
            check_finite_scalar("test_kernel", "alpha", f64::NAN);
        }
    }
}
