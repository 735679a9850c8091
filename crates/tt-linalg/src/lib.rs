//! Dense linear algebra substrate for the Tensor-Train Gram-SVD rounding
//! reproduction.
//!
//! The paper's implementation is built on OpenBLAS/LAPACK (`gemm`, `syrk`,
//! `trmm`, Householder QR, symmetric eigensolvers, SVD, Cholesky). This crate
//! provides from-scratch, pure-Rust implementations of exactly the kernels the
//! TT algorithms need, on a single column-major [`Matrix`] type:
//!
//! * [`gemm`]/[`syrk`] — general and symmetric matrix multiplication
//!   (the workhorses of the Gram-SVD rounding path), dispatched between the
//!   packed cache-blocked engine in [`block`], the unpacked tall-skinny
//!   engine in [`skinny`] and the naive-loop oracle in [`reference`],
//! * [`qr`] — Householder QR (one-panel kernel up to 64 columns, compact-WY
//!   blocked above) with explicit thin-Q recovery and the stacked-R combine
//!   step used by TSQR (the workhorse of the baseline rounding path),
//! * [`eig`] — symmetric eigendecomposition (Householder tridiagonalization +
//!   implicit-shift QL), used for the Gram eigenproblems,
//! * [`svd`] — one-sided Jacobi SVD and the ε-truncated TSVD rule used by all
//!   rounding variants,
//! * [`chol`] — Cholesky and diagonally-pivoted Cholesky (§III-B1 variant),
//! * [`tri`] — triangular multiply/solve/invert helpers.
//!
//! All kernels are deterministic and allocation-conscious; hot paths take
//! output buffers where it matters. Numerical conventions follow LAPACK:
//! eigenvalues ascending, singular values descending, thin factorizations.
//!
//! The optional `simd` cargo feature swaps the blocked engine's register
//! microkernels for explicit `std::simd` implementations (portable SIMD is
//! a nightly feature, hence the gate — the default build stays on stable).
//! Results remain bitwise reproducible per (feature, thread-count)
//! configuration; [`reference`] is the conformance oracle for both.

#![forbid(unsafe_code)]
#![cfg_attr(feature = "simd", feature(portable_simd))]

pub mod block;
pub mod chol;
pub mod eig;
pub mod gemm;
pub mod matrix;
pub mod par;
pub mod paranoid;
pub mod qr;
pub mod reference;
pub mod rng;
pub mod skinny;
pub mod svd;
pub mod tri;
pub mod tune;
pub mod view;

pub use block::SyrkShape;
pub use chol::{cholesky, pivoted_cholesky, PivotedCholesky};
pub use eig::{eigh, EigH};
pub use gemm::{
    gemm, gemm_alloc, gemm_flops, gemm_into, gemm_v, kernel_choice, parallel_threads, syrk,
    syrk_nt_v, syrk_v, Kernel, Trans,
};
pub use matrix::Matrix;
pub use qr::{blocked_qr, householder_qr, householder_qr_unblocked, qr_stacked_pair, QrFactors};
pub use svd::{jacobi_svd, truncation_rank, tsvd, Svd, TruncatedSvd};
pub use tri::{solve_lower, solve_upper, tri_invert_upper, trmm_right_lower, trmm_upper_left};
pub use view::{MatMut, MatRef};

/// Machine epsilon for `f64`, re-exported for truncation-threshold logic.
pub const EPS: f64 = f64::EPSILON;

/// Errors produced by the factorization kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Dimensions of the operands are incompatible with the operation.
    DimensionMismatch(String),
    /// A matrix that must be (numerically) positive definite is not.
    NotPositiveDefinite { pivot: usize },
    /// An iterative eigen/SVD sweep failed to converge.
    NoConvergence { iterations: usize },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::DimensionMismatch(msg) => write!(f, "dimension mismatch: {msg}"),
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix not positive definite (pivot {pivot})")
            }
            LinalgError::NoConvergence { iterations } => {
                write!(f, "iteration failed to converge after {iterations} sweeps")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenience alias used across the factorization kernels.
pub type Result<T> = std::result::Result<T, LinalgError>;
