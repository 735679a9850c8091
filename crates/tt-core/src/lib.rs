//! Tensor-Train format and rounding algorithms.
//!
//! This crate is the reproduction of the paper's primary contribution:
//! TT-Rounding via Gram SVD (Algorithms 4–6), together with the
//! orthogonalization-based baseline it is compared against (Algorithm 2,
//! Al Daas–Ballard–Benner), the §III matrix-product truncation kernels, TT
//! arithmetic, and the 1-D-distributed parallel versions of all of it.
//!
//! # Layout invariant
//!
//! A TT core `T ∈ R^{R₀ × I × R₁}` is stored as one contiguous column-major
//! buffer with element `(a, i, b)` at `a + i·R₀ + b·R₀I`. That buffer *is*
//! the vertical unfolding `V(T) ∈ R^{R₀I × R₁}` and is simultaneously a
//! column-permuted horizontal unfolding `H(T) ∈ R^{R₀ × IR₁}`. Every
//! H-operation the algorithms perform (`G·H(T)`, `H(C)·H(X)ᵀ`) is invariant
//! under column permutation, so no element is ever moved to switch
//! unfoldings (see [`TtCore::h`]/[`TtCore::v`]).
//!
//! # Sequential ≡ distributed
//!
//! Each rounding algorithm is implemented once, generic over
//! [`tt_comm::Communicator`], operating on the *local* tensor (the slices of
//! every core this rank owns under the 1-D distribution of
//! [`dist::block_range`]). Run with [`tt_comm::SelfComm`] the local tensor
//! is the whole tensor and the collectives vanish — that is the sequential
//! algorithm. [`round()`] is the one entry point for every method.

#![forbid(unsafe_code)]

pub mod core;
pub mod dense;
pub mod dist;
pub mod matprod;
pub mod orthogonalize;
pub mod round;
pub mod synthetic;
pub mod tensor;
pub mod ttmatrix;
pub mod ttsvd;

pub use crate::core::TtCore;
pub use dense::DenseTensor;
pub use dist::{block_range, gather_tensor, scatter_tensor};
pub use orthogonalize::{orthogonalize_left, orthogonalize_right};
pub use round::{round, RoundReport, RoundingMethod, RoundingOptions};
pub use tensor::TtTensor;
pub use ttmatrix::{TtMatrix, TtMatrixCore};
pub use ttsvd::tt_svd;
