//! General and symmetric matrix multiplication kernels.
//!
//! These are the workhorses of the Gram-SVD rounding path — the paper's core
//! observation is that casting all heavy work as `gemm`/`syrk` both reduces
//! flops and runs at higher machine efficiency than Householder-based
//! orthogonalization. This module is the *dispatcher*: it validates shapes,
//! applies `beta`, and routes each call by shape ([`kernel_choice`]) to one
//! of three engines:
//!
//! * [`crate::reference`] — the original straightforward column-major loops,
//!   used below the blocking threshold and kept as the conformance oracle;
//! * [`crate::skinny`] — the unpacked tall-skinny engine, for every larger
//!   problem with at most one of `m`, `n`, `k` above 32: every sweep,
//!   truncation and self-Gram product of TT rounding, where one dimension
//!   is `R₀I` and the others are TT ranks. It streams the tall operand in
//!   place, since packing it would cost more than the multiply. Its
//!   results are bitwise equal to the packed engine's (the same `kc`-slice
//!   sums in the same order);
//! * [`crate::block`] — the packed, cache-blocked, register-tiled engine
//!   (Goto/BLIS-style blocking over an `MR × NR` microkernel, with the
//!   constant [`crate::block::MC`]/[`crate::block::KC`]/[`crate::block::NC`]
//!   cache blocks), for the rest.
//!
//! Under the `paranoid` feature (or any debug build) the dispatcher
//! spot-checks sampled entries of every blocked or tall-skinny result
//! against dot products computed directly from the operands, so a packing
//! or tiling bug is caught at the call site that triggered it.
//!
//! The primary entry points ([`gemm_v`], [`syrk_v`]) take borrowed
//! [`MatRef`]/[`MatMut`] views so TT-core buffers can be multiplied under
//! either unfolding without copying; [`gemm`]/[`syrk`] are the
//! owned-[`Matrix`] conveniences.

use crate::block;
use crate::matrix::Matrix;
use crate::reference;
use crate::skinny;
use crate::view::{MatMut, MatRef};

/// Transposition flag for [`gemm`] operands, mirroring BLAS conventions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trans {
    /// Use the operand as stored.
    No,
    /// Use the transpose of the operand.
    Yes,
}

impl Trans {
    pub(crate) fn dims(self, m: &MatRef<'_>) -> (usize, usize) {
        match self {
            Trans::No => (m.rows(), m.cols()),
            Trans::Yes => (m.cols(), m.rows()),
        }
    }
}

/// Which multiplication engine a problem size routes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Naive column-major loops ([`crate::reference`]).
    Reference,
    /// Packed blocked engine ([`crate::block`]).
    Blocked,
    /// Unpacked tall-skinny engine ([`crate::skinny`]).
    TallSkinny,
}

/// Flop threshold (2·m·n·k) above which packing pays for itself.
///
/// Below ~32³ the packed panels cost as much to fill as the multiply; the
/// rounding algorithms' small `R × R` bond updates stay on the reference
/// loops while every unfolding contraction (tall-skinny `R₀I × R₁`) routes
/// to the tall-skinny engine and the γ-calibration GEMM to the blocked one.
const BLOCK_FLOP_THRESHOLD: f64 = 2.0 * 32.0 * 32.0 * 32.0;

/// Selects the engine for a `m × n × k` multiply. Single source of truth:
/// the dispatcher itself, the γ-calibration pin test, and the benches all
/// consult this. Above the blocking threshold, a shape with at most one
/// dimension above 32 (`skinny::SMALL_DIM`) takes the tall-skinny engine and
/// any other the packed one.
pub fn kernel_choice(m: usize, n: usize, k: usize) -> Kernel {
    if gemm_flops(m, n, k) < BLOCK_FLOP_THRESHOLD || k < 2 {
        Kernel::Reference
    } else if [m, n, k].iter().filter(|&&d| d > skinny::SMALL_DIM).count() <= 1 {
        Kernel::TallSkinny
    } else {
        Kernel::Blocked
    }
}

/// `C = alpha * op(A) * op(B)`, allocating the result.
pub fn gemm(ta: Trans, a: &Matrix, tb: Trans, b: &Matrix, alpha: f64) -> Matrix {
    gemm_alloc(ta, a.view(), tb, b.view(), alpha)
}

/// View-based variant of [`gemm`], allocating the result.
pub fn gemm_alloc(ta: Trans, a: MatRef<'_>, tb: Trans, b: MatRef<'_>, alpha: f64) -> Matrix {
    let (m, _) = ta.dims(&a);
    let (_, n) = tb.dims(&b);
    let mut c = Matrix::zeros(m, n);
    gemm_v(ta, a, tb, b, alpha, 0.0, c.view_mut());
    c
}

/// The core entry point: `C = alpha * op(A) * op(B) + beta * C` on views.
///
/// Panics on dimension mismatch (these are internal kernels; shape errors
/// are programming bugs, not recoverable conditions).
pub fn gemm_v(
    ta: Trans,
    a: MatRef<'_>,
    tb: Trans,
    b: MatRef<'_>,
    alpha: f64,
    beta: f64,
    mut c: MatMut<'_>,
) {
    let (m, ka) = ta.dims(&a);
    let (kb, n) = tb.dims(&b);
    assert_eq!(ka, kb, "gemm inner dimensions must agree ({ka} vs {kb})");
    assert_eq!(c.shape(), (m, n), "gemm output shape mismatch");
    crate::paranoid::check_finite("gemm", "A", a.as_slice());
    crate::paranoid::check_finite("gemm", "B", b.as_slice());
    crate::paranoid::check_finite_scalar("gemm", "alpha", alpha);
    crate::paranoid::check_finite_scalar("gemm", "beta", beta);
    let k = ka;

    let kernel = kernel_choice(m, n, k);
    if kernel == Kernel::Reference {
        reference::gemm_v(ta, a, tb, b, alpha, beta, c);
        return;
    }
    let samples = sample_entries_before(m, n, beta, &c);
    if kernel == Kernel::TallSkinny && alpha != 0.0 {
        // Applies `beta` with the first depth slice.
        skinny::gemm(ta, a, tb, b, alpha, beta, &mut c);
    } else {
        #[expect(
            clippy::float_cmp,
            reason = "BLAS semantics: beta = 1 exactly means keep C, any other value scales it"
        )]
        if beta == 0.0 {
            c.fill(0.0);
        } else if beta != 1.0 {
            c.scale(beta);
        }
        if alpha != 0.0 {
            block::gemm_accumulate(ta, a, tb, b, alpha, &mut c);
        }
    }
    verify_samples(ta, a, tb, b, alpha, beta, &c, k, &samples);
}

/// Symmetric rank-k update `C = alpha * Aᵀ A` (full symmetric result).
pub fn syrk(a: &Matrix, alpha: f64) -> Matrix {
    syrk_v(a.view(), alpha)
}

/// View-based symmetric rank-k update `C = alpha * Aᵀ A`.
///
/// Exploits symmetry: only the (block) upper triangle is computed, then
/// mirrored, halving the arithmetic versus [`gemm`] — the saving the paper's
/// §IV-B "symmetric approach" discussion refers to.
pub fn syrk_v(a: MatRef<'_>, alpha: f64) -> Matrix {
    crate::paranoid::check_finite("syrk", "A", a.as_slice());
    crate::paranoid::check_finite_scalar("syrk", "alpha", alpha);
    let (k, n) = a.shape();
    let c = match kernel_choice(n, n, k) {
        Kernel::Reference => return reference::syrk_v(a, alpha),
        Kernel::TallSkinny => skinny::syrk(a, alpha, block::SyrkShape::TransposeA),
        Kernel::Blocked => block::syrk(a, alpha, block::SyrkShape::TransposeA),
    };
    verify_syrk_samples("syrk", &c, |i, j| {
        alpha * reference::dot(a.col(i), a.col(j))
    });
    c
}

/// View-based symmetric rank-k update in the other orientation:
/// `C = alpha * A Aᵀ` (full symmetric result).
///
/// Used by the *symmetric* structured-Gram-sweep variant of §IV-B, where
/// `A` is a horizontal unfolding and the contraction runs over its columns.
pub fn syrk_nt_v(a: MatRef<'_>, alpha: f64) -> Matrix {
    crate::paranoid::check_finite("syrk_nt", "A", a.as_slice());
    crate::paranoid::check_finite_scalar("syrk_nt", "alpha", alpha);
    let (m, k) = a.shape();
    let c = match kernel_choice(m, m, k) {
        Kernel::Reference => return reference::syrk_nt_v(a, alpha),
        Kernel::TallSkinny => skinny::syrk(a, alpha, block::SyrkShape::TransposeB),
        Kernel::Blocked => block::syrk(a, alpha, block::SyrkShape::TransposeB),
    };
    verify_syrk_samples("syrk_nt", &c, |i, j| {
        let mut s = 0.0;
        for l in 0..k {
            s += a.at(i, l) * a.at(j, l);
        }
        alpha * s
    });
    c
}

/// Flop count of a `gemm` with these dimensions (2·m·n·k), used by the
/// performance-model instrumentation and the γ calibration. By construction
/// this is the flop count of the *blocked* kernel [`kernel_choice`] selects
/// at calibration sizes (the engine performs exactly 2·m·n·k flops plus
/// packing data movement; padding lanes multiply zeros and are not counted).
pub fn gemm_flops(m: usize, n: usize, k: usize) -> f64 {
    2.0 * m as f64 * n as f64 * k as f64
}

/// How many output entries the paranoid cross-check verifies per call.
const PARANOID_SAMPLES: usize = 16;

/// Records `(i, j, previous C value)` for a deterministic spread of entries,
/// so the blocked result can be verified after the update. Empty when
/// paranoid checks are compiled out or `beta` needs no history (`beta = 0`
/// still records the positions, with zeros).
fn sample_entries_before(
    m: usize,
    n: usize,
    beta: f64,
    c: &MatMut<'_>,
) -> Vec<(usize, usize, f64)> {
    if !crate::paranoid::enabled() || m == 0 || n == 0 {
        return Vec::new();
    }
    let total = m * n;
    let count = PARANOID_SAMPLES.min(total);
    let stride = total / count;
    (0..count)
        .map(|s| {
            let flat = s * stride;
            let (i, j) = (flat % m, flat / m);
            let c0 = if beta == 0.0 {
                0.0
            } else {
                c.as_ref().at(i, j)
            };
            (i, j, c0)
        })
        .collect()
}

/// Verifies the sampled entries of a blocked or tall-skinny GEMM against
/// dot products computed directly from the operands — the reference oracle at
/// O(samples·k) cost. Panics with a kernel-naming diagnostic on mismatch,
/// including a non-finite result where the oracle's value is finite.
#[allow(
    clippy::too_many_arguments,
    reason = "the oracle check needs every GEMM operand and scalar it verifies"
)]
#[expect(
    clippy::panic,
    reason = "paranoid-mode oracle check — a wrong kernel result must abort, continuing would corrupt every downstream factorization"
)]
fn verify_samples(
    ta: Trans,
    a: MatRef<'_>,
    tb: Trans,
    b: MatRef<'_>,
    alpha: f64,
    beta: f64,
    c: &MatMut<'_>,
    k: usize,
    samples: &[(usize, usize, f64)],
) {
    for &(i, j, c0) in samples {
        let mut s = 0.0;
        let mut abs = 0.0;
        for l in 0..k {
            let al = match ta {
                Trans::No => a.at(i, l),
                Trans::Yes => a.at(l, i),
            };
            let bl = match tb {
                Trans::No => b.at(l, j),
                Trans::Yes => b.at(j, l),
            };
            s += al * bl;
            abs += (al * bl).abs();
        }
        let expect = alpha * s + beta * c0;
        let scale = alpha.abs() * abs + (beta * c0).abs() + 1.0;
        let tol = (k as f64 + 8.0) * 8.0 * crate::EPS * scale;
        let got = c.as_ref().at(i, j);
        if disagrees(got, expect, tol) {
            panic!(
                "gemm: paranoid check failed: blocked kernel disagrees with the \
                 reference oracle at C[{i},{j}]: blocked {got} vs reference \
                 {expect} (tol {tol}) — packing/tiling bug in tt-linalg::block \
                 or tt-linalg::skinny"
            );
        }
    }
}

/// SYRK analogue of [`verify_samples`]: checks diagonal-adjacent samples of
/// the symmetric result against directly computed entries.
#[expect(
    clippy::panic,
    reason = "paranoid-mode oracle check — a wrong kernel result must abort, continuing would corrupt every downstream factorization"
)]
fn verify_syrk_samples(kernel: &str, c: &Matrix, entry: impl Fn(usize, usize) -> f64) {
    if !crate::paranoid::enabled() {
        return;
    }
    let n = c.rows();
    if n == 0 {
        return;
    }
    let count = PARANOID_SAMPLES.min(n * n);
    let stride = (n * n) / count;
    for s in 0..count {
        let flat = s * stride;
        let (i, j) = (flat % n, flat / n);
        let expect = entry(i, j);
        let tol = 1e-10 * (1.0 + expect.abs()) + 1e-12;
        let got = c[(i, j)];
        if disagrees(got, expect, tol) {
            panic!(
                "{kernel}: paranoid check failed: blocked kernel disagrees with \
                 the reference oracle at C[{i},{j}]: blocked {got} vs reference \
                 {expect} — packing/tiling bug in tt-linalg::block or \
                 tt-linalg::skinny"
            );
        }
    }
}

/// Whether a kernel result fails its oracle: off by more than `tol`, or
/// non-finite where the oracle is finite (`NaN - x > tol` is false, so the
/// distance test alone would let a NaN through).
fn disagrees(got: f64, expect: f64, tol: f64) -> bool {
    (got - expect).abs() > tol || (!got.is_finite() && expect.is_finite())
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "tests compare exact values on purpose")]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn naive(ta: Trans, a: &Matrix, tb: Trans, b: &Matrix) -> Matrix {
        let at = match ta {
            Trans::No => a.clone(),
            Trans::Yes => a.transpose(),
        };
        let bt = match tb {
            Trans::No => b.clone(),
            Trans::Yes => b.transpose(),
        };
        let (m, k) = at.shape();
        let n = bt.cols();
        Matrix::from_fn(m, n, |i, j| (0..k).map(|l| at[(i, l)] * bt[(l, j)]).sum())
    }

    #[test]
    fn matches_naive_all_transpose_combos() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        // Sizes on both sides of the dispatch threshold.
        for &(m, n, k) in &[
            (3usize, 4usize, 5usize),
            (7, 2, 9),
            (1, 1, 1),
            (6, 6, 6),
            (40, 40, 40),
            (130, 9, 70),
        ] {
            for &ta in &[Trans::No, Trans::Yes] {
                for &tb in &[Trans::No, Trans::Yes] {
                    let a = match ta {
                        Trans::No => Matrix::gaussian(m, k, &mut rng),
                        Trans::Yes => Matrix::gaussian(k, m, &mut rng),
                    };
                    let b = match tb {
                        Trans::No => Matrix::gaussian(k, n, &mut rng),
                        Trans::Yes => Matrix::gaussian(n, k, &mut rng),
                    };
                    let c = gemm(ta, &a, tb, &b, 1.0);
                    let r = naive(ta, &a, tb, &b);
                    assert!(c.max_abs_diff(&r) < 1e-11, "({m},{n},{k}) {ta:?} {tb:?}");
                }
            }
        }
    }

    #[test]
    fn beta_accumulates() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for (m, n, k) in [(4usize, 5usize, 3usize), (50, 50, 50)] {
            let a = Matrix::gaussian(m, k, &mut rng);
            let b = Matrix::gaussian(k, n, &mut rng);
            let mut c = Matrix::gaussian(m, n, &mut rng);
            let c0 = c.clone();
            gemm_v(
                Trans::No,
                a.view(),
                Trans::No,
                b.view(),
                2.0,
                0.5,
                c.view_mut(),
            );
            let mut expect = naive(Trans::No, &a, Trans::No, &b);
            expect.scale(2.0);
            expect.axpy(0.5, &c0);
            assert!(c.max_abs_diff(&expect) < 1e-11, "({m},{n},{k})");
        }
    }

    #[test]
    fn syrk_matches_gemm() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        // 20×6 stays on the reference path, 200×40 routes to the blocked one.
        for (rows, cols) in [(20usize, 6usize), (200, 40)] {
            let a = Matrix::gaussian(rows, cols, &mut rng);
            let s = syrk(&a, 1.5);
            let g = gemm(Trans::Yes, &a, Trans::No, &a, 1.5);
            assert!(s.max_abs_diff(&g) < 1e-10, "{rows}x{cols}");
            // exact symmetry by construction
            for i in 0..cols {
                for j in 0..cols {
                    assert_eq!(s[(i, j)], s[(j, i)]);
                }
            }
        }
    }

    #[test]
    fn syrk_nt_matches_gemm() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        for (rows, cols) in [(5usize, 17usize), (40, 300)] {
            let a = Matrix::gaussian(rows, cols, &mut rng);
            let s = syrk_nt_v(a.view(), 2.0);
            let g = gemm(Trans::No, &a, Trans::Yes, &a, 2.0);
            assert!(s.max_abs_diff(&g) < 1e-10, "{rows}x{cols}");
            for i in 0..rows {
                for j in 0..rows {
                    assert_eq!(s[(i, j)], s[(j, i)]);
                }
            }
        }
    }

    #[test]
    fn view_gemm_reinterprets_buffers() {
        // Multiply the same buffer as 2x6 and as 4x3 without copying.
        let m = Matrix::from_col_major(4, 3, (1..=12).map(f64::from).collect());
        let h = m.view_as(2, 6); // zero-copy "horizontal unfolding"
        let hh = gemm_alloc(Trans::No, h, Trans::Yes, h, 1.0);
        let explicit = Matrix::from_col_major(2, 6, h.as_slice().to_vec());
        let expect = naive(Trans::No, &explicit, Trans::Yes, &explicit);
        assert!(hh.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn zero_alpha_only_scales_c() {
        let a = Matrix::identity(3);
        let b = Matrix::identity(3);
        let mut c = Matrix::identity(3);
        gemm_v(
            Trans::No,
            a.view(),
            Trans::No,
            b.view(),
            0.0,
            3.0,
            c.view_mut(),
        );
        assert_eq!(c[(0, 0)], 3.0);
        assert_eq!(c[(0, 1)], 0.0);
    }

    #[test]
    fn zero_alpha_only_scales_c_blocked_sizes() {
        let a = Matrix::identity(64);
        let b = Matrix::identity(64);
        let mut c = Matrix::identity(64);
        gemm_v(
            Trans::No,
            a.view(),
            Trans::No,
            b.view(),
            0.0,
            3.0,
            c.view_mut(),
        );
        assert_eq!(c[(0, 0)], 3.0);
        assert_eq!(c[(0, 1)], 0.0);
    }

    #[test]
    fn empty_dims_ok() {
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(3, 2);
        let c = gemm(Trans::No, &a, Trans::No, &b, 1.0);
        assert_eq!(c.shape(), (0, 2));
    }

    #[test]
    #[should_panic(expected = "paranoid check failed")]
    fn gemm_oracle_rejects_nan_from_finite_inputs() {
        let a = Matrix::identity(2);
        let b = Matrix::identity(2);
        // C = A·B is the identity, except one entry is NaN.
        let mut c = Matrix::identity(2);
        c[(1, 0)] = f64::NAN;
        let samples = [(0, 0, 0.0), (1, 0, 0.0)];
        let c = c.view_mut();
        verify_samples(
            Trans::No,
            a.view(),
            Trans::No,
            b.view(),
            1.0,
            0.0,
            &c,
            2,
            &samples,
        );
    }

    #[test]
    #[cfg(any(debug_assertions, feature = "paranoid"))]
    #[should_panic(expected = "paranoid check failed")]
    fn syrk_oracle_rejects_nan_from_finite_inputs() {
        let mut c = Matrix::identity(2);
        c[(0, 0)] = f64::NAN;
        verify_syrk_samples("syrk", &c, |i, j| if i == j { 1.0 } else { 0.0 });
    }

    #[test]
    fn dispatch_routes_by_size() {
        // Degenerate and tiny problems stay on the reference loops…
        assert_eq!(kernel_choice(0, 5, 5), Kernel::Reference);
        assert_eq!(kernel_choice(8, 8, 8), Kernel::Reference);
        assert_eq!(kernel_choice(1000, 1000, 1), Kernel::Reference);
        // …calibration-sized GEMMs block…
        assert_eq!(kernel_choice(256, 256, 256), Kernel::Blocked);
        // …and tall-skinny unfolding GEMMs take the unpacked engine, in
        // each of the three positions of the tall dimension.
        assert_eq!(kernel_choice(40_000, 20, 20), Kernel::TallSkinny);
        assert_eq!(kernel_choice(20, 40_000, 10), Kernel::TallSkinny);
        assert_eq!(kernel_choice(20, 20, 40_000), Kernel::TallSkinny);
        // Their wide twins, with two dimensions above 32, still block.
        assert_eq!(kernel_choice(40_000, 64, 64), Kernel::Blocked);
        assert_eq!(kernel_choice(8000, 96, 32), Kernel::Blocked);
        assert_eq!(kernel_choice(64, 40_000, 64), Kernel::Blocked);
    }

    #[test]
    fn tall_skinny_class_boundary_is_32() {
        for tall in [33usize, 1000, 40_000] {
            assert_eq!(kernel_choice(tall, 32, 32), Kernel::TallSkinny);
            assert_eq!(kernel_choice(32, tall, 32), Kernel::TallSkinny);
            assert_eq!(kernel_choice(32, 32, tall), Kernel::TallSkinny);
            assert_eq!(kernel_choice(tall, 33, 32), Kernel::Blocked);
            assert_eq!(kernel_choice(tall, 32, 33), Kernel::Blocked);
            assert_eq!(kernel_choice(33, 32, tall), Kernel::Blocked);
        }
        // All three at most 32: the class, once above the blocking threshold.
        assert_eq!(kernel_choice(32, 32, 32), Kernel::TallSkinny);
        assert_eq!(kernel_choice(33, 33, 33), Kernel::Blocked);
    }
}
