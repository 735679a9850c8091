//! Kernel-conformance suite: the packed blocked GEMM/SYRK engine and the
//! unpacked tall-skinny engine against the naive-loop reference oracle,
//! over randomized shapes and the edge cases the tiling must absorb (empty
//! operands, single-row/column problems, sub-microkernel tiles, tall-skinny
//! `R₀I × R₁` unfoldings, all four transpose combinations, non-unit
//! `alpha`/`beta`), plus the tall-skinny engine's bit parity with the
//! packed one.
//!
//! Error bounds are componentwise and scaled by the contraction depth:
//! both engines compute each entry as a length-`k` inner product, so
//! `|blocked − reference| ≤ c·k·ε·(|op(A)|·|op(B)|)_ij·|alpha| + c·ε·|beta·C|`
//! with a small constant `c` absorbing reassociation. The abs-product is
//! computed with the reference kernel on elementwise-absolute operands.
//!
//! This suite is also the SIMD conformance statement: built with
//! `--features simd` the same properties run against the `std::simd`
//! microkernels (the bounds already cover FMA's different rounding), so CI's
//! simd job replays every shape/transpose/edge-slab case here against the
//! same f64 oracle.

use proptest::prelude::*;
use rand::SeedableRng;
use tt_linalg::block::{self, SyrkShape, MR, NR};
use tt_linalg::view::{MatMut, MatRef};
use tt_linalg::{reference, skinny, tune};
use tt_linalg::{Matrix, Trans, EPS};

/// Componentwise bound constant: generous but tight enough to catch any
/// indexing bug (a misplaced entry is wrong by O(1), not O(k·ε)).
const C_BOUND: f64 = 16.0;

fn gaussian(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Matrix::gaussian(rows, cols, &mut rng)
}

fn abs_matrix(m: &Matrix) -> Matrix {
    Matrix::from_fn(m.rows(), m.cols(), |i, j| m[(i, j)].abs())
}

/// `C = alpha·op(A)·op(B) + beta·C` through one engine.
type Engine = fn(Trans, MatRef<'_>, Trans, MatRef<'_>, f64, f64, &mut MatMut<'_>);

/// The packed engine, with the `beta` pre-scaling exactly as the
/// dispatcher performs it.
fn packed(
    ta: Trans,
    a: MatRef<'_>,
    tb: Trans,
    b: MatRef<'_>,
    alpha: f64,
    beta: f64,
    c: &mut MatMut<'_>,
) {
    if beta == 0.0 {
        c.fill(0.0);
    } else if beta != 1.0 {
        c.scale(beta);
    }
    let k = match ta {
        Trans::No => a.cols(),
        Trans::Yes => a.rows(),
    };
    if alpha != 0.0 && c.rows() > 0 && c.cols() > 0 && k > 0 {
        block::gemm_accumulate(ta, a, tb, b, alpha, c);
    }
}

/// Runs `engine` and checks it entry-by-entry against the reference oracle
/// under the componentwise k·ε bound.
#[allow(clippy::too_many_arguments)]
fn assert_gemm_conforms(
    engine: Engine,
    m: usize,
    n: usize,
    k: usize,
    ta: Trans,
    tb: Trans,
    alpha: f64,
    beta: f64,
    seed: u64,
) {
    let a = match ta {
        Trans::No => gaussian(m, k, seed),
        Trans::Yes => gaussian(k, m, seed),
    };
    let b = match tb {
        Trans::No => gaussian(k, n, seed ^ 0x9e37),
        Trans::Yes => gaussian(n, k, seed ^ 0x9e37),
    };
    let c0 = gaussian(m, n, seed ^ 0x51ed);

    let mut blocked = c0.clone();
    engine(
        ta,
        a.view(),
        tb,
        b.view(),
        alpha,
        beta,
        &mut blocked.view_mut(),
    );

    // Reference oracle.
    let mut expect = c0.clone();
    reference::gemm_v(ta, a.view(), tb, b.view(), alpha, beta, expect.view_mut());

    // Componentwise bound scaled by the abs-product.
    let mut absprod = Matrix::zeros(m, n);
    reference::gemm_v(
        ta,
        abs_matrix(&a).view(),
        tb,
        abs_matrix(&b).view(),
        alpha.abs(),
        0.0,
        absprod.view_mut(),
    );
    let kf = k as f64 + 2.0;
    for j in 0..n {
        for i in 0..m {
            let tol = C_BOUND * kf * EPS * (absprod[(i, j)] + (beta * c0[(i, j)]).abs() + 1.0);
            let diff = (blocked[(i, j)] - expect[(i, j)]).abs();
            assert!(
                diff <= tol,
                "({m},{n},{k}) {ta:?} {tb:?} alpha={alpha} beta={beta}: \
                 C[{i},{j}] off by {diff:.3e} (tol {tol:.3e})"
            );
        }
    }
}

fn trans_from(bit: bool) -> Trans {
    if bit {
        Trans::Yes
    } else {
        Trans::No
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random shapes spanning sub-tile to multi-cache-block, all transpose
    /// combinations, non-unit alpha and beta.
    #[test]
    fn gemm_conforms_on_random_shapes(
        m in 1usize..200,
        n in 1usize..80,
        k in 1usize..300,
        ta in any::<bool>(),
        tb in any::<bool>(),
        alpha in -3.0f64..3.0,
        beta in -2.0f64..2.0,
        seed in any::<u64>(),
    ) {
        assert_gemm_conforms(packed, m, n, k, trans_from(ta), trans_from(tb), alpha, beta, seed);
    }

    /// Tall-skinny unfolding shapes (`R₀·I × R₁` with small ranks): the
    /// workload the paper's Gram path is built around.
    #[test]
    fn gemm_conforms_on_tall_skinny_unfoldings(
        r0 in 1usize..12,
        dim in 2usize..40,
        r1 in 1usize..12,
        ta in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // op(A): (r0*dim) x r1 unfolding against its own transpose partner.
        assert_gemm_conforms(packed, r1, r1, r0 * dim, Trans::Yes, Trans::No, 1.0, 0.0, seed);
        // And the application GEMM: unfolding times a small square factor.
        assert_gemm_conforms(
            packed, r0 * dim, r1, r1, trans_from(ta), Trans::No, 1.0, 0.0, seed ^ 1,
        );
    }

    /// SYRK in both orientations vs the reference, including exact-symmetry.
    #[test]
    fn syrk_conforms_on_random_shapes(
        rows in 1usize..220,
        cols in 1usize..60,
        alpha in -3.0f64..3.0,
        seed in any::<u64>(),
    ) {
        let a = gaussian(rows, cols, seed);
        let kf = rows as f64 + 2.0;
        let tn = block::syrk(a.view(), alpha, SyrkShape::TransposeA);
        let tn_ref = reference::syrk_v(a.view(), alpha);
        let mut absprod = Matrix::zeros(cols, cols);
        reference::gemm_v(
            Trans::Yes, abs_matrix(&a).view(), Trans::No, abs_matrix(&a).view(),
            alpha.abs(), 0.0, absprod.view_mut(),
        );
        for i in 0..cols {
            for j in 0..cols {
                let tol = C_BOUND * kf * EPS * (absprod[(i, j)] + 1.0);
                prop_assert!((tn[(i, j)] - tn_ref[(i, j)]).abs() <= tol,
                    "TN {rows}x{cols} C[{i},{j}]");
                prop_assert_eq!(tn[(i, j)], tn[(j, i)]);
            }
        }

        let nt = block::syrk(a.view(), alpha, SyrkShape::TransposeB);
        let nt_ref = reference::syrk_nt_v(a.view(), alpha);
        let kf_nt = cols as f64 + 2.0;
        let mut absprod_nt = Matrix::zeros(rows, rows);
        reference::gemm_v(
            Trans::No, abs_matrix(&a).view(), Trans::Yes, abs_matrix(&a).view(),
            alpha.abs(), 0.0, absprod_nt.view_mut(),
        );
        for i in 0..rows {
            for j in 0..rows {
                let tol = C_BOUND * kf_nt * EPS * (absprod_nt[(i, j)] + 1.0);
                prop_assert!((nt[(i, j)] - nt_ref[(i, j)]).abs() <= tol,
                    "NT {rows}x{cols} C[{i},{j}]");
                prop_assert_eq!(nt[(i, j)], nt[(j, i)]);
            }
        }
    }

    /// The tall-skinny engine on its class: one dimension up to past two
    /// `kc` slices, the other two at most 32 (every `m mod 8` and
    /// `n mod 4` edge), all four op combinations, alpha ≠ 1 and beta in
    /// {0, 1, other}.
    #[test]
    fn tall_skinny_conforms_on_class_shapes(
        which in 0usize..3,
        tall in 33usize..1100,
        s1 in 1usize..=32,
        s2 in 1usize..=32,
        ta in any::<bool>(),
        tb in any::<bool>(),
        alpha in -3.0f64..3.0,
        beta_kind in 0usize..3,
        beta_value in -2.0f64..2.0,
        seed in any::<u64>(),
    ) {
        // The engine's contract excludes alpha = 0 (the dispatcher
        // handles it with a beta pass).
        let alpha = if alpha == 0.0 { 1.0 } else { alpha };
        let (m, n, k) = match which {
            0 => (tall, s1, s2),
            1 => (s1, tall, s2),
            _ => (s1, s2, tall),
        };
        // The three cases the first depth slice distinguishes.
        let beta = match beta_kind {
            0 => 0.0,
            1 => 1.0,
            _ => beta_value,
        };
        assert_gemm_conforms(
            skinny::gemm, m, n, k, trans_from(ta), trans_from(tb), alpha, beta, seed,
        );
    }

    /// Tall-skinny SYRK in both orientations vs the reference, with exact
    /// symmetry: `tall × small` for `AᵀA`, `small × tall` for `A Aᵀ`.
    #[test]
    fn tall_skinny_syrk_conforms(
        tall in 1usize..1100,
        small in 1usize..=32,
        alpha in -3.0f64..3.0,
        seed in any::<u64>(),
    ) {
        for (a, shape) in [
            (gaussian(tall, small, seed), SyrkShape::TransposeA),
            (gaussian(small, tall, seed), SyrkShape::TransposeB),
        ] {
            let got = skinny::syrk(a.view(), alpha, shape);
            let (expect, abs) = match shape {
                SyrkShape::TransposeA => (
                    reference::syrk_v(a.view(), alpha),
                    reference::syrk_v(abs_matrix(&a).view(), alpha.abs()),
                ),
                SyrkShape::TransposeB => (
                    reference::syrk_nt_v(a.view(), alpha),
                    reference::syrk_nt_v(abs_matrix(&a).view(), alpha.abs()),
                ),
            };
            let kf = tall as f64 + 2.0;
            for i in 0..small {
                for j in 0..small {
                    let tol = C_BOUND * kf * EPS * (abs[(i, j)] + 1.0);
                    prop_assert!((got[(i, j)] - expect[(i, j)]).abs() <= tol,
                        "{shape:?} {tall}x{small} C[{i},{j}]");
                    prop_assert_eq!(got[(i, j)], got[(j, i)]);
                }
            }
        }
    }

    /// The public dispatcher (whatever engine it picks) always agrees with
    /// the reference oracle — the user-facing conformance statement.
    #[test]
    fn dispatcher_conforms(
        m in 1usize..120,
        n in 1usize..50,
        k in 1usize..150,
        ta in any::<bool>(),
        tb in any::<bool>(),
        alpha in -2.0f64..2.0,
        seed in any::<u64>(),
    ) {
        let (ta, tb) = (trans_from(ta), trans_from(tb));
        let a = match ta { Trans::No => gaussian(m, k, seed), Trans::Yes => gaussian(k, m, seed) };
        let b = match tb { Trans::No => gaussian(k, n, seed ^ 7), Trans::Yes => gaussian(n, k, seed ^ 7) };
        let got = tt_linalg::gemm(ta, &a, tb, &b, alpha);
        let mut expect = Matrix::zeros(m, n);
        reference::gemm_v(ta, a.view(), tb, b.view(), alpha, 0.0, expect.view_mut());
        let tol = C_BOUND * (k as f64 + 2.0) * EPS
            * (1.0 + alpha.abs() * (a.max_abs() * b.max_abs()).max(1.0) * k as f64);
        prop_assert!(got.max_abs_diff(&expect) <= tol);
    }
}

/// Deterministic edge cases the blocking scheme must absorb without special
/// casing in the microkernel.
#[test]
fn gemm_edge_cases() {
    for &(m, n, k) in &[
        (0usize, 5usize, 3usize), // 0×n output
        (5, 0, 3),                // m×0 output
        (4, 4, 0),                // empty contraction: C = beta·C
        (1, 1, 1),                // scalar
        (1, 64, 300),             // single row, deep contraction
        (300, 1, 64),             // single column
        (MR - 1, NR - 1, 5),      // strictly sub-microkernel tile
        (MR, NR, 1),              // exact tile, k=1
        (MR + 1, NR + 1, 2),      // one-past-tile
        (2000, 4, 4),             // extreme tall-skinny
        (4, 2000, 4),             // extreme short-wide
    ] {
        for (ta, tb) in [
            (Trans::No, Trans::No),
            (Trans::Yes, Trans::No),
            (Trans::No, Trans::Yes),
            (Trans::Yes, Trans::Yes),
        ] {
            assert_gemm_conforms(
                packed,
                m,
                n,
                k,
                ta,
                tb,
                -1.75,
                0.5,
                1000 + m as u64 + n as u64,
            );
        }
    }
}

/// Alpha = 0 must leave `C = beta·C` exactly (no kernel invocation).
#[test]
fn gemm_zero_alpha_is_exact() {
    let c0 = gaussian(40, 40, 5);
    let a = gaussian(40, 40, 6);
    let b = gaussian(40, 40, 7);
    let mut c = c0.clone();
    tt_linalg::gemm_into(Trans::No, &a, Trans::No, &b, 0.0, 2.0, &mut c);
    for j in 0..40 {
        for i in 0..40 {
            assert_eq!(c[(i, j)], 2.0 * c0[(i, j)]);
        }
    }
}

/// SYRK edge cases: empty, single-vector, and square-at-block-boundary.
#[test]
fn syrk_edge_cases() {
    for &(rows, cols) in &[
        (0usize, 4usize),
        (4, 0),
        (1, 1),
        (1, 50),
        (50, 1),
        (256, 256),
    ] {
        let a = gaussian(rows, cols, 2000 + rows as u64);
        let tn = block::syrk(a.view(), 2.0, SyrkShape::TransposeA);
        let tn_ref = reference::syrk_v(a.view(), 2.0);
        assert_eq!(tn.shape(), (cols, cols));
        assert!(
            tn.max_abs_diff(&tn_ref)
                <= C_BOUND * (rows as f64 + 2.0) * EPS * (1.0 + tn_ref.max_abs()),
            "TN {rows}x{cols}"
        );
        let nt = block::syrk(a.view(), 2.0, SyrkShape::TransposeB);
        let nt_ref = reference::syrk_nt_v(a.view(), 2.0);
        assert_eq!(nt.shape(), (rows, rows));
        assert!(
            nt.max_abs_diff(&nt_ref)
                <= C_BOUND * (cols as f64 + 2.0) * EPS * (1.0 + nt_ref.max_abs()),
            "NT {rows}x{cols}"
        );
    }
}

fn assert_bits_eq(got: &Matrix, expect: &Matrix, what: &str) {
    assert_eq!(got.shape(), expect.shape(), "{what}");
    for (x, y) in got.as_slice().iter().zip(expect.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: {x} vs {y}");
    }
}

/// The tall-skinny engine is bitwise equal to the packed one: the same
/// `kc`-slice sums, added in the same order, with the same multiply-add.
/// Covers the tall dimension in every position, edge tiles in both
/// directions, depth crossing `kc`, all four op combinations and every
/// `beta` case; then SYRK in both orientations.
#[test]
fn tall_skinny_bitwise_equals_packed() {
    let kc = tune::tuning().kc;
    let mut seed = 0u64;
    for &(m, n, k) in &[
        (2005usize, 13usize, 20usize),
        (4000, 32, 31),
        (20, 20, 2 * kc + 7),
        (31, 7, kc + 1),
        (10, 1003, 20),
        (9, 32, 500),
        (32, 32, 32),
    ] {
        for ta in [Trans::No, Trans::Yes] {
            for tb in [Trans::No, Trans::Yes] {
                for (alpha, beta) in [(1.0, 0.0), (-1.5, 1.0), (0.75, -0.5)] {
                    seed += 1;
                    let a = match ta {
                        Trans::No => gaussian(m, k, seed),
                        Trans::Yes => gaussian(k, m, seed),
                    };
                    let b = match tb {
                        Trans::No => gaussian(k, n, seed ^ 3),
                        Trans::Yes => gaussian(n, k, seed ^ 3),
                    };
                    let c0 = gaussian(m, n, seed ^ 5);
                    let mut fast = c0.clone();
                    skinny::gemm(
                        ta,
                        a.view(),
                        tb,
                        b.view(),
                        alpha,
                        beta,
                        &mut fast.view_mut(),
                    );
                    let mut slow = c0.clone();
                    packed(
                        ta,
                        a.view(),
                        tb,
                        b.view(),
                        alpha,
                        beta,
                        &mut slow.view_mut(),
                    );
                    let what = format!("gemm ({m},{n},{k}) {ta:?} {tb:?} beta={beta}");
                    assert_bits_eq(&fast, &slow, &what);
                }
            }
        }
    }
    for &(rows, cols) in &[
        (5000usize, 20usize),
        (3 * kc + 5, 13),
        (kc, 32),
        (37, 1),
        (1, 7),
        (20, 3000),
        (13, kc + 9),
    ] {
        seed += 1;
        let a = gaussian(rows, cols, seed);
        for shape in [SyrkShape::TransposeA, SyrkShape::TransposeB] {
            for alpha in [1.0, -0.5] {
                let fast = skinny::syrk(a.view(), alpha, shape);
                let slow = block::syrk(a.view(), alpha, shape);
                assert_bits_eq(&fast, &slow, &format!("syrk {rows}x{cols} {shape:?}"));
            }
        }
    }
}
