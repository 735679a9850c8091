//! Bitwise-determinism suite for the shared-memory parallel kernel layer.
//!
//! The contract (DESIGN.md §9): for every thread count, every kernel routed
//! through `tt_linalg::par` produces output **bit-for-bit identical** to the
//! single-threaded run, because work is partitioned only over output blocks
//! and the `k`-reduction order per element never changes. These tests pin
//! that contract on the shapes where it could plausibly break: edge slabs
//! (dimensions not a multiple of any blocking constant), rank-deficient
//! inputs, and partitions narrower than one chunk per thread.
//!
//! `par::with_threads` is used instead of `TT_NUM_THREADS` so the suite
//! genuinely exercises the multi-threaded chunking even on single-core CI
//! runners (the override bypasses the flop threshold and machine-share cap).

use rand::SeedableRng;
use tt_linalg::par::with_threads;
use tt_linalg::{blocked_qr, gemm_v, householder_qr, syrk_nt_v, syrk_v, Matrix, SyrkShape, Trans};

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

fn assert_bits_eq(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    for (idx, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{what}: entry {idx} differs: {x:?} vs {y:?}"
        );
    }
}

/// A rank-deficient matrix: `rank` independent gaussian columns, the rest
/// exact copies (so the deficiency is exact in floating point, not merely
/// numerical).
fn rank_deficient(rows: usize, cols: usize, rank: usize, seed: u64) -> Matrix {
    let mut r = rng(seed);
    let base = Matrix::gaussian(rows, rank.max(1), &mut r);
    Matrix::from_fn(rows, cols, |i, j| base[(i, j % rank.max(1))])
}

const THREAD_COUNTS: [usize; 4] = [2, 3, 4, 8];

/// Shapes straddling the blocking constants: MR=8/NR=4 register tiles and
/// KC=256 depth slices — tile-exact, one-past-tile, and far-from-aligned
/// cases.
const GEMM_SHAPES: [(usize, usize, usize); 5] = [
    (96, 96, 96),
    (129, 37, 257), // odd m and n, one past KC
    (8, 4, 16),     // single register tile
    (200, 3, 300),  // fewer column blocks than threads
    (61, 131, 67),  // nothing aligned
];

#[test]
fn gemm_bitwise_identical_across_thread_counts() {
    let mut seed = 100;
    for &(m, n, k) in &GEMM_SHAPES {
        for &ta in &[Trans::No, Trans::Yes] {
            for &tb in &[Trans::No, Trans::Yes] {
                seed += 1;
                let mut r = rng(seed);
                let a = match ta {
                    Trans::No => Matrix::gaussian(m, k, &mut r),
                    Trans::Yes => Matrix::gaussian(k, m, &mut r),
                };
                let b = match tb {
                    Trans::No => Matrix::gaussian(k, n, &mut r),
                    Trans::Yes => Matrix::gaussian(n, k, &mut r),
                };
                let c0 = Matrix::gaussian(m, n, &mut r);
                let mut c1 = c0.clone();
                with_threads(1, || {
                    gemm_v(ta, a.view(), tb, b.view(), 1.5, 0.25, c1.view_mut());
                });
                for &t in &THREAD_COUNTS {
                    let mut ct = c0.clone();
                    with_threads(t, || {
                        gemm_v(ta, a.view(), tb, b.view(), 1.5, 0.25, ct.view_mut());
                    });
                    assert_bits_eq(
                        &c1,
                        &ct,
                        &format!("gemm ({m},{n},{k}) {ta:?}{tb:?} 1t vs {t}t"),
                    );
                }
            }
        }
    }
}

#[test]
fn gemm_rank_deficient_bitwise_identical() {
    let a = rank_deficient(120, 60, 5, 7);
    let b = rank_deficient(60, 90, 3, 8);
    let mut c1 = Matrix::zeros(120, 90);
    with_threads(1, || {
        gemm_v(
            Trans::No,
            a.view(),
            Trans::No,
            b.view(),
            -2.0,
            0.0,
            c1.view_mut(),
        );
    });
    for &t in &THREAD_COUNTS {
        let mut ct = Matrix::zeros(120, 90);
        with_threads(t, || {
            gemm_v(
                Trans::No,
                a.view(),
                Trans::No,
                b.view(),
                -2.0,
                0.0,
                ct.view_mut(),
            );
        });
        assert_bits_eq(&c1, &ct, &format!("rank-deficient gemm 1t vs {t}t"));
    }
}

#[test]
fn syrk_bitwise_identical_across_thread_counts() {
    // (rows, cols) pairs covering tall-skinny (the TT unfolding case),
    // square, edge-slab, and rank-deficient inputs.
    let cases: Vec<(Matrix, &str)> = vec![
        (Matrix::gaussian(400, 67, &mut rng(20)), "tall-skinny"),
        (Matrix::gaussian(130, 130, &mut rng(21)), "square edge"),
        (Matrix::gaussian(37, 259, &mut rng(22)), "wide"),
        (rank_deficient(300, 48, 7, 23), "rank-deficient"),
    ];
    for (a, label) in &cases {
        for shape in [SyrkShape::TransposeA, SyrkShape::TransposeB] {
            let s1 = with_threads(1, || match shape {
                SyrkShape::TransposeA => syrk_v(a.view(), 1.0),
                SyrkShape::TransposeB => syrk_nt_v(a.view(), 1.0),
            });
            for &t in &THREAD_COUNTS {
                let st = with_threads(t, || match shape {
                    SyrkShape::TransposeA => syrk_v(a.view(), 1.0),
                    SyrkShape::TransposeB => syrk_nt_v(a.view(), 1.0),
                });
                assert_bits_eq(&s1, &st, &format!("syrk {label} {shape:?} 1t vs {t}t"));
            }
        }
    }
}

#[test]
fn qr_bitwise_identical_across_thread_counts() {
    // The compact-WY trailing updates of the 65-column case and of the
    // explicit `blocked_qr` below ride on the threaded gemm; the whole
    // factorization (packed reflectors, tau, thin Q, R) must be unchanged.
    // The ≤ 64-column cases run the single-threaded one-panel kernel.
    let cases: Vec<(Matrix, &str)> = vec![
        (Matrix::gaussian(600, 64, &mut rng(30)), "tall"),
        (Matrix::gaussian(257, 65, &mut rng(31)), "edge-slab"),
        (rank_deficient(500, 40, 6, 32), "rank-deficient"),
    ];
    for (a, label) in &cases {
        let (q1, r1) = with_threads(1, || {
            let f = householder_qr(a);
            (f.thin_q(), f.r())
        });
        for &t in &THREAD_COUNTS {
            let (qt, rt) = with_threads(t, || {
                let f = householder_qr(a);
                (f.thin_q(), f.r())
            });
            assert_bits_eq(&q1, &qt, &format!("qr {label} Q 1t vs {t}t"));
            assert_bits_eq(&r1, &rt, &format!("qr {label} R 1t vs {t}t"));
        }
        // Same for an explicitly blocked factorization with a small panel,
        // which exercises many trailing updates.
        let (q1, r1) = with_threads(1, || {
            let f = blocked_qr(a, 8);
            (f.thin_q(), f.r())
        });
        for &t in &THREAD_COUNTS {
            let (qt, rt) = with_threads(t, || {
                let f = blocked_qr(a, 8);
                (f.thin_q(), f.r())
            });
            assert_bits_eq(&q1, &qt, &format!("blocked qr {label} Q 1t vs {t}t"));
            assert_bits_eq(&r1, &rt, &format!("blocked qr {label} R 1t vs {t}t"));
        }
    }
}

#[test]
fn parallel_results_also_match_reference_oracle() {
    // Determinism alone could hide a systematically wrong parallel path if
    // both thread counts shared the bug; anchor one case to the naive oracle.
    let mut r = rng(40);
    let a = Matrix::gaussian(100, 80, &mut r);
    let b = Matrix::gaussian(80, 90, &mut r);
    let par = with_threads(4, || {
        let mut c = Matrix::zeros(100, 90);
        gemm_v(
            Trans::No,
            a.view(),
            Trans::No,
            b.view(),
            1.0,
            0.0,
            c.view_mut(),
        );
        c
    });
    let mut oracle = Matrix::zeros(100, 90);
    tt_linalg::reference::gemm_v(
        Trans::No,
        a.view(),
        Trans::No,
        b.view(),
        1.0,
        0.0,
        oracle.view_mut(),
    );
    assert!(par.max_abs_diff(&oracle) < 1e-11 * 81.0);
}
