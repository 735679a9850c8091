//! Criterion microbenchmarks for the dense-LA substrate at TT-rank-typical
//! sizes: the `R × R` eigen/SVD problems every bond truncation solves, and
//! the tall-skinny factorizations of the unfolding kernels.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use tt_linalg::par::with_threads;
use tt_linalg::{
    blocked_qr, cholesky, eigh, gemm, householder_qr, householder_qr_unblocked, jacobi_svd, syrk,
    Matrix, Trans,
};

fn rng() -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(7)
}

fn bench_eigh(c: &mut Criterion) {
    let mut group = c.benchmark_group("eigh");
    let mut r = rng();
    for n in [20usize, 40, 80] {
        let a = Matrix::gaussian(n + 10, n, &mut r);
        let g = syrk(&a, 1.0);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| eigh(g).unwrap());
        });
    }
    group.finish();
}

fn bench_svd(c: &mut Criterion) {
    let mut group = c.benchmark_group("svd");
    let mut r = rng();
    for n in [20usize, 40, 80] {
        let a = Matrix::gaussian(n, n, &mut r);
        group.bench_with_input(BenchmarkId::new("jacobi", n), &a, |b, a| {
            b.iter(|| jacobi_svd(a));
        });
    }
    // Tall-skinny case: the shape of an unfolding rather than a bond matrix.
    let a = Matrix::gaussian(4000, 20, &mut r);
    group.bench_function("jacobi_tall_4000x20", |b| {
        b.iter(|| jacobi_svd(&a));
    });
    // The truncation SVD of TSQR rounding on rank-deficient bonds of the
    // cookies Krylov trains (rank 9, formal rank 36): the R of a 108×36
    // rank-9 product, and the R of a 9×36 leaf zero-row-padded to 36×36 as
    // TSQR pads it. 27 of their singular values are rounding noise; the
    // padded one is the shape that used to run out every Jacobi sweep.
    let low_rank = gemm(
        Trans::No,
        &Matrix::gaussian(108, 9, &mut r),
        Trans::No,
        &Matrix::gaussian(9, 36, &mut r),
        1.0,
    );
    let rd = householder_qr(&low_rank).r();
    group.bench_function("jacobi_rank_deficient_r_108x36", |b| {
        b.iter(|| jacobi_svd(&rd));
    });
    let leaf = Matrix::gaussian(9, 36, &mut r).vstack(&Matrix::zeros(27, 36));
    let rp = householder_qr(&leaf).r();
    group.bench_function("jacobi_padded_leaf_r_9x36", |b| {
        b.iter(|| jacobi_svd(&rp));
    });
    group.finish();
}

fn bench_qr(c: &mut Criterion) {
    let mut group = c.benchmark_group("qr");
    let mut r = rng();
    for (m, n) in [(4000usize, 20usize), (40000, 20)] {
        let a = Matrix::gaussian(m, n, &mut r);
        group.bench_with_input(
            BenchmarkId::new("householder_thin_q", format!("{m}x{n}")),
            &a,
            |b, a| {
                b.iter(|| {
                    let f = householder_qr(a);
                    (f.thin_q(), f.r())
                });
            },
        );
        // The Gram alternative for the same task: syrk + small Cholesky —
        // the flop comparison behind the whole paper.
        group.bench_with_input(
            BenchmarkId::new("syrk_chol", format!("{m}x{n}")),
            &a,
            |b, a| {
                b.iter(|| {
                    let g = syrk(a, 1.0);
                    cholesky(&g).unwrap()
                });
            },
        );
    }
    group.finish();
}

/// Blocked-vs-reference kernel pairs at the fig2/fig3 calibration sizes.
/// Ids carry the `kernels_` prefix so `cargo xtask bench-check` can select
/// exactly this set via `CRITERION_FILTER` and gate on the speedups in
/// `BENCH_kernels.json`.
fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");
    group.sample_size(10);
    let mut r = rng();

    // GEMM at the γ-calibration size (the 256³ probe of `calibrate_gamma`).
    let n = 256usize;
    let a = Matrix::gaussian(n, n, &mut r);
    let b = Matrix::gaussian(n, n, &mut r);
    group.bench_function(BenchmarkId::new("kernels_gemm_blocked", n), |bch| {
        bch.iter(|| {
            let mut c_out = Matrix::zeros(n, n);
            tt_linalg::block::gemm_accumulate(
                Trans::No,
                a.view(),
                Trans::No,
                b.view(),
                1.0,
                &mut c_out.view_mut(),
            );
            black_box(c_out)
        });
    });
    group.bench_function(BenchmarkId::new("kernels_gemm_reference", n), |bch| {
        bch.iter(|| {
            let mut c_out = Matrix::zeros(n, n);
            tt_linalg::reference::gemm_v(
                Trans::No,
                a.view(),
                Trans::No,
                b.view(),
                1.0,
                0.0,
                c_out.view_mut(),
            );
            black_box(c_out)
        });
    });

    // SYRK on a tall-skinny unfolding (the Gram-path workhorse shape).
    let ts = Matrix::gaussian(40_000, 20, &mut r);
    group.bench_function(
        BenchmarkId::new("kernels_syrk_blocked", "40000x20"),
        |bch| {
            bch.iter(|| {
                black_box(tt_linalg::block::syrk(
                    ts.view(),
                    1.0,
                    tt_linalg::SyrkShape::TransposeA,
                ))
            });
        },
    );
    group.bench_function(
        BenchmarkId::new("kernels_syrk_reference", "40000x20"),
        |bch| bch.iter(|| black_box(tt_linalg::reference::syrk_v(ts.view(), 1.0))),
    );
    // The dispatched SYRK on the same shape: the unpacked tall-skinny
    // engine, as the Gram sweeps run it. Read against the reference row.
    group.bench_function(BenchmarkId::new("kernels_syrk", "40000x20"), |bch| {
        bch.iter(|| black_box(tt_linalg::syrk_v(ts.view(), 1.0)));
    });

    // QR on a TSQR-leaf-like panel: one compact-WY panel (with its `T` and
    // WY thin Q) vs the one-panel reflector kernel.
    let q_in = Matrix::gaussian(4000, 32, &mut r);
    group.bench_function(BenchmarkId::new("kernels_qr_blocked", "4000x32"), |bch| {
        bch.iter(|| {
            let f = blocked_qr(&q_in, 32);
            black_box((f.thin_q(), f.r()))
        });
    });
    group.bench_function(BenchmarkId::new("kernels_qr_unblocked", "4000x32"), |bch| {
        bch.iter(|| {
            let f = householder_qr_unblocked(&q_in);
            black_box((f.thin_q(), f.r()))
        });
    });

    // The dispatched QR at `round_tall`'s TSQR leaf shape (a 20000×20
    // unfolding): factor, thin Q and R, as `tsqr` runs them.
    let leaf = Matrix::gaussian(20_000, 20, &mut r);
    group.bench_function(BenchmarkId::new("kernels_qr", "20000x20"), |bch| {
        bch.iter(|| {
            let f = householder_qr(&leaf);
            black_box((f.thin_q(), f.r()))
        });
    });
    group.finish();
}

/// Forced-thread-count pairs for the shared-memory parallel layer. Each
/// kernel runs under `par::with_threads(1)` and `par::with_threads(4)` (the
/// override pins the pool regardless of `TT_NUM_THREADS`, the flop
/// threshold, and the machine-share cap), so the pair isolates the chunked
/// dispatch itself. `cargo xtask bench-check` gates the 4-thread GEMM at
/// ≥ 2.0× over 1-thread on 512³ — but only on machines with ≥ 4 hardware
/// threads; elsewhere the pair is recorded for the regression gate only.
fn bench_kernels_par(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels_par");
    group.sample_size(10);
    let mut r = rng();

    // GEMM at 512³: large enough that the chunked sweep amortizes its
    // fork/join, and the size the speedup floor is defined at.
    let n = 512usize;
    let a = Matrix::gaussian(n, n, &mut r);
    let b = Matrix::gaussian(n, n, &mut r);
    for threads in [1usize, 4] {
        group.bench_function(
            BenchmarkId::new(&format!("kernels_par_gemm_{threads}t"), n),
            |bch| {
                bch.iter(|| {
                    with_threads(threads, || {
                        let mut c_out = Matrix::zeros(n, n);
                        tt_linalg::block::gemm_accumulate(
                            Trans::No,
                            a.view(),
                            Trans::No,
                            b.view(),
                            1.0,
                            &mut c_out.view_mut(),
                        );
                        black_box(c_out)
                    })
                });
            },
        );
    }

    // SYRK on a tall-skinny unfolding: the Gram-sweep workhorse, split over
    // triangle block-columns.
    let ts = Matrix::gaussian(60_000, 64, &mut r);
    for threads in [1usize, 4] {
        group.bench_function(
            BenchmarkId::new(&format!("kernels_par_syrk_{threads}t"), "60000x64"),
            |bch| {
                bch.iter(|| {
                    with_threads(threads, || {
                        black_box(tt_linalg::block::syrk(
                            ts.view(),
                            1.0,
                            tt_linalg::SyrkShape::TransposeA,
                        ))
                    })
                });
            },
        );
    }

    // Compact-WY QR: threading arrives indirectly through the trailing-
    // update GEMMs.
    let q_in = Matrix::gaussian(8000, 128, &mut r);
    for threads in [1usize, 4] {
        group.bench_function(
            BenchmarkId::new(&format!("kernels_par_qr_{threads}t"), "8000x128"),
            |bch| {
                bch.iter(|| {
                    with_threads(threads, || {
                        let f = blocked_qr(&q_in, 32);
                        black_box((f.thin_q(), f.r()))
                    })
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_eigh,
    bench_svd,
    bench_qr,
    bench_kernels,
    bench_kernels_par
);
criterion_main!(benches);
