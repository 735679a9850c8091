//! Criterion microbenchmarks for the dense-LA substrate at TT-rank-typical
//! sizes: the `R × R` factorizations and SVDs every bond truncation solves,
//! whole bond truncations, and the tall-skinny factorizations of the
//! unfolding kernels.

#![allow(
    clippy::unwrap_used,
    reason = "a failed unwrap aborts the benchmark run"
)]

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use tt_core::round::truncate::{gram_truncate, SingularSide};
use tt_linalg::{
    cholesky, eigh, gemm, householder_qr, jacobi_svd, pivoted_cholesky, syrk, tsvd, Matrix, Trans,
};

fn rng() -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(7)
}

/// The Gram matrix `AᵀA` of a `3r × r` unfolding of true rank `k` whose
/// singular values fall over eight decades, as a Krylov-train bond gives
/// it: `r − k` of its eigenvalues are rounding noise.
fn bond_gram(r: usize, k: usize, rng: &mut rand::rngs::StdRng) -> Matrix {
    let mut c = Matrix::gaussian(k, r, rng);
    for j in 0..r {
        for i in 0..k {
            c[(i, j)] *= 10f64.powf(-8.0 * i as f64 / k as f64);
        }
    }
    let a = gemm(
        Trans::No,
        &Matrix::gaussian(3 * r, k, rng),
        Trans::No,
        &c,
        1.0,
    );
    syrk(&a, 1.0)
}

/// The EVD route's truncation matrix `M = Λ_L^{1/2} V_Lᵀ V_R Λ_R^{1/2}` of
/// a bond of rank `r` whose Gram pair has true ranks `kl` and `kr`, with
/// the eigenvalues clamped at `λ_max·ε` as that route clamps them (a
/// Gram-RLR/LRL bond whose Cholesky certificate misses).
fn sim_gram_pair_m(r: usize, kl: usize, kr: usize, rng: &mut rand::rngs::StdRng) -> Matrix {
    let mut side = |k: usize| {
        let e = eigh(&bond_gram(r, k, rng)).unwrap().descending();
        let floor = e.values[0] * f64::EPSILON;
        let s: Vec<f64> = e.values.iter().map(|&l| l.max(floor).sqrt()).collect();
        (e.vectors, s)
    };
    let (vl, sl) = side(kl);
    let (vr, sr) = side(kr);
    let mut m = gemm(Trans::Yes, &vl, Trans::No, &vr, 1.0);
    for j in 0..r {
        for i in 0..r {
            m[(i, j)] *= sl[i] * sr[j];
        }
    }
    m
}

/// The TSVD threshold of a bond matrix `M` in a TT-GMRES solve at
/// tolerance 1e-5 on a 4-mode train: `ε₀ = ε·‖M‖_F/√(N − 1)`.
fn krylov_budget(m: &Matrix) -> f64 {
    1e-5 * m.fro_norm() / 3f64.sqrt()
}

/// A whole Gram-Sim bond truncation, `Split` side, on a `bond_gram` pair
/// of size `r` with true ranks `kl` and `kr` at the Krylov budget of the
/// bond product `X`, `‖X‖_F² = tr(G_L G_R)`: the Gram factorizations, the
/// TSVD of `M` and the update matrices together.
fn bench_gram_truncate(c: &mut Criterion) {
    let mut group = c.benchmark_group("gram_truncate");
    let mut r = rng();
    for (n, kl, kr) in [(36usize, 27usize, 9usize), (100, 28, 10)] {
        let (gl, gr) = (bond_gram(n, kl, &mut r), bond_gram(n, kr, &mut r));
        let x_norm = gl
            .as_slice()
            .iter()
            .zip(gr.as_slice())
            .map(|(a, b)| a * b)
            .sum::<f64>()
            .sqrt();
        let budget = 1e-5 * x_norm / 3f64.sqrt();
        group.bench_function(
            BenchmarkId::new("gram_truncate", format!("split_{n}")),
            |b| {
                b.iter(|| {
                    gram_truncate(
                        0,
                        black_box(&gl),
                        black_box(&gr),
                        budget,
                        None,
                        SingularSide::Split,
                    )
                });
            },
        );
    }
    group.finish();
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
    // The Gram matrices of the Gram roundings on the cookies Krylov trains:
    // a rank-36 bond after the operator, and the ~100 of the final solution
    // assembly, both rank-deficient.
    let grams: Vec<Matrix> = [(36usize, 12usize), (100, 30)]
        .into_iter()
        .map(|(n, k)| bond_gram(n, k, &mut r))
        .collect();
    for g in &grams {
        group.bench_with_input(BenchmarkId::new("bond_gram", g.rows()), g, |b, g| {
            b.iter(|| eigh(g).unwrap());
        });
    }
    group.finish();

    // The factorization the sequence variants take instead of the EVD pair
    // when its certificate allows, on the same Grams and at the same
    // relative pivot tolerance `R·ε`.
    let mut group = c.benchmark_group("pivoted_cholesky");
    for g in &grams {
        let tol = g.rows() as f64 * f64::EPSILON;
        group.bench_with_input(BenchmarkId::new("bond_gram", g.rows()), g, |b, g| {
            b.iter(|| pivoted_cholesky(black_box(g), tol));
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
    group.bench_function("tsvd_rank_deficient_r_108x36", |b| {
        b.iter(|| tsvd(&rd, krylov_budget(&rd)));
    });
    let leaf = Matrix::gaussian(9, 36, &mut r).vstack(&Matrix::zeros(27, 36));
    let rp = householder_qr(&leaf).r();
    group.bench_function("jacobi_padded_leaf_r_9x36", |b| {
        b.iter(|| jacobi_svd(&rp));
    });
    // The EVD route's truncation matrix at the same two bond ranks as the
    // `eigh` group's Gram rows.
    for (n, kl, kr) in [(36usize, 12usize, 15usize), (100, 30, 40)] {
        let m = sim_gram_pair_m(n, kl, kr, &mut r);
        group.bench_with_input(BenchmarkId::new("jacobi_sim_gram_pair_m", n), &m, |b, m| {
            b.iter(|| jacobi_svd(m));
        });
        group.bench_with_input(BenchmarkId::new("tsvd_sim_gram_pair_m", n), &m, |b, m| {
            b.iter(|| tsvd(m, krylov_budget(m)));
        });
    }
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

    // QR on a TSQR-leaf-like panel: factor, thin Q and R.
    let q_in = Matrix::gaussian(4000, 32, &mut r);
    group.bench_function(BenchmarkId::new("kernels_qr_unblocked", "4000x32"), |bch| {
        bch.iter(|| {
            let f = householder_qr(&q_in);
            black_box((f.thin_q(), f.r()))
        });
    });

    // The QR at `round_tall`'s TSQR leaf shape (a 20000×20 unfolding):
    // factor, thin Q and R, as `tsqr` runs them.
    let leaf = Matrix::gaussian(20_000, 20, &mut r);
    group.bench_function(BenchmarkId::new("kernels_qr", "20000x20"), |bch| {
        bch.iter(|| {
            let f = householder_qr(&leaf);
            black_box((f.thin_q(), f.r()))
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_eigh,
    bench_svd,
    bench_gram_truncate,
    bench_qr,
    bench_kernels
);
criterion_main!(benches);
