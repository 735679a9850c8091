//! Criterion microbenchmarks for the kernels behind the paper's claims:
//!
//! * `matprod`   — §III: QR-based (Alg. 3) vs Gram-SVD (Alg. 4) truncation
//!   of a tall-skinny product `A·Bᵀ` (Gram must win — it is the paper's
//!   core flop argument).
//! * `rounding`  — the four TT-Rounding variants on a model-4-shaped tensor
//!   (sequence variants fastest, QR slowest).
//! * `gram_sweep` — §IV-B ablation: non-symmetric (`gemm`+`gemm`) vs
//!   symmetric (`chol`+`trmm`+`syrk`) structured Gram sweeps.
//! * `gemm`      — the raw multiply kernel at rounding-typical shapes, and
//!   the packed engine against the unpacked register tile on the shapes
//!   the dispatcher sends to the packed one.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use tt_core::matprod::{mat_rounding_qr, tsvd_abt_gram};
use tt_core::round::{gram_sweep_right, gram_sweep_right_symmetric};
use tt_core::synthetic::generate_redundant;
use tt_core::{RoundingMethod, RoundingOptions};
use tt_linalg::{gemm, Matrix, Trans};

fn rng() -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(42)
}

fn bench_matprod(c: &mut Criterion) {
    let mut group = c.benchmark_group("matprod");
    let mut r = rng();
    for &(m, k, rank) in &[(2000usize, 2000usize, 20usize), (8000, 4000, 40)] {
        let a = Matrix::gaussian(m, rank, &mut r);
        let b = Matrix::gaussian(k, rank, &mut r);
        let thr = 1e-8;
        group.bench_with_input(
            BenchmarkId::new("alg3_qr", format!("{m}x{k}r{rank}")),
            &(&a, &b),
            |bench, (a, b)| bench.iter(|| mat_rounding_qr(a, b, thr)),
        );
        group.bench_with_input(
            BenchmarkId::new("alg4_gram", format!("{m}x{k}r{rank}")),
            &(&a, &b),
            |bench, (a, b)| bench.iter(|| tsvd_abt_gram(a, b, thr)),
        );
    }
    group.finish();
}

fn bench_rounding(c: &mut Criterion) {
    let mut group = c.benchmark_group("rounding");
    group.sample_size(10);
    let mut r = rng();
    // Model-4 shape at 1/8 scale: 1250 x 20 x ... x 20, ranks 20 -> 10.
    let mut dims = vec![20usize; 10];
    dims[0] = 1250;
    let x = generate_redundant(&dims, 10, &mut r);
    let opts = RoundingOptions::with_tolerance(1e-8);
    let comm = tt_comm::SelfComm::new();
    for v in tt_bench::ALL_VARIANTS {
        group.bench_function(v.name(), |bench| {
            bench.iter(|| v.round(&comm, &x, &opts));
        });
    }
    // The paper's future-work hypothesis: randomized rounding reduces
    // arithmetic further while staying gemm-based.
    let rand_opts = RoundingOptions::default().max_rank(10);
    let rand_method = RoundingMethod::randomized();
    group.bench_function("Randomized", |bench| {
        bench.iter(|| tt_core::round(&comm, x.clone(), rand_method, &rand_opts));
    });
    group.finish();
}

fn bench_gram_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("gram_sweep");
    let mut r = rng();
    let mut dims = vec![20usize; 10];
    dims[0] = 2500;
    let x = generate_redundant(&dims, 10, &mut r);
    let comm = tt_comm::SelfComm::new();
    group.bench_function("nonsymmetric_gemm", |bench| {
        bench.iter(|| gram_sweep_right(&comm, &x));
    });
    group.bench_function("symmetric_chol_trmm_syrk", |bench| {
        bench.iter(|| gram_sweep_right_symmetric(&comm, &x));
    });
    group.finish();
}

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    let mut r = rng();
    // Rounding-typical shapes: tall-skinny contractions and small updates.
    let a = Matrix::gaussian(20 * 2000, 20, &mut r);
    group.bench_function("syrk_40000x20", |bench| {
        bench.iter(|| tt_linalg::syrk(&a, 1.0));
    });
    let b = Matrix::gaussian(20, 20, &mut r);
    group.bench_function("vxw_40000x20x20", |bench| {
        bench.iter(|| gemm(Trans::No, &a, Trans::No, &b, 1.0));
    });

    // Packed engine vs the unpacked register tile on shapes the dispatcher
    // sends to the packed one: the γ-calibration cubes, a tall 8000×32
    // times 32×96 product, and a cookies Krylov Gram (R = 36). Both are
    // sequential here, and their results are bitwise equal.
    for (ta, m, n, k) in [
        (Trans::No, 256usize, 256usize, 256usize),
        (Trans::No, 512, 512, 512),
        (Trans::No, 8000, 96, 32),
        (Trans::Yes, 36, 36, 108),
    ] {
        let op = if ta == Trans::No { "nn" } else { "tn" };
        let shape = format!("{op}_{m}x{n}x{k}");
        let a = match ta {
            Trans::No => Matrix::gaussian(m, k, &mut r),
            Trans::Yes => Matrix::gaussian(k, m, &mut r),
        };
        let b = Matrix::gaussian(k, n, &mut r);
        group.bench_function(BenchmarkId::new("packed", &shape), |bench| {
            bench.iter(|| {
                let mut c = Matrix::zeros(m, n);
                tt_linalg::block::gemm_accumulate(
                    ta,
                    a.view(),
                    Trans::No,
                    b.view(),
                    1.0,
                    &mut c.view_mut(),
                );
                c
            });
        });
        group.bench_function(BenchmarkId::new("tile", &shape), |bench| {
            bench.iter(|| {
                let mut c = Matrix::zeros(m, n);
                tt_linalg::skinny::gemm(
                    ta,
                    a.view(),
                    Trans::No,
                    b.view(),
                    1.0,
                    0.0,
                    &mut c.view_mut(),
                );
                c
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_matprod,
    bench_rounding,
    bench_gram_sweep,
    bench_gemm
);
criterion_main!(benches);
