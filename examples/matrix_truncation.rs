//! The §III story: truncating a low-rank matrix product `X = A·Bᵀ` with the
//! three methods the paper compares, including the robustness scenario where
//! pivoted Cholesky QR fails and Gram SVD survives.
//!
//! Run with: `cargo run --release --example matrix_truncation`

#![allow(
    clippy::print_stdout,
    reason = "user-facing output is this target's job"
)]
#![allow(
    clippy::disallowed_methods,
    reason = "wall-clock timing is what this target reports; no result depends on it"
)]
use rand::SeedableRng;
use tt_gram_round::linalg::{gemm, householder_qr, Matrix, Trans};
use tt_gram_round::tt::matprod::{mat_rounding_qr, tsvd_abt_cholqr, tsvd_abt_gram};

fn rel_err(x: &Matrix, a: &Matrix, b: &Matrix) -> f64 {
    let mut d = gemm(Trans::No, a, Trans::Yes, b, 1.0);
    d.axpy(-1.0, x);
    d.fro_norm() / x.fro_norm()
}

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);

    // ---- Part 1: a product with a decaying spectrum. ----
    let (m, k, r) = (3000usize, 2500usize, 30usize);
    let qa = householder_qr(&Matrix::gaussian(m, r, &mut rng)).thin_q();
    let qb = householder_qr(&Matrix::gaussian(k, r, &mut rng)).thin_q();
    let mut a = qa;
    #[expect(clippy::cast_possible_truncation, reason = "j is below the rank 30")]
    for j in 0..r {
        a.scale_col(j, 0.5f64.powi(j as i32)); // sigma_j = 2^{-j}
    }
    let b = qb;
    let x = gemm(Trans::No, &a, Trans::Yes, &b, 1.0);
    let thr = 1e-4 * x.fro_norm();

    println!("X = A Bt with {m}x{r} and {k}x{r} factors, sigma_j = 2^-j, threshold 1e-4");
    for (name, run) in [
        (
            "Alg 3 (QR)        ",
            mat_rounding_qr as fn(&Matrix, &Matrix, f64) -> _,
        ),
        ("Alg 4 (Gram SVD)  ", tsvd_abt_gram),
        ("PivChol QR (S3B1) ", tsvd_abt_cholqr),
    ] {
        let t0 = std::time::Instant::now();
        let t = run(&a, &b, thr);
        let dt = t0.elapsed().as_secs_f64();
        println!(
            "  {name}: rank {} -> {:2}, rel err {:.2e}, {:.1} ms",
            r,
            t.rank,
            rel_err(&x, &t.a_hat, &t.b_hat),
            dt * 1e3
        );
    }

    // ---- Part 2: the robustness scenario of §III-B2. ----
    // A has a direction of size ~sqrt(machine eps) that B amplifies by 1e7:
    // pivoted Cholesky truncates it sharply; Gram SVD keeps an inaccurate
    // but useful approximation of it and reconstructs X far better.
    println!();
    println!("robustness scenario: sigma_min(A) = 1e-8 amplified by 1e7 in B");
    let n = 6;
    let mut a = householder_qr(&Matrix::gaussian(2000, n, &mut rng)).thin_q();
    let mut b = householder_qr(&Matrix::gaussian(2000, n, &mut rng)).thin_q();
    a.scale_col(n - 1, 1e-8);
    b.scale_col(n - 1, 1e7);
    let x = gemm(Trans::No, &a, Trans::Yes, &b, 1.0);
    let thr = 1e-6 * x.fro_norm();
    let t_gram = tsvd_abt_gram(&a, &b, thr);
    let t_chol = tsvd_abt_cholqr(&a, &b, thr);
    println!(
        "  Gram SVD:        rank {} , rel err {:.2e}",
        t_gram.rank,
        rel_err(&x, &t_gram.a_hat, &t_gram.b_hat)
    );
    println!(
        "  Pivoted CholQR:  rank {} , rel err {:.2e}   <- sharp sqrt(eps) cutoff",
        t_chol.rank,
        rel_err(&x, &t_chol.a_hat, &t_chol.b_hat)
    );
}
