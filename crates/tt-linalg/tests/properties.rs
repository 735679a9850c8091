//! Property-based tests for the factorization kernels.

use proptest::prelude::*;
use rand::SeedableRng;
use tt_linalg::{
    cholesky, eigh, gemm, householder_qr, jacobi_svd, pivoted_cholesky, syrk, truncation_rank,
    tsvd, Matrix, Trans,
};

fn gaussian(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Matrix::gaussian(rows, cols, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// QR: A = Q R with orthonormal Q, for arbitrary shapes.
    #[test]
    fn qr_factorizes(rows in 1usize..40, cols in 1usize..12, seed in any::<u64>()) {
        let a = gaussian(rows, cols, seed);
        let f = householder_qr(&a);
        let (q, r) = (f.thin_q(), f.r());
        let qr = gemm(Trans::No, &q, Trans::No, &r, 1.0);
        prop_assert!(qr.max_abs_diff(&a) <= 1e-11 * (1.0 + a.max_abs()));
        let k = rows.min(cols);
        let qtq = gemm(Trans::Yes, &q, Trans::No, &q, 1.0);
        prop_assert!(qtq.max_abs_diff(&Matrix::identity(k)) <= 1e-12);
    }

    /// SVD: reconstruction, orthogonality, ordering.
    #[test]
    fn svd_factorizes(rows in 1usize..25, cols in 1usize..25, seed in any::<u64>()) {
        let a = gaussian(rows, cols, seed);
        let s = jacobi_svd(&a);
        let mut us = s.u.clone();
        for (j, &sv) in s.singular_values.iter().enumerate() {
            us.scale_col(j, sv);
        }
        let back = gemm(Trans::No, &us, Trans::Yes, &s.v, 1.0);
        prop_assert!(back.max_abs_diff(&a) <= 1e-10 * (1.0 + a.max_abs()));
        for w in s.singular_values.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
        // Frobenius norm identity.
        let fro2: f64 = s.singular_values.iter().map(|x| x * x).sum();
        prop_assert!((fro2.sqrt() - a.fro_norm()).abs() <= 1e-9 * (1.0 + a.fro_norm()));
    }

    /// SVD across the f64 range: scaling A by 2ᵏ scales σ by exactly 2ᵏ
    /// and leaves U and V bit for bit unchanged, for full-rank and
    /// rank-deficient A alike (no overflow or underflow in the kernel).
    #[test]
    fn svd_is_exact_under_power_of_two_scaling(rows in 1usize..16, cols in 1usize..16,
                                               rank in 1usize..16, k in -900i32..901,
                                               seed in any::<u64>()) {
        let rank = rank.min(rows).min(cols);
        let low_rank = gemm(
            Trans::No,
            &gaussian(rows, rank, seed),
            Trans::No,
            &gaussian(rank, cols, seed.wrapping_add(1)),
            1.0,
        );
        let scale = 2f64.powi(k);
        for a in [gaussian(rows, cols, seed), low_rank] {
            let s = jacobi_svd(&a);
            let mut scaled = a.clone();
            scaled.scale(scale);
            let t = jacobi_svd(&scaled);
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let expect: Vec<f64> = s.singular_values.iter().map(|v| v * scale).collect();
            prop_assert_eq!(bits(&t.singular_values), bits(&expect), "sigma at k = {}", k);
            prop_assert_eq!(bits(t.u.as_slice()), bits(s.u.as_slice()), "U at k = {}", k);
            prop_assert_eq!(bits(t.v.as_slice()), bits(s.v.as_slice()), "V at k = {}", k);
        }
    }

    /// Symmetric EVD on Gram matrices: nonnegative spectrum, reconstruction.
    #[test]
    fn eigh_on_gram(rows in 2usize..30, cols in 1usize..10, seed in any::<u64>()) {
        let a = gaussian(rows, cols, seed);
        let g = syrk(&a, 1.0);
        let e = eigh(&g).unwrap();
        for &lam in &e.values {
            prop_assert!(lam >= -1e-9 * (1.0 + g.max_abs()));
        }
        // trace identity: Σλ = tr(G)
        let tr: f64 = (0..cols).map(|i| g[(i, i)]).sum();
        let sum: f64 = e.values.iter().sum();
        prop_assert!((tr - sum).abs() <= 1e-9 * (1.0 + tr.abs()));
        // reconstruction
        let az = gemm(Trans::No, &g, Trans::No, &e.vectors, 1.0);
        let mut zl = e.vectors.clone();
        for (j, &lam) in e.values.iter().enumerate() {
            zl.scale_col(j, lam);
        }
        prop_assert!(az.max_abs_diff(&zl) <= 1e-8 * (1.0 + g.max_abs()));
    }

    /// Cholesky of an SPD matrix reconstructs it; pivoted agrees on rank.
    #[test]
    fn cholesky_roundtrip(n in 1usize..12, extra in 0usize..6, seed in any::<u64>()) {
        let a = gaussian(n + extra + 1, n, seed);
        let g = syrk(&a, 1.0);
        let l = cholesky(&g).unwrap();
        let llt = gemm(Trans::No, &l, Trans::Yes, &l, 1.0);
        prop_assert!(llt.max_abs_diff(&g) <= 1e-9 * (1.0 + g.max_abs()));
        let pc = pivoted_cholesky(&g, 1e-12);
        prop_assert_eq!(pc.rank, n);
    }

    /// The truncation rule is exactly the minimal rank meeting the budget.
    #[test]
    fn truncation_rule_is_minimal(mut svs in proptest::collection::vec(0.0f64..10.0, 1..12),
                                  frac in 0.0f64..1.2) {
        svs.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let total: f64 = svs.iter().map(|s| s * s).sum::<f64>().sqrt();
        let thr = frac * total;
        let (rank, discarded) = truncation_rank(&svs, thr);
        prop_assert!(rank >= 1 && rank <= svs.len());
        prop_assert!(discarded <= thr + 1e-12);
        // minimality: discarding one more would exceed the threshold
        if rank > 1 {
            let tail: f64 = svs[rank - 1..].iter().map(|s| s * s).sum::<f64>().sqrt();
            prop_assert!(tail > thr || rank == 1);
        }
    }

    /// TSVD approximation error equals the discarded tail energy.
    #[test]
    fn tsvd_error_is_tail(rows in 2usize..15, cols in 2usize..15,
                          seed in any::<u64>(), frac in 0.0f64..0.9) {
        let a = gaussian(rows, cols, seed);
        let t = tsvd(&a, frac * a.fro_norm());
        let mut us = t.u.clone();
        for (j, &s) in t.singular_values.iter().enumerate() {
            us.scale_col(j, s);
        }
        let approx = gemm(Trans::No, &us, Trans::Yes, &t.v, 1.0);
        let mut diff = approx;
        diff.axpy(-1.0, &a);
        prop_assert!((diff.fro_norm() - t.discarded_norm).abs() <= 1e-8 * (1.0 + a.fro_norm()));
    }

    /// gemm distributes over addition: (A+B)C = AC + BC.
    #[test]
    fn gemm_distributes(m in 1usize..10, n in 1usize..10, k in 1usize..10, seed in any::<u64>()) {
        let a = gaussian(m, k, seed);
        let b = gaussian(m, k, seed.wrapping_add(1));
        let c = gaussian(k, n, seed.wrapping_add(2));
        let mut ab = a.clone();
        ab.axpy(1.0, &b);
        let lhs = gemm(Trans::No, &ab, Trans::No, &c, 1.0);
        let mut rhs = gemm(Trans::No, &a, Trans::No, &c, 1.0);
        rhs.axpy(1.0, &gemm(Trans::No, &b, Trans::No, &c, 1.0));
        prop_assert!(lhs.max_abs_diff(&rhs) <= 1e-11 * (1.0 + lhs.max_abs()));
    }
}
