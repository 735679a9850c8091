//! Property tests for the compact-WY blocked QR: orthogonality and
//! reconstruction bounds on random and adversarial matrices (rank-deficient,
//! graded singular values), plus agreement with the unblocked oracle.

use proptest::prelude::*;
use rand::SeedableRng;
use tt_linalg::{blocked_qr, gemm, householder_qr, householder_qr_unblocked, Matrix, Trans};

fn gaussian(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Matrix::gaussian(rows, cols, &mut rng)
}

/// Asserts ‖QᵀQ − I‖_max and ‖A − QR‖_max bounds for a factorization of `a`.
fn assert_qr_invariants(a: &Matrix, f: &tt_linalg::QrFactors, label: &str) {
    let (m, n) = (a.rows(), a.cols());
    let k = m.min(n);
    let q = f.thin_q();
    let r = f.r();
    assert_eq!(q.shape(), (m, k), "{label}: Q shape");
    assert_eq!(r.shape(), (k, n), "{label}: R shape");

    // Orthogonality: ‖QᵀQ − I‖_max ≤ c·m·ε (Householder Q is backward
    // stable regardless of A's conditioning).
    let qtq = gemm(Trans::Yes, &q, Trans::No, &q, 1.0);
    let orth = qtq.max_abs_diff(&Matrix::identity(k));
    let orth_bound = 64.0 * (m as f64) * tt_linalg::EPS;
    assert!(
        orth <= orth_bound,
        "{label}: ||QtQ - I|| = {orth:.3e} > {orth_bound:.3e}"
    );

    // Reconstruction: ‖A − QR‖_max ≤ c·m·ε·‖A‖_max.
    let qr = gemm(Trans::No, &q, Trans::No, &r, 1.0);
    let recon = qr.max_abs_diff(a);
    let recon_bound = 64.0 * (m as f64) * tt_linalg::EPS * (1.0 + a.max_abs());
    assert!(
        recon <= recon_bound,
        "{label}: ||A - QR|| = {recon:.3e} > {recon_bound:.3e}"
    );

    // R strictly upper triangular below the diagonal.
    for j in 0..n {
        for i in j + 1..k {
            assert_eq!(r[(i, j)], 0.0, "{label}: R[{i},{j}] not zero");
        }
    }
}

/// `U diag(s) Vᵀ` with orthonormal `U` (m×n), `V` (n×n): test matrices with
/// prescribed singular values.
fn with_singular_values(m: usize, n: usize, s: &[f64], seed: u64) -> Matrix {
    assert_eq!(s.len(), n);
    let u = householder_qr(&gaussian(m, n, seed)).thin_q();
    let v = householder_qr(&gaussian(n, n, seed ^ 0xabc)).thin_q();
    let mut us = u.clone();
    for (j, &sj) in s.iter().enumerate() {
        us.scale_col(j, sj);
    }
    gemm(Trans::No, &us, Trans::Yes, &v, 1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random shapes across the blocked/unblocked dispatch boundary.
    #[test]
    fn qr_invariants_on_random_matrices(
        m in 1usize..220,
        n in 1usize..70,
        seed in any::<u64>(),
    ) {
        let a = gaussian(m, n, seed);
        assert_qr_invariants(&a, &householder_qr(&a), "dispatch");
        assert_qr_invariants(&a, &blocked_qr(&a, 16), "blocked-nb16");
    }

    /// Rank-deficient matrices: `A = B·C` with inner rank far below `n`.
    #[test]
    fn qr_invariants_on_rank_deficient(
        m in 20usize..160,
        n in 8usize..40,
        rank in 1usize..6,
        seed in any::<u64>(),
    ) {
        let b = gaussian(m, rank, seed);
        let c = gaussian(rank, n, seed ^ 0x55);
        let a = gemm(Trans::No, &b, Trans::No, &c, 1.0);
        assert_qr_invariants(&a, &blocked_qr(&a, 8), "rank-deficient");
    }

    /// Graded singular values spanning 12 orders of magnitude: the blocked
    /// panel updates must not destroy orthogonality on ill-conditioned input.
    #[test]
    fn qr_invariants_on_graded_spectra(
        m in 40usize..160,
        n in 4usize..32,
        seed in any::<u64>(),
    ) {
        let s: Vec<f64> = (0..n).map(|i| 10f64.powf(-(12.0 * i as f64) / n as f64)).collect();
        let a = with_singular_values(m, n, &s, seed);
        assert_qr_invariants(&a, &blocked_qr(&a, 8), "graded");
    }

    /// Blocked and unblocked produce the same R (they apply the same
    /// reflectors; only the trailing-update association differs).
    #[test]
    fn blocked_r_matches_unblocked(
        m in 10usize..150,
        n in 4usize..48,
        seed in any::<u64>(),
    ) {
        let a = gaussian(m, n, seed);
        let rb = blocked_qr(&a, 16).r();
        let ru = householder_qr_unblocked(&a).r();
        let tol = 256.0 * (m as f64) * tt_linalg::EPS * (1.0 + a.max_abs());
        prop_assert!(rb.max_abs_diff(&ru) <= tol,
            "{m}x{n}: R differs by {:.3e}", rb.max_abs_diff(&ru));
    }
}

/// Adversarial deterministic cases: zero matrix, repeated columns, a column
/// that is already e₁ (τ = 0 reflector), and identity input.
#[test]
fn qr_adversarial_cases() {
    // Zero matrix.
    let z = Matrix::zeros(90, 24);
    let f = blocked_qr(&z, 8);
    assert!(f.r().max_abs() == 0.0);
    let q = f.thin_q();
    let qtq = gemm(Trans::Yes, &q, Trans::No, &q, 1.0);
    assert!(qtq.max_abs_diff(&Matrix::identity(24)) < 1e-13);

    // All columns identical (rank 1).
    let col = gaussian(80, 1, 3);
    let rep = Matrix::from_fn(80, 20, |i, _| col[(i, 0)]);
    assert_qr_invariants(&rep, &blocked_qr(&rep, 8), "repeated-columns");

    // Identity: every reflector is trivial (τ = 0 path through build_t).
    let id = Matrix::identity(64);
    assert_qr_invariants(&id, &blocked_qr(&id, 16), "identity");

    // Wide matrix: trailing update extends past k = m.
    let wide = gaussian(24, 100, 4);
    assert_qr_invariants(&wide, &blocked_qr(&wide, 8), "wide");
}

/// `apply_qt`/`apply_q` agree with the explicit-Q matrix products, both
/// reflector by reflector (150×40, one panel) and in WY form (its 300×80
/// twin, past the 64-column dispatch bound).
#[test]
fn wy_applications_match_explicit_q() {
    for (m, n, blocked, seed) in [(150usize, 40usize, false, 9u64), (300, 80, true, 11)] {
        let a = gaussian(m, n, seed);
        let f = householder_qr(&a);
        assert_eq!(
            f.is_blocked(),
            blocked,
            "{m}x{n}: dispatch chose the wrong path"
        );
        let q = f.thin_q();
        let b = gaussian(m, 6, seed + 1);

        let mut qtb = b.clone();
        f.apply_qt(&mut qtb);
        let expect = gemm(Trans::Yes, &q, Trans::No, &b, 1.0);
        assert!(
            qtb.sub_matrix(0, 0, n, 6).max_abs_diff(&expect) < 1e-11,
            "{m}x{n}"
        );

        let mut roundtrip = b.clone();
        f.apply_qt(&mut roundtrip);
        f.apply_q(&mut roundtrip);
        assert!(roundtrip.max_abs_diff(&b) < 1e-11, "{m}x{n}");
    }
}
