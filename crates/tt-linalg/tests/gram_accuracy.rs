//! Quantitative check of the §II-B accuracy discussion: orthogonal-
//! transformation SVDs compute singular values with error ~ ‖A‖·ε, while
//! the Gram route (eigenvalues of AᵀA) loses accuracy like the condition
//! number — it cannot resolve singular values below √ε·σ_max. This is the
//! numerical trade-off the whole paper is built around, so we verify it
//! holds for our kernels exactly as described.

#![allow(
    clippy::unwrap_used,
    reason = "a failed unwrap in a test helper fails the test"
)]

use rand::SeedableRng;
use tt_linalg::{eigh, gemm, householder_qr, jacobi_svd, syrk, Matrix, Trans};

/// Builds a matrix with exactly known singular values.
fn matrix_with_spectrum(m: usize, spectrum: &[f64], seed: u64) -> Matrix {
    let n = spectrum.len();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let u = householder_qr(&Matrix::gaussian(m, n, &mut rng)).thin_q();
    let v = householder_qr(&Matrix::gaussian(n, n, &mut rng)).thin_q();
    let mut us = u;
    for (j, &s) in spectrum.iter().enumerate() {
        us.scale_col(j, s);
    }
    gemm(Trans::No, &us, Trans::Yes, &v, 1.0)
}

/// Singular values via the Gram route: √eig(AᵀA), descending.
fn gram_singular_values(a: &Matrix) -> Vec<f64> {
    let g = syrk(a, 1.0);
    let e = eigh(&g).unwrap().descending();
    e.values.iter().map(|&l| l.max(0.0).sqrt()).collect()
}

#[test]
fn direct_svd_resolves_below_sqrt_eps() {
    // σ = [1, 1e-10]: far below √ε ≈ 1.5e-8 relative.
    let spectrum = [1.0, 1e-10];
    let a = matrix_with_spectrum(60, &spectrum, 1);
    let s = jacobi_svd(&a);
    let rel_err = (s.singular_values[1] - 1e-10).abs() / 1e-10;
    assert!(
        rel_err < 1e-3,
        "Jacobi SVD should resolve σ₂ = 1e-10 to high relative accuracy, err {rel_err}"
    );
}

#[test]
fn gram_route_cannot_resolve_below_sqrt_eps() {
    // The same matrix through AᵀA: σ₂² = 1e-20 is far below ε·σ₁² = 2e-16,
    // so the Gram eigenvalue is pure roundoff — the computed "σ₂" lands
    // somewhere around √ε, orders of magnitude off.
    let spectrum = [1.0, 1e-10];
    let a = matrix_with_spectrum(60, &spectrum, 2);
    let sv = gram_singular_values(&a);
    let rel_err = (sv[1] - 1e-10).abs() / 1e-10;
    assert!(
        rel_err > 1.0,
        "the Gram route should NOT resolve σ₂ = 1e-10 (got rel err {rel_err}) — \
         if this starts passing, the §II-B premise needs re-examination"
    );
    // ... but it stays bounded by ~√ε·σ₁ (a small nonzero quantity, which
    // is exactly the robustness property §III-B2 relies on).
    assert!(
        sv[1] < 1e-6,
        "Gram σ₂ estimate should stay near √ε·σ₁, got {}",
        sv[1]
    );
}

#[test]
fn gram_route_accurate_above_sqrt_eps() {
    // σ₂ = 1e-6 is above √ε: the Gram route resolves it fine — this is why
    // rounding tolerances above √ε (the paper's regime of interest) lose
    // nothing.
    let spectrum = [1.0, 1e-6];
    let a = matrix_with_spectrum(60, &spectrum, 3);
    let sv = gram_singular_values(&a);
    let rel_err = (sv[1] - 1e-6).abs() / 1e-6;
    assert!(
        rel_err < 1e-3,
        "Gram route should resolve σ₂ = 1e-6, err {rel_err}"
    );
}

#[test]
fn error_scales_with_conditioning() {
    // Sweep the condition number; the Gram route's relative error on the
    // smallest singular value grows ~ ε·κ², the direct SVD's stays ~ ε.
    let mut prev_gram_err = 0.0;
    for (i, &sigma_min) in [1e-2, 1e-4, 1e-6].iter().enumerate() {
        let spectrum = [1.0, sigma_min];
        let a = matrix_with_spectrum(50, &spectrum, 10 + i as u64);
        let direct = jacobi_svd(&a).singular_values[1];
        let gram = gram_singular_values(&a)[1];
        let direct_err = (direct - sigma_min).abs() / sigma_min;
        let gram_err = (gram - sigma_min).abs() / sigma_min;
        assert!(
            direct_err < 1e-8,
            "direct err {direct_err} at κ = {}",
            1.0 / sigma_min
        );
        // The Gram error must be growing with κ (allowing noise at the
        // well-conditioned end).
        assert!(
            gram_err + 1e-14 >= prev_gram_err,
            "Gram error should not shrink as κ grows: {gram_err} vs {prev_gram_err}"
        );
        prev_gram_err = gram_err;
    }
    // At κ = 1e6 (σ² ratio 1e12 ≈ 1/ε·10⁴) the Gram error is visible.
    assert!(
        prev_gram_err > 1e-8,
        "expected visible Gram error at κ = 1e6: {prev_gram_err}"
    );
}
