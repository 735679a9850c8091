//! TSQR agreement: the distributed factorization over thread-backed ranks
//! must produce the same `R` as a sequential QR of the full matrix, up to
//! the per-row sign ambiguity of the QR factorization, and its distributed
//! `Q` blocks must assemble into an orthonormal factor reconstructing `A`.
//!
//! Runs under `ThreadComm::run` (every receive checks the operation that
//! sent its message), so it also certifies that the TSQR combine tree issues a
//! well-matched SPMD collective stream, with leaves of TT-rank widths and
//! of formal-rank widths up to 80 columns.

use rand::SeedableRng;
use tt_comm::{Communicator, ThreadComm};
use tt_core::block_range;
use tt_core::round::tsqr::tsqr;
use tt_linalg::{gemm, householder_qr, Matrix, Trans};

/// Flips each row of `r` so its diagonal entry is non-negative, removing the
/// sign ambiguity between two valid QR factorizations.
fn normalize_row_signs(r: &Matrix) -> Matrix {
    let (k, n) = r.shape();
    Matrix::from_fn(k, n, |i, j| {
        let s = if r[(i, i)] < 0.0 { -1.0 } else { 1.0 };
        s * r[(i, j)]
    })
}

fn check_tsqr_agreement(m: usize, n: usize, p: usize, seed: u64) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let a = Matrix::gaussian(m, n, &mut rng);

    // Sequential reference on the full matrix.
    let r_seq = normalize_row_signs(&householder_qr(&a).r());

    // Distributed: each rank factors its contiguous row block.
    let results = ThreadComm::run(p, |comm| {
        let range = block_range(m, comm.size(), comm.rank());
        let local = a.sub_matrix(range.start, 0, range.end - range.start, n);
        tsqr(&comm, &local)
    });

    // Every rank's replicated R matches the sequential one up to sign.
    let tol = 1e-12 * (m as f64) * (1.0 + a.max_abs());
    for (rank, (_, r_dist)) in results.iter().enumerate() {
        let r_dist = normalize_row_signs(r_dist);
        assert!(
            r_dist.max_abs_diff(&r_seq) <= tol,
            "({m}x{n}, p={p}) rank {rank}: R differs by {:.3e}",
            r_dist.max_abs_diff(&r_seq)
        );
    }

    // The Q blocks stack into an orthonormal factor with Q·R = A.
    let mut q = results[0].0.clone();
    for (ql, _) in &results[1..] {
        q = q.vstack(ql);
    }
    assert_eq!(q.shape(), (m, n));
    let qtq = gemm(Trans::Yes, &q, Trans::No, &q, 1.0);
    assert!(
        qtq.max_abs_diff(&Matrix::identity(n)) <= 1e-12 * m as f64,
        "({m}x{n}, p={p}): Q not orthonormal"
    );
    let qr = gemm(Trans::No, &q, Trans::No, &results[0].1, 1.0);
    assert!(
        qr.max_abs_diff(&a) <= tol,
        "({m}x{n}, p={p}): QR does not reconstruct A"
    );
}

#[test]
fn tsqr_matches_sequential_qr_small_ranks() {
    check_tsqr_agreement(60, 5, 2, 1);
    check_tsqr_agreement(90, 7, 3, 2);
}

#[test]
fn tsqr_matches_sequential_qr_more_ranks() {
    // Non-power-of-two and rank counts where some leaves are short.
    check_tsqr_agreement(100, 6, 5, 3);
    check_tsqr_agreement(64, 8, 8, 4);
}

#[test]
fn tsqr_matches_sequential_qr_blocked_leaves() {
    // Large local blocks of TT-rank width.
    check_tsqr_agreement(600, 12, 2, 5);
    check_tsqr_agreement(900, 8, 3, 6);
}

#[test]
fn tsqr_matches_sequential_qr_wide_blocked_leaves() {
    // The wide twin: 300×80 and 200×72 leaves, formal-rank widths.
    check_tsqr_agreement(600, 80, 2, 8);
    check_tsqr_agreement(600, 72, 3, 9);
}

#[test]
fn tsqr_handles_ragged_and_empty_leaves() {
    // 13 rows over 4 ranks: ragged blocks, some smaller than n.
    check_tsqr_agreement(13, 3, 4, 7);
}
