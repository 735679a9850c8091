//! Tall-Skinny QR with explicit thin-Q reconstruction.
//!
//! The baseline rounding algorithm orthogonalizes row-distributed unfoldings
//! with the communication-avoiding TSQR of Demmel et al. \[35\]: local
//! Householder QRs, a binomial combine tree over the `R` factors (upsweep),
//! and a reverse tree propagating the per-rank `R × R` transformation that
//! turns each local `Q` into its block of the global thin `Q` (downsweep).
//! Bandwidth is `O(R² log P)` — the `log P` factor the Gram-SVD approach
//! eliminates.
//!
//! The leaf factorizations dominate TSQR's arithmetic. They go through
//! `tt_linalg::householder_qr`, which factors each local block with its
//! reflector kernel and forms the thin Q from the stored reflectors.

use tt_comm::{CollectiveKind, Communicator};
use tt_linalg::{gemm, householder_qr, qr_stacked_pair, Matrix, Trans};

/// Distributed TSQR: factors the row-distributed matrix whose local block is
/// `a_local` (`m_local × n`, `m_local` may be zero) into `Q R`.
///
/// Returns `(q_local, r)` where `q_local` is this rank's `m_local × n` block
/// of the global thin `Q` and `r` is the replicated `n × n` triangular
/// factor.
///
/// With a [`tt_comm::SelfComm`] this is a plain local Householder QR; with a
/// [`tt_comm::ModelComm`] the combine tree's per-rank computation is
/// executed locally and its messages are recorded for the cost model (see
/// DESIGN.md §2).
pub fn tsqr(comm: &impl Communicator, a_local: &Matrix) -> (Matrix, Matrix) {
    let n = a_local.cols();
    let p = comm.size();

    // Local QR on a zero-padded block so every rank contributes an n×n R
    // (zero rows change neither R nor orthonormality). The factorization
    // is dropped as soon as Q and R are formed.
    let (mut q_local, r_local) = {
        let padded;
        let work: &Matrix = if a_local.rows() < n {
            padded = a_local.vstack(&Matrix::zeros(n - a_local.rows(), n));
            &padded
        } else {
            a_local
        };
        let f = householder_qr(work);
        (f.thin_q(), f.r())
    };

    if p == 1 {
        if a_local.rows() < n {
            q_local = q_local.sub_matrix(0, 0, a_local.rows(), n);
        }
        return (q_local, r_local);
    }

    if comm.is_model() {
        return tsqr_model(comm, a_local, q_local, r_local);
    }

    let rank = comm.rank();
    // ---- Upsweep: binomial reduction of R factors to rank 0. ----
    // Each internal combine stores (mask, combine-Q) for the downsweep. A
    // rank receives at every mask below its lowest set bit (while a partner
    // exists), then sends its combined R to `rank - lowbit(rank)`.
    let mut r_cur = r_local;
    let mut combines: Vec<(usize, Matrix)> = Vec::new();
    let mut mask = 1usize;
    while mask < p {
        if rank & mask != 0 {
            comm.send(rank - mask, r_cur.as_slice());
            break;
        } else if rank + mask < p {
            let r_other = Matrix::from_col_major(n, n, comm.recv(rank + mask));
            let (qc, rc) = qr_stacked_pair(&r_cur, &r_other);
            combines.push((mask, qc));
            r_cur = rc;
        }
        mask <<= 1;
    }

    // ---- Downsweep: propagate the n×n transformation T down the tree. ----
    // The T for this rank comes back along the edge its R went up.
    let mut t = if rank == 0 {
        Matrix::identity(n)
    } else {
        Matrix::from_col_major(n, n, comm.recv(rank - (rank & rank.wrapping_neg())))
    };
    for (mask, qc) in combines.into_iter().rev() {
        // qc is 2n×n: the top half transforms our branch, the bottom half
        // goes to the child that sent at this mask.
        let top = qc.sub_matrix(0, 0, n, n);
        let bot = qc.sub_matrix(n, 0, n, n);
        let t_child = gemm(Trans::No, &bot, Trans::No, &t, 1.0);
        // An eager send: `isend` sends at post, so this is `send`. It is
        // the library's one remaining request, kept because the
        // benchmark's `TimedComm` test checks that a p = 2 rounding
        // completes one through its `req_wait`. It becomes `send` when
        // the decorator moves into the library (ROADMAP item 4).
        comm.isend(rank + mask, t_child.into_vec()).wait();
        t = gemm(Trans::No, &top, Trans::No, &t, 1.0);
    }

    // Broadcast the final R from the root.
    let mut r_buf = r_cur.into_vec();
    comm.broadcast(0, &mut r_buf);
    let r_final = Matrix::from_col_major(n, n, r_buf);

    // Apply the accumulated transformation and drop any padding rows.
    let mut q = gemm(Trans::No, &q_local, Trans::No, &t, 1.0);
    if a_local.rows() < n {
        q = q.sub_matrix(0, 0, a_local.rows(), n);
    }
    (q, r_final)
}

/// Model-communicator path: execute one rank's combine-tree computation and
/// record the tree messages, without data-dependent receives.
fn tsqr_model(
    comm: &impl Communicator,
    a_local: &Matrix,
    q_local: Matrix,
    r_local: Matrix,
) -> (Matrix, Matrix) {
    let n = a_local.cols();
    let p = comm.size();
    let levels = p.next_power_of_two().trailing_zeros() as usize;
    let tri_words = n * (n + 1) / 2;

    let mut r_cur = r_local;
    let mut t = Matrix::identity(n);
    for _ in 0..levels {
        // One combine per level: QR of the stacked pair (the real tree
        // stacks this rank's R with a partner's; workload is identical).
        let (qc, mut rc) = qr_stacked_pair(&r_cur, &r_cur);
        let top = qc.sub_matrix(0, 0, n, n);
        let bot = qc.sub_matrix(n, 0, n, n);
        let t_new = gemm(Trans::No, &top, Trans::No, &t, 1.0);
        let t_child = gemm(Trans::No, &bot, Trans::No, &t, 1.0);
        std::hint::black_box(&t_child);
        t = t_new;
        // Stacking R with itself scales singular values by √2; undo so the
        // magnitudes downstream (TSVD thresholds) stay realistic.
        rc.scale(1.0 / std::f64::consts::SQRT_2);
        r_cur = rc;
        // Upsweep R exchange + downsweep T exchange.
        comm.record_event(CollectiveKind::PointToPoint, tri_words);
        comm.record_event(CollectiveKind::PointToPoint, tri_words);
    }
    let mut q = gemm(Trans::No, &q_local, Trans::No, &t, 1.0);
    if a_local.rows() < n {
        q = q.sub_matrix(0, 0, a_local.rows(), n);
    }
    (q, r_cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::block_range;
    use rand::SeedableRng;
    use tt_comm::{ModelComm, SelfComm};
    use tt_linalg::jacobi_svd;

    #[test]
    fn self_comm_is_plain_qr() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let a = Matrix::gaussian(40, 6, &mut rng);
        let (q, r) = tsqr(&SelfComm::new(), &a);
        let qr = gemm(Trans::No, &q, Trans::No, &r, 1.0);
        assert!(qr.max_abs_diff(&a) < 1e-12 * (1.0 + a.max_abs()));
    }

    #[test]
    fn distributed_tsqr_factors_the_stacked_matrix() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let m = 60;
        let n = 5;
        let a = Matrix::gaussian(m, n, &mut rng);
        for p in [2usize, 3, 4, 7] {
            let a = a.clone();
            let results = tt_comm::ThreadComm::run(p, |comm| {
                let range = block_range(m, p, comm.rank());
                let local = a.sub_matrix(range.start, 0, range.len(), n);
                tsqr(&comm, &local)
            });
            // Reassemble Q, check A = Q R, QᵀQ = I, R consistent.
            let r = results[0].1.clone();
            let mut q = results[0].0.clone();
            for (ql, rl) in &results[1..] {
                assert!(rl.max_abs_diff(&r) < 1e-13, "R not replicated (p={p})");
                q = q.vstack(ql);
            }
            let qr = gemm(Trans::No, &q, Trans::No, &r, 1.0);
            assert!(
                qr.max_abs_diff(&a) < 1e-11 * (1.0 + a.max_abs()),
                "A=QR failed (p={p})"
            );
            let qtq = gemm(Trans::Yes, &q, Trans::No, &q, 1.0);
            assert!(
                qtq.max_abs_diff(&Matrix::identity(n)) < 1e-11,
                "Q not orthonormal (p={p})"
            );
        }
    }

    #[test]
    fn tsqr_r_has_correct_singular_values() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let m = 48;
        let n = 4;
        let a = Matrix::gaussian(m, n, &mut rng);
        let s_expect = jacobi_svd(&a).singular_values;
        let a2 = a.clone();
        let results = tt_comm::ThreadComm::run(4, move |comm| {
            let range = block_range(m, 4, comm.rank());
            let local = a2.sub_matrix(range.start, 0, range.len(), n);
            tsqr(&comm, &local).1
        });
        let s_got = jacobi_svd(&results[0]).singular_values;
        for (e, g) in s_expect.iter().zip(&s_got) {
            assert!((e - g).abs() < 1e-10 * (1.0 + e), "{e} vs {g}");
        }
    }

    #[test]
    fn ranks_with_few_rows_are_padded() {
        // 10 rows over 8 ranks with n = 4: some ranks own < 4 rows.
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let m = 10;
        let n = 4;
        let a = Matrix::gaussian(m, n, &mut rng);
        let a2 = a.clone();
        let results = tt_comm::ThreadComm::run(8, move |comm| {
            let range = block_range(m, 8, comm.rank());
            let local = a2.sub_matrix(range.start, 0, range.len(), n);
            tsqr(&comm, &local)
        });
        let r = results[0].1.clone();
        let mut q = results[0].0.clone();
        for (ql, _) in &results[1..] {
            q = q.vstack(ql);
        }
        assert_eq!(q.rows(), m);
        let qr = gemm(Trans::No, &q, Trans::No, &r, 1.0);
        assert!(qr.max_abs_diff(&a) < 1e-11 * (1.0 + a.max_abs()));
    }

    #[test]
    fn model_path_records_tree_messages() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let a = Matrix::gaussian(30, 5, &mut rng);
        let comm = ModelComm::new(16);
        let (q, r) = tsqr(&comm, &a);
        assert_eq!(q.shape(), (30, 5));
        assert_eq!(r.shape(), (5, 5));
        let stats = comm.stats();
        // 4 levels × 2 messages of n(n+1)/2 = 15 words.
        assert_eq!(stats.count(CollectiveKind::PointToPoint), 8);
        assert_eq!(stats.words(CollectiveKind::PointToPoint), 8 * 15);
    }
}
