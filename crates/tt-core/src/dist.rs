//! 1-D distribution of TT tensors and distributed primitives.
//!
//! Following the paper (§II-D, \[25\]), every TT core is distributed across
//! all `P` ranks along its physical mode: rank `p` owns the slice block
//! [`block_range`]`(I_k, P, p)` of core `k`. Core-times-small-matrix
//! operations are then embarrassingly parallel, and core–core contractions
//! are local `gemm`s followed by one allreduce — the communication pattern
//! the whole paper is built on.

use crate::core::TtCore;
use crate::tensor::TtTensor;
use tt_comm::Communicator;
use tt_linalg::{gemm_alloc, gemm_v, Matrix, Trans};

/// The contiguous block of `0..n` owned by rank `r` of `p` (even split,
/// remainder spread over the leading ranks).
pub fn block_range(n: usize, p: usize, r: usize) -> std::ops::Range<usize> {
    assert!(r < p);
    let lo = (r * n) / p;
    let hi = ((r + 1) * n) / p;
    lo..hi
}

/// Extracts this rank's local block of a (replicated) full tensor.
pub fn scatter_tensor(full: &TtTensor, comm: &impl Communicator) -> TtTensor {
    let p = comm.size();
    let r = comm.rank();
    let cores = full
        .cores()
        .iter()
        .map(|c| {
            let range = block_range(c.mode_dim(), p, r);
            c.mode_block(range.start, range.end)
        })
        .collect();
    TtTensor::new(cores)
}

/// Reassembles the full tensor on every rank from the local blocks
/// (test/diagnostic utility; an allreduce per core).
///
/// `global_dims` are the full mode dimensions.
pub fn gather_tensor(
    local: &TtTensor,
    global_dims: &[usize],
    comm: &impl Communicator,
) -> TtTensor {
    let p = comm.size();
    let r = comm.rank();
    let cores = local
        .cores()
        .iter()
        .enumerate()
        .map(|(k, c)| {
            let full_i = global_dims[k];
            let range = block_range(full_i, p, r);
            assert_eq!(
                range.len(),
                c.mode_dim(),
                "local block size mismatch on core {k}"
            );
            let mut full = TtCore::zeros(c.r0(), full_i, c.r1());
            for b in 0..c.r1() {
                for (ii, gi) in range.clone().enumerate() {
                    for a in 0..c.r0() {
                        *full.at_mut(a, gi, b) = c.at(a, ii, b);
                    }
                }
            }
            let mut v = full.into_v();
            allreduce_matrix(comm, &mut v);
            TtCore::from_v(v, c.r0(), full_i, c.r1())
        })
        .collect();
    TtTensor::new(cores)
}

/// Allreduce-sum of a whole matrix buffer.
pub fn allreduce_matrix(comm: &impl Communicator, m: &mut Matrix) {
    comm.allreduce_sum(m.as_mut_slice());
}

/// Distributed inner product of two TT tensors given their local blocks.
///
/// One local `gemm` pair plus one allreduce per mode; every rank returns the
/// same global value. This chain is strictly serial — mode `k+1`'s `gemm`
/// consumes the reduced `w_k` — so there is no independent local work to
/// hide an allreduce behind and the waits stay at their post sites.
pub fn inner_local(comm: &impl Communicator, x: &TtTensor, y: &TtTensor) -> f64 {
    assert_eq!(
        x.dims(),
        y.dims(),
        "inner product requires equal (local) dimensions"
    );
    let n = x.order();
    // w_k ∈ R^{R^x_k × R^y_k}, starting from the 1×1 identity.
    let mut w = Matrix::identity(1);
    for k in 0..n {
        let (cx, cy) = (x.core(k), y.core(k));
        // E = w · H(Y_k): (R^x_{k-1} × I·R^y_k); the buffer of E is exactly
        // the vertical unfolding of a (R^x_{k-1}, I, R^y_k) core.
        let e = gemm_alloc(Trans::No, w.view(), Trans::No, cy.h(), 1.0);
        let ev = e.view_as(cx.r0() * cx.mode_dim(), cy.r1());
        let mut w_next = Matrix::zeros(cx.r1(), cy.r1());
        gemm_v(
            Trans::Yes,
            cx.v(),
            Trans::No,
            ev,
            1.0,
            0.0,
            w_next.view_mut(),
        );
        allreduce_matrix(comm, &mut w_next);
        w = w_next;
    }
    debug_assert_eq!(w.shape(), (1, 1));
    w[(0, 0)]
}

/// Distributed Frobenius norm from a local block.
pub fn norm_local(comm: &impl Communicator, x: &TtTensor) -> f64 {
    inner_local(comm, x, x).max(0.0).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tt_comm::SelfComm;

    #[test]
    fn block_ranges_partition() {
        for (n, p) in [(10usize, 3usize), (7, 4), (4, 8), (100, 7)] {
            let mut covered = vec![false; n];
            for r in 0..p {
                for i in block_range(n, p, r) {
                    assert!(!covered[i], "overlap at {i}");
                    covered[i] = true;
                }
            }
            assert!(covered.into_iter().all(|c| c), "gap for n={n} p={p}");
        }
    }

    #[test]
    fn scatter_gather_round_trip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let full = TtTensor::random(&[6, 5, 8], &[3, 2], &mut rng);
        for p in [1usize, 2, 3, 4] {
            let f = full.clone();
            let gathered = tt_comm::ThreadComm::run(p, |comm| {
                let local = scatter_tensor(&f, &comm);
                gather_tensor(&local, &[6, 5, 8], &comm)
            });
            for g in gathered {
                assert_eq!(g, full, "p={p}");
            }
        }
    }

    #[test]
    fn distributed_inner_matches_sequential() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let x = TtTensor::random(&[6, 4, 8, 5], &[3, 2, 4], &mut rng);
        let y = TtTensor::random(&[6, 4, 8, 5], &[2, 3, 2], &mut rng);
        let seq = inner_local(&SelfComm::new(), &x, &y);
        for p in [2usize, 3, 5] {
            let (x, y) = (x.clone(), y.clone());
            let vals = tt_comm::ThreadComm::run(p, |comm| {
                let xl = scatter_tensor(&x, &comm);
                let yl = scatter_tensor(&y, &comm);
                inner_local(&comm, &xl, &yl)
            });
            for v in vals {
                assert!(
                    (v - seq).abs() < 1e-10 * (1.0 + seq.abs()),
                    "p={p}: {v} vs {seq}"
                );
            }
        }
    }

    #[test]
    fn distributed_norm_matches_dense() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let x = TtTensor::random(&[5, 6, 4], &[2, 3], &mut rng);
        let dense_norm = x.to_dense().fro_norm();
        let xc = x.clone();
        let vals = tt_comm::ThreadComm::run(3, |comm| {
            let xl = scatter_tensor(&xc, &comm);
            norm_local(&comm, &xl)
        });
        for v in vals {
            assert!((v - dense_norm).abs() < 1e-9 * (1.0 + dense_norm));
        }
    }

    #[test]
    fn more_ranks_than_slices_is_fine() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let x = TtTensor::random(&[2, 3, 2], &[2, 2], &mut rng);
        let seq = inner_local(&SelfComm::new(), &x, &x);
        let xc = x.clone();
        let vals = tt_comm::ThreadComm::run(5, |comm| {
            let xl = scatter_tensor(&xc, &comm);
            inner_local(&comm, &xl, &xl)
        });
        for v in vals {
            assert!((v - seq).abs() < 1e-10 * (1.0 + seq.abs()));
        }
    }
}
