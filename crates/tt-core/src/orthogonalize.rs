//! Standalone TT orthogonalization passes.
//!
//! Left- and right-orthogonalization are the phase-1 building block of the
//! baseline rounding algorithm (Alg. 2 lines 3–6) and standard utilities of
//! every TT toolbox: after [`orthogonalize_left`], every core but the last
//! has orthonormal vertical-unfolding columns and the whole tensor's norm is
//! concentrated in the last core (dually for [`orthogonalize_right`]).
//! Parallelized with TSQR exactly like the rounding baseline.

use crate::core::TtCore;
use crate::round::gram::{postmult_v, premult_h};
use crate::round::tsqr::tsqr;
use crate::tensor::TtTensor;
use tt_comm::Communicator;
use tt_linalg::Matrix;

/// Left-orthogonalizes (QR sweep left → right): cores `0..N-1` end with
/// orthonormal `V` columns; the norm moves into core `N-1`.
///
/// Assumes a chain-feasible rank profile (`R_{k+1} ≤ R_k·I_k` for every
/// core, true of every tensor produced by rounding or TT-SVD): the TSQR
/// keeps all `R_{k+1}` columns, so a core *wider than tall* cannot be made
/// orthonormal. Round first if the tensor may be overranked.
pub fn orthogonalize_left(comm: &impl Communicator, x: &TtTensor) -> TtTensor {
    let n = x.order();
    let mut y = x.clone();
    for k in 0..n - 1 {
        let core = y.core(k);
        let (r0, i, r1) = (core.r0(), core.mode_dim(), core.r1());
        let (q, r) = tsqr(comm, &core.v_matrix());
        *y.core_mut(k) = TtCore::from_v(q, r0, i, r1);
        *y.core_mut(k + 1) = premult_h(y.core(k + 1), &r);
    }
    y
}

/// Right-orthogonalizes (LQ sweep right → left): cores `1..N` end with
/// orthonormal `H` rows; the norm moves into core `0`.
pub fn orthogonalize_right(comm: &impl Communicator, x: &TtTensor) -> TtTensor {
    let n = x.order();
    let mut y = x.clone();
    for k in (1..n).rev() {
        let core = y.core(k);
        let (r0, i, r1) = (core.r0(), core.mode_dim(), core.r1());
        // LQ of H via QR of Hᵀ (local transpose copy, TSQR over slices).
        let ht = core.h().transposed();
        let (q, r) = tsqr(comm, &ht);
        // H = Rᵀ Qᵀ: new core has H = Qᵀ (orthonormal rows), and Rᵀ is
        // absorbed into the left neighbor's V.
        *y.core_mut(k) = TtCore::from_h(q.transpose(), r0, i, r1);
        *y.core_mut(k - 1) = postmult_v(y.core(k - 1), &r.transpose());
    }
    y
}

/// Checks the left-orthogonality invariant: `V(T_k)ᵀV(T_k) = I` for all
/// `k < N-1` (diagnostic; returns the largest deviation).
pub fn left_orthogonality_defect(comm: &impl Communicator, x: &TtTensor) -> f64 {
    let n = x.order();
    let mut worst = 0.0f64;
    for k in 0..n.saturating_sub(1) {
        let mut g = tt_linalg::syrk_v(x.core(k).v(), 1.0);
        comm.allreduce_sum(g.as_mut_slice());
        let d = g.max_abs_diff(&Matrix::identity(g.rows()));
        worst = worst.max(d);
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_comm::SelfComm;
    use tt_linalg::{gemm_alloc, Trans};

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::SeedableRng::seed_from_u64(seed)
    }

    #[test]
    fn left_orthogonalization_invariants() {
        let mut r = rng(1);
        let x = TtTensor::random(&[6, 5, 7, 4], &[3, 4, 2], &mut r);
        let comm = SelfComm::new();
        let y = orthogonalize_left(&comm, &x);
        // Same represented tensor.
        assert!(y.to_dense().fro_dist(&x.to_dense()) < 1e-10 * (1.0 + x.norm()));
        // Orthonormal leading cores.
        assert!(left_orthogonality_defect(&comm, &y) < 1e-12);
        // Norm concentrated in the last core.
        let nx = x.to_dense().fro_norm();
        assert!((y.core(3).fro_norm() - nx).abs() < 1e-10 * (1.0 + nx));
    }

    #[test]
    fn right_orthogonalization_invariants() {
        let mut r = rng(2);
        let x = TtTensor::random(&[5, 6, 4, 5], &[2, 4, 3], &mut r);
        let comm = SelfComm::new();
        let y = orthogonalize_right(&comm, &x);
        assert!(y.to_dense().fro_dist(&x.to_dense()) < 1e-10 * (1.0 + x.norm()));
        // H rows orthonormal for cores 1..N.
        for k in 1..y.order() {
            let h = y.core(k).h();
            let g = gemm_alloc(Trans::No, h, Trans::Yes, h, 1.0);
            assert!(
                g.max_abs_diff(&Matrix::identity(g.rows())) < 1e-12,
                "core {k} rows not orthonormal"
            );
        }
        // Norm in core 0.
        let nx = x.to_dense().fro_norm();
        assert!((y.core(0).fro_norm() - nx).abs() < 1e-10 * (1.0 + nx));
    }

    #[test]
    fn distributed_orthogonalization_matches_sequential() {
        let mut r = rng(3);
        let x = TtTensor::random(&[8, 6, 9], &[3, 4], &mut r);
        let comm = SelfComm::new();
        let seq = orthogonalize_left(&comm, &x);
        let dims = x.dims();
        for p in [2usize, 3] {
            let xs = x.clone();
            let dims2 = dims.clone();
            let results = tt_comm::ThreadComm::run(p, |comm| {
                let local = crate::dist::scatter_tensor(&xs, &comm);
                let y = orthogonalize_left(&comm, &local);
                let defect = left_orthogonality_defect(&comm, &y);
                (crate::dist::gather_tensor(&y, &dims2, &comm), defect)
            });
            for (g, defect) in results {
                assert!(defect < 1e-12, "p={p}: defect {defect}");
                let gap = g.to_dense().fro_dist(&seq.to_dense());
                assert!(gap < 1e-9 * (1.0 + seq.norm()), "p={p}: gap {gap}");
            }
        }
    }

    #[test]
    fn orthogonalization_preserves_ranks() {
        let mut r = rng(4);
        let x = TtTensor::random(&[7, 5, 6], &[4, 3], &mut r);
        let comm = SelfComm::new();
        assert_eq!(orthogonalize_left(&comm, &x).ranks(), x.ranks());
        assert_eq!(orthogonalize_right(&comm, &x).ranks(), x.ranks());
    }
}
