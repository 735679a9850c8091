//! TT-SVD: compression of an explicit tensor into TT format.
//!
//! The classical construction of Oseledets \[4\]: successive reshapes and
//! ε-truncated SVDs. Used as the ground-truth compressor in tests (rounding
//! is quasi-optimal relative to the ranks TT-SVD finds) and to build TT
//! representations of explicitly given small tensors.

use crate::core::TtCore;
use crate::dense::DenseTensor;
use crate::tensor::TtTensor;
use tt_linalg::{tsvd, Matrix};

/// Compresses a dense tensor into TT format with relative accuracy
/// `tolerance`: `‖X − TT(X)‖ ≤ tolerance·‖X‖`.
///
/// Optionally caps every rank at `max_rank`.
pub fn tt_svd(x: &DenseTensor, tolerance: f64, max_rank: Option<usize>) -> TtTensor {
    let dims = x.dims().to_vec();
    let n = dims.len();
    assert!(n >= 1);
    let norm = x.fro_norm();
    let eps0 = if n > 1 {
        norm * tolerance / ((n - 1) as f64).sqrt()
    } else {
        0.0
    };

    if n == 1 {
        let v = Matrix::from_col_major(dims[0], 1, x.as_slice().to_vec());
        return TtTensor::new(vec![TtCore::from_v(v, 1, dims[0], 1)]);
    }

    let mut cores = Vec::with_capacity(n);
    // W starts as the (R_0·I_1) × (rest) unfolding with R_0 = 1.
    let total: usize = dims.iter().product();
    let mut w = Matrix::from_col_major(dims[0], total / dims[0], x.as_slice().to_vec());
    let mut r_prev = 1usize;

    for (k, &dim) in dims.iter().enumerate().take(n - 1) {
        // W is (r_prev·I_k) × (remaining): truncate its SVD.
        let t = tsvd(&w, eps0).cap_rank(max_rank);
        let r_new = t.rank();
        cores.push(TtCore::from_v(t.u.clone(), r_prev, dim, r_new));
        // Next W = Σ Vᵀ reshaped to (r_new · I_{k+1}) × (rest).
        let mut sv = t.v.clone(); // (rest) × r_new
        for (j, &s) in t.singular_values.iter().enumerate() {
            sv.scale_col(j, s);
        }
        let svt = sv.transpose(); // r_new × rest
        let rest = svt.cols();
        let next_dim = dims[k + 1];
        assert_eq!(rest % next_dim, 0);
        w = svt.reshaped(r_new * next_dim, rest / next_dim);
        r_prev = r_new;
    }
    // Last core: W itself is (r_prev·I_N) × 1.
    cores.push(TtCore::from_v(w, r_prev, dims[n - 1], 1));
    TtTensor::new(cores)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::SeedableRng::seed_from_u64(seed)
    }

    #[test]
    fn exact_recovery_of_tt_structured_data() {
        let mut r = rng(1);
        let t = TtTensor::random(&[4, 3, 5, 2], &[2, 3, 2], &mut r);
        let d = t.to_dense();
        let c = tt_svd(&d, 1e-12, None);
        // Ranks must not exceed the generating ranks.
        let ranks = c.ranks();
        assert!(ranks[1] <= 2 && ranks[2] <= 3 && ranks[3] <= 2, "{ranks:?}");
        let err = c.to_dense().fro_dist(&d);
        assert!(err < 1e-9 * (1.0 + d.fro_norm()));
    }

    #[test]
    fn tolerance_controls_error() {
        let mut r = rng(2);
        let mut data = vec![0.0; 120];
        tt_linalg::rng::fill_standard_normal(&mut data, &mut r);
        let d = DenseTensor::from_data(&[5, 4, 6], data);
        let norm = d.fro_norm();
        for tol in [0.5, 0.1, 1e-3] {
            let c = tt_svd(&d, tol, None);
            let err = c.to_dense().fro_dist(&d);
            assert!(
                err <= tol * norm * 1.5,
                "tol {tol}: err {err} vs {}",
                tol * norm
            );
        }
    }

    #[test]
    fn max_rank_caps() {
        let mut r = rng(3);
        let mut data = vec![0.0; 216];
        tt_linalg::rng::fill_standard_normal(&mut data, &mut r);
        let d = DenseTensor::from_data(&[6, 6, 6], data);
        let c = tt_svd(&d, 1e-14, Some(2));
        assert!(c.max_rank() <= 2);
    }

    #[test]
    fn rank_one_tensor_compresses_to_rank_one() {
        // X(i,j,k) = u_i v_j w_k
        let u = [1.0, 2.0, -1.0];
        let v = [0.5, 1.5];
        let w = [2.0, -3.0, 1.0, 4.0];
        let d = DenseTensor::from_fn(&[3, 2, 4], |idx| u[idx[0]] * v[idx[1]] * w[idx[2]]);
        let c = tt_svd(&d, 1e-12, None);
        assert_eq!(c.ranks(), vec![1, 1, 1, 1]);
        assert!(c.to_dense().fro_dist(&d) < 1e-10 * d.fro_norm());
    }

    #[test]
    fn two_mode_tensor_is_matrix_svd() {
        let mut r = rng(4);
        let mut data = vec![0.0; 35];
        tt_linalg::rng::fill_standard_normal(&mut data, &mut r);
        let d = DenseTensor::from_data(&[7, 5], data);
        let c = tt_svd(&d, 1e-12, None);
        assert_eq!(c.order(), 2);
        assert!(c.to_dense().fro_dist(&d) < 1e-10 * (1.0 + d.fro_norm()));
    }
}
