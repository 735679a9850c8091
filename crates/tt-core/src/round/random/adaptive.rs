//! Adaptive Khatri–Rao randomized rounding (arXiv 2511.03598).
//!
//! The fixed-rank family members need a target rank a priori; this variant
//! removes that limitation. At every bond it sketches the current unfolding
//! with an implicit **Khatri–Rao-structured** random matrix — column `c` of
//! the sketch is the suffix-train contraction with independent per-mode
//! Gaussian vectors `ω_{j}^{(c)}`, so a sketch of `s` columns costs one
//! `r0 × s` gemm + allreduce per suffix mode and never materializes a dense
//! `∏I_j × s` Gaussian — and **grows the column count geometrically** until
//! the retained subspace provably captures the bond to within its share of
//! the ε budget.
//!
//! The certificate is exact (not heuristic): one up-front right Gram sweep
//! (the paper's §IV-B machinery, reused verbatim) yields every suffix Gram
//! matrix `G_{k+1}^R = F_{k+1} F_{k+1}ᵀ`, and all bond decisions are taken
//! in the metric induced by `F` — singular values of `M·F` (with
//! `M = QᵀV(cur)`) are singular values of the bond unfolding *in tensor
//! space*, and the uncaptured energy `‖V(cur)F‖² − ‖QᵀV(cur)F‖²` is the
//! exact tensor-norm cost of the sketch's range deficiency. Since committed
//! prefix cores stay orthonormal, the projection errors telescope:
//! `‖X − Y‖² ≤ Σ_b err_b²` (TT-SVD projection lemma), each
//! `err_b² = capture_b² + tail_b²` computable from replicated quantities.
//! A final posterior check evaluates `‖X − Y‖` exactly through TT inner
//! products; on the (probabilistically rare) miss the whole pass retries
//! with a doubled initial sketch and a tighter per-bond budget.
//!
//! Like the Gram-SVD variants, the certificate rides on Gram arithmetic and
//! therefore inherits the `√ε_machine` accuracy floor of §II-B: requesting
//! ε below ~1e-8 degenerates gracefully to near-exact reproduction.

use super::sketch::{fill_kr_weights, local_mode_range};
use super::{global_dims, Sketch};
use crate::core::TtCore;
use crate::round::gram::{premult_h_s, SweepScratch};
use crate::round::{BondTruncation, RoundReport, RoundingOptions};
use crate::tensor::TtTensor;
use tt_comm::Communicator;
use tt_linalg::{gemm_alloc, gemm_v, syrk_v, Matrix, Trans};

/// Full-train retries when the posterior check misses (each retry doubles
/// the initial sketch width and halves the per-bond safety factor).
const MAX_ATTEMPTS: usize = 3;
/// Fraction of the per-bond budget the certificate is allowed to spend
/// (the slack absorbs the Gram-arithmetic floor).
const SAFETY: f64 = 0.9;

pub(crate) fn round_adaptive_kr_dist(
    comm: &impl Communicator,
    x: TtTensor,
    opts: &RoundingOptions,
    sk: Sketch,
) -> (TtTensor, RoundReport) {
    let n = x.order();
    let ranks_before = x.ranks();
    let global_dims = global_dims(comm, &x);
    let eps = opts.tolerance.abs();

    // One structured Gram sweep: every suffix Gram matrix (the exact tensor
    // metric for every bond decision) plus the norm, for one allreduce per
    // mode — the same §IV-B pass the Gram-SVD variants are built on.
    let gr = crate::round::gram::gram_sweep_right(comm, &x);
    let norm = gr[0][(0, 0)].max(0.0).sqrt();
    if norm <= 0.0 {
        // Zero tensor: nothing to certify, nothing to truncate.
        let mut report = RoundReport::new(norm, ranks_before, &x, Vec::new());
        report.certified_error = Some(0.0);
        report.posterior_error = Some(0.0);
        return (x, report);
    }
    // f[k] is the Gram factor of G_{k+1}^R: G = F·Fᵀ.
    let f: Vec<Matrix> = (1..n).map(|b| gram_factor(&gr[b], b)).collect();

    let mut attempt = 0;
    loop {
        let s0 = sk.oversampling.max(2) << attempt;
        let safety = SAFETY / (1u64 << attempt) as f64;
        let seed = sk.seed.wrapping_add(attempt as u64);
        let (y, truncations, certified2) =
            // analyze::allow(alloc_hot_path): the retry loop runs at most MAX_ATTEMPTS (=3) times and each pass must build its own output train + bond records — these are the result, not churn
            round_pass(comm, &x, &global_dims, seed, eps, safety, s0, &gr, &f, norm);
        // Posterior: est² = ‖X‖² + ‖Y‖² − 2⟨X,Y⟩, all through TT sweeps.
        let ip = crate::dist::inner_local(comm, &x, &y);
        let ny2 = crate::dist::inner_local(comm, &y, &y);
        let posterior = (norm * norm + ny2 - 2.0 * ip).max(0.0).sqrt() / norm;
        attempt += 1;
        if posterior <= eps || attempt >= MAX_ATTEMPTS {
            let mut report = RoundReport::new(norm, ranks_before, &y, truncations);
            report.certified_error = Some(certified2.max(0.0).sqrt() / norm);
            report.posterior_error = Some(posterior);
            return (y, report);
        }
    }
}

/// One full certify-as-you-go rounding pass.
#[allow(clippy::too_many_arguments)] // internal plumbing of one algorithm
fn round_pass(
    comm: &impl Communicator,
    x: &TtTensor,
    global_dims: &[usize],
    seed: u64,
    eps: f64,
    safety: f64,
    s0: usize,
    gr: &[Matrix],
    f: &[Matrix],
    norm: f64,
) -> (TtTensor, Vec<BondTruncation>, f64) {
    let n = x.order();
    let p = comm.size();
    let rank = comm.rank();
    let is_model = comm.is_model();
    let mut scratch = SweepScratch::new();
    // Per-bond squared budget: ε₀² with ε₀ = safety·ε·‖X‖/√(N−1).
    let eps0 = safety * eps * norm / ((n - 1) as f64).sqrt();
    let budget2 = eps0 * eps0;

    let mut bonds = Vec::with_capacity(n - 1);
    let mut certified2 = 0.0f64;
    let mut cores_out: Vec<TtCore> = Vec::with_capacity(n);
    // Hoisted weight buffer for the Khatri–Rao column generator.
    let mut omega: Vec<f64> = Vec::new();
    let mut cur = x.core(0).clone();
    for k in 0..n - 1 {
        let r1 = cur.r1();
        // total2 = ‖V(cur)·F‖² = tr(C·G) with C = V(cur)ᵀV(cur) replicated.
        let mut c = syrk_v(cur.v(), 1.0);
        comm.allreduce_sum(c.as_mut_slice());
        let total2 = frob_inner(&c, &gr[k + 1]);
        scratch.recycle(c);

        let mut s = s0.min(r1).max(1);
        let mut w = kr_columns(
            comm,
            x,
            k,
            0,
            s,
            seed,
            global_dims,
            p,
            rank,
            is_model,
            &mut omega,
            &mut scratch,
        );
        // Grow the sketch until the ε₀ certificate holds (or the sketch
        // saturates the bond, at which point Q spans cur's full range).
        let (q, m, svd, l, err2) = loop {
            let z = gemm_alloc(Trans::No, cur.v(), Trans::No, w.view(), 1.0);
            let (q, _r) = crate::round::tsqr::tsqr(comm, &z);
            scratch.recycle(z);
            let mut m = scratch.take(q.cols(), r1);
            gemm_v(
                Trans::Yes,
                q.view(),
                Trans::No,
                cur.v(),
                1.0,
                0.0,
                m.view_mut(),
            );
            comm.allreduce_sum(m.as_mut_slice());
            // S = M·F: its singular values are the *tensor-space* singular
            // values of the captured part of the bond unfolding.
            let s_mat = gemm_alloc(Trans::No, m.view(), Trans::No, f[k].view(), 1.0);
            let svd = tt_linalg::jacobi_svd(&s_mat);
            scratch.recycle(s_mat);
            let s2: f64 = svd.singular_values.iter().map(|v| v * v).sum();
            let capture2 = (total2 - s2).max(0.0);
            match certify(capture2, &svd.singular_values, budget2) {
                Some((l, err2)) => break (q, m, svd, l, err2),
                None if s >= r1 => {
                    // Sketch saturated: keep the full numeric rank; the
                    // remaining gap is below the Gram floor and is recorded
                    // honestly in the certificate.
                    let l = svd.numerical_rank().max(1);
                    let tail2: f64 = svd.singular_values[l.min(svd.singular_values.len())..]
                        .iter()
                        .map(|v| v * v)
                        .sum();
                    break (q, m, svd, l, capture2 + tail2);
                }
                None => {
                    let s_new = (s * 2).min(r1);
                    let fresh = kr_columns(
                        comm,
                        x,
                        k,
                        s,
                        s_new,
                        seed,
                        global_dims,
                        p,
                        rank,
                        is_model,
                        &mut omega,
                        &mut scratch,
                    );
                    w = hstack(&w, &fresh, &mut scratch);
                    scratch.recycle(fresh);
                    scratch.recycle(m);
                    s = s_new;
                }
            }
        };
        scratch.recycle(w);
        // Commit Y_k = Q·U_L (orthonormal columns) and push M_L = U_Lᵀ·M.
        let l = l.min(svd.u.cols());
        let u_l = svd.u.truncate_cols(l);
        let qy = gemm_alloc(Trans::No, q.view(), Trans::No, u_l.view(), 1.0);
        scratch.recycle(q);
        let y_core = TtCore::from_v(qy, cur.r0(), cur.mode_dim(), l);
        let m_next = gemm_alloc(Trans::Yes, u_l.view(), Trans::No, m.view(), 1.0);
        scratch.recycle(m);
        certified2 += err2;
        bonds.push(BondTruncation {
            bond: k + 1,
            rank_before: r1,
            rank_after: l,
            discarded: Some(err2.sqrt()),
            sketch_cols: Some(s),
        });
        let next = premult_h_s(x.core(k + 1), &m_next, &mut scratch);
        scratch.recycle(m_next);
        scratch.recycle_core(std::mem::replace(&mut cur, next));
        cores_out.push(y_core);
    }
    cores_out.push(cur);
    (TtTensor::new(cores_out), bonds, certified2)
}

/// Minimal rank `L ≥ 1` whose certificate `capture² + Σ_{i≥L} σ_i²` fits the
/// per-bond budget, or `None` if even keeping every direction misses it.
fn certify(capture2: f64, sigma: &[f64], budget2: f64) -> Option<(usize, f64)> {
    if capture2 > budget2 {
        return None;
    }
    // Walk from the full rank downward, accumulating the tail.
    let mut tail2 = 0.0f64;
    let mut best: Option<(usize, f64)> = Some((sigma.len(), capture2));
    for l in (1..=sigma.len()).rev() {
        tail2 += sigma[l - 1] * sigma[l - 1];
        let err2 = capture2 + tail2;
        if err2 <= budget2 && l > 1 {
            best = Some((l - 1, err2));
        } else {
            break;
        }
    }
    // `best` holds the smallest feasible L (at least 1).
    best.map(|(l, e)| (l.max(1), if l == 0 { capture2 } else { e }))
}

/// `tr(A·B)` for two symmetric matrices of equal shape.
fn frob_inner(a: &Matrix, b: &Matrix) -> f64 {
    debug_assert_eq!(a.shape(), b.shape());
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| x * y)
        .sum()
}

/// Concatenates two column blocks into a scratch-backed matrix.
fn hstack(a: &Matrix, b: &Matrix, scratch: &mut SweepScratch) -> Matrix {
    debug_assert_eq!(a.rows(), b.rows());
    let mut out = scratch.take(a.rows(), a.cols() + b.cols());
    for j in 0..a.cols() {
        out.col_mut(j).copy_from_slice(a.col(j));
    }
    for j in 0..b.cols() {
        out.col_mut(a.cols() + j).copy_from_slice(b.col(j));
    }
    out
}

/// Columns `lo..hi` of the implicit Khatri–Rao sketch at bond `k`: column
/// `c` is the contraction of suffix cores `k+1..N` with per-mode Gaussian
/// weight vectors seeded by `(seed, k, mode, c)`. One local gemm + allreduce
/// per suffix mode for the whole batch.
#[allow(clippy::too_many_arguments)] // internal plumbing of one algorithm
fn kr_columns(
    comm: &impl Communicator,
    x: &TtTensor,
    k: usize,
    lo: usize,
    hi: usize,
    seed: u64,
    global_dims: &[usize],
    p: usize,
    rank: usize,
    is_model: bool,
    omega: &mut Vec<f64>,
    scratch: &mut SweepScratch,
) -> Matrix {
    let n = x.order();
    let nc = hi - lo;
    // Carry starts as the 1 × nc row of ones (right rank of the last core).
    let mut u = scratch.take(1, nc);
    for v in u.as_mut_slice() {
        *v = 1.0;
    }
    for j in (k + 1..n).rev() {
        let core = x.core(j);
        let (r0, i_loc, r1) = (core.r0(), core.mode_dim(), core.r1());
        let range = local_mode_range(global_dims[j], p, rank, is_model);
        debug_assert_eq!(range.len(), i_loc);
        // Uw over H's column layout (i + b·I): Uw[(i,b),c] = ω_c(i)·U(b,c).
        let mut uw = scratch.take(i_loc * r1, nc);
        for (ci, c) in (lo..hi).enumerate() {
            fill_kr_weights(omega, global_dims[j], seed, k, j, c);
            for b in 0..r1 {
                let ub = u[(b, ci)];
                for ii in 0..i_loc {
                    uw[(ii + b * i_loc, ci)] = omega[range.start + ii] * ub;
                }
            }
        }
        let mut t = scratch.take(r0, nc);
        gemm_v(
            Trans::No,
            core.h(),
            Trans::No,
            uw.view(),
            1.0,
            0.0,
            t.view_mut(),
        );
        comm.allreduce_sum(t.as_mut_slice());
        scratch.recycle(uw);
        scratch.recycle(std::mem::replace(&mut u, t));
    }
    u
}

/// Factor `F` of a Gram matrix `G = F·Fᵀ` via the symmetric EVD, negative
/// eigenvalues (numerical noise) clamped to zero.
fn gram_factor(g: &Matrix, bond: usize) -> Matrix {
    match tt_linalg::eigh(g) {
        Ok(e) => {
            let mut f = e.vectors;
            for (j, &lam) in e.values.iter().enumerate() {
                f.scale_col(j, lam.max(0.0).sqrt());
            }
            f
        }
        // analyze::allow(panic_surface): a Gram matrix is symmetric PSD by construction; EVD failure means memory corruption upstream and the message says how to chase it
        Err(err) => panic!(
            "adaptive rounding bond {bond}: EVD of the suffix Gram failed \
             ({err}). A Gram matrix is symmetric PSD, so this indicates a \
             corrupted buffer upstream — rerun with the `paranoid` feature \
             to catch it at the producing kernel."
        ),
    }
}
