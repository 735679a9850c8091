//! The per-bond Gram-SVD truncation step shared by Algorithms 4–6.
//!
//! Given the pair of Gram matrices `G_L = AᵀA` and `G_R = BᵀB` of the
//! implicit factorization `X₍₁:ₙ₎ = A Bᵀ`, computes the update matrices
//! `W_L` (post-multiplies the vertical unfolding of the left core) and
//! `W_R` (pre-multiplies the horizontal unfolding of the right core) that
//! truncate the bond rank to `L`. Each Gram is factored as `G ≈ F Fᵀ`,
//! with a left-inverse `T` (`Tᵀ F = I`), and one tail finishes the bond:
//!
//! ```text
//!   [Û, Σ̂, V̂] = TSVD(F_Lᵀ F_R, ε₀)
//!   W_L = T_L Û · s_L(Σ̂)     W_R = s_R(Σ̂) · V̂ᵀ T_Rᵀ
//! ```
//!
//! where the singular values are distributed to the left factor, the right
//! factor, or split evenly, depending on the algorithm variant
//! ([`SingularSide`]). Two factorizations feed that tail:
//!
//! - **Pivoted Cholesky** (§III-B1), `Pᵀ G P ≈ L Lᵀ`, stopped at rank `k`
//!   by the relative pivot tolerance `R·ε`. The simultaneous variant
//!   completes it to the square `F = P·[L₁₁ 0; L₂₁ √f·I_{R−k}]` at the
//!   floor `f = ε·maxᵢ Gᵢᵢ`, with `T = F⁻ᵀ`. The sequence variants keep
//!   its `k` columns, `F = P L` and `T = P[:, :k] L₁₁⁻ᵀ`, whenever a
//!   certificate bounds the energy the early stop drops within half the
//!   bond budget.
//! - **EVD**, `G = V Λ Vᵀ`: `F = V Λ^{1/2}` and `T = V Λ^{-1/2}`, with the
//!   eigenvalues clamped from below at `λ_max·ε`. A sequence-variant bond
//!   whose Cholesky certificate misses its budget takes it.
//!
//! Both floors mark the directions the Gram route cannot resolve (§II-B).
//! On the EVD route the sequence variants drop them before the TSVD when
//! their share of `M` fits in half the bond budget, so the small SVD runs
//! on the `k_L × k_R` block of resolved directions and `W_L`/`W_R` are
//! built from the leading `k_L`/`k_R` eigenvectors. The simultaneous
//! variant keeps all `R` directions: its completion replaces what the
//! Cholesky stop left by the floor, it drops nothing. See [`gram_truncate`].

use tt_linalg::{eigh, gemm, pivoted_cholesky, tsvd, Matrix, PivotedCholesky, Trans};

/// Where the singular values of the bond go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SingularSide {
    /// `W_L` absorbs `Σ̂` (used by the LRL sequence variant, which leaves
    /// the *right* cores orthonormal).
    Left,
    /// `W_R` absorbs `Σ̂` (used by the RLR sequence variant, which leaves
    /// the *left* cores orthonormal — Alg. 6 as printed).
    Right,
    /// Both absorb `Σ̂^{1/2}` (the simultaneous variant, Alg. 5).
    Split,
}

/// Record of one bond truncation.
#[derive(Debug, Clone)]
pub struct BondTruncation {
    /// Bond index `n` (between cores `n-1` and `n`, 0-based cores).
    pub bond: usize,
    /// Rank before truncation.
    pub rank_before: usize,
    /// Rank after truncation.
    pub rank_after: usize,
    /// Tail energy discarded at this bond, `√(Σ_{k>L} σ̂_k²)`; `None`
    /// for randomized rounding, which never measures it.
    pub discarded: Option<f64>,
    /// Sketch columns spent at this bond (target rank plus oversampling,
    /// capped by the bond's rank); `None` for the deterministic methods.
    pub sketch_cols: Option<usize>,
}

/// The update-matrix pair for one bond.
pub struct BondUpdate {
    /// `R × L`: post-multiplies the left core's vertical unfolding.
    pub w_left: Matrix,
    /// `L × R`: pre-multiplies the right core's horizontal unfolding.
    pub w_right: Matrix,
    /// Truncation record.
    pub info: BondTruncation,
}

/// Share of the bond budget ε₀ that the directions dropped before the TSVD
/// may take: the Cholesky factors' early stop, or the unresolvable
/// eigendirections on the EVD route.
const DEFLATION_SHARE: f64 = 0.5;

/// Computes the bond update from the Gram pair.
///
/// `threshold` is the absolute tail-energy budget ε₀; `max_rank` optionally
/// caps the retained rank.
///
/// The sequence variants ([`SingularSide::Left`]/[`SingularSide::Right`])
/// first factor both Grams by pivoted Cholesky with the relative pivot
/// tolerance `R·ε_machine`. The factors stop at ranks `k_L`, `k_R`, so the
/// small SVD runs on the `k_L × k_R` matrix `F_Lᵀ F_R`. What the stop
/// dropped is bounded without cancellation: with `s = max(0, tr G −
/// ‖L‖_F²) + R·ε·tr G` per side (an upper bound on the trace of the Schur
/// complement `S`), the energy outside the two factors' ranges is
/// `δ² ≤ tr(S_L G_R) + tr(G_L S_R) ≤ s_L‖G_R‖_F + s_R‖G_L‖_F`. If
/// δ ≤ ε₀/2 (`DEFLATION_SHARE`), the TSVD runs at `√(ε₀² − δ²)` and
/// `discarded = √(tail² + δ²)` stays within ε₀: the dropped part and the
/// SVD tail are orthogonal. That is what makes the sharp truncation safe
/// here: a bond whose dropped part may matter never takes it. Since
/// `‖X‖_F² = tr(G_L G_R) ≤ tr(G_L)‖G_R‖_F`, the certificate's rounding term
/// alone makes δ ≥ `√(2R·ε)·‖X‖`, so tight tolerances fall back
/// to the EVD route below, as do a bond with an all-zero Gram and one
/// whose Gram holds a direction the other side amplifies (§III-B2).
///
/// On the EVD route, eigenvalues are clamped from below at
/// `λ_max · ε_machine` before the `Λ^{-1/2}` scaling — the Gram route cannot
/// resolve singular values below `√ε` of the largest (§II-B), and the clamp
/// keeps those directions bounded rather than exploding, mirroring the
/// robustness discussion of §III-B2. The sequence variants then deflate:
/// the clamped eigendirections form a trailing block of each spectrum, and
/// if the entries of `M` in their rows and columns have Frobenius norm
/// δ ≤ ε₀/2, they are dropped before the TSVD, under the same budget rule.
/// A direction the other side amplifies makes δ exceed the budget, and the
/// bond keeps its full `r × r` TSVD.
///
/// [`SingularSide::Split`] never deflates: the simultaneous variant
/// truncates every bond from the original Grams, so each `W_L·W_R` must act
/// as the identity on both of its interfaces. It factors both Grams by the
/// same pivoted Cholesky and completes each factor to the square
/// `F = P·[L₁₁ 0; L₂₁ √f·I_{R−k}]`, replacing the Schur complement the stop
/// left by `f·I` with the floor `f = ε·maxᵢ Gᵢᵢ` (the smallest positive
/// double for an all-zero Gram), as the EVD route's clamp replaces the
/// eigenvalues below `λ_max·ε`. `F` is invertible and `T = F⁻ᵀ`, so
/// `W_L·W_R = T_L M T_Rᵀ = I` whenever the TSVD keeps everything, and the
/// TSVD runs on the full `r × r` matrix `M = F_Lᵀ F_R` with nothing dropped.
pub fn gram_truncate(
    bond: usize,
    g_left: &Matrix,
    g_right: &Matrix,
    threshold: f64,
    max_rank: Option<usize>,
    side: SingularSide,
) -> BondUpdate {
    truncate_bond(bond, g_left, g_right, threshold, max_rank, side, true).0
}

/// Which factorization of the Gram pair [`truncate_bond`] used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    Cholesky,
    Evd,
}

/// What [`truncate_bond`] dropped before the TSVD.
#[derive(Debug, Clone, Copy)]
struct Deflation {
    /// `k_L × k_R`: the shape of the matrix the TSVD ran on.
    block: (usize, usize),
    /// δ, the bound on the energy dropped before the TSVD (0 when none).
    delta: f64,
    /// The factorization the bond took (read by the route tests).
    #[cfg_attr(not(test), allow(dead_code, reason = "only the route tests read it"))]
    route: Route,
}

/// [`gram_truncate`] with the deflation switch exposed, also reporting
/// what was dropped. On the sequence sides `deflate` allows both the
/// Cholesky route and the EVD route's deflation; without it the bond takes
/// the full EVD route. [`SingularSide::Split`] never deflates and ignores
/// it.
fn truncate_bond(
    bond: usize,
    g_left: &Matrix,
    g_right: &Matrix,
    threshold: f64,
    max_rank: Option<usize>,
    side: SingularSide,
    deflate: bool,
) -> (BondUpdate, Deflation) {
    let r = g_left.rows();
    assert_eq!(g_left.shape(), (r, r), "G_L must be square");
    assert_eq!(
        g_right.shape(),
        (r, r),
        "Gram pair must share the bond dimension"
    );

    tt_linalg::paranoid::check_finite("gram_truncate", "G_L", g_left.as_slice());
    tt_linalg::paranoid::check_finite("gram_truncate", "G_R", g_right.as_slice());
    tt_linalg::paranoid::check_finite_scalar("gram_truncate", "threshold", threshold);

    let pair = match side {
        SingularSide::Split => cholesky_pair(g_left, g_right, None),
        _ if deflate => cholesky_pair(g_left, g_right, Some(threshold)),
        _ => None,
    };
    let (m, deflation, left, right) =
        pair.unwrap_or_else(|| evd_pair(bond, g_left, g_right, threshold, deflate));

    // The tail both routes share: TSVD of M within the budget left after
    // δ, W_L = T_L Û and W_R = V̂ᵀ T_Rᵀ, then the singular-side scaling.
    let budget = if deflation.delta > 0.0 {
        threshold * (1.0 - (deflation.delta / threshold).powi(2)).sqrt()
    } else {
        threshold
    };
    let mut t = tsvd(&m, budget).cap_rank(max_rank);
    t.discarded_norm = t.discarded_norm.hypot(deflation.delta);
    let l = t.rank();

    let mut w_left = left.apply_left_inverse(t.u);
    let mut w_right = right.apply_left_inverse(t.v).transpose();

    match side {
        SingularSide::Left => {
            for (j, &s) in t.singular_values.iter().enumerate() {
                w_left.scale_col(j, s);
            }
        }
        SingularSide::Right => {
            for (i, &s) in t.singular_values.iter().enumerate() {
                for j in 0..r {
                    w_right[(i, j)] *= s;
                }
            }
        }
        SingularSide::Split => {
            for (j, &s) in t.singular_values.iter().enumerate() {
                let h = s.sqrt();
                w_left.scale_col(j, h);
                for c in 0..r {
                    w_right[(j, c)] *= h;
                }
            }
        }
    }

    let update = BondUpdate {
        w_left,
        w_right,
        info: BondTruncation {
            bond,
            rank_before: r,
            rank_after: l,
            discarded: Some(t.discarded_norm),
            sketch_cols: None,
        },
    };
    (update, deflation)
}

/// What a route hands the shared tail: the matrix the TSVD runs on, what
/// was dropped before it, and the left and right factors.
type BondFactors = (Matrix, Deflation, GramFactor, GramFactor);

/// The EVD route's factor pair and `M = Λ_L^{1/2} V_Lᵀ V_R Λ_R^{1/2}`,
/// cut to its leading block of resolved directions when `deflate` allows
/// and the dropped entries fit in `DEFLATION_SHARE · threshold`.
fn evd_pair(
    bond: usize,
    g_left: &Matrix,
    g_right: &Matrix,
    threshold: f64,
    deflate: bool,
) -> BondFactors {
    let r = g_left.rows();
    let eig_or_die = |side: &str, g: &Matrix| match eigh(g) {
        Ok(e) => e.descending(),
        #[expect(
            clippy::panic,
            reason = "a Gram matrix is symmetric PSD by construction; EVD failure means memory corruption upstream and the message says how to chase it"
        )]
        Err(e) => panic!(
            "gram_truncate bond {bond}: EVD of {side} failed ({e}). A Gram \
             matrix is symmetric PSD, so this indicates a corrupted buffer \
             upstream — rerun with the `paranoid` feature to catch it at the \
             producing kernel."
        ),
    };
    let el = eig_or_die("G_L", g_left);
    let er = eig_or_die("G_R", g_right);
    let ((lam_l, resolved_l), vl) = (clamp_spectrum(&el.values), el.vectors);
    let ((lam_r, resolved_r), vr) = (clamp_spectrum(&er.values), er.vectors);

    // M = Λ_L^{1/2} V_Lᵀ V_R Λ_R^{1/2}: scale rows and columns of V_LᵀV_R.
    let mut m = gemm(Trans::Yes, &vl, Trans::No, &vr, 1.0);
    for i in 0..r {
        let s = lam_l[i].sqrt();
        for j in 0..r {
            m[(i, j)] *= s;
        }
    }
    for (j, &lr) in lam_r.iter().enumerate() {
        m.scale_col(j, lr.sqrt());
    }

    // Deflation: δ is the Frobenius norm of M outside its leading block of
    // resolved directions.
    let (rl, rr) = if deflate {
        (resolved_l, resolved_r)
    } else {
        (r, r)
    };
    let delta = (0..r)
        .map(|j| {
            let rows = if j < rr { &m.col(j)[rl..] } else { m.col(j) };
            rows.iter().map(|x| x * x).sum::<f64>()
        })
        .sum::<f64>()
        .sqrt();
    let dropped = (rl, rr) != (r, r) && delta <= DEFLATION_SHARE * threshold;
    let deflation = Deflation {
        block: if dropped { (rl, rr) } else { (r, r) },
        delta: if dropped { delta } else { 0.0 },
        route: Route::Evd,
    };
    let (kl, kr) = deflation.block;
    let block = if (kl, kr) == (r, r) {
        m
    } else {
        m.sub_matrix(0, 0, kl, kr)
    };
    let left = GramFactor::Evd {
        vectors: vl.truncate_cols(kl),
        lam: lam_l,
    };
    let right = GramFactor::Evd {
        vectors: vr.truncate_cols(kr),
        lam: lam_r,
    };
    (block, deflation, left, right)
}

/// The Cholesky route's factor pair and `M = F_Lᵀ F_R`.
///
/// With no `budget` ([`SingularSide::Split`]) each factor is completed to a
/// square `F`, nothing is dropped and this always returns the pair. With
/// `Some(threshold)` each factor keeps its `k` columns, and the result is
/// `None` when the bond must take the EVD route: a factor stopped at rank 0
/// (an all-zero Gram), or the certificate δ on the energy the early stops
/// dropped misses `DEFLATION_SHARE · threshold`.
fn cholesky_pair(g_left: &Matrix, g_right: &Matrix, budget: Option<f64>) -> Option<BondFactors> {
    let r = g_left.rows();
    let tol = r as f64 * f64::EPSILON;
    let pl = pivoted_cholesky(g_left, tol);
    let pr = pivoted_cholesky(g_right, tol);
    let (root_l, root_r) = (completion_root(g_left), completion_root(g_right));
    let (m, block, delta) = match budget {
        None => {
            let m = completed_product(&pl, root_l, &pr, root_r);
            (m, (r, r), 0.0)
        }
        Some(threshold) => {
            if pl.rank == 0 || pr.rank == 0 {
                return None;
            }
            let delta = (pl.residual_trace * g_right.fro_norm()
                + pr.residual_trace * g_left.fro_norm())
            .sqrt();
            // False for a NaN or overflowed certificate, which takes the EVD
            // route.
            let fits = delta <= DEFLATION_SHARE * threshold;
            if !fits {
                return None;
            }
            let m = gemm(
                Trans::Yes,
                &pl.factor_unpivoted(),
                Trans::No,
                &pr.factor_unpivoted(),
                1.0,
            );
            (m, (pl.rank, pr.rank), delta)
        }
    };
    let deflation = Deflation {
        block,
        delta,
        route: Route::Cholesky,
    };
    let left = GramFactor::Cholesky {
        pc: pl,
        root_floor: root_l,
    };
    let right = GramFactor::Cholesky {
        pc: pr,
        root_floor: root_r,
    };
    Some((m, deflation, left, right))
}

/// `√f` for the completion floor `f = ε·maxᵢ Gᵢᵢ` of a Gram, or for the
/// smallest positive double when the Gram is all zero.
fn completion_root(g: &Matrix) -> f64 {
    let max_diag = (0..g.rows()).fold(0.0_f64, |m, i| m.max(g[(i, i)]));
    (f64::EPSILON * max_diag).max(f64::MIN_POSITIVE).sqrt()
}

/// `M = F_Lᵀ F_R` for the square factors `F = P·[L₁₁ 0; L₂₁ √f·I_{R−k}]`
/// completing each pivoted Cholesky `Pᵀ G P ≈ L Lᵀ` stopped at rank `k`
/// (`F Fᵀ` is `G` with the Schur complement the stop left replaced by
/// `f·I`), without forming them: one GEMM of the `P L` columns gives the
/// leading `k_L × k_R` block, and each completion column `√f·e_perm[i]`,
/// `i ≥ k`, picks one row of the other side's `P L` or one completion
/// entry.
fn completed_product(
    pl: &PivotedCholesky,
    root_l: f64,
    pr: &PivotedCholesky,
    root_r: f64,
) -> Matrix {
    let n = pl.l.rows();
    let (kl, kr) = (pl.rank, pr.rank);
    let (al, ar) = (pl.factor_unpivoted(), pr.factor_unpivoted());
    let lead = gemm(Trans::Yes, &al, Trans::No, &ar, 1.0);
    let mut m = Matrix::zeros(n, n);
    for j in 0..kr {
        let col = m.col_mut(j);
        col[..kl].copy_from_slice(lead.col(j));
        for (x, &p) in col[kl..].iter_mut().zip(&pl.perm[kl..]) {
            *x = root_l * ar[(p, j)];
        }
    }
    for (j, &p) in pr.perm.iter().enumerate().skip(kr) {
        let col = m.col_mut(j);
        for (i, x) in col[..kl].iter_mut().enumerate() {
            *x = al[(p, i)] * root_r;
        }
        if let Some(i) = pl.perm[kl..].iter().position(|&q| q == p) {
            col[kl + i] = root_l * root_r;
        }
    }
    m
}

/// One side's factor `F` of its Gram matrix, `G ≈ F Fᵀ` with `F` of width
/// `k`, held as what is needed to apply the left-inverse `T` (`Tᵀ F = I_k`).
enum GramFactor {
    /// `T = V Λ^{-1/2}` over the leading `k` (clamped) eigenpairs.
    Evd { vectors: Matrix, lam: Vec<f64> },
    /// From `Pᵀ G P ≈ L Lᵀ` stopped at `pc.rank`: the completed square
    /// `F = P·[L₁₁ 0; L₂₁ √f·I]` with `T = F⁻ᵀ`, or its leading `pc.rank`
    /// columns `P L` with `T = P[:, :pc.rank] L₁₁⁻ᵀ`.
    Cholesky {
        pc: PivotedCholesky,
        /// `√f`, the completion rows' diagonal.
        root_floor: f64,
    },
}

impl GramFactor {
    /// `T Y` for a `k`-row `Y`: the `R`-row update columns.
    fn apply_left_inverse(&self, mut y: Matrix) -> Matrix {
        match self {
            GramFactor::Evd { vectors, lam } => {
                // Row i of Y pairs with eigenpair i.
                for j in 0..y.cols() {
                    for (x, &l) in y.col_mut(j).iter_mut().zip(lam) {
                        *x /= l.sqrt();
                    }
                }
                gemm(Trans::No, vectors, Trans::No, &y, 1.0)
            }
            GramFactor::Cholesky { pc, root_floor } => {
                // T Y = P·[L₁₁ 0; L₂₁ √f·I]⁻ᵀ Y: divide the completion rows
                // (a `pc.rank`-row Y has none) by √f, back-substitute with
                // L₁₁ᵀ and the L₂₁ᵀ terms, reading L's columns, then
                // scatter row i to row perm[i].
                let (k, l) = (pc.rank, &pc.l);
                let mut t = Matrix::zeros(l.rows(), y.cols());
                for j in 0..y.cols() {
                    let z = y.col_mut(j);
                    for x in z.iter_mut().skip(k) {
                        *x /= root_floor;
                    }
                    for i in (0..k).rev() {
                        let s = l.col(i)[i + 1..]
                            .iter()
                            .zip(&z[i + 1..])
                            .map(|(a, b)| a * b)
                            .sum::<f64>();
                        z[i] = (z[i] - s) / l[(i, i)];
                    }
                    let out = t.col_mut(j);
                    for (i, &zi) in z.iter().enumerate() {
                        out[pc.perm[i]] = zi;
                    }
                }
                t
            }
        }
    }
}

/// Clamps a descending spectrum from below at `λ_max · ε` (and at the
/// smallest positive double for an all-zero spectrum) so `Λ^{-1/2}` stays
/// finite. Also returns how many leading eigenvalues lie above the floor
/// (at least one): the rest are the trailing block the Gram route cannot
/// resolve.
fn clamp_spectrum(values: &[f64]) -> (Vec<f64>, usize) {
    let lam_max = values.first().copied().unwrap_or(0.0).max(0.0);
    let floor = (lam_max * f64::EPSILON).max(f64::MIN_POSITIVE);
    let resolved = values.iter().take_while(|&&v| v > floor).count().max(1);
    (values.iter().map(|&v| v.max(floor)).collect(), resolved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tt_linalg::syrk;

    /// Builds A (m×r), B (k×r) and checks that the Gram truncation of
    /// X = A Bᵀ reproduces X to the threshold.
    fn check_product_truncation(side: SingularSide) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let (m, k, r) = (30, 25, 8);
        let a = Matrix::gaussian(m, r, &mut rng);
        let b = Matrix::gaussian(k, r, &mut rng);
        let ga = syrk(&a, 1.0);
        let gb = syrk(&b, 1.0);
        let upd = gram_truncate(1, &ga, &gb, 1e-12, None, side);
        // No truncation should occur at this tight threshold...
        assert_eq!(upd.info.rank_after, r);
        // ... and Â B̂ᵀ must equal A Bᵀ.
        let a_hat = gemm(Trans::No, &a, Trans::No, &upd.w_left, 1.0);
        let b_hat_t = gemm(Trans::No, &upd.w_right, Trans::Yes, &b, 1.0);
        let x = gemm(Trans::No, &a, Trans::Yes, &b, 1.0);
        let x_hat = gemm(Trans::No, &a_hat, Trans::No, &b_hat_t, 1.0);
        assert!(
            x.max_abs_diff(&x_hat) < 1e-9 * (1.0 + x.max_abs()),
            "reconstruction failed for {side:?}"
        );
    }

    #[test]
    fn exact_reconstruction_right() {
        check_product_truncation(SingularSide::Right);
    }

    #[test]
    fn exact_reconstruction_left() {
        check_product_truncation(SingularSide::Left);
    }

    #[test]
    fn exact_reconstruction_split() {
        check_product_truncation(SingularSide::Split);
    }

    /// A, B of rank 3 embedded in 6 columns: the `[C | C]` pattern.
    fn redundant_pair() -> (Matrix, Matrix) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let c_a = Matrix::gaussian(40, 3, &mut rng);
        let c_b = Matrix::gaussian(35, 3, &mut rng);
        let mut a = Matrix::zeros(40, 6);
        let mut b = Matrix::zeros(35, 6);
        for j in 0..3 {
            a.col_mut(j).copy_from_slice(c_a.col(j));
            a.col_mut(j + 3).copy_from_slice(c_a.col(j));
            b.col_mut(j).copy_from_slice(c_b.col(j));
            b.col_mut(j + 3).copy_from_slice(c_b.col(j));
        }
        (a, b)
    }

    /// `A·W_L·W_R·Bᵀ`, the product after the bond update.
    fn reconstruct(a: &Matrix, b: &Matrix, upd: &BondUpdate) -> Matrix {
        let a_hat = gemm(Trans::No, a, Trans::No, &upd.w_left, 1.0);
        let b_hat_t = gemm(Trans::No, &upd.w_right, Trans::Yes, b, 1.0);
        gemm(Trans::No, &a_hat, Trans::No, &b_hat_t, 1.0)
    }

    fn same_bits(x: &Matrix, y: &Matrix) -> bool {
        x.shape() == y.shape()
            && x.as_slice()
                .iter()
                .zip(y.as_slice())
                .all(|(p, q)| p.to_bits() == q.to_bits())
    }

    #[test]
    fn truncates_redundant_rank() {
        let (a, b) = redundant_pair();
        let x = gemm(Trans::No, &a, Trans::Yes, &b, 1.0);
        let upd = gram_truncate(
            1,
            &syrk(&a, 1.0),
            &syrk(&b, 1.0),
            1e-8 * x.fro_norm(),
            None,
            SingularSide::Right,
        );
        assert_eq!(upd.info.rank_after, 3, "redundant rank not detected");
        let a_hat = gemm(Trans::No, &a, Trans::No, &upd.w_left, 1.0);
        let b_hat_t = gemm(Trans::No, &upd.w_right, Trans::Yes, &b, 1.0);
        let x_hat = gemm(Trans::No, &a_hat, Trans::No, &b_hat_t, 1.0);
        assert!(x.max_abs_diff(&x_hat) < 1e-7 * (1.0 + x.max_abs()));
    }

    #[test]
    fn max_rank_cap_applies() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let a = Matrix::gaussian(50, 10, &mut rng);
        let b = Matrix::gaussian(45, 10, &mut rng);
        let upd = gram_truncate(
            2,
            &syrk(&a, 1.0),
            &syrk(&b, 1.0),
            1e-14,
            Some(4),
            SingularSide::Split,
        );
        assert_eq!(upd.info.rank_after, 4);
        assert_eq!(upd.w_left.cols(), 4);
        assert_eq!(upd.w_right.rows(), 4);
        assert!(upd.info.discarded.unwrap() > 0.0);
    }

    #[test]
    fn zero_gram_matrices_do_not_produce_nans() {
        let g = Matrix::zeros(5, 5);
        for side in [SingularSide::Left, SingularSide::Right, SingularSide::Split] {
            let upd = gram_truncate(0, &g, &g, 1.0, None, side);
            assert_eq!(upd.info.rank_after, 1, "{side:?}");
            assert!(upd.w_left.as_slice().iter().all(|x| x.is_finite()));
            assert!(upd.w_right.as_slice().iter().all(|x| x.is_finite()));
            assert!(upd.info.discarded.is_some_and(f64::is_finite));
        }
    }

    #[test]
    fn left_orthonormality_of_right_side_variant() {
        // With SingularSide::Right, A·W_L must have orthonormal columns
        // (this is what keeps the left cores orthonormal in Alg. 6).
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let a = Matrix::gaussian(60, 7, &mut rng);
        let b = Matrix::gaussian(55, 7, &mut rng);
        let upd = gram_truncate(
            1,
            &syrk(&a, 1.0),
            &syrk(&b, 1.0),
            1e-13,
            None,
            SingularSide::Right,
        );
        let a_hat = gemm(Trans::No, &a, Trans::No, &upd.w_left, 1.0);
        let gram = syrk(&a_hat, 1.0);
        assert!(gram.max_abs_diff(&Matrix::identity(upd.info.rank_after)) < 1e-8);
    }

    #[test]
    fn sequence_variants_deflate_unresolvable_directions() {
        let (a, b) = redundant_pair();
        let x = gemm(Trans::No, &a, Trans::Yes, &b, 1.0);
        let (ga, gb) = (syrk(&a, 1.0), syrk(&b, 1.0));
        let thr = 1e-8 * x.fro_norm();
        for side in [SingularSide::Left, SingularSide::Right] {
            let (upd, defl) = truncate_bond(1, &ga, &gb, thr, None, side, true);
            let (kl, kr) = defl.block;
            assert!(kl < 6 && kr < 6, "{side:?}: TSVD ran on {kl}×{kr}");
            assert_eq!(upd.info.rank_after, 3, "{side:?}");
            assert_eq!((upd.w_left.shape(), upd.w_right.shape()), ((6, 3), (3, 6)));
            let discarded = upd.info.discarded.unwrap_or(f64::NAN);
            assert!(defl.delta > 0.0, "{side:?}: nothing dropped");
            assert!(
                defl.delta <= discarded && discarded <= thr,
                "{side:?}: δ {} discarded {discarded} threshold {thr}",
                defl.delta
            );
            let err = x.max_abs_diff(&reconstruct(&a, &b, &upd));
            assert!(err <= thr, "{side:?}: error {err} over threshold {thr}");
            // The public entry point takes the deflated path.
            let public = gram_truncate(1, &ga, &gb, thr, None, side);
            assert!(same_bits(&public.w_left, &upd.w_left));
            assert!(same_bits(&public.w_right, &upd.w_right));
        }
    }

    #[test]
    fn loose_bond_takes_the_cholesky_route() {
        let (a, b) = redundant_pair();
        let x = gemm(Trans::No, &a, Trans::Yes, &b, 1.0);
        let (ga, gb) = (syrk(&a, 1.0), syrk(&b, 1.0));
        let thr = 1e-5 * x.fro_norm();
        for side in [SingularSide::Left, SingularSide::Right] {
            let (upd, defl) = truncate_bond(1, &ga, &gb, thr, None, side, true);
            assert_eq!(defl.route, Route::Cholesky, "{side:?}");
            assert_eq!(defl.block, (3, 3), "{side:?}: the factors' early stop");
            assert_eq!(upd.info.rank_after, 3, "{side:?}");
            let discarded = upd.info.discarded.unwrap_or(f64::NAN);
            assert!(
                0.0 < defl.delta && defl.delta <= discarded && discarded <= thr,
                "{side:?}: δ {} discarded {discarded} threshold {thr}",
                defl.delta
            );
            let mut diff = reconstruct(&a, &b, &upd);
            diff.axpy(-1.0, &x);
            let err = diff.fro_norm();
            assert!(err <= thr, "{side:?}: error {err} over threshold {thr}");
            // The side that does not absorb Σ̂ stays orthonormal.
            let q = match side {
                SingularSide::Right => gemm(Trans::No, &a, Trans::No, &upd.w_left, 1.0),
                _ => gemm(Trans::No, &b, Trans::Yes, &upd.w_right, 1.0),
            };
            assert!(syrk(&q, 1.0).max_abs_diff(&Matrix::identity(3)) < 1e-10);
            let public = gram_truncate(1, &ga, &gb, thr, None, side);
            assert!(same_bits(&public.w_left, &upd.w_left));
            assert!(same_bits(&public.w_right, &upd.w_right));
        }
    }

    #[test]
    fn tight_redundant_bond_takes_the_evd_route() {
        // At 1e-10 the certificate's rounding term alone, at least
        // √(2R·ε)·‖X‖, misses half the budget.
        let (a, b) = redundant_pair();
        let x = gemm(Trans::No, &a, Trans::Yes, &b, 1.0);
        let (ga, gb) = (syrk(&a, 1.0), syrk(&b, 1.0));
        let thr = 1e-10 * x.fro_norm();
        for side in [SingularSide::Left, SingularSide::Right] {
            let (upd, defl) = truncate_bond(1, &ga, &gb, thr, None, side, true);
            assert_eq!(defl.route, Route::Evd, "{side:?}");
            assert_eq!(upd.info.rank_after, 3, "{side:?}");
        }
    }

    /// The §III-B2 construction (see `matprod`): A has a direction of size
    /// ~√ε, at the clamp floor of G_L, that B amplifies by 1e7.
    fn amplified_pair() -> (Matrix, Matrix) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let r = 4;
        let mut a = tt_linalg::householder_qr(&Matrix::gaussian(40, r, &mut rng)).thin_q();
        let mut b = tt_linalg::householder_qr(&Matrix::gaussian(40, r, &mut rng)).thin_q();
        a.scale_col(r - 1, 1e-8);
        b.scale_col(r - 1, 1e7);
        (a, b)
    }

    #[test]
    fn amplified_direction_is_not_deflated() {
        let (a, b) = amplified_pair();
        let r = a.cols();
        let x = gemm(Trans::No, &a, Trans::Yes, &b, 1.0);
        let (ga, gb) = (syrk(&a, 1.0), syrk(&b, 1.0));
        let thr = 1e-6 * x.fro_norm();
        let lam_a = eigh(&ga).map(|e| e.descending().values).unwrap_or_default();
        assert!(
            clamp_spectrum(&lam_a).1 < r,
            "the √ε direction should sit at the floor"
        );
        for side in [SingularSide::Left, SingularSide::Right] {
            let (upd, defl) = truncate_bond(1, &ga, &gb, thr, None, side, true);
            let (full, _) = truncate_bond(1, &ga, &gb, thr, None, side, false);
            assert_eq!(defl.block, (r, r), "{side:?}: δ {} was dropped", defl.delta);
            assert!(same_bits(&upd.w_left, &full.w_left), "{side:?}");
            assert!(same_bits(&upd.w_right, &full.w_right), "{side:?}");
            assert_eq!(
                upd.info.discarded.map(f64::to_bits),
                full.info.discarded.map(f64::to_bits)
            );
        }
    }

    #[test]
    fn split_never_deflates() {
        let (a, b) = redundant_pair();
        let x = gemm(Trans::No, &a, Trans::Yes, &b, 1.0);
        let (ga, gb) = (syrk(&a, 1.0), syrk(&b, 1.0));
        let thr = 1e-8 * x.fro_norm();
        // The pair deflates on a sequence side ...
        let (_, defl) = truncate_bond(1, &ga, &gb, thr, None, SingularSide::Right, true);
        assert_ne!(defl.block, (6, 6));
        // ... but Split completes both rank-3 factors and keeps the full
        // r × r TSVD, whether or not deflation is allowed.
        let public = gram_truncate(1, &ga, &gb, thr, None, SingularSide::Split);
        for deflate in [true, false] {
            let (full, defl) = truncate_bond(1, &ga, &gb, thr, None, SingularSide::Split, deflate);
            assert_eq!(defl.route, Route::Cholesky);
            assert_eq!(defl.block, (6, 6));
            assert_eq!(defl.delta.to_bits(), 0.0_f64.to_bits());
            assert!(same_bits(&public.w_left, &full.w_left));
            assert!(same_bits(&public.w_right, &full.w_right));
        }
        assert_eq!(public.info.rank_after, 3);
        let err = x.max_abs_diff(&reconstruct(&a, &b, &public));
        assert!(err <= thr, "error {err} over threshold {thr}");
    }

    /// A Gram of size `r` and true rank `k`: `CᵀC` for a `3r × r` product
    /// of Gaussian factors through rank `k` (all zero at `k = 0`).
    fn gram_of_rank(r: usize, k: usize, seed: u64) -> Matrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let c = gemm(
            Trans::No,
            &Matrix::gaussian(3 * r, k, &mut rng),
            Trans::No,
            &Matrix::gaussian(k, r, &mut rng),
            1.0,
        );
        syrk(&c, 1.0)
    }

    /// The square factor `F = P·[L₁₁ 0; L₂₁ √f·I]`, formed.
    fn completed_factor(pc: &PivotedCholesky, root_floor: f64) -> Matrix {
        let n = pc.l.rows();
        let mut f = Matrix::zeros(n, n);
        for (i, &p) in pc.perm.iter().enumerate() {
            for j in 0..pc.rank {
                f[(p, j)] = pc.l[(i, j)];
            }
            if i >= pc.rank {
                f[(p, i)] = root_floor;
            }
        }
        f
    }

    #[test]
    fn completed_factor_is_inverted_by_its_left_inverse() {
        for r in [6, 36] {
            for k in [0, 3, 9, r].into_iter().filter(|&k| k <= r) {
                let g = gram_of_rank(r, k, 20 + k as u64);
                let pc = pivoted_cholesky(&g, r as f64 * f64::EPSILON);
                let root_floor = completion_root(&g);
                let f = completed_factor(&pc, root_floor);
                let t =
                    GramFactor::Cholesky { pc, root_floor }.apply_left_inverse(Matrix::identity(r));
                let ft = gemm(Trans::Yes, &f, Trans::No, &t, 1.0);
                let err = ft.max_abs_diff(&Matrix::identity(r));
                // To rounding: F's completion makes it as ill-conditioned
                // as 1/√ε, so the bound carries the entries' sizes.
                let bound = r as f64 * f64::EPSILON * f.max_abs() * t.max_abs();
                assert!(
                    err <= bound,
                    "R = {r}, rank {k}: ‖FᵀT − I‖_max = {err} > {bound}"
                );
                // F Fᵀ is G up to the floor the completion put in.
                let gap = syrk(&f.transpose(), 1.0).max_abs_diff(&g);
                let scale = (0..r).fold(0.0_f64, |m, i| m.max(g[(i, i)]));
                assert!(
                    gap <= 4.0 * r as f64 * f64::EPSILON * scale + f64::MIN_POSITIVE,
                    "R = {r}, rank {k}: ‖FFᵀ − G‖_max = {gap}"
                );
            }
        }
    }

    #[test]
    fn completed_product_is_the_product_of_the_completed_factors() {
        for r in [6, 36] {
            let sides: Vec<_> = [0, 3, 9, r]
                .into_iter()
                .filter(|&k| k <= r)
                .map(|k| {
                    let g = gram_of_rank(r, k, 40 + k as u64);
                    let pc = pivoted_cholesky(&g, r as f64 * f64::EPSILON);
                    let root = completion_root(&g);
                    (completed_factor(&pc, root), pc, root)
                })
                .collect();
            for (fl, pl, root_l) in &sides {
                for (fr, pr, root_r) in &sides {
                    let m = completed_product(pl, *root_l, pr, *root_r);
                    let dense = gemm(Trans::Yes, fl, Trans::No, fr, 1.0);
                    let err = m.max_abs_diff(&dense);
                    let bound = r as f64 * f64::EPSILON * dense.max_abs();
                    assert!(
                        err <= bound,
                        "R = {r}, ranks ({}, {}): {err} > {bound}",
                        pl.rank,
                        pr.rank
                    );
                }
            }
        }
    }

    #[test]
    fn split_keeps_the_amplified_direction() {
        let (a, b) = amplified_pair();
        let x = gemm(Trans::No, &a, Trans::Yes, &b, 1.0);
        let (ga, gb) = (syrk(&a, 1.0), syrk(&b, 1.0));
        let thr = 1e-6 * x.fro_norm();
        let r = a.cols();
        let (upd, defl) = truncate_bond(1, &ga, &gb, thr, None, SingularSide::Split, true);
        assert_eq!(defl.block, (r, r));
        assert_eq!(upd.info.rank_after, r);
        let mut diff = reconstruct(&a, &b, &upd);
        diff.axpy(-1.0, &x);
        let err = diff.fro_norm();
        assert!(err <= thr, "error {err} over threshold {thr}");
    }

    /// Scaling both Grams and the threshold by 4ᵏ scales every step of the
    /// Split route by an exact power of two (pivoted Cholesky, the floor's
    /// square root, the GEMM, `tsvd`, the back substitution), so `W_L` and
    /// `W_R` keep their bits.
    #[test]
    fn split_is_exact_under_power_of_two_scaling() {
        for (r, kl, kr) in [(12, 4, 9), (12, 12, 3), (7, 7, 7)] {
            let (gl, gr) = (gram_of_rank(r, kl, 30), gram_of_rank(r, kr, 31));
            let thr = 1e-6 * gemm(Trans::No, &gl, Trans::No, &gr, 1.0).fro_norm().sqrt();
            let base = gram_truncate(1, &gl, &gr, thr, None, SingularSide::Split);
            for k in -200..=200 {
                let scale = 4f64.powi(k);
                let (mut sl, mut sr) = (gl.clone(), gr.clone());
                sl.scale(scale);
                sr.scale(scale);
                // Skip a draw whose inputs 4ᵏ makes subnormal.
                let exact = |x: &f64| *x == 0.0 || x.is_normal();
                if !(sl.as_slice().iter().chain(sr.as_slice()).all(exact) && exact(&(thr * scale)))
                {
                    continue;
                }
                let got = gram_truncate(1, &sl, &sr, thr * scale, None, SingularSide::Split);
                assert!(
                    same_bits(&got.w_left, &base.w_left),
                    "W_L at ({r}, {kl}, {kr}), k = {k}"
                );
                assert!(
                    same_bits(&got.w_right, &base.w_right),
                    "W_R at ({r}, {kl}, {kr}), k = {k}"
                );
            }
        }
    }

    /// The sequence sides under Grams and threshold scaled by 4ᵏ: every
    /// step of the Cholesky route (the pivoted factors, the certificate,
    /// the GEMM, `tsvd`, the back substitution) and of the full EVD route
    /// (`eigh`, the clamp, `Λ^{±1/2}`) scales by an exact power of two, so
    /// the side that absorbs `Σ̂` comes back times `2ᵏ` and the other times
    /// `2⁻ᵏ`, bit for bit, and every bond takes the route it took unscaled.
    #[test]
    fn sequence_sides_are_exact_under_power_of_two_scaling() {
        let mut pairs: Vec<(Matrix, Matrix)> = [(12, 4, 9), (12, 12, 3), (7, 7, 7)]
            .into_iter()
            .map(|(r, kl, kr)| (gram_of_rank(r, kl, 30), gram_of_rank(r, kr, 31)))
            .collect();
        let (a, b) = redundant_pair();
        pairs.push((syrk(&a, 1.0), syrk(&b, 1.0)));
        let times = |m: &Matrix, s: f64| {
            let mut m = m.clone();
            m.scale(s);
            m
        };
        let mut cholesky_bonds = 0;
        for (gl, gr) in &pairs {
            let norm = gemm(Trans::No, gl, Trans::No, gr, 1.0).fro_norm().sqrt();
            for thr in [1e-5 * norm, 1e-10 * norm] {
                for side in [SingularSide::Left, SingularSide::Right] {
                    // `deflate = false` forces the full EVD route.
                    for deflate in [true, false] {
                        let (base, defl) = truncate_bond(1, gl, gr, thr, None, side, deflate);
                        let route = defl.route;
                        cholesky_bonds += usize::from(route == Route::Cholesky);
                        for k in -200..=200 {
                            let scale = 4f64.powi(k);
                            let (sl, sr) = (times(gl, scale), times(gr, scale));
                            // Skip a draw whose inputs 4ᵏ makes subnormal.
                            let exact = |x: &f64| *x == 0.0 || x.is_normal();
                            if !(sl.as_slice().iter().chain(sr.as_slice()).all(exact)
                                && exact(&(thr * scale)))
                            {
                                continue;
                            }
                            let (got, defl) =
                                truncate_bond(1, &sl, &sr, thr * scale, None, side, deflate);
                            let case = format!("{side:?}, {route:?}, R = {}, k = {k}", gl.rows());
                            assert_eq!(defl.route, route, "{case}");
                            let (up, down) = (2f64.powi(k), 2f64.powi(-k));
                            let (left_scale, right_scale) = match side {
                                SingularSide::Left => (up, down),
                                _ => (down, up),
                            };
                            assert!(
                                same_bits(&got.w_left, &times(&base.w_left, left_scale)),
                                "W_L at {case}"
                            );
                            assert!(
                                same_bits(&got.w_right, &times(&base.w_right, right_scale)),
                                "W_R at {case}"
                            );
                        }
                    }
                }
            }
        }
        assert!(cholesky_bonds > 0, "no bond took the Cholesky route");
    }
}
