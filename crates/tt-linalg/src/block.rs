//! Packed, cache-blocked GEMM/SYRK engine.
//!
//! The paper's efficiency argument (§IV-E, and Röhrig-Zöllner et al. for the
//! tall-skinny case) assumes the Gram-path `gemm`/`syrk` calls run near the
//! hardware roofline. The straightforward column loops in
//! [`crate::reference`] re-stream the whole `A` operand from memory once per
//! output column; this module replaces them on the hot path with the
//! classical three-level blocking scheme (Goto/BLIS):
//!
//! * **Register tile** — an `MR × NR` accumulator block held entirely in
//!   registers while streaming one `KC`-deep sliver of packed `A` and `B`;
//! * **Cache blocks** — `MC × KC` panels of `op(A)` packed into an
//!   `MR`-row-slab layout (L2-resident) and `KC × NC` panels of `op(B)`
//!   packed into an `NR`-column-slab layout (L1-streamed), so the microkernel
//!   only ever touches unit-stride, aligned, zero-padded buffers. [`MC`],
//!   [`KC`] and [`NC`] are compile-time constants sized by the Goto rules
//!   for a 48 KiB L1d / 2 MiB L2 core, so the `KC` grouping of every sum,
//!   and with it every result bit, is the same on every machine;
//! * **Transpose handling** — all four `op` combinations are absorbed by the
//!   packing routines, so callers ([`crate::gemm::gemm_v`] and friends) are
//!   untouched and pay zero per-element dispatch cost.
//!
//! Everything is safe Rust. The register microkernel has two
//! implementations selected at compile time: a scalar one using
//! `as_chunks` fixed-size array views (bounds checks vanish, the compiler
//! keeps the tile in vector registers) and, behind the `simd` cargo
//! feature, an explicit `std::simd` one holding the tile in `f64x4`
//! vectors with fused multiply-add when the build enables the `fma`
//! target feature. Both accumulate each output element in the identical
//! `k` order, and [`crate::reference`] remains the conformance oracle for
//! either; results are bitwise reproducible per (feature set, target
//! flags) configuration (DESIGN.md §11).
//!
//! [`syrk`] specializes the same machinery for `C = alpha·AᵀA` /
//! `C = alpha·A Aᵀ`: the `B` panel is packed once per `KC` slice and only
//! register tiles intersecting the upper triangle are computed, halving the
//! arithmetic; the strict lower triangle is mirrored at the end.
//!
//! This engine serves problems with at least two of `m`, `n`, `k` above 32.
//! The tall-skinny ones TT rounding runs (one dimension `R₀I`, the others
//! TT ranks) go to the unpacked engine in [`crate::skinny`], for which
//! copying the tall operand into slabs costs more than the multiply. That
//! engine sums each output element exactly as this one does, with `madd`,
//! so which engine serves a shape never changes its bits.

use crate::gemm::Trans;
use crate::matrix::Matrix;
use crate::view::{MatMut, MatRef};

/// Microkernel tile rows. Two 4-wide f64 vectors per accumulator column.
pub const MR: usize = 8;
/// Microkernel tile columns. `MR × NR` accumulators fill 8 vector registers.
pub const NR: usize = 4;

/// Row cache block: the `MC × KC` packed `A` panel (1 MiB) fills half of
/// a 2 MiB L2.
pub const MC: usize = 512;
/// Depth cache block: one `MR × KC` sliver of packed `A` plus one
/// `KC × NR` sliver of packed `B` (24 KiB) fill half of a 48 KiB L1d.
/// The one blocking value that sets result bits: every output element is
/// summed in `KC`-deep slices, each accumulated from zero and then added
/// to `C` (DESIGN.md §11).
pub const KC: usize = 256;
/// Column cache block: the packed `B` panel (`KC × NC`, 16 MiB) stays
/// within a quarter of a 64 MiB or larger L3.
pub const NC: usize = 8192;

const _: () = assert!(MC.is_multiple_of(MR) && NC.is_multiple_of(NR));

/// Packs the `mc × kc` block of `op(A)` starting at `(i0, k0)` into
/// `MR`-row slabs: `buf[slab * MR * kc + step * MR + r]` holds
/// `op(A)[i0 + slab*MR + r, k0 + step]`, with rows beyond `mc` zero-padded
/// so the microkernel never needs an edge case.
fn pack_a(ta: Trans, a: &MatRef<'_>, i0: usize, mc: usize, k0: usize, kc: usize, buf: &mut [f64]) {
    let slabs = mc.div_ceil(MR);
    debug_assert!(buf.len() >= slabs * MR * kc);
    for slab in 0..slabs {
        let base = slab * MR * kc;
        let rows = MR.min(mc - slab * MR);
        match ta {
            Trans::No => {
                // Contiguous column reads from A.
                for step in 0..kc {
                    let col = a.col(k0 + step);
                    let dst = &mut buf[base + step * MR..base + step * MR + MR];
                    let src_base = i0 + slab * MR;
                    dst[..rows].copy_from_slice(&col[src_base..src_base + rows]);
                    for d in dst.iter_mut().skip(rows) {
                        *d = 0.0;
                    }
                }
            }
            Trans::Yes => {
                // op(A)[i, k] = A[k, i]: contiguous column reads per tile row.
                for r in 0..rows {
                    let col = a.col(i0 + slab * MR + r);
                    for step in 0..kc {
                        buf[base + step * MR + r] = col[k0 + step];
                    }
                }
                for r in rows..MR {
                    for step in 0..kc {
                        buf[base + step * MR + r] = 0.0;
                    }
                }
            }
        }
    }
}

/// Packs the `kc × nc` block of `op(B)` starting at `(k0, j0)` into
/// `NR`-column slabs: `buf[slab * NR * kc + step * NR + q]` holds
/// `op(B)[k0 + step, j0 + slab*NR + q]`, columns beyond `nc` zero-padded.
fn pack_b(tb: Trans, b: &MatRef<'_>, k0: usize, kc: usize, j0: usize, nc: usize, buf: &mut [f64]) {
    let slabs = nc.div_ceil(NR);
    debug_assert!(buf.len() >= slabs * NR * kc);
    match tb {
        Trans::No => {
            for slab in 0..slabs {
                let base = slab * NR * kc;
                let cols = NR.min(nc - slab * NR);
                for q in 0..cols {
                    let col = b.col(j0 + slab * NR + q);
                    for step in 0..kc {
                        buf[base + step * NR + q] = col[k0 + step];
                    }
                }
                for q in cols..NR {
                    for step in 0..kc {
                        buf[base + step * NR + q] = 0.0;
                    }
                }
            }
        }
        Trans::Yes => {
            // op(B)[k, j] = B[j, k]: stream each B column (contiguous in j).
            for step in 0..kc {
                let col = b.col(k0 + step);
                for slab in 0..slabs {
                    let base = slab * NR * kc;
                    let cols = NR.min(nc - slab * NR);
                    let src_base = j0 + slab * NR;
                    for q in 0..cols {
                        buf[base + step * NR + q] = col[src_base + q];
                    }
                    for q in cols..NR {
                        buf[base + step * NR + q] = 0.0;
                    }
                }
            }
        }
    }
}

/// The scalar register microkernel:
/// `acc[q][r] += sum_step pa[step][r] * pb[step][q]` over one `KC`-deep
/// sliver of packed panels. `pa` is `kc × MR`, `pb` is `kc × NR`, both
/// step-major; the fixed-size array views let the whole accumulator tile
/// live in registers. Kept unconditionally as the fallback for builds
/// without the `simd` feature and as a cross-check oracle in tests.
#[cfg_attr(
    feature = "simd",
    allow(dead_code, reason = "the simd build calls it only from tests")
)]
#[inline]
fn microkernel_scalar(pa: &[f64], pb: &[f64], acc: &mut [[f64; MR]; NR]) {
    let (a_steps, _) = pa.as_chunks::<MR>();
    let (b_steps, _) = pb.as_chunks::<NR>();
    debug_assert_eq!(a_steps.len(), b_steps.len());
    for (ar, br) in a_steps.iter().zip(b_steps.iter()) {
        for q in 0..NR {
            let bq = br[q];
            let accq = &mut acc[q];
            for r in 0..MR {
                accq[r] += ar[r] * bq;
            }
        }
    }
}

/// Explicit-SIMD register microkernel: the `MR × NR` tile lives in eight
/// `f64x4` vectors; each packed step issues one splat of `pb` and, with
/// the `fma` target feature, eight fused multiply-adds. Lane `r` of
/// column `q` accumulates exactly the scalar kernel's `k` order, so the
/// only numerical difference from [`microkernel_scalar`] is the single
/// rounding of each fused `a·b + acc` (none at all when `fma` is off —
/// then the results are bitwise identical to scalar).
#[cfg(feature = "simd")]
#[inline]
fn microkernel_simd(pa: &[f64], pb: &[f64], acc: &mut [[f64; MR]; NR]) {
    use std::simd::{f64x4, StdFloat};

    // FMA only when the build guarantees the hardware instruction: a
    // `mul_add` without the `fma` target feature lowers to a libm call
    // per lane, which is catastrophically slow, not just unfused.
    #[inline(always)]
    fn fmadd(a: f64x4, b: f64x4, c: f64x4) -> f64x4 {
        if cfg!(target_feature = "fma") {
            a.mul_add(b, c)
        } else {
            a * b + c
        }
    }

    let (a_steps, _) = pa.as_chunks::<MR>();
    let (b_steps, _) = pb.as_chunks::<NR>();
    debug_assert_eq!(a_steps.len(), b_steps.len());
    let mut v = [[f64x4::splat(0.0); 2]; NR];
    for (q, vq) in v.iter_mut().enumerate() {
        vq[0] = f64x4::from_slice(&acc[q][0..4]);
        vq[1] = f64x4::from_slice(&acc[q][4..8]);
    }
    for (ar, br) in a_steps.iter().zip(b_steps.iter()) {
        let a0 = f64x4::from_slice(&ar[0..4]);
        let a1 = f64x4::from_slice(&ar[4..8]);
        for (q, vq) in v.iter_mut().enumerate() {
            let bq = f64x4::splat(br[q]);
            vq[0] = fmadd(a0, bq, vq[0]);
            vq[1] = fmadd(a1, bq, vq[1]);
        }
    }
    for (q, vq) in v.iter().enumerate() {
        vq[0].copy_to_slice(&mut acc[q][0..4]);
        vq[1].copy_to_slice(&mut acc[q][4..8]);
    }
}

/// The microkernel's multiply-add on one lane, `acc + a·b`: fused exactly
/// as `microkernel_simd`'s `mul_add` under `simd` + `fma`, separately
/// rounded as in [`microkernel_scalar`] otherwise. The unpacked engine
/// ([`crate::skinny`]) accumulates with it, which is what keeps its sums
/// bitwise equal to this engine's.
#[inline(always)]
pub(crate) fn madd(a: f64, b: f64, acc: f64) -> f64 {
    if cfg!(all(feature = "simd", target_feature = "fma")) {
        a.mul_add(b, acc)
    } else {
        acc + a * b
    }
}

/// The active register microkernel for this build configuration.
#[inline]
fn microkernel(pa: &[f64], pb: &[f64], acc: &mut [[f64; MR]; NR]) {
    #[cfg(feature = "simd")]
    microkernel_simd(pa, pb, acc);
    #[cfg(not(feature = "simd"))]
    microkernel_scalar(pa, pb, acc);
}

/// Writes `c[i0.., j0..] += alpha * acc` for the valid `mr × nr` corner of a
/// register tile.
#[inline]
fn writeback(
    acc: &[[f64; MR]; NR],
    alpha: f64,
    c: &mut MatMut<'_>,
    i0: usize,
    mr: usize,
    j0: usize,
    nr: usize,
) {
    for (q, accq) in acc.iter().enumerate().take(nr) {
        let col = &mut c.col_mut(j0 + q)[i0..i0 + mr];
        for (r, cij) in col.iter_mut().enumerate() {
            *cij += alpha * accq[r];
        }
    }
}

/// Blocked `C += alpha * op(A) * op(B)`.
///
/// Shapes must already agree and `alpha`, `m`, `n`, `k` must be nonzero /
/// nondegenerate — the dispatcher in [`crate::gemm::gemm_v`] guarantees both
/// and handles the `beta` scaling of `C` beforehand.
pub fn gemm_accumulate(
    ta: Trans,
    a: MatRef<'_>,
    tb: Trans,
    b: MatRef<'_>,
    alpha: f64,
    c: &mut MatMut<'_>,
) {
    let (m, k) = ta.dims(&a);
    let (_, n) = tb.dims(&b);
    debug_assert!(m > 0 && n > 0 && k > 0 && alpha != 0.0);

    let mut pa = vec![0.0; m.min(MC).div_ceil(MR) * MR * k.min(KC)];
    let mut pb = vec![0.0; n.min(NC).div_ceil(NR) * NR * k.min(KC)];

    for j0 in (0..n).step_by(NC) {
        let nc = NC.min(n - j0);
        for k0 in (0..k).step_by(KC) {
            let kc = KC.min(k - k0);
            pack_b(tb, &b, k0, kc, j0, nc, &mut pb);
            for i0 in (0..m).step_by(MC) {
                let mc = MC.min(m - i0);
                pack_a(ta, &a, i0, mc, k0, kc, &mut pa);
                multiply_panels(&pa, &pb, mc, nc, kc, alpha, c, i0, j0, false);
            }
        }
    }
}

/// Inner tile sweep over one packed `A` panel (`mc × kc`) and one packed `B`
/// panel (`nc × kc`), writing `c[i0.., j0..] += alpha * Ã B̃`.
///
/// With `triangle_only`, the SYRK triangle cut, a register tile lying
/// entirely in the strict lower triangle (every column index below every
/// row index) is skipped — the mirror pass fills it.
#[allow(
    clippy::too_many_arguments,
    reason = "the inner tile sweep takes both packed panels, their extents and the output block by value; a struct would only rename them"
)]
fn multiply_panels(
    pa: &[f64],
    pb: &[f64],
    mc: usize,
    nc: usize,
    kc: usize,
    alpha: f64,
    c: &mut MatMut<'_>,
    i0: usize,
    j0: usize,
    triangle_only: bool,
) {
    let a_slabs = mc.div_ceil(MR);
    let b_slabs = nc.div_ceil(NR);
    for bs in 0..b_slabs {
        let nr = NR.min(nc - bs * NR);
        let j = j0 + bs * NR; // first column of this tile
        let pb_slab = &pb[bs * NR * kc..(bs * NR * kc) + NR * kc];
        for as_ in 0..a_slabs {
            let mr = MR.min(mc - as_ * MR);
            let i = i0 + as_ * MR; // first row of this tile
            if triangle_only && j + nr <= i {
                continue;
            }
            let mut acc = [[0.0; MR]; NR];
            microkernel(
                &pa[as_ * MR * kc..(as_ * MR * kc) + MR * kc],
                pb_slab,
                &mut acc,
            );
            writeback(&acc, alpha, c, i, mr, j, nr);
        }
    }
}

/// Which contraction a blocked SYRK performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyrkShape {
    /// `C = alpha * Aᵀ A` (`n × n`, contraction over rows).
    TransposeA,
    /// `C = alpha * A Aᵀ` (`m × m`, contraction over columns).
    TransposeB,
}

/// Blocked symmetric rank-k update, computing only register tiles that
/// intersect the upper triangle and mirroring the rest.
///
/// The `B`-side panel is packed **once** per `KC` slice and reused by every
/// row block — with `op(A)` and `op(B)` drawn from the same operand this is
/// the "pack once" saving on top of the triangle cut.
pub fn syrk(a: MatRef<'_>, alpha: f64, shape: SyrkShape) -> Matrix {
    let (ta, tb) = match shape {
        SyrkShape::TransposeA => (Trans::Yes, Trans::No),
        SyrkShape::TransposeB => (Trans::No, Trans::Yes),
    };
    let (n, k) = ta.dims(&a);
    let mut c = Matrix::zeros(n, n);
    if n == 0 {
        return c;
    }
    if k == 0 || alpha == 0.0 {
        return c;
    }

    syrk_sweep(ta, a, tb, alpha, &mut c.view_mut());
    // Mirror the upper triangle into the strict lower triangle. Boundary
    // tiles computed a few strictly-lower entries already; overwriting them
    // with the mirrored value keeps C exactly symmetric.
    for j in 0..n {
        for i in j + 1..n {
            c[(i, j)] = c[(j, i)];
        }
    }
    c
}

/// The upper-triangle loop nest of [`syrk`] over the `n × n` output `c`.
fn syrk_sweep(ta: Trans, a: MatRef<'_>, tb: Trans, alpha: f64, c: &mut MatMut<'_>) {
    let (n, k) = ta.dims(&a);

    let mut pa = vec![0.0; n.min(MC).div_ceil(MR) * MR * k.min(KC)];
    let mut pb = vec![0.0; n.min(NC).div_ceil(NR) * NR * k.min(KC)];

    for j0 in (0..n).step_by(NC) {
        let nc = NC.min(n - j0);
        for k0 in (0..k).step_by(KC) {
            let kc = KC.min(k - k0);
            pack_b(tb, &a, k0, kc, j0, nc, &mut pb);
            for i0 in (0..n).step_by(MC) {
                // Row blocks entirely below this column block contribute
                // only strictly-lower tiles; skip them wholesale.
                if i0 > j0 + nc {
                    continue;
                }
                let mc = MC.min(n - i0);
                pack_a(ta, &a, i0, mc, k0, kc, &mut pa);
                multiply_panels(&pa, &pb, mc, nc, kc, alpha, c, i0, j0, true);
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "tests compare exact values on purpose")]
mod tests {
    use super::*;
    use crate::reference;
    use rand::SeedableRng;

    fn check_gemm(m: usize, n: usize, k: usize, ta: Trans, tb: Trans, alpha: f64, seed: u64) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = match ta {
            Trans::No => Matrix::gaussian(m, k, &mut rng),
            Trans::Yes => Matrix::gaussian(k, m, &mut rng),
        };
        let b = match tb {
            Trans::No => Matrix::gaussian(k, n, &mut rng),
            Trans::Yes => Matrix::gaussian(n, k, &mut rng),
        };
        let mut c = Matrix::zeros(m, n);
        gemm_accumulate(ta, a.view(), tb, b.view(), alpha, &mut c.view_mut());
        let mut expect = Matrix::zeros(m, n);
        reference::gemm_v(ta, a.view(), tb, b.view(), alpha, 0.0, expect.view_mut());
        let tol = 1e-12 * (k as f64 + 1.0) * alpha.abs().max(1.0);
        assert!(
            c.max_abs_diff(&expect) < tol,
            "({m},{n},{k}) {ta:?} {tb:?} alpha={alpha}"
        );
    }

    #[test]
    fn blocked_matches_reference_across_blocking_edges() {
        let mut seed = 0u64;
        // Sizes straddling every blocking boundary: sub-tile, tile-exact,
        // one-past-tile, and multi-cache-block.
        for &(m, n, k) in &[
            (1usize, 1usize, 1usize),
            (3, 2, 5),
            (MR, NR, 7),
            (MR + 1, NR + 1, KC + 3),
            (MC + 5, NR * 3 + 1, KC + 1),
            (MC + 3, 2 * NR + 3, 2 * KC + 5),
            (300, 17, 40),
            (5, 300, 300),
        ] {
            for &ta in &[Trans::No, Trans::Yes] {
                for &tb in &[Trans::No, Trans::Yes] {
                    seed += 1;
                    check_gemm(m, n, k, ta, tb, 1.0, seed);
                }
            }
        }
    }

    #[test]
    fn blocked_respects_alpha() {
        check_gemm(33, 29, 300, Trans::No, Trans::No, -2.5, 99);
        check_gemm(33, 29, 300, Trans::Yes, Trans::Yes, 0.125, 100);
    }

    #[test]
    fn blocked_accumulates_into_c() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let a = Matrix::gaussian(20, 30, &mut rng);
        let b = Matrix::gaussian(30, 10, &mut rng);
        let mut c = Matrix::gaussian(20, 10, &mut rng);
        let mut expect = c.clone();
        gemm_accumulate(
            Trans::No,
            a.view(),
            Trans::No,
            b.view(),
            1.5,
            &mut c.view_mut(),
        );
        reference::gemm_v(
            Trans::No,
            a.view(),
            Trans::No,
            b.view(),
            1.5,
            1.0,
            expect.view_mut(),
        );
        assert!(c.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn syrk_matches_reference_both_shapes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for &(rows, cols) in &[
            (350usize, 40usize),
            (40, 17),
            (MC + 9, MC + 9),
            (1, 5),
            (5, 1),
        ] {
            let a = Matrix::gaussian(rows, cols, &mut rng);
            let tn = syrk(a.view(), 1.5, SyrkShape::TransposeA);
            let tn_ref = reference::syrk_v(a.view(), 1.5);
            assert!(tn.max_abs_diff(&tn_ref) < 1e-9, "TN {rows}x{cols}");
            let nt = syrk(a.view(), -0.5, SyrkShape::TransposeB);
            let nt_ref = reference::syrk_nt_v(a.view(), -0.5);
            assert!(nt.max_abs_diff(&nt_ref) < 1e-9, "NT {rows}x{cols}");
            for i in 0..tn.rows() {
                for j in 0..tn.cols() {
                    assert_eq!(tn[(i, j)], tn[(j, i)], "exact symmetry");
                }
            }
        }
    }

    #[test]
    fn empty_operands_yield_zero_result() {
        let a = Matrix::zeros(0, 4);
        let s = syrk(a.view(), 1.0, SyrkShape::TransposeA);
        assert_eq!(s.shape(), (4, 4));
        assert_eq!(s.max_abs(), 0.0);
    }

    /// With `simd` the microkernel may fuse multiply-adds; against the
    /// scalar kernel the per-step error is one rounding of each product,
    /// so the accumulated componentwise gap is bounded by `kc`·ε·scale.
    #[cfg(feature = "simd")]
    #[test]
    fn simd_microkernel_matches_scalar_within_fma_rounding() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(55);
        for kc in [1usize, 2, 7, 64, 300] {
            let pa = Matrix::gaussian(MR * kc, 1, &mut rng);
            let pb = Matrix::gaussian(NR * kc, 1, &mut rng);
            let mut acc_simd = [[0.0; MR]; NR];
            let mut acc_scalar = [[0.0; MR]; NR];
            microkernel_simd(pa.as_slice(), pb.as_slice(), &mut acc_simd);
            microkernel_scalar(pa.as_slice(), pb.as_slice(), &mut acc_scalar);
            let tol = (kc as f64 + 1.0) * f64::EPSILON * 64.0;
            for q in 0..NR {
                for r in 0..MR {
                    let d = (acc_simd[q][r] - acc_scalar[q][r]).abs();
                    let scale = acc_scalar[q][r].abs().max(kc as f64);
                    assert!(d <= tol * scale, "kc={kc} q={q} r={r}: {d:e}");
                }
            }
        }
    }
}
