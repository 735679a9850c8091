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
//!   only ever touches unit-stride, aligned, zero-padded buffers. The
//!   `MC`/`KC`/`NC` values are autotuned once per process from the probed
//!   cache hierarchy ([`crate::tune`]) instead of hardcoded;
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
//! either; results are bitwise reproducible per (feature, thread-count)
//! configuration (DESIGN.md §11).
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
//!
//! # Parallel packing discipline
//!
//! When a kernel fans out, the packed `op(A)` buffer is built **once** in a
//! parallel pre-pack phase (disjoint `KC`-slice segments of one shared
//! buffer) and every compute worker reads it as a shared slice; only the
//! `op(B)` panels — disjoint by construction, since workers own disjoint
//! output column ranges — are packed per worker. The earlier scheme, where
//! every worker re-packed the whole shared `A` panel, multiplied the pack
//! traffic by the thread count and made 4-thread SYRK measurably *slower*
//! than 1-thread on deep Gram shapes. Packing is pure data movement, so the
//! shared buffer is byte-identical to what per-worker packing produced and
//! the bitwise determinism contract (DESIGN.md §9) is unaffected.

use crate::gemm::Trans;
use crate::matrix::Matrix;
use crate::par;
use crate::tune;
use crate::view::{MatMut, MatRef};

/// Microkernel tile rows. Two 4-wide f64 vectors per accumulator column.
pub const MR: usize = 8;
/// Microkernel tile columns. `MR × NR` accumulators fill 8 vector registers.
pub const NR: usize = 4;

/// Ceiling on the shared pre-packed `op(A)` buffer (bytes). Operands whose
/// full packed panel would exceed it fall back to per-worker block packing
/// — correctness is identical, only the pack traffic differs.
const SHARED_PACK_MAX_BYTES: usize = 256 << 20;

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
#[cfg_attr(feature = "simd", allow(dead_code))]
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
///
/// When the [`par`] dispatch gates admit the work profile, the output
/// columns are partitioned into `NR`-aligned contiguous ranges, the packed
/// `op(A)` buffer is built once in a parallel pre-pack phase, and each
/// range is swept by its own scoped worker thread reading the shared
/// buffer while packing only its own `op(B)` panels. Each worker owns a
/// disjoint column slice of `C`, so no synchronization is needed beyond
/// the phase joins — and because the `k` reduction is never split, each
/// output element sees exactly the sequential accumulation order and the
/// result is **bitwise identical** for every thread count.
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

    let region = par::region(par::Work::gemm(m, n, k));
    let threads = region.threads().min(n.div_ceil(NR));
    if threads <= 1 {
        gemm_sweep(ta, a, tb, b, alpha, &mut c.reborrow(), 0);
        return;
    }
    let shared = m.div_ceil(MR) * MR * k * 8 <= SHARED_PACK_MAX_BYTES;
    gemm_parallel(ta, a, tb, b, alpha, c, threads, shared);
}

/// The fan-out body of [`gemm_accumulate`], with the shared-pre-pack
/// decision explicit so tests can pin both packing schemes against each
/// other bitwise.
#[allow(clippy::too_many_arguments)]
fn gemm_parallel(
    ta: Trans,
    a: MatRef<'_>,
    tb: Trans,
    b: MatRef<'_>,
    alpha: f64,
    c: &mut MatMut<'_>,
    threads: usize,
    shared_pack: bool,
) {
    let (m, k) = ta.dims(&a);
    let n = c.cols();
    let ranges = par::split_even(n, threads, NR);
    let pa_full = if shared_pack {
        Some(pack_a_full(ta, &a, m, k, threads))
    } else {
        None
    };
    let pa_shared = pa_full.as_deref();
    let mut jobs = Vec::with_capacity(ranges.len());
    let mut rest = c.reborrow();
    let mut offset = 0usize;
    for (lo, hi) in ranges {
        let (chunk, tail) = rest.split_cols_at(hi - offset);
        rest = tail;
        offset = hi;
        jobs.push(move || {
            let mut chunk = chunk;
            match pa_shared {
                // analyze::allow(alloc_hot_path): each worker packs B into
                // a thread-private buffer allocated once per kernel
                // invocation and amortized over its whole blocked sweep;
                // sharing one buffer across concurrent workers would race.
                Some(pa) => sweep_prepacked(pa, m, k, tb, b, alpha, &mut chunk, lo, false),
                // analyze::allow(alloc_hot_path): per-worker fallback when
                // the shared pre-pack is too large — each worker packs into
                // thread-private buffers allocated once per invocation.
                None => gemm_sweep(ta, a, tb, b, alpha, &mut chunk, lo),
            }
        });
    }
    par::join_all(jobs);
}

/// Packs the whole `m × k` operand `op(A)` into a `KC`-slice-major shared
/// buffer: the slice starting at depth `k0` occupies
/// `buf[slabs·MR·k0 ..][.. slabs·MR·kc]` and holds exactly the `MR`-row
/// slab panel [`pack_a`] produces for `(i0 = 0, mc = m)`. The pre-pack is
/// itself parallelized over disjoint slice segments. Because packing is
/// pure data movement, the shared buffer is byte-identical to what
/// per-block packing produces — compute workers reading it emit exactly
/// the sequential instruction stream, preserving bitwise determinism.
fn pack_a_full(ta: Trans, a: &MatRef<'_>, m: usize, k: usize, threads: usize) -> Vec<f64> {
    let t = tune::tuning();
    let slabs = m.div_ceil(MR);
    let mut buf = vec![0.0; slabs * MR * k];
    let slice_ranges = par::split_even(k.div_ceil(t.kc), threads, 1);
    let mut jobs = Vec::with_capacity(slice_ranges.len());
    let mut rest: &mut [f64] = &mut buf;
    for (slo, shi) in slice_ranges {
        let (k_lo, k_hi) = ((slo * t.kc).min(k), (shi * t.kc).min(k));
        let (seg, tail) = rest.split_at_mut(slabs * MR * (k_hi - k_lo));
        rest = tail;
        jobs.push(move || {
            let mut off = 0usize;
            for k0 in (k_lo..k_hi).step_by(t.kc) {
                let kc = t.kc.min(k_hi - k0);
                pack_a(ta, a, 0, m, k0, kc, &mut seg[off..off + slabs * MR * kc]);
                off += slabs * MR * kc;
            }
        });
    }
    par::join_all(jobs);
    buf
}

/// The full cache-blocked loop nest over one contiguous column range of the
/// output. `c` holds the local columns (`c.cols()` of them) and `col_off` is
/// the global index of its first column, used only to address `op(B)` in the
/// packing — so a worker sweeping columns `[col_off, col_off + c.cols())`
/// performs precisely the instructions the sequential sweep performs for
/// those columns.
fn gemm_sweep(
    ta: Trans,
    a: MatRef<'_>,
    tb: Trans,
    b: MatRef<'_>,
    alpha: f64,
    c: &mut MatMut<'_>,
    col_off: usize,
) {
    let t = tune::tuning();
    let (m, k) = ta.dims(&a);
    let n = c.cols();

    let mut pa = vec![0.0; m.min(t.mc).div_ceil(MR) * MR * k.min(t.kc)];
    let mut pb = vec![0.0; n.min(t.nc).div_ceil(NR) * NR * k.min(t.kc)];

    for j0 in (0..n).step_by(t.nc) {
        let nc = t.nc.min(n - j0);
        for k0 in (0..k).step_by(t.kc) {
            let kc = t.kc.min(k - k0);
            pack_b(tb, &b, k0, kc, col_off + j0, nc, &mut pb);
            for i0 in (0..m).step_by(t.mc) {
                let mc = t.mc.min(m - i0);
                pack_a(ta, &a, i0, mc, k0, kc, &mut pa);
                multiply_panels(&pa, &pb, mc, nc, kc, alpha, c, i0, j0, 0, false);
            }
        }
    }
}

/// The cache-blocked loop nest over one contiguous column range, reading
/// the shared pre-packed `op(A)` buffer ([`pack_a_full`] layout) instead
/// of packing per row block. With `triangle_only` it performs the SYRK
/// sweep (triangle cuts against *global* column indices via `col_off`);
/// otherwise the plain GEMM sweep. Tile visit order and per-tile inputs
/// are identical to [`gemm_sweep`] / [`syrk_sweep`], so the output bits
/// are too.
#[allow(clippy::too_many_arguments)]
fn sweep_prepacked(
    pa_full: &[f64],
    m: usize,
    k: usize,
    tb: Trans,
    b: MatRef<'_>,
    alpha: f64,
    c: &mut MatMut<'_>,
    col_off: usize,
    triangle_only: bool,
) {
    let t = tune::tuning();
    let n = c.cols();
    let slabs = m.div_ceil(MR);
    debug_assert_eq!(pa_full.len(), slabs * MR * k);
    debug_assert_eq!(t.mc % MR, 0);

    let mut pb = vec![0.0; n.min(t.nc).div_ceil(NR) * NR * k.min(t.kc)];

    for j0 in (0..n).step_by(t.nc) {
        let nc = t.nc.min(n - j0);
        for k0 in (0..k).step_by(t.kc) {
            let kc = t.kc.min(k - k0);
            pack_b(tb, &b, k0, kc, col_off + j0, nc, &mut pb);
            let slice_base = slabs * MR * k0;
            for i0 in (0..m).step_by(t.mc) {
                // Row blocks entirely below this column block contribute
                // only strictly-lower tiles; skip them wholesale.
                if triangle_only && i0 > col_off + j0 + nc {
                    continue;
                }
                let mc = t.mc.min(m - i0);
                let a_off = slice_base + (i0 / MR) * MR * kc;
                let a_len = mc.div_ceil(MR) * MR * kc;
                multiply_panels(
                    &pa_full[a_off..a_off + a_len],
                    &pb,
                    mc,
                    nc,
                    kc,
                    alpha,
                    c,
                    i0,
                    j0,
                    col_off,
                    triangle_only,
                );
            }
        }
    }
}

/// Inner tile sweep over one packed `A` panel (`mc × kc`) and one packed `B`
/// panel (`nc × kc`), writing `c[i0.., j0..] += alpha * Ã B̃`.
///
/// `j0` indexes `c`'s *local* columns; `col_off` is the global index of
/// `c`'s first column (0 when `c` is the whole output). The distinction only
/// matters for `triangle_only`, the SYRK triangle cut: a register tile lying
/// entirely in the strict lower triangle of the *global* matrix (every global
/// column index below every row index) is skipped — the mirror pass fills it.
#[allow(clippy::too_many_arguments)]
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
    col_off: usize,
    triangle_only: bool,
) {
    let a_slabs = mc.div_ceil(MR);
    let b_slabs = nc.div_ceil(NR);
    for bs in 0..b_slabs {
        let nr = NR.min(nc - bs * NR);
        let jl = j0 + bs * NR; // local first column of this tile
        let pb_slab = &pb[bs * NR * kc..(bs * NR * kc) + NR * kc];
        for as_ in 0..a_slabs {
            let mr = MR.min(mc - as_ * MR);
            let ig = i0 + as_ * MR; // global first row of this tile
            if triangle_only && col_off + jl + nr <= ig {
                continue;
            }
            let mut acc = [[0.0; MR]; NR];
            microkernel(
                &pa[as_ * MR * kc..(as_ * MR * kc) + MR * kc],
                pb_slab,
                &mut acc,
            );
            writeback(&acc, alpha, c, ig, mr, jl, nr);
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
///
/// Parallel dispatch partitions the output columns with
/// [`par::split_triangle`] (triangle-area-balanced, since column `j` of the
/// upper triangle carries `j + 1` entries). The packed `op(A)` buffer —
/// which every worker needs in full, because each owns a column stripe of
/// the triangle spanning all row blocks — is built once in a parallel
/// pre-pack phase and shared read-only; each worker packs only its own
/// `op(B)` column panels and runs the sequential sweep over its disjoint
/// column slice with global triangle geometry, so the result is bitwise
/// identical at every thread count. The `O(n²)` mirror pass stays
/// sequential.
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

    {
        let region = par::region(par::Work::syrk(n, k));
        let threads = region.threads().min(n.div_ceil(NR));
        let mut cv = c.view_mut();
        if threads <= 1 {
            syrk_sweep(ta, a, tb, alpha, &mut cv, 0);
        } else {
            let shared = n.div_ceil(MR) * MR * k * 8 <= SHARED_PACK_MAX_BYTES;
            syrk_parallel(ta, a, tb, alpha, &mut cv, threads, shared);
        }
    }
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

/// The fan-out body of [`syrk`], with the shared-pre-pack decision
/// explicit so tests can pin both packing schemes against each other
/// bitwise.
fn syrk_parallel(
    ta: Trans,
    a: MatRef<'_>,
    tb: Trans,
    alpha: f64,
    cv: &mut MatMut<'_>,
    threads: usize,
    shared_pack: bool,
) {
    let (n, k) = ta.dims(&a);
    let ranges = par::split_triangle(n, threads, NR);
    let pa_full = if shared_pack {
        Some(pack_a_full(ta, &a, n, k, threads))
    } else {
        None
    };
    let pa_shared = pa_full.as_deref();
    let mut jobs = Vec::with_capacity(ranges.len());
    let mut rest = cv.reborrow();
    let mut offset = 0usize;
    for (lo, hi) in ranges {
        let (chunk, tail) = rest.split_cols_at(hi - offset);
        rest = tail;
        offset = hi;
        jobs.push(move || {
            let mut chunk = chunk;
            match pa_shared {
                // analyze::allow(alloc_hot_path): thread-private B packing
                // buffer, one allocation per worker per invocation,
                // amortized over the whole triangle sweep.
                Some(pa) => sweep_prepacked(pa, n, k, tb, a, alpha, &mut chunk, lo, true),
                // analyze::allow(alloc_hot_path): per-worker fallback when
                // the shared pre-pack is too large — each worker packs into
                // thread-private buffers allocated once per invocation.
                None => syrk_sweep(ta, a, tb, alpha, &mut chunk, lo),
            }
        });
    }
    par::join_all(jobs);
}

/// Sequential SYRK sweep over one contiguous column range of the output.
/// `c` holds the local columns; `col_off` is the global index of its first
/// column, threaded through to the packing and the triangle cuts so the
/// per-tile work (and therefore the bits produced) is independent of how the
/// columns were partitioned.
fn syrk_sweep(ta: Trans, a: MatRef<'_>, tb: Trans, alpha: f64, c: &mut MatMut<'_>, col_off: usize) {
    let t = tune::tuning();
    let (n, k) = ta.dims(&a);
    let ncols = c.cols();

    let mut pa = vec![0.0; n.min(t.mc).div_ceil(MR) * MR * k.min(t.kc)];
    let mut pb = vec![0.0; ncols.min(t.nc).div_ceil(NR) * NR * k.min(t.kc)];

    for j0 in (0..ncols).step_by(t.nc) {
        let nc = t.nc.min(ncols - j0);
        for k0 in (0..k).step_by(t.kc) {
            let kc = t.kc.min(k - k0);
            pack_b(tb, &a, k0, kc, col_off + j0, nc, &mut pb);
            for i0 in (0..n).step_by(t.mc) {
                // Row blocks entirely below this column block contribute
                // only strictly-lower tiles; skip them wholesale.
                if i0 > col_off + j0 + nc {
                    continue;
                }
                let mc = t.mc.min(n - i0);
                pack_a(ta, &a, i0, mc, k0, kc, &mut pa);
                multiply_panels(&pa, &pb, mc, nc, kc, alpha, c, i0, j0, col_off, true);
            }
        }
    }
}

#[cfg(test)]
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
        let t = tune::tuning();
        let (mc, kc) = (t.mc, t.kc);
        let mut seed = 0u64;
        // Sizes straddling every blocking boundary: sub-tile, tile-exact,
        // one-past-tile, and multi-cache-block (against the autotuned
        // blocking actually in use).
        for &(m, n, k) in &[
            (1usize, 1usize, 1usize),
            (3, 2, 5),
            (MR, NR, 7),
            (MR + 1, NR + 1, kc + 3),
            (mc + 5, NR * 3 + 1, kc + 1),
            (mc + 3, 2 * NR + 3, 2 * kc + 5),
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
        let t = tune::tuning();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for &(rows, cols) in &[
            (350usize, 40usize),
            (40, 17),
            (t.mc + 9, t.mc + 9),
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

    fn assert_bits_eq(a: &Matrix, b: &Matrix, what: &str) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: {x} vs {y}");
        }
    }

    #[test]
    fn pack_a_full_matches_per_block_packing() {
        let t = tune::tuning();
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        // Edge slabs in both directions plus a multi-slice depth.
        for &(m, k) in &[(3usize, 5usize), (MR * 3 + 2, t.kc + 7), (2 * MR, 2 * t.kc)] {
            for &ta in &[Trans::No, Trans::Yes] {
                let (rows, cols) = match ta {
                    Trans::No => (m, k),
                    Trans::Yes => (k, m),
                };
                let a = Matrix::gaussian(rows, cols, &mut rng);
                let slabs = m.div_ceil(MR);
                for threads in [1usize, 2, 3] {
                    let full = pack_a_full(ta, &a.view(), m, k, threads);
                    assert_eq!(full.len(), slabs * MR * k);
                    let mut buf = vec![0.0; slabs * MR * t.kc.min(k)];
                    for k0 in (0..k).step_by(t.kc) {
                        let kc = t.kc.min(k - k0);
                        for i0 in (0..m).step_by(t.mc) {
                            let mc = t.mc.min(m - i0);
                            let len = mc.div_ceil(MR) * MR * kc;
                            pack_a(ta, &a.view(), i0, mc, k0, kc, &mut buf[..len]);
                            let off = slabs * MR * k0 + (i0 / MR) * MR * kc;
                            for (x, y) in buf[..len].iter().zip(&full[off..off + len]) {
                                assert_eq!(x.to_bits(), y.to_bits(), "{ta:?} m={m} k={k}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_gemm_bitwise_equals_serial() {
        let t = tune::tuning();
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        // Edge slabs, multi-cache-block, and narrower-than-one-chunk shapes.
        for &(m, n, k) in &[
            (64usize, 130usize, 70usize),
            (t.mc + 5, 2 * NR + 3, t.kc + 1),
            (33, 3, 50),
        ] {
            let a = Matrix::gaussian(m, k, &mut rng);
            let b = Matrix::gaussian(k, n, &mut rng);
            let mut c1 = Matrix::gaussian(m, n, &mut rng);
            let c0 = c1.clone();
            crate::par::with_threads(1, || {
                gemm_accumulate(
                    Trans::No,
                    a.view(),
                    Trans::No,
                    b.view(),
                    1.5,
                    &mut c1.view_mut(),
                );
            });
            for t in [2usize, 3, 4, 7] {
                let mut ct = c0.clone();
                crate::par::with_threads(t, || {
                    gemm_accumulate(
                        Trans::No,
                        a.view(),
                        Trans::No,
                        b.view(),
                        1.5,
                        &mut ct.view_mut(),
                    );
                });
                assert_bits_eq(&c1, &ct, "gemm 1t vs Nt");
            }
        }
    }

    #[test]
    fn shared_and_per_worker_packing_agree_bitwise() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(44);
        let t = tune::tuning();
        let (m, n, k) = (t.mc + 13, 3 * NR + 2, t.kc + 9);
        let a = Matrix::gaussian(m, k, &mut rng);
        let b = Matrix::gaussian(k, n, &mut rng);
        let mut c_shared = Matrix::gaussian(m, n, &mut rng);
        let mut c_private = c_shared.clone();
        for threads in [2usize, 3] {
            gemm_parallel(
                Trans::No,
                a.view(),
                Trans::No,
                b.view(),
                1.25,
                &mut c_shared.view_mut(),
                threads,
                true,
            );
            gemm_parallel(
                Trans::No,
                a.view(),
                Trans::No,
                b.view(),
                1.25,
                &mut c_private.view_mut(),
                threads,
                false,
            );
            assert_bits_eq(&c_shared, &c_private, "gemm shared vs private pack");
        }
        // And the SYRK fan-out body under both packing schemes.
        let g = Matrix::gaussian(t.kc + 3, 3 * NR + 1, &mut rng);
        for threads in [2usize, 4] {
            let mut s_shared = Matrix::zeros(g.cols(), g.cols());
            let mut s_private = Matrix::zeros(g.cols(), g.cols());
            syrk_parallel(
                Trans::Yes,
                g.view(),
                Trans::No,
                1.5,
                &mut s_shared.view_mut(),
                threads,
                true,
            );
            syrk_parallel(
                Trans::Yes,
                g.view(),
                Trans::No,
                1.5,
                &mut s_private.view_mut(),
                threads,
                false,
            );
            assert_bits_eq(&s_shared, &s_private, "syrk shared vs private pack");
        }
    }

    #[test]
    fn parallel_syrk_bitwise_equals_serial() {
        let tn = tune::tuning();
        let mut rng = rand::rngs::StdRng::seed_from_u64(43);
        for &(rows, cols) in &[
            (300usize, 41usize),
            (40, tn.mc + 9),
            (tn.kc + 3, 2 * NR + 1),
        ] {
            let a = Matrix::gaussian(rows, cols, &mut rng);
            for shape in [SyrkShape::TransposeA, SyrkShape::TransposeB] {
                let s1 = crate::par::with_threads(1, || syrk(a.view(), 1.25, shape));
                for t in [2usize, 4, 5] {
                    let st = crate::par::with_threads(t, || syrk(a.view(), 1.25, shape));
                    assert_bits_eq(&s1, &st, "syrk 1t vs Nt");
                }
            }
        }
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
