//! Unpacked tall-skinny GEMM/SYRK engine.
//!
//! The Gram sweeps of TT rounding multiply a tall `R₀I × R₁` unfolding with
//! TT-rank-sized factors: one of `m`, `n`, `k` is in the tens of thousands,
//! the other two are at most 32. On those shapes the packed engine in
//! [`crate::block`] spends its time moving data. It copies the whole tall
//! operand into `MR`-row slabs, pads edge tiles with zeros, and zero-fills
//! `C` before a read-modify-write pass. These kernels are bandwidth-bound
//! (Röhrig-Zöllner et al., arXiv 2102.00104), so this engine never packs:
//! it streams the tall operand once, in place.
//!
//! * **One register tile** of `MR × NR` accumulators. Edge tiles are
//!   const-generic (`MR ∈ {8, 4, 2, 1}`, `NR ∈ {4, 1}`), so nothing is
//!   zero-padded.
//! * **Operands in place.** Step `l` of a tile reads `MR` consecutive
//!   entries of one column: column `l` of `A` when `ta = No`, column `l`
//!   of `B` when `tb = Yes`. `op(B)` with `tb = No` is read as `NR`
//!   strided scalars. Only `op(A)` with `ta = Yes` is transposed, into a
//!   panel of at most 32 rows (one `MR`-row slab when `m` is the tall
//!   dimension). SYRK reads that one panel for both operands.
//! * **Depth** runs in the packed engine's [`KC`]-deep slices. Each
//!   slice's register sums are added to `C` as the packed writeback adds
//!   them. The first slice applies `beta`, so `C` gets no separate fill or
//!   scale pass.
//!
//! **Bit parity.** Each output element is the packed engine's sum: the same
//! products, accumulated from zero in the same step order within each `KC`
//! slice with the microkernel's multiply-add (fused under `simd` + `fma`),
//! and the slices added to `C` in the same order. So [`gemm`] is bitwise
//! equal to the dispatcher's `beta` pass followed by
//! [`crate::block::gemm_accumulate`], and [`syrk`] to [`crate::block::syrk`],
//! in every build configuration (`tests/conformance.rs` pins both).

use crate::block::{madd, SyrkShape, KC, MR, NR};
use crate::gemm::Trans;
use crate::matrix::Matrix;
use crate::view::{MatMut, MatRef};

/// The class bound: a multiply whose dimensions all but one are at most
/// this takes this engine (see [`crate::gemm::kernel_choice`]).
pub(crate) const SMALL_DIM: usize = 32;

/// `C = alpha·op(A)·op(B) + beta·C` for a shape of the tall-skinny class.
///
/// Shapes must agree, `alpha` must be nonzero and `m`, `n`, `k` positive;
/// the dispatcher in [`crate::gemm::gemm_v`] guarantees all three.
pub fn gemm(
    ta: Trans,
    a: MatRef<'_>,
    tb: Trans,
    b: MatRef<'_>,
    alpha: f64,
    beta: f64,
    c: &mut MatMut<'_>,
) {
    let (m, k) = ta.dims(&a);
    debug_assert!(m > 0 && c.cols() > 0 && k > 0 && alpha != 0.0);
    let b = match tb {
        Trans::No => Source::Strided {
            data: b.as_slice(),
            step: 1,
            lane: b.rows(),
        },
        Trans::Yes => Source::Strided {
            data: b.as_slice(),
            step: b.rows(),
            lane: 1,
        },
    };
    sweep(ta, a, b, alpha, beta, c, false);
}

/// Symmetric rank-k update with the same contract as
/// [`crate::block::syrk`]: only register tiles touching the upper triangle
/// are computed, and the strict lower triangle is mirrored.
pub fn syrk(a: MatRef<'_>, alpha: f64, shape: SyrkShape) -> Matrix {
    let (ta, b) = match shape {
        SyrkShape::TransposeA => (Trans::Yes, Source::Panel),
        SyrkShape::TransposeB => (
            Trans::No,
            Source::Strided {
                data: a.as_slice(),
                step: a.rows(),
                lane: 1,
            },
        ),
    };
    let (n, k) = ta.dims(&a);
    let mut c = Matrix::zeros(n, n);
    if n == 0 || k == 0 || alpha == 0.0 {
        return c;
    }
    // `beta = 1` on the zero matrix adds each slice to `0.0`, as the packed
    // writeback does.
    sweep(ta, a, b, alpha, 1.0, &mut c.view_mut(), true);
    for j in 0..n {
        for i in j + 1..n {
            c[(i, j)] = c[(j, i)];
        }
    }
    c
}

/// Where a tile reads `op(B)`.
#[derive(Clone, Copy)]
enum Source<'a> {
    /// `op(B)[l, j] = data[l·step + j·lane]`.
    Strided {
        data: &'a [f64],
        step: usize,
        lane: usize,
    },
    /// `op(B) = op(A)ᵀ`, read from the transposed `op(A)` panel (SYRK).
    Panel,
}

/// How a depth slice's sums `x` combine with the `C` entry `c`.
#[derive(Clone, Copy)]
enum Base {
    /// `0 + alpha·x` (first slice, `beta = 0`).
    Zero,
    /// `c + alpha·x` (`beta = 1`, and every later slice).
    Keep,
    /// `beta·c + alpha·x` (first slice, any other `beta`).
    Scale(f64),
}

/// One depth slice's operands, origins at the current row block and `kc`
/// slice: `op(A)[i, l] = a[i + l·a_step]`,
/// `op(B)[l, j] = b[l·b_step + j·b_lane]`.
#[derive(Clone, Copy)]
struct Slice<'a> {
    a: &'a [f64],
    a_step: usize,
    b: &'a [f64],
    b_step: usize,
    b_lane: usize,
    steps: usize,
    alpha: f64,
    base: Base,
}

/// The loop nest: depth slices, then row blocks (all `m` rows when
/// `m ≤ 32` or `op(B)` is read from the panel, one `MR`-row slab
/// otherwise), then column tiles, then row tiles. With `upper` only tiles
/// touching the upper triangle are visited.
fn sweep(
    ta: Trans,
    a: MatRef<'_>,
    b: Source<'_>,
    alpha: f64,
    beta: f64,
    c: &mut MatMut<'_>,
    upper: bool,
) {
    let (m, k) = ta.dims(&a);
    let n = c.cols();
    let block = if m <= SMALL_DIM || matches!(b, Source::Panel) {
        m
    } else {
        MR
    };
    let mut panel = match ta {
        Trans::No => Vec::new(),
        Trans::Yes => vec![0.0; block * KC.min(k)],
    };
    for k0 in (0..k).step_by(KC) {
        let steps = KC.min(k - k0);
        let base = if k0 > 0 || beta == 1.0 {
            Base::Keep
        } else if beta == 0.0 {
            Base::Zero
        } else {
            Base::Scale(beta)
        };
        for i0 in (0..m).step_by(block) {
            let rows = block.min(m - i0);
            let (a_data, a_step): (&[f64], usize) = match ta {
                Trans::No => (&a.as_slice()[i0 + k0 * m..], m),
                Trans::Yes => {
                    transpose_into(&a, i0, rows, k0, steps, &mut panel);
                    (&panel, rows)
                }
            };
            let (b_data, b_step, b_lane) = match b {
                Source::Strided { data, step, lane } => (&data[k0 * step..], step, lane),
                Source::Panel => (a_data, a_step, 1),
            };
            let mut j = 0;
            while j < n {
                let nr = if n - j >= NR { NR } else { 1 };
                let mut i = 0;
                while i < rows && !(upper && j + nr <= i0 + i) {
                    let mr = tile_rows(rows - i);
                    let s = Slice {
                        a: &a_data[i..],
                        a_step,
                        b: &b_data[j * b_lane..],
                        b_step,
                        b_lane,
                        steps,
                        alpha,
                        base,
                    };
                    match (mr, nr) {
                        (MR, NR) => tile::<MR, NR>(&s, c, i0 + i, j),
                        (MR, _) => tile::<MR, 1>(&s, c, i0 + i, j),
                        (4, NR) => tile::<4, NR>(&s, c, i0 + i, j),
                        (4, _) => tile::<4, 1>(&s, c, i0 + i, j),
                        (2, NR) => tile::<2, NR>(&s, c, i0 + i, j),
                        (2, _) => tile::<2, 1>(&s, c, i0 + i, j),
                        (_, NR) => tile::<1, NR>(&s, c, i0 + i, j),
                        _ => tile::<1, 1>(&s, c, i0 + i, j),
                    }
                    i += mr;
                }
                j += nr;
            }
        }
    }
}

/// The widest edge tile (8, 4, 2 or 1 rows) that fits `left` rows.
fn tile_rows(left: usize) -> usize {
    match left {
        MR.. => MR,
        4.. => 4,
        2.. => 2,
        _ => 1,
    }
}

/// Writes `panel[l·rows + r] = op(A)[i0 + r, k0 + l] = A[k0 + l, i0 + r]`
/// for `rows` rows and `steps` depth steps.
fn transpose_into(
    a: &MatRef<'_>,
    i0: usize,
    rows: usize,
    k0: usize,
    steps: usize,
    panel: &mut [f64],
) {
    let col = |r: usize| &a.col(i0 + r)[k0..k0 + steps];
    let mut r = 0;
    while r + 4 <= rows {
        let (c0, c1, c2, c3) = (col(r), col(r + 1), col(r + 2), col(r + 3));
        for (l, dst) in panel.chunks_exact_mut(rows).take(steps).enumerate() {
            let d = &mut dst[r..r + 4];
            d[0] = c0[l];
            d[1] = c1[l];
            d[2] = c2[l];
            d[3] = c3[l];
        }
        r += 4;
    }
    for r in r..rows {
        for (dst, &x) in panel[r..].iter_mut().step_by(rows).zip(col(r)) {
            *dst = x;
        }
    }
}

/// One `M × N` register tile over one depth slice, then its writeback into
/// `c[i.., j..]`.
#[inline(always)]
fn tile<const M: usize, const N: usize>(s: &Slice<'_>, c: &mut MatMut<'_>, i: usize, j: usize) {
    let mut acc = [[0.0; M]; N];
    for l in 0..s.steps {
        let ar = &s.a[l * s.a_step..][..M];
        let bl = &s.b[l * s.b_step..];
        for (q, accq) in acc.iter_mut().enumerate() {
            let bq = bl[q * s.b_lane];
            for (x, &ar) in accq.iter_mut().zip(ar) {
                *x = madd(ar, bq, *x);
            }
        }
    }
    for (q, accq) in acc.iter().enumerate() {
        let col = &mut c.col_mut(j + q)[i..i + M];
        for (cij, &x) in col.iter_mut().zip(accq) {
            *cij = match s.base {
                Base::Zero => 0.0 + s.alpha * x,
                Base::Keep => *cij + s.alpha * x,
                Base::Scale(beta) => beta * *cij + s.alpha * x,
            };
        }
    }
}
