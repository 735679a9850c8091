//! Replicated seeded sketch generation.
//!
//! Every random object the family draws is derived from `(seed, tag, …)`
//! coordinates rather than from a shared generator stream, so any rank can
//! (re)generate exactly the values it needs without communication: the
//! distributed sketch is consistent by construction. The `tag` namespaces
//! the per-variant streams so no two variants ever consume the same
//! pseudo-random values.

use crate::core::TtCore;
use crate::tensor::TtTensor;
use rand::SeedableRng;
use tt_linalg::Matrix;

/// Golden-ratio mixing constant (splitmix64 lineage) — per-core coordinate.
const MIX_CORE: u64 = 0x9e3779b97f4a7c15;
/// Per-slice / per-mode coordinate.
const MIX_SLICE: u64 = 0xd1b54a32d192ed03;
/// Per-variant stream tag.
const MIX_TAG: u64 = 0x94d049bb133111eb;
/// Per-column coordinate (Khatri–Rao sketches).
const MIX_COL: u64 = 0xbf58476d1ce4e5b9;

/// Stream namespaces, one per consumer (`tag = 0` reproduces the original
/// randomize-then-orthogonalize sketch bit-for-bit). Tags 2 and 3 are
/// unused: renumbering the Khatri–Rao tag would change every adaptive
/// sketch.
pub(crate) const TAG_TT_SKETCH: u64 = 0;
pub(crate) const TAG_ORTH_RAND: u64 = 1;
pub(crate) const TAG_KHATRI_RAO: u64 = 4;

fn base_seed(seed: u64, tag: u64) -> u64 {
    seed ^ tag.wrapping_mul(MIX_TAG)
}

/// Builds this rank's local block of a global random Gaussian TT tensor
/// with the given bond ranks.
///
/// Slice `i` of core `k` is generated from a generator seeded by
/// `(seed, tag, k, i)`, so any rank owning global slice `i` produces
/// identical values — the distributed sketch is consistent without
/// communication.
pub(crate) fn gaussian_tt_sketch(
    global_dims: &[usize],
    sketch_ranks: &[usize],
    p: usize,
    rank: usize,
    seed: u64,
    is_model: bool,
    tag: u64,
) -> TtTensor {
    let seed = base_seed(seed, tag);
    let n = global_dims.len();
    let full: Vec<usize> = std::iter::once(1)
        .chain(sketch_ranks.iter().copied())
        .chain(std::iter::once(1))
        .collect();
    let cores = (0..n)
        .map(|k| {
            let range = local_mode_range(global_dims[k], p, rank, is_model);
            let mut core = TtCore::zeros(full[k], range.len(), full[k + 1]);
            // One slice buffer per core, reused across rows:
            // `fill_standard_normal` overwrites every entry.
            let mut slice = vec![0.0; full[k] * full[k + 1]];
            for (local_i, glob_i) in range.enumerate() {
                let mut rng = rand::rngs::StdRng::seed_from_u64(
                    seed ^ (k as u64).wrapping_mul(MIX_CORE)
                        ^ (glob_i as u64).wrapping_mul(MIX_SLICE),
                );
                tt_linalg::rng::fill_standard_normal(&mut slice, &mut rng);
                for b in 0..full[k + 1] {
                    for a in 0..full[k] {
                        *core.at_mut(a, local_i, b) = slice[a + b * full[k]];
                    }
                }
            }
            core
        })
        .collect();
    TtTensor::new(cores)
}

/// The global mode-index range this rank owns (model backend: one
/// representative rank's share, `⌈I/P⌉`).
pub(crate) fn local_mode_range(
    global_dim: usize,
    p: usize,
    rank: usize,
    is_model: bool,
) -> std::ops::Range<usize> {
    if is_model {
        0..global_dim.div_ceil(p)
    } else {
        crate::dist::block_range(global_dim, p, rank)
    }
}

/// A small replicated Gaussian matrix — identical on every rank because the
/// generator is seeded purely from `(seed, tag, bond)`.
pub(crate) fn replicated_gaussian(
    rows: usize,
    cols: usize,
    seed: u64,
    tag: u64,
    bond: usize,
) -> Matrix {
    let mut rng = rand::rngs::StdRng::seed_from_u64(
        base_seed(seed, tag) ^ (bond as u64).wrapping_mul(MIX_CORE),
    );
    Matrix::gaussian(rows, cols, &mut rng)
}

/// Fills `buf` (resized to `len`) with the full *global* Gaussian weight
/// vector `ω` of Khatri–Rao column `col` at `(bond, mode)` — every rank
/// generates the whole vector and reads off the slice it owns, so the
/// implicit Khatri–Rao sketch matrix is replicated without communication.
pub(crate) fn fill_kr_weights(
    buf: &mut Vec<f64>,
    len: usize,
    seed: u64,
    bond: usize,
    mode: usize,
    col: usize,
) {
    buf.clear();
    buf.resize(len, 0.0);
    let mut rng = rand::rngs::StdRng::seed_from_u64(
        base_seed(seed, TAG_KHATRI_RAO)
            ^ (bond as u64 + 1).wrapping_mul(MIX_CORE)
            ^ (mode as u64 + 1).wrapping_mul(MIX_SLICE)
            ^ (col as u64 + 1).wrapping_mul(MIX_COL),
    );
    tt_linalg::rng::fill_standard_normal(buf, &mut rng);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tt_sketch_slices_agree_across_distributions() {
        // The union of every rank's local sketch at p = 3 must equal the
        // p = 1 sketch slice-for-slice.
        let dims = [7usize, 5, 6];
        let ranks = [3usize, 2];
        let full = gaussian_tt_sketch(&dims, &ranks, 1, 0, 42, false, TAG_TT_SKETCH);
        for p in [2usize, 3] {
            for r in 0..p {
                let local = gaussian_tt_sketch(&dims, &ranks, p, r, 42, false, TAG_TT_SKETCH);
                for (k, &dim) in dims.iter().enumerate() {
                    let range = crate::dist::block_range(dim, p, r);
                    for (li, gi) in range.enumerate() {
                        for a in 0..local.core(k).r0() {
                            for b in 0..local.core(k).r1() {
                                assert_eq!(
                                    local.core(k).at(a, li, b).to_bits(),
                                    full.core(k).at(a, gi, b).to_bits(),
                                    "p={p} r={r} core {k}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tags_produce_distinct_streams() {
        let dims = [5usize, 4];
        let ranks = [2usize];
        let a = gaussian_tt_sketch(&dims, &ranks, 1, 0, 7, false, TAG_TT_SKETCH);
        let b = gaussian_tt_sketch(&dims, &ranks, 1, 0, 7, false, TAG_ORTH_RAND);
        assert_ne!(a, b, "different tags must not alias");
        let g1 = replicated_gaussian(4, 3, 7, TAG_ORTH_RAND, 0);
        let g2 = replicated_gaussian(4, 3, 7, TAG_ORTH_RAND, 1);
        assert_ne!(g1.as_slice(), g2.as_slice(), "different bonds must differ");
        let g3 = replicated_gaussian(4, 3, 7, TAG_ORTH_RAND, 0);
        assert_eq!(g1.as_slice(), g3.as_slice(), "same coordinates must agree");
    }

    #[test]
    fn kr_weights_deterministic_per_coordinates() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        fill_kr_weights(&mut a, 9, 3, 1, 2, 5);
        fill_kr_weights(&mut b, 9, 3, 1, 2, 5);
        assert_eq!(a, b);
        fill_kr_weights(&mut b, 9, 3, 1, 2, 6);
        assert_ne!(a, b);
    }
}
