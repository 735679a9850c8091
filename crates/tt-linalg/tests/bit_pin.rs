//! Cross-machine bit pin for the GEMM/SYRK engines.
//!
//! The depth blocking `tt_linalg::block::KC` is a constant and sets the
//! grouping of every sum, so a scalar build produces the same bits on
//! every machine. This test hashes the
//! output of `gemm_v`, `syrk_v` and `syrk_nt_v` on one shape per engine
//! (reference, tall-skinny, packed), each deeper than two `KC` slices,
//! and compares against committed FNV-1a hashes over `f64::to_bits`.
//!
//! Inputs come from a SplitMix64 stream mapped to exact dyadic rationals,
//! so no libm call (and no platform-dependent rounding) enters them.
//!
//! Scalar builds only: under `simd` + `fma` the microkernel fuses each
//! multiply-add, which changes the bits by design (DESIGN.md §11).
#![cfg(not(feature = "simd"))]

use tt_linalg::{gemm_v, kernel_choice, syrk_nt_v, syrk_v, Kernel, Matrix, Trans};

/// Seeded matrix with entries in `[-0.5, 0.5)`, each a multiple of 2⁻⁵³.
fn seeded(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed;
    Matrix::from_fn(rows, cols, |_, _| {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    })
}

/// FNV-1a over the little-endian bytes of every entry's bit pattern.
fn fnv1a(values: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Hash of `C = 0.75·op(A)·op(B) − 0.5·C₀` for every `(ta, tb)` pair, and
/// of `syrk_v`/`syrk_nt_v` with `alpha = 0.75`, on an `m × n × k` problem
/// (`n × n` Gram of depth `k` for the SYRKs).
fn engine_hash(m: usize, n: usize, k: usize, seed: u64) -> u64 {
    let mut out = Vec::new();
    for (t, (ta, tb)) in [
        (Trans::No, Trans::No),
        (Trans::No, Trans::Yes),
        (Trans::Yes, Trans::No),
        (Trans::Yes, Trans::Yes),
    ]
    .into_iter()
    .enumerate()
    {
        let s = seed + 10 * t as u64;
        let a = match ta {
            Trans::No => seeded(m, k, s),
            Trans::Yes => seeded(k, m, s),
        };
        let b = match tb {
            Trans::No => seeded(k, n, s + 1),
            Trans::Yes => seeded(n, k, s + 1),
        };
        let mut c = seeded(m, n, s + 2);
        gemm_v(ta, a.view(), tb, b.view(), 0.75, -0.5, c.view_mut());
        out.extend_from_slice(c.as_slice());
    }
    out.extend_from_slice(syrk_v(seeded(k, n, seed + 100).view(), 0.75).as_slice());
    out.extend_from_slice(syrk_nt_v(seeded(n, k, seed + 200).view(), 0.75).as_slice());
    fnv1a(&out)
}

#[test]
fn gemm_and_syrk_bits_are_pinned_per_engine() {
    // (engine, m, n, k, committed hash). Every depth exceeds 2·KC = 512.
    let cases = [
        (Kernel::Reference, 4, 4, 600, 0xa4c1_adbc_71ba_cd5eu64),
        (Kernel::TallSkinny, 20, 12, 1100, 0x2622_aba6_5a0b_ab09),
        (Kernel::Blocked, 96, 80, 600, 0x6f8f_c6e1_59f2_94d7),
    ];
    for (engine, m, n, k, expect) in cases {
        assert_eq!(kernel_choice(m, n, k), engine, "gemm {m}x{n}x{k}");
        assert_eq!(kernel_choice(n, n, k), engine, "syrk {n}x{k}");
        let got = engine_hash(m, n, k, 7);
        assert_eq!(got, expect, "{engine:?} {m}x{n}x{k}: hash {got:#018x}");
    }
}
