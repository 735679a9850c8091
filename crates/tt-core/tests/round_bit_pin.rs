//! Bit pin for every rounding method on one seeded formal sum.
//!
//! The input is a sum of four trains, each a scaled copy of one rank-3
//! base plus its own small rank-2 perturbation (formal rank 20 at every
//! bond), rounded to rank 3. The test hashes each method's output —
//! ranks and every core entry, FNV-1a over `f64::to_bits` — and compares
//! against committed constants, so a change that moves any rounding bit
//! of QR, Gram-RLR/LRL/Sim or randomized rounding fails here.
//!
//! The same sum is also rounded at p ∈ {2, 3, 4} under `ThreadComm::run` with
//! QR and Gram-RLR, pinning every rank's local cores and the gathered train:
//! a change to the TSQR tree or to the Gram sweep's reductions that moves a
//! bit on some rank fails there.
//!
//! Input entries come from a SplitMix64 stream mapped to exact dyadic
//! rationals, so no libm call enters them; the randomized sketch is the
//! library's own seeded Gaussian.
//!
//! Scalar builds only: under `simd` + `fma` the microkernels fuse each
//! multiply-add, which changes the bits by design (DESIGN.md §11).

#![allow(
    clippy::expect_used,
    reason = "a failed expect in a test helper fails the test"
)]
#![cfg(not(feature = "simd"))]

use tt_comm::{SelfComm, ThreadComm};
use tt_core::{
    gather_tensor, round, scatter_tensor, RoundingMethod, RoundingOptions, TtCore, TtTensor,
};
use tt_linalg::Matrix;

/// Seeded train whose entries are multiples of 2⁻⁵³ in `[-0.5, 0.5)`,
/// times `scale` (a power of two, so the entries stay exact).
fn seeded_train(dims: &[usize], ranks: &[usize], seed: u64, scale: f64) -> TtTensor {
    let mut state = seed;
    let full: Vec<usize> = std::iter::once(1)
        .chain(ranks.iter().copied())
        .chain(std::iter::once(1))
        .collect();
    let cores = dims
        .iter()
        .enumerate()
        .map(|(k, &dim)| {
            let v = Matrix::from_fn(full[k] * dim, full[k + 1], |_, _| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                ((z >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * scale
            });
            TtCore::from_v(v, full[k], dim, full[k + 1])
        })
        .collect();
    TtTensor::new(cores)
}

/// `Σ_j (c_j·base + noise_j)` for four scales `c_j`, left as a formal sum.
fn formal_sum() -> TtTensor {
    let dims = [10, 9, 8, 7];
    let base = seeded_train(&dims, &[3, 3, 3], 11, 1.0);
    let mut sum: Option<TtTensor> = None;
    for (j, c) in [1.0, 0.5, 0.75, 0.25].into_iter().enumerate() {
        let mut term = base.clone();
        term.scale(c);
        let noise = seeded_train(&dims, &[2, 2, 2], 100 + j as u64, 2f64.powi(-20));
        let term = term.add(&noise);
        sum = Some(match sum {
            None => term,
            Some(s) => s.add(&term),
        });
    }
    sum.expect("four terms")
}

/// FNV-1a over the rank chain and the little-endian bytes of every core
/// entry's bit pattern.
fn fnv1a(y: &TtTensor) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: [u8; 8]| {
        for byte in bytes {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in y.ranks() {
        eat((r as u64).to_le_bytes());
    }
    for core in y.cores() {
        for v in core.v().as_slice() {
            eat(v.to_bits().to_le_bytes());
        }
    }
    h
}

#[test]
fn rounding_bits_are_pinned_per_method() {
    let x = formal_sum();
    assert_eq!(x.ranks(), vec![1, 20, 20, 20, 1]);
    let opts = RoundingOptions::with_tolerance(1e-6).max_rank(3);
    let cases = [
        (RoundingMethod::Qr, 0xff91_d881_d7d2_c2bdu64),
        (RoundingMethod::GramRlr, 0x4730_865c_3c73_750f),
        (RoundingMethod::GramLrl, 0x4bfb_4e43_4af0_5c4d),
        (RoundingMethod::GramSim, 0xb3a1_5f3a_3c45_0af1),
        (RoundingMethod::randomized(), 0x2893_4151_222d_8757),
    ];
    for (method, expect) in cases {
        let (y, _) = round(&SelfComm::new(), x.clone(), method, &opts);
        assert_eq!(y.ranks(), vec![1, 3, 3, 3, 1], "{method:?}");
        let got = fnv1a(&y);
        assert_eq!(got, expect, "{method:?}: hash {got:#018x}");
    }
}

#[test]
fn distributed_rounding_bits_are_pinned_per_rank() {
    let x = formal_sum();
    let dims = x.dims();
    let opts = RoundingOptions::with_tolerance(1e-6).max_rank(3);
    // Per case: one hash per rank's local cores, then the gathered train's.
    let cases: [(RoundingMethod, usize, &[u64]); 6] = [
        (
            RoundingMethod::Qr,
            2,
            &[
                0x5f7a_7df3_6c2f_11d8,
                0x78d7_dc0d_ae94_371b,
                0xa36a_b8fd_0edd_cc89,
            ],
        ),
        (
            RoundingMethod::Qr,
            3,
            &[
                0x5bc5_8d0f_22d1_c588,
                0xa527_67bc_6cba_d6b5,
                0xc36c_31e1_ab8e_8033,
                0x04a2_8bf4_3db2_c1e6,
            ],
        ),
        (
            RoundingMethod::Qr,
            4,
            &[
                0xc76b_0e14_28fe_a1b6,
                0x980a_6988_18d3_5bea,
                0x81d9_0737_b346_b60e,
                0x5374_9df6_4eec_ffea,
                0x889f_1ddb_95a5_e186,
            ],
        ),
        (
            RoundingMethod::GramRlr,
            2,
            &[
                0x20cc_d9b9_69da_3b43,
                0x0ec0_6792_031d_8cd7,
                0x9063_a742_3237_9cea,
            ],
        ),
        (
            RoundingMethod::GramRlr,
            3,
            &[
                0x2602_1e77_a0fa_3395,
                0x4cfa_07ed_ea17_e979,
                0xfca7_cb7b_9c83_63db,
                0x7d01_3c9a_f614_1e73,
            ],
        ),
        (
            RoundingMethod::GramRlr,
            4,
            &[
                0xf0d5_3ae2_87de_1b70,
                0x84ef_c513_66c7_0e92,
                0xc1a7_f63d_f094_8999,
                0xe66b_9afe_ea84_a889,
                0xcf42_7539_44a8_9354,
            ],
        ),
    ];
    for (method, p, expect) in cases {
        let per_rank = ThreadComm::run(p, |comm| {
            let local = scatter_tensor(&x, &comm);
            let (y, _) = round(&comm, local, method, &opts);
            let gathered = gather_tensor(&y, &dims, &comm);
            (fnv1a(&y), fnv1a(&gathered))
        });
        let mut got: Vec<u64> = per_rank.iter().map(|&(local, _)| local).collect();
        for &(_, gathered) in &per_rank[1..] {
            assert_eq!(
                gathered, per_rank[0].1,
                "{method:?} p={p}: gathered trains differ"
            );
        }
        got.push(per_rank[0].1);
        let shown: Vec<String> = got.iter().map(|h| format!("{h:#018x}")).collect();
        assert_eq!(
            got,
            expect,
            "{method:?} p={p}: hashes [{}]",
            shown.join(", ")
        );
    }
}
