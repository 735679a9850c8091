//! Synthetic TT models — Table I of the paper.
//!
//! Four models, all with formal ranks 20 that TT-Rounding cuts to 10:
//!
//! | Model | Modes | Dimensions                         | Memory |
//! |-------|-------|------------------------------------|--------|
//! | 1     | 50    | 2K × … × 2K                        | 77 MB  |
//! | 2     | 16    | 100M × 50K × … × 50K × 1M          | 8 GB   |
//! | 3     | 30    | 2M × … × 2M                        | 45 GB  |
//! | 4     | 10    | 10K × 20 × … × 20                  | 930 KB |
//!
//! Models 1–3 mimic Gaussian-random-field / UQ problems [27]; model 4 has
//! the shape of the cookies problem solved in §V-D. The redundant-rank
//! construction (`X + X`, formal ranks doubled) is the standard way to
//! produce a tensor whose rounding is exact and predictable.

use crate::tensor::TtTensor;

/// The formal TT rank of the Table I models before rounding.
pub const TABLE1_RANK: usize = 20;

/// The TT rank after rounding.
pub const TABLE1_TARGET_RANK: usize = 10;

/// A synthetic model specification.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// Table I model number (1–4), or 0 for custom.
    pub id: usize,
    /// Mode dimensions.
    pub dims: Vec<usize>,
    /// Formal TT rank (before rounding).
    pub rank: usize,
    /// Rank after rounding.
    pub target_rank: usize,
}

impl ModelSpec {
    /// The Table I model with the paper's full dimensions.
    pub fn table1(id: usize) -> ModelSpec {
        let dims = match id {
            1 => vec![2_000; 50],
            2 => {
                let mut d = vec![50_000; 16];
                d[0] = 100_000_000;
                d[15] = 1_000_000;
                d
            }
            3 => vec![2_000_000; 30],
            4 => {
                let mut d = vec![20; 10];
                d[0] = 10_000;
                d
            }
            // analyze::allow(panic_surface): constructor precondition on the paper's fixed model table; a Result would only move the abort to every caller
            _ => panic!("Table I defines models 1–4"),
        };
        ModelSpec {
            id,
            dims,
            rank: TABLE1_RANK,
            target_rank: TABLE1_TARGET_RANK,
        }
    }

    /// Shrinks every mode dimension by `factor` (flooring at 4), for runs on
    /// machines smaller than a 704-node cluster. Rank structure is kept.
    pub fn scaled(&self, factor: f64) -> ModelSpec {
        assert!(factor > 0.0 && factor <= 1.0);
        let dims = self
            .dims
            .iter()
            // analyze::allow(narrow_cast): deliberate dimension scaling; factor is in (0, 1] so round() stays within usize and the .max(4) floor handles degenerate results
            .map(|&d| (((d as f64) * factor).round() as usize).max(4))
            .collect();
        ModelSpec {
            id: self.id,
            dims,
            rank: self.rank,
            target_rank: self.target_rank,
        }
    }

    /// TT memory footprint in bytes at the given rank (boundary cores have
    /// one rank equal to 1).
    pub fn memory_bytes(&self, rank: usize) -> f64 {
        let n = self.dims.len();
        let mut entries = 0.0;
        for (k, &d) in self.dims.iter().enumerate() {
            let r0 = if k == 0 { 1 } else { rank };
            let r1 = if k == n - 1 { 1 } else { rank };
            entries += (r0 * d * r1) as f64;
        }
        entries * 8.0
    }

    /// The local mode dimensions of one rank in a `p`-rank run.
    pub fn local_dims(&self, p: usize, rank: usize) -> Vec<usize> {
        self.dims
            .iter()
            .map(|&d| crate::dist::block_range(d, p, rank).len())
            .collect()
    }
}

/// Generates a tensor with redundant formal ranks: a random base tensor of
/// rank `rank_half` formally added to itself, so the result has exact ranks
/// `2·rank_half` but true ranks `rank_half` — rounding provably halves the
/// ranks, as Table I prescribes.
pub fn generate_redundant(dims: &[usize], rank_half: usize, rng: &mut impl rand::Rng) -> TtTensor {
    let interior = vec![rank_half; dims.len().saturating_sub(1)];
    let base = TtTensor::random(dims, &interior, rng);
    base.add(&base)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn table1_shapes_match_paper() {
        let m1 = ModelSpec::table1(1);
        assert_eq!(m1.dims.len(), 50);
        assert!(m1.dims.iter().all(|&d| d == 2000));
        let m2 = ModelSpec::table1(2);
        assert_eq!(m2.dims[0], 100_000_000);
        assert_eq!(m2.dims[15], 1_000_000);
        assert_eq!(m2.dims[7], 50_000);
        let m4 = ModelSpec::table1(4);
        assert_eq!(m4.dims, {
            let mut d = vec![20; 10];
            d[0] = 10_000;
            d
        });
    }

    #[test]
    fn table1_memory_footprints_are_papers() {
        // Paper Table I memory column (at the rounded rank 10): model 1
        // ≈ 77 MB, model 4 ≈ 930 KB.
        let m1 = ModelSpec::table1(1);
        let mb = m1.memory_bytes(TABLE1_TARGET_RANK) / 1e6;
        assert!((mb - 77.0).abs() < 5.0, "model 1: {mb} MB");
        let m4 = ModelSpec::table1(4);
        let kb = m4.memory_bytes(TABLE1_TARGET_RANK) / 1e3;
        assert!((kb - 930.0).abs() < 100.0, "model 4: {kb} KB");
    }

    #[test]
    fn scaling_respects_floor() {
        let m = ModelSpec::table1(4).scaled(0.001);
        assert_eq!(m.dims[0], 10); // 10K * 0.001
        assert!(m.dims[1..].iter().all(|&d| d == 4)); // floored
    }

    #[test]
    fn redundant_tensor_has_doubled_ranks_and_halvable_content() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let x = generate_redundant(&[6, 5, 4, 6], 3, &mut rng);
        assert_eq!(x.ranks(), vec![1, 6, 6, 6, 1]);
        let opts = crate::RoundingOptions::with_tolerance(1e-10);
        let comm = tt_comm::SelfComm::new();
        let (y, _) = crate::round(&comm, x, crate::RoundingMethod::GramRlr, &opts);
        assert_eq!(y.ranks(), vec![1, 3, 3, 3, 1]);
    }

    #[test]
    fn local_dims_partition_global() {
        let m = ModelSpec::table1(1).scaled(0.01);
        let p = 4;
        let mut totals = vec![0usize; m.dims.len()];
        for r in 0..p {
            for (k, d) in m.local_dims(p, r).into_iter().enumerate() {
                totals[k] += d;
            }
        }
        assert_eq!(totals, m.dims);
    }
}
