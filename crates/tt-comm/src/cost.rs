//! LogP-style analytic communication cost model and event instrumentation.
//!
//! The paper's complexity analysis (§IV-E) prices the algorithms with
//! per-flop (γ), per-word (β), and per-message (α) costs:
//!
//! * Gram-SVD rounding: `β·O(NR²) + α·O(N log P)` — one well-optimized
//!   allreduce per mode;
//! * QR-based rounding: `β·O(NR² log P) + α·O(N log P)` — TSQR trees whose
//!   bandwidth term carries an extra `log P` factor.
//!
//! [`CostModel`] reproduces exactly these expressions so the scaling
//! harnesses can convert recorded communication events into modeled times.

/// Classification of a communication event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectiveKind {
    /// MPI_Allreduce (recursive doubling / reduce+bcast tree).
    Allreduce,
    /// MPI_Bcast (binomial tree).
    Broadcast,
    /// MPI_Allgather (concatenation across ranks).
    Allgather,
    /// A point-to-point message (one TSQR tree edge).
    PointToPoint,
}

const KINDS: [CollectiveKind; 4] = [
    CollectiveKind::Allreduce,
    CollectiveKind::Broadcast,
    CollectiveKind::Allgather,
    CollectiveKind::PointToPoint,
];

/// Per-rank record of communication events (counts and word volumes).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommStats {
    counts: [usize; 4],
    words: [usize; 4],
}

impl CommStats {
    fn idx(kind: CollectiveKind) -> usize {
        match kind {
            CollectiveKind::Allreduce => 0,
            CollectiveKind::Broadcast => 1,
            CollectiveKind::Allgather => 2,
            CollectiveKind::PointToPoint => 3,
        }
    }

    /// Records one event of `kind` moving `words` `f64` words.
    pub fn record(&mut self, kind: CollectiveKind, words: usize) {
        self.counts[Self::idx(kind)] += 1;
        self.words[Self::idx(kind)] += words;
    }

    /// Number of events of the given kind.
    pub fn count(&self, kind: CollectiveKind) -> usize {
        self.counts[Self::idx(kind)]
    }

    /// Total `f64` words moved by events of the given kind.
    pub fn words(&self, kind: CollectiveKind) -> usize {
        self.words[Self::idx(kind)]
    }

    /// Total events of all kinds.
    pub fn total_messages(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Merges another record into this one.
    pub fn merge(&mut self, other: &CommStats) {
        for i in 0..4 {
            self.counts[i] += other.counts[i];
            self.words[i] += other.words[i];
        }
    }

    /// Prices every recorded event with `model` at `p` ranks and returns the
    /// total modeled communication time in seconds.
    pub fn modeled_time(&self, model: &CostModel, p: usize) -> f64 {
        let mut t = 0.0;
        for kind in KINDS {
            let count = self.count(kind);
            if count == 0 {
                continue;
            }
            let n = count as f64;
            let avg_words = self.words(kind) as f64 / n;
            t += n * model.collective_time(kind, avg_words, p);
        }
        t
    }
}

/// Machine parameters for the analytic model.
///
/// Defaults approximate a mid-2020s HPC interconnect of the Andes class
/// (EDR InfiniBand-ish): α = 2 µs per message, β = 8 ns per 8-byte word
/// (≈ 1 GB/s effective per-rank bandwidth, deliberately conservative), and
/// γ calibrated at runtime from a GEMM probe (defaulting to 0.5 ns/flop
/// ≈ 2 Gflop/s/core if not calibrated).
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Latency per message, seconds.
    pub alpha: f64,
    /// Inverse bandwidth, seconds per `f64` word.
    pub beta: f64,
    /// Inverse compute rate, seconds per flop.
    pub gamma: f64,
    /// Optional "congestion knee": beyond this many ranks, latency inflates
    /// by `congestion_factor` per doubling — reproduces the super-logarithmic
    /// allreduce behavior the paper observed on Andes past 32 nodes (§V-C).
    /// `None` disables the effect (the default).
    pub congestion_knee: Option<usize>,
    /// Latency inflation per doubling past the knee (e.g. 2.0).
    pub congestion_factor: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            alpha: 2.0e-6,
            beta: 8.0e-9,
            gamma: 5.0e-10,
            congestion_knee: None,
            congestion_factor: 2.0,
        }
    }
}

impl CostModel {
    /// Effective per-message latency at `p` ranks (applies the congestion
    /// knee if configured).
    pub fn effective_alpha(&self, p: usize) -> f64 {
        match self.congestion_knee {
            Some(knee) if p > knee => {
                let doublings = ((p as f64) / (knee as f64)).log2().max(0.0);
                self.alpha * self.congestion_factor.powf(doublings)
            }
            _ => self.alpha,
        }
    }

    /// Modeled time of a single collective moving `words` words at `p` ranks.
    pub fn collective_time(&self, kind: CollectiveKind, words: f64, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let lg = (p as f64).log2().ceil();
        let alpha = self.effective_alpha(p);
        match kind {
            // Recursive-doubling allreduce: log P rounds; for the short
            // messages of this workload (R² words) the bandwidth term is
            // ~2βw total (Rabenseifner), latency α log P.
            CollectiveKind::Allreduce => alpha * lg + 2.0 * self.beta * words,
            // Binomial-tree broadcast.
            CollectiveKind::Broadcast => lg * (alpha + self.beta * words),
            // Bruck/ring allgather: `words` is the total gathered volume.
            CollectiveKind::Allgather => alpha * lg + self.beta * words,
            // One tree edge.
            CollectiveKind::PointToPoint => alpha + self.beta * words,
        }
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "tests compare exact values on purpose")]
mod tests {
    use super::*;

    #[test]
    fn single_rank_costs_nothing() {
        let m = CostModel::default();
        assert_eq!(m.collective_time(CollectiveKind::Allreduce, 1000.0, 1), 0.0);
    }

    #[test]
    fn allreduce_scales_logarithmically() {
        let m = CostModel::default();
        let t4 = m.collective_time(CollectiveKind::Allreduce, 400.0, 4);
        let t16 = m.collective_time(CollectiveKind::Allreduce, 400.0, 16);
        // latency term doubles from log 4 = 2 to log 16 = 4
        let lat4 = m.alpha * 2.0;
        let lat16 = m.alpha * 4.0;
        assert!((t16 - t4 - (lat16 - lat4)).abs() < 1e-15);
    }

    #[test]
    fn congestion_knee_inflates_latency() {
        let m = CostModel {
            congestion_knee: Some(1024),
            congestion_factor: 4.0,
            ..Default::default()
        };
        assert_eq!(m.effective_alpha(512), m.alpha);
        assert_eq!(m.effective_alpha(1024), m.alpha);
        assert!((m.effective_alpha(2048) - 4.0 * m.alpha).abs() < 1e-18);
    }

    #[test]
    fn stats_record_and_price() {
        let mut s = CommStats::default();
        s.record(CollectiveKind::Allreduce, 100);
        s.record(CollectiveKind::Allreduce, 300);
        s.record(CollectiveKind::PointToPoint, 50);
        assert_eq!(s.count(CollectiveKind::Allreduce), 2);
        assert_eq!(s.words(CollectiveKind::Allreduce), 400);
        assert_eq!(s.total_messages(), 3);
        let m = CostModel::default();
        let t = s.modeled_time(&m, 8);
        let expect = 2.0 * m.collective_time(CollectiveKind::Allreduce, 200.0, 8)
            + m.collective_time(CollectiveKind::PointToPoint, 50.0, 8);
        assert!((t - expect).abs() < 1e-18);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = CommStats::default();
        a.record(CollectiveKind::Broadcast, 10);
        let mut b = CommStats::default();
        b.record(CollectiveKind::Broadcast, 20);
        b.record(CollectiveKind::Allreduce, 5);
        a.merge(&b);
        assert_eq!(a.count(CollectiveKind::Broadcast), 2);
        assert_eq!(a.words(CollectiveKind::Broadcast), 30);
        assert_eq!(a.count(CollectiveKind::Allreduce), 1);
    }
}
