//! TT-Rounding: `Y = round(X, ε)` behind one entry point, [`round()`].
//!
//! The algorithms are interchangeable behind that one call, selected by
//! [`RoundingMethod`]:
//!
//! * `qr` — the baseline: TT-Rounding via orthogonalization (Alg. 2),
//!   parallelized with TSQR exactly as in Al Daas–Ballard–Benner [25].
//! * `gram` — the paper's contribution: TT-Rounding via Gram SVD, in the
//!   *simultaneous* (Alg. 5) and *sequence* (Alg. 6) variants, the latter in
//!   both RLR (right-to-left Gram sweep, left-to-right truncation) and LRL
//!   orderings.
//! * `random` — randomize-then-orthogonalize, the fixed-rank randomized
//!   successor (arXiv 2110.04393 Alg. 3.3).
//!
//! Every algorithm is written once against [`tt_comm::Communicator`] and
//! operates on the local block of the 1-D-distributed tensor; with
//! [`tt_comm::SelfComm`] it *is* the sequential algorithm. Each method body
//! is its own crate-private `*_dist` function, one per algorithm;
//! [`round()`] only dispatches.

pub(crate) mod gram;
mod qr;
mod random;
pub mod truncate;
pub mod tsqr;

pub use gram::{gram_sweep_left, gram_sweep_right, gram_sweep_right_symmetric};
pub use truncate::{BondTruncation, SingularSide};
pub use tsqr::tsqr;

use crate::tensor::TtTensor;
use tt_comm::Communicator;

/// Options controlling a rounding call.
#[derive(Debug, Clone)]
pub struct RoundingOptions {
    /// Relative accuracy ε: the result satisfies
    /// `‖X − Y‖ ≤ ε‖X‖` (up to the Gram-SVD accuracy caveat of §II-B).
    /// [`RoundingMethod::Randomized`] ignores it, so under ε alone it
    /// keeps every bond's rank and compresses nothing.
    pub tolerance: f64,
    /// Optional hard cap on every truncated rank (applied after the
    /// ε criterion). Scaling studies use this to pin the work. It is the
    /// only target rank of [`RoundingMethod::Randomized`]: with `None`,
    /// randomized rounding keeps each bond's current rank.
    pub max_rank: Option<usize>,
}

impl RoundingOptions {
    /// Tolerance-only options.
    pub fn with_tolerance(tolerance: f64) -> Self {
        RoundingOptions {
            tolerance,
            max_rank: None,
        }
    }

    /// Adds a hard rank cap.
    pub fn max_rank(mut self, r: usize) -> Self {
        self.max_rank = Some(r);
        self
    }
}

impl Default for RoundingOptions {
    fn default() -> Self {
        RoundingOptions::with_tolerance(1e-10)
    }
}

/// Which TT-Rounding algorithm [`round()`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundingMethod {
    /// Orthogonalization-based rounding (Alg. 2) — the baseline.
    Qr,
    /// Gram-SVD sequence variant, RLR ordering (Alg. 6 as printed): left
    /// cores come out orthonormal.
    GramRlr,
    /// Gram-SVD sequence variant, LRL ordering: right cores come out
    /// orthonormal.
    GramLrl,
    /// Gram-SVD simultaneous variant (Alg. 5).
    GramSim,
    /// Randomize-then-orthogonalize (arXiv 2110.04393 Alg. 3.3): rounds
    /// every bond to [`RoundingOptions::max_rank`], ignoring the
    /// tolerance. The sketch is replicated by seeding, so the result is
    /// deterministic given `seed` and every rank takes identical rank
    /// decisions.
    Randomized {
        /// Columns added to every sketch beyond the target rank (5–10
        /// gives high success probability).
        oversampling: usize,
        /// Sketch seed; must be identical on every rank.
        seed: u64,
    },
}

impl RoundingMethod {
    /// Randomized rounding with the default oversampling (8) and seed.
    pub fn randomized() -> Self {
        RoundingMethod::Randomized {
            oversampling: 8,
            seed: 0x5eed,
        }
    }

    /// Short display name (matches the paper's legends).
    pub fn name(&self) -> &'static str {
        match self {
            RoundingMethod::Qr => "QR",
            RoundingMethod::GramRlr => "Gram-RLR",
            RoundingMethod::GramLrl => "Gram-LRL",
            RoundingMethod::GramSim => "Gram-Sim",
            RoundingMethod::Randomized { .. } => "Randomized",
        }
    }
}

/// Diagnostics of one rounding call.
#[derive(Debug, Clone)]
pub struct RoundReport {
    /// `‖X‖` as computed by the algorithm (from `G₀ᴿ`/`G_Nᴸ` for the Gram
    /// variants, from the orthogonalized end core for QR). `f64::NAN` for
    /// sketch-only randomized rounding on trains of two or more cores: it
    /// never forms ‖X‖.
    pub norm: f64,
    /// Rank chain before rounding.
    pub ranks_before: Vec<usize>,
    /// Rank chain after rounding.
    pub ranks_after: Vec<usize>,
    /// One record per interior bond, in the order the bonds were processed.
    pub truncations: Vec<BondTruncation>,
}

impl RoundReport {
    /// The report for the rounded train `y`.
    pub(crate) fn new(
        norm: f64,
        ranks_before: Vec<usize>,
        y: &TtTensor,
        truncations: Vec<BondTruncation>,
    ) -> Self {
        RoundReport {
            norm,
            ranks_before,
            ranks_after: y.ranks(),
            truncations,
        }
    }
}

/// TT-Rounding: `Y = round(X, ε)` with the chosen `method`.
///
/// `x` is this rank's local block of the 1-D-distributed tensor (the whole
/// tensor under [`tt_comm::SelfComm`], the sequential case). It is taken by
/// value and rounded in place: a caller that still needs the input clones
/// it first. Every rank must call with the same `method` and `opts`.
///
/// ```
/// use tt_comm::SelfComm;
/// use tt_core::{round, RoundingMethod, RoundingOptions, TtTensor};
///
/// let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(0);
/// let base = TtTensor::random(&[5, 4, 6], &[2, 3], &mut rng);
/// let doubled = base.add(&base); // formal ranks 4, 6
/// let opts = RoundingOptions::with_tolerance(1e-10);
/// let (y, report) = round(&SelfComm::new(), doubled, RoundingMethod::GramRlr, &opts);
/// assert_eq!(y.ranks(), vec![1, 2, 3, 1]);
/// assert_eq!(report.ranks_before, vec![1, 4, 6, 1]);
/// ```
pub fn round(
    comm: &impl Communicator,
    x: TtTensor,
    method: RoundingMethod,
    opts: &RoundingOptions,
) -> (TtTensor, RoundReport) {
    if x.order() == 1 {
        return round_single_core_dist(comm, x);
    }
    match method {
        RoundingMethod::Qr => qr::round_qr_dist(comm, x, opts),
        RoundingMethod::GramRlr => gram::round_gram_rlr_dist(comm, x, opts),
        RoundingMethod::GramLrl => gram::round_gram_lrl_dist(comm, x, opts),
        RoundingMethod::GramSim => gram::round_gram_sim_dist(comm, x, opts),
        RoundingMethod::Randomized { oversampling, seed } => {
            random::round_rand_then_orth_dist(comm, x, opts, oversampling, seed)
        }
    }
}

/// The one-core case every method shares: there is no bond to truncate,
/// so the train comes back untouched with its norm.
pub(crate) fn round_single_core_dist(
    comm: &impl Communicator,
    x: TtTensor,
) -> (TtTensor, RoundReport) {
    let norm = crate::dist::norm_local(comm, &x);
    let report = RoundReport::new(norm, x.ranks(), &x, Vec::new());
    (x, report)
}
