//! Thread counts reported by the benchmark's banner line.
//!
//! Every kernel runs on its caller's thread. The paper's parallelism is one
//! rank per core over a 1-D mode distribution (DESIGN.md §6); the
//! intra-rank kernel pool that once lived here was deleted (DESIGN.md §9).
//! The two functions below stay only because `benchmark/` prints them.

/// Kernel threads per rank: always 1. Kept only for the benchmark's banner
/// line.
pub fn configured_threads() -> usize {
    1
}

/// Hardware thread count (`std::thread::available_parallelism`), defaulting
/// to 1 when the platform cannot report it.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}
