//! Intra-rank shared-memory parallel kernel layer.
//!
//! The paper's headline speedups assume multithreaded BLAS-3 inside every
//! MPI rank (OpenBLAS with OpenMP); Röhrig-Zöllner et al. show the same
//! kernels reward careful shared-memory parallelization. This module is the
//! pure-Rust stand-in: a fork/join layer the packed blocked engine in
//! [`crate::block`] uses to data-parallelize the GEMM macro-kernel over
//! output column blocks and the SYRK triangle update over block-columns.
//! The compact-WY QR trailing updates (matrices wider than 64 columns) and
//! every TT Gram and truncation product inherit the threading through the
//! [`crate::gemm`] dispatcher; TSQR leaves of TT-rank width run the
//! single-threaded one-panel QR kernel.
//!
//! # Determinism contract
//!
//! Parallel results are **bitwise identical** to single-threaded results,
//! for every thread count. Work is partitioned only over *output* blocks —
//! the `k`-dimension reduction is never split — so each output element is
//! produced by exactly one worker running exactly the sequential
//! accumulation order. All conformance oracles, `VerifyComm` fingerprints,
//! and differential rounding tests therefore stay valid verbatim under any
//! `TT_NUM_THREADS`.
//!
//! # Configuration and oversubscription
//!
//! The pool size comes from the `TT_NUM_THREADS` environment variable
//! (default 1 — exact current single-threaded behavior). Because the SPMD
//! harness ([`tt_comm`]'s `ThreadComm`) runs `P` rank-threads in one
//! process, a naive per-rank pool of `T` threads would put `P × T` runnable
//! threads on the machine. The layer therefore tracks how many parallel
//! regions are in flight process-wide and caps each region at
//! `hardware_threads / in_flight` — with `P` ranks computing at once each
//! gets an even share, and a lone sequential caller gets the whole machine.
//!
//! Tests and benches bypass the environment with [`with_threads`], which
//! forces an exact thread count for the current thread's kernel calls
//! (ignoring the flop and arithmetic-intensity gates and the
//! oversubscription cap, so determinism suites can exercise
//! multi-threaded chunking on any box, including single-core CI runners).
//!
//! # Dispatch gates
//!
//! A kernel fans out only when its [`Work`] profile clears *two*
//! autotuned floors (see [`crate::tune`]): a flop floor (spawn overhead
//! amortization) and an arithmetic-intensity floor (flops per byte of
//! memory traffic). The second gate is what keeps memory-bound shapes —
//! tall-skinny TSQR leaves, narrow QR trailing updates — sequential:
//! their working set streams from DRAM, so added threads fight for the
//! same bus and lose (the original flat flop threshold fanned them out
//! and measurably regressed).
//!
//! # Why scoped threads and no channels
//!
//! A persistent channel-fed pool cannot accept borrowed jobs (closures
//! writing into a caller's `&mut` output) without lifetime-erasing
//! `unsafe`, which `#![forbid(unsafe_code)]` rules out. [`std::thread::scope`]
//! is the safe equivalent: workers borrow the disjoint output partitions
//! directly, and the scope joins every worker — propagating any worker
//! panic — before returning, with no `unwrap`/`join` handling of our own
//! (which also keeps the `panic_surface` analyzer pass clean without
//! suppressions). Spawn cost is paid only above
//! [`PAR_FLOP_THRESHOLD`], where it is noise against the multiply itself.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::tune;

/// Default flop count (2·m·n·k) below which a multiply never fans out:
/// under ~96³ the fork/join overhead (tens of microseconds per worker) is
/// comparable to the multiply itself, while every unfolding contraction
/// and calibration GEMM on the hot path sits far above it. The effective
/// floor is autotuned/overridable — see [`crate::tune`].
pub const PAR_FLOP_THRESHOLD: f64 = tune::DEFAULT_PAR_FLOP_FLOOR;

/// A kernel's work descriptor for the dispatch decision: raw flop volume
/// plus an estimate of the bytes the blocked sweep must move (operand
/// reads + packing + output writeback). The ratio is the arithmetic
/// intensity; memory-bound shapes (low intensity) never fan out because
/// extra threads only add memory-bus contention — the committed
/// `BENCH_kernels_par.json` baseline that motivated this gate showed
/// 4-thread SYRK 47% *slower* than 1-thread on such a shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Work {
    /// Floating-point operations the kernel will execute.
    pub flops: f64,
    /// Estimated bytes of memory traffic (8 bytes per f64 element).
    pub bytes: f64,
}

impl Work {
    /// `C += op(A)·op(B)` with `op(A)` `m×k`, `op(B)` `k×n`: `2mnk` flops
    /// against reading both operands once and read-modify-writing `C`.
    pub fn gemm(m: usize, n: usize, k: usize) -> Self {
        let (m, n, k) = (m as f64, n as f64, k as f64);
        Work {
            flops: 2.0 * m * n * k,
            bytes: 8.0 * (m * k + k * n + 2.0 * m * n),
        }
    }

    /// Symmetric rank-k update producing an `n×n` Gram matrix from an
    /// operand with `n·k` entries: half a GEMM's arithmetic (only the
    /// triangle is computed) against one operand read plus the output.
    pub fn syrk(n: usize, k: usize) -> Self {
        let (n, k) = (n as f64, k as f64);
        Work {
            flops: n * n * k,
            bytes: 8.0 * (n * k + n * n),
        }
    }

    /// Flops per byte moved; infinite for degenerate zero-byte work.
    pub fn intensity(&self) -> f64 {
        if self.bytes <= 0.0 {
            f64::INFINITY
        } else {
            self.flops / self.bytes
        }
    }
}

/// Hard ceiling on any configured or forced thread count, so a malformed
/// `TT_NUM_THREADS` cannot ask for an absurd spawn storm.
pub const MAX_THREADS: usize = 256;

/// Parallel regions currently executing, process-wide. Used to divide the
/// machine between concurrent callers (the ThreadComm rank-threads case).
static IN_FLIGHT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Per-thread override installed by [`with_threads`]; takes precedence
    /// over `TT_NUM_THREADS`, the flop threshold, and the cap.
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The pool size requested via `TT_NUM_THREADS`, clamped to
/// `[1, MAX_THREADS]`. Unset, empty, or unparsable values mean 1
/// (exact single-threaded behavior).
pub fn configured_threads() -> usize {
    static CONFIGURED: OnceLock<usize> = OnceLock::new();
    *CONFIGURED.get_or_init(|| {
        // analyze::allow(determinism): TT_NUM_THREADS selects the worker
        // partition only; the output-block contract (DESIGN.md §9) makes
        // every partition produce bit-identical results, so the environment
        // can change scheduling but never values.
        std::env::var("TT_NUM_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .map(|n| n.clamp(1, MAX_THREADS))
            .unwrap_or(1)
    })
}

/// Hardware thread count (`std::thread::available_parallelism`), defaulting
/// to 1 when the platform cannot report it.
pub fn hardware_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| {
        // analyze::allow(determinism): the hardware count only caps the
        // worker partition (oversubscription guard); by the output-block
        // contract (DESIGN.md §9) the partition never affects the bits.
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Runs `f` with kernel calls on the current thread forced to exactly
/// `threads` workers (clamped to `[1, MAX_THREADS]`), restoring the previous
/// setting afterwards even if `f` panics.
///
/// The override bypasses the flop/intensity dispatch gates and the
/// oversubscription cap: it exists so determinism tests and
/// `kernels_par_*` benches can pin exact 1-vs-N comparisons on any
/// machine.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = OVERRIDE.with(|c| c.replace(Some(threads.clamp(1, MAX_THREADS))));
    let _restore = Restore(prev);
    f()
}

/// The thread count a kernel of this work profile would be given right now
/// on the current thread (override, then flop/intensity gates + config +
/// cap). Pure query — does not enter a region.
pub fn planned_threads(work: Work) -> usize {
    planned(work, IN_FLIGHT.load(Ordering::Relaxed))
}

/// Whether this work profile clears both autotuned dispatch gates: enough
/// flops to amortize the fork/join, and enough arithmetic intensity that
/// extra cores bring extra flop throughput rather than contention on the
/// same memory bus.
pub fn admits_parallel(work: Work) -> bool {
    let t = tune::tuning();
    admits(work, t.par_flop_floor, t.par_intensity_floor)
}

/// Pure, environment-free form of [`admits_parallel`] for unit tests.
fn admits(work: Work, flop_floor: f64, intensity_floor: f64) -> bool {
    work.flops >= flop_floor && work.intensity() >= intensity_floor
}

/// Cap/threshold policy, factored out so it is unit-testable: `in_flight`
/// is the number of *other* parallel regions already running.
fn planned(work: Work, in_flight: usize) -> usize {
    if let Some(forced) = OVERRIDE.with(Cell::get) {
        return forced.max(1);
    }
    if !admits_parallel(work) {
        return 1;
    }
    let cfg = configured_threads();
    let share = (hardware_threads() / (in_flight + 1)).max(1);
    cfg.min(share)
}

/// An active parallel-dispatch decision. Holds the in-flight slot (for the
/// oversubscription cap) while the kernel runs; dropping it releases the
/// slot.
pub struct Region {
    threads: usize,
    counted: bool,
}

impl Region {
    /// Worker count this region was granted (1 = run sequentially).
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Drop for Region {
    fn drop(&mut self) {
        if self.counted {
            IN_FLIGHT.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Opens a parallel region for a kernel with the given work profile. The
/// returned [`Region`] carries the granted thread count and keeps the
/// region counted in the oversubscription tracker until dropped.
pub fn region(work: Work) -> Region {
    let threads = planned(work, IN_FLIGHT.load(Ordering::Relaxed));
    let counted = threads > 1;
    if counted {
        IN_FLIGHT.fetch_add(1, Ordering::Relaxed);
    }
    Region { threads, counted }
}

/// Runs every job, the first on the calling thread and the rest on scoped
/// worker threads, returning after all complete. A panicking worker
/// propagates the panic out of the scope (after all workers have joined).
///
/// With zero or one job no thread is spawned — the single job runs inline,
/// so a 1-thread "pool" is byte-for-byte the sequential code path.
pub fn join_all<F: FnOnce() + Send>(jobs: Vec<F>) {
    let mut jobs = jobs;
    if jobs.len() <= 1 {
        if let Some(job) = jobs.pop() {
            job();
        }
        return;
    }
    let first = jobs.remove(0);
    std::thread::scope(|scope| {
        for job in jobs {
            scope.spawn(job);
        }
        first();
    });
}

/// Partitions `0..n` into at most `parts` contiguous ranges whose interior
/// boundaries are multiples of `align`, with block counts as even as
/// possible. Deterministic in all arguments; empty ranges are dropped.
pub fn split_even(n: usize, parts: usize, align: usize) -> Vec<(usize, usize)> {
    let align = align.max(1);
    let blocks = n.div_ceil(align);
    let parts = parts.clamp(1, blocks.max(1));
    let mut out = Vec::with_capacity(parts);
    let mut begin_block = 0usize;
    for p in 0..parts {
        let end_block = blocks * (p + 1) / parts;
        let lo = (begin_block * align).min(n);
        let hi = (end_block * align).min(n);
        if hi > lo {
            out.push((lo, hi));
        }
        begin_block = end_block;
    }
    out
}

/// Partitions the block-columns of an `n × n` *upper-triangular* update
/// into at most `parts` contiguous, `align`-aligned column ranges of
/// roughly equal triangle area (column `j` of the triangle holds `j + 1`
/// entries, so equal-width ranges would leave the last worker with almost
/// all the work). Boundary `p` sits near `n·√(p/parts)`. Deterministic;
/// empty ranges are dropped.
pub fn split_triangle(n: usize, parts: usize, align: usize) -> Vec<(usize, usize)> {
    let align = align.max(1);
    let blocks = n.div_ceil(align);
    let parts = parts.clamp(1, blocks.max(1));
    let mut out = Vec::with_capacity(parts);
    let mut lo = 0usize;
    for p in 0..parts {
        let hi = if p + 1 == parts {
            n
        } else {
            // Column c with c² ≈ n²·(p+1)/parts splits the area evenly;
            // round the block index to keep boundaries align-multiples.
            let target = isqrt((n as u128) * (n as u128) * ((p + 1) as u128) / (parts as u128));
            let col = usize::try_from(target).unwrap_or(n).min(n);
            (col.div_ceil(align) * align).min(n)
        };
        if hi > lo {
            out.push((lo, hi));
        }
        lo = lo.max(hi);
    }
    out
}

/// Integer square root (floor), Newton's method on `u128`.
fn isqrt(v: u128) -> u128 {
    if v < 2 {
        return v;
    }
    let mut x = v;
    let mut y = (x + 1) >> 1;
    while y < x {
        x = y;
        y = (x + v / x) >> 1;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_even_covers_and_aligns() {
        for &(n, parts, align) in &[
            (512usize, 4usize, 4usize),
            (17, 4, 4),
            (1, 8, 4),
            (0, 3, 4),
            (100, 1, 8),
            (33, 33, 1),
        ] {
            let ranges = split_even(n, parts, align);
            let mut expect = 0;
            for &(lo, hi) in &ranges {
                assert_eq!(lo, expect, "contiguous");
                assert!(hi > lo, "nonempty");
                if hi != n {
                    assert_eq!(hi % align, 0, "aligned interior boundary");
                }
                expect = hi;
            }
            assert_eq!(expect, n, "covers 0..n (n={n} parts={parts})");
            assert!(ranges.len() <= parts.max(1));
        }
    }

    #[test]
    fn split_even_balances_blocks() {
        let ranges = split_even(512, 4, 4);
        assert_eq!(ranges, vec![(0, 128), (128, 256), (256, 384), (384, 512)]);
    }

    #[test]
    fn split_triangle_covers_and_balances_area() {
        for &(n, parts, align) in &[(512usize, 4usize, 4usize), (100, 3, 4), (40, 8, 4)] {
            let ranges = split_triangle(n, parts, align);
            let mut expect = 0;
            for &(lo, hi) in &ranges {
                assert_eq!(lo, expect);
                assert!(hi > lo);
                expect = hi;
            }
            assert_eq!(expect, n);
            // Area balance: no range owns more than ~2x the ideal share of
            // triangle entries (alignment rounding forbids exactness).
            let total = n * (n + 1) / 2;
            let ideal = total / ranges.len();
            for &(lo, hi) in &ranges {
                let area = hi * (hi + 1) / 2 - lo * (lo + 1) / 2;
                assert!(
                    area <= 2 * ideal + (align * n),
                    "n={n} parts={parts}: range ({lo},{hi}) area {area} vs ideal {ideal}"
                );
            }
        }
        // The last range must be narrower than the first for a real split.
        let ranges = split_triangle(512, 4, 4);
        let first = ranges[0].1 - ranges[0].0;
        let last = ranges[ranges.len() - 1].1 - ranges[ranges.len() - 1].0;
        assert!(last < first, "triangle split must narrow: {ranges:?}");
    }

    #[test]
    fn isqrt_is_floor_sqrt() {
        for v in 0..2000u128 {
            let r = isqrt(v);
            assert!(r * r <= v && (r + 1) * (r + 1) > v, "v={v} r={r}");
        }
        assert_eq!(isqrt(u128::from(u64::MAX)), (1u128 << 32) - 1);
    }

    #[test]
    fn planned_respects_threshold_and_cap() {
        // Below the flop floor: always sequential (no override in place).
        let tiny = Work {
            flops: PAR_FLOP_THRESHOLD - 1.0,
            bytes: 1.0,
        };
        assert_eq!(planned(tiny, 0), 1);
        // Above it the grant is bounded by both config and the machine
        // share; with in-flight regions the share shrinks.
        let big = Work::gemm(512, 512, 512);
        let grant0 = planned(big, 0);
        assert!(grant0 >= 1 && grant0 <= configured_threads().max(1));
        let grant8 = planned(big, 8);
        assert!(grant8 <= grant0.max(1));
        assert!(grant8 >= 1);
    }

    #[test]
    fn intensity_gate_admits_compute_bound_shapes_only() {
        let ff = tune::DEFAULT_PAR_FLOP_FLOOR;
        let fi = tune::DEFAULT_PAR_INTENSITY_FLOOR;
        // The two committed bench shapes must fan out: a square 512³ GEMM
        // (intensity ≈ 32 flops/byte) and the deep 60000×64 Gram SYRK
        // (intensity ≈ 8).
        assert!(admits(Work::gemm(512, 512, 512), ff, fi));
        assert!(admits(Work::syrk(64, 60000), ff, fi));
        // Tall-skinny TSQR leaves and narrow QR trailing updates carry
        // plenty of flops but stream their operands once (intensity < 4):
        // fanning them out loses, so the gate must keep them sequential.
        assert!(!admits(Work::gemm(40000, 20, 20), ff, fi));
        assert!(!admits(Work::gemm(8000, 96, 32), ff, fi));
        // Small cache-resident multiplies stop at the flop floor.
        assert!(!admits(Work::gemm(64, 64, 64), ff, fi));
    }

    #[test]
    fn intensity_gate_rejects_tall_skinny_shapes() {
        // The unpacked tall-skinny engine is sequential; that loses no
        // threaded path only while no shape of its class clears the
        // default floors.
        use crate::gemm::{kernel_choice, Kernel};
        let ff = tune::DEFAULT_PAR_FLOP_FLOOR;
        let fi = tune::DEFAULT_PAR_INTENSITY_FLOOR;
        let small = [1usize, 2, 7, 8, 13, 20, 31, 32];
        let tall = [33usize, 100, 1000, 20_000, 1_000_000];
        let mut sampled = 0;
        for &t in &tall {
            for &s1 in &small {
                for &s2 in &small {
                    for (m, n, k) in [(t, s1, s2), (s1, t, s2), (s1, s2, t)] {
                        if kernel_choice(m, n, k) != Kernel::TallSkinny {
                            continue;
                        }
                        sampled += 1;
                        assert!(!admits(Work::gemm(m, n, k), ff, fi), "({m},{n},{k})");
                    }
                    if kernel_choice(s1, s1, t) == Kernel::TallSkinny {
                        assert!(!admits(Work::syrk(s1, t), ff, fi), "syrk {s1}x{t}");
                    }
                }
            }
        }
        assert!(sampled > 100, "only {sampled} class shapes sampled");
    }

    #[test]
    fn work_profiles_match_hand_counts() {
        let g = Work::gemm(10, 20, 30);
        assert_eq!(g.flops, 2.0 * 10.0 * 20.0 * 30.0);
        assert_eq!(g.bytes, 8.0 * (300.0 + 600.0 + 400.0));
        let s = Work::syrk(10, 30);
        assert_eq!(s.flops, 100.0 * 30.0);
        assert_eq!(s.bytes, 8.0 * (300.0 + 100.0));
        assert!(Work {
            flops: 5.0,
            bytes: 0.0
        }
        .intensity()
        .is_infinite());
    }

    #[test]
    fn override_forces_exact_count_and_restores() {
        // Far below the flop floor.
        let tiny = Work {
            flops: 8.0,
            bytes: 8.0,
        };
        assert_eq!(planned_threads(tiny), 1);
        let inner = with_threads(3, || {
            let nested = with_threads(7, || planned_threads(tiny));
            assert_eq!(nested, 7, "nested override wins while active");
            planned_threads(tiny)
        });
        assert_eq!(inner, 3, "outer override restored after nested scope");
        assert_eq!(planned_threads(tiny), 1, "override removed on exit");
    }

    #[test]
    fn override_clamps_degenerate_counts() {
        let huge = Work::gemm(4096, 4096, 4096);
        let tiny = Work {
            flops: 1.0,
            bytes: 1.0,
        };
        assert_eq!(with_threads(0, || planned_threads(huge)), 1);
        assert_eq!(
            with_threads(MAX_THREADS * 10, || planned_threads(tiny)),
            MAX_THREADS
        );
    }

    #[test]
    fn region_tracks_in_flight() {
        with_threads(4, || {
            let before = IN_FLIGHT.load(Ordering::Relaxed);
            {
                let r = region(Work {
                    flops: 1.0,
                    bytes: 1.0,
                });
                assert_eq!(r.threads(), 4);
                assert_eq!(IN_FLIGHT.load(Ordering::Relaxed), before + 1);
            }
            assert_eq!(IN_FLIGHT.load(Ordering::Relaxed), before);
        });
    }

    #[test]
    fn join_all_runs_every_job_once() {
        use std::sync::atomic::AtomicU64;
        let hits = AtomicU64::new(0);
        let jobs: Vec<_> = (0..5)
            .map(|i: u64| {
                let hits = &hits;
                move || {
                    hits.fetch_add(1 << (8 * i), Ordering::Relaxed);
                }
            })
            .collect();
        join_all(jobs);
        assert_eq!(hits.load(Ordering::Relaxed), 0x01_01_01_01_01);
        // Degenerate arities.
        join_all(Vec::<fn()>::new());
        let once = AtomicU64::new(0);
        join_all(vec![|| {
            once.fetch_add(1, Ordering::Relaxed);
        }]);
        assert_eq!(once.load(Ordering::Relaxed), 1);
    }
}
