//! `cargo xtask bench-check`: the kernel benchmark regression gate.
//!
//! Runs the `kernels_*` pairs from `tt-bench/benches/linalg.rs` (blocked vs
//! reference GEMM/SYRK/QR at the fig2/fig3 calibration sizes) through the
//! criterion shim's `CRITERION_FILTER`/`CRITERION_JSON` hooks, then:
//!
//! 1. **Speedup gate** — the blocked GEMM must be ≥ 1.5× the reference
//!    kernel at the 256³ γ-calibration size (≥ 3× under `--simd`, where the
//!    explicit microkernels raise the bar);
//! 2. **Regression gate** — against the recorded baseline in
//!    `results/BENCH_kernels.json`, any benchmark whose *mean* time got
//!    more than 15% slower fails the check;
//! 3. **Recording** — `--record` (or a missing baseline) rewrites the
//!    baseline file from the current run. Baselines are per-machine: CI runs
//!    with `--record` so a foreign machine's numbers never gate a build.
//!
//! `--simd` reruns the same suite with the nightly-only `simd` cargo feature
//! (RUSTC_BOOTSTRAP=1, plus FMA codegen when the host supports it) against
//! `_simd`-suffixed baseline files, so the scalar and SIMD configurations
//! gate independently. The 3× floor means "the explicit microkernel must be
//! 3× the scalar oracle *as it normally runs*" — but the FMA RUSTFLAGS of a
//! `--simd` build also auto-vectorize the in-run reference kernel, so the
//! floor's denominator is taken from the scalar baseline's reference entry
//! (`results/BENCH_kernels.json`, recorded on the same machine — CI records
//! it in the step before) and falls back to the in-run reference, with a
//! notice, only when no scalar baseline exists.
//!
//! Gate statistics are deliberately split: the **floor** checks (speedup
//! ratios) compare best-observed (`min_ns`) times, which estimate the
//! machine's capability with scheduler noise stripped; the **regression**
//! check compares `mean_ns`, which is what users experience — a change that
//! keeps the best case but fattens the tail should still fail.
//!
//! Timing gates on a shared box are noisy: a single criterion run's best
//! time can wander well past 15% under scheduler interference. To keep the
//! gate trustworthy the check re-runs the whole bench suite (up to
//! [`MAX_ATTEMPTS`] times) when a timing gate fails, merges the
//! per-benchmark best times across attempts, and only fails if the merged
//! best still violates a gate — a genuine regression fails every attempt,
//! while a noise spike passes on retry.

use std::path::Path;
use std::process::{Command, ExitCode};

/// One benchmark result, as emitted by the criterion shim and as stored in
/// the baseline file.
#[derive(Debug, Clone)]
struct Entry {
    id: String,
    mean_ns: u128,
    min_ns: u128,
    samples: u64,
}

/// Mean-time regression tolerance vs the baseline (1.15 = 15% slower).
const REGRESSION_FACTOR: f64 = 1.15;
/// Required blocked-over-reference GEMM speedup at the calibration size.
const GEMM_SPEEDUP_FLOOR: f64 = 1.5;
/// Required blocked-over-reference GEMM speedup under `--simd`: the explicit
/// `std::simd` microkernels must beat the naive loop by a wide margin.
const SIMD_GEMM_SPEEDUP_FLOOR: f64 = 3.0;
/// Required 4-thread-over-1-thread GEMM speedup at 512³, enforced only on
/// machines with at least [`PAR_MIN_HW_THREADS`] hardware threads (forcing
/// 4 pool threads onto fewer cores measures oversubscription, not the
/// parallel layer).
const PAR_GEMM_SPEEDUP_FLOOR: f64 = 1.8;
/// Required 4-thread-over-1-thread SYRK speedup at 60000×64 (same hardware
/// gate): anything below 1.0 means threads made the kernel *slower* — the
/// shared-panel re-packing bug this floor exists to keep fixed.
const PAR_SYRK_SPEEDUP_FLOOR: f64 = 1.0;
/// Hardware-thread count below which the parallel speedup floor is skipped.
const PAR_MIN_HW_THREADS: usize = 4;
/// Full bench-suite re-runs allowed before a timing-gate failure is final.
const MAX_ATTEMPTS: usize = 3;

/// The blocked/reference pairs the gate reasons about.
const PAIRS: &[(&str, &str, &str)] = &[
    (
        "gemm 256^3",
        "kernels_gemm_blocked/256",
        "kernels_gemm_reference/256",
    ),
    (
        "syrk 40000x20",
        "kernels_syrk_blocked/40000x20",
        "kernels_syrk_reference/40000x20",
    ),
    (
        "qr 4000x32",
        "kernels_qr_blocked/4000x32",
        "kernels_qr_unblocked/4000x32",
    ),
];

/// The 4-thread/1-thread pairs of the shared-memory parallel layer
/// (`tt_linalg::par`). Only the GEMM pair carries a speedup floor; the rest
/// ride the regression gate via `results/BENCH_kernels_par.json`.
const PAR_PAIRS: &[(&str, &str, &str)] = &[
    (
        "par gemm 512^3",
        "kernels_par_gemm_4t/512",
        "kernels_par_gemm_1t/512",
    ),
    (
        "par syrk 60000x64",
        "kernels_par_syrk_4t/60000x64",
        "kernels_par_syrk_1t/60000x64",
    ),
    (
        "par qr 8000x128",
        "kernels_par_qr_4t/8000x128",
        "kernels_par_qr_1t/8000x128",
    ),
];

/// Id prefix routing an entry to the parallel-layer baseline file.
const PAR_PREFIX: &str = "kernels_par_";

/// Whether this machine has enough hardware threads to make the 4-thread
/// speedup floor meaningful.
fn par_floor_enforceable() -> bool {
    std::thread::available_parallelism()
        .map(|n| n.get() >= PAR_MIN_HW_THREADS)
        .unwrap_or(false)
}

/// Entry point for the `bench-check` subcommand.
pub fn bench_check(repo: &Path, args: &[String]) -> ExitCode {
    let record = args.iter().any(|a| a == "--record");
    let simd = args.iter().any(|a| a == "--simd");
    let suffix = if simd { "_simd" } else { "" };
    let json_path = repo.join("target/bench-kernels.jsonl");
    let baseline_path = repo.join(format!("results/BENCH_kernels{suffix}.json"));
    let baseline_par_path = repo.join(format!("results/BENCH_kernels_par{suffix}.json"));
    let baseline = std::fs::read_to_string(&baseline_path)
        .ok()
        .map(|text| parse_entries(&text));
    let baseline_par = std::fs::read_to_string(&baseline_par_path)
        .ok()
        .map(|text| parse_entries(&text));
    // Under --simd the GEMM floor compares against the *scalar-build*
    // reference time (see the module docs): pull it from the un-suffixed
    // scalar baseline recorded on this machine.
    let scalar_ref_ns = if simd {
        let scalar = std::fs::read_to_string(repo.join("results/BENCH_kernels.json"))
            .ok()
            .map(|text| parse_entries(&text));
        let ns = scalar
            .as_deref()
            .and_then(|es| find(es, "kernels_gemm_reference/256"))
            .map(|e| e.min_ns);
        if ns.is_none() {
            eprintln!(
                "bench-check: no scalar baseline reference for the simd floor; \
                 comparing against the in-run (FMA-compiled) reference instead — \
                 run `cargo xtask bench-check --record` first for the intended gate"
            );
        }
        ns
    } else {
        None
    };
    let enforce_par = par_floor_enforceable();
    if !enforce_par {
        eprintln!(
            "bench-check: fewer than {PAR_MIN_HW_THREADS} hardware threads; the {PAR_GEMM_SPEEDUP_FLOOR}x parallel GEMM floor is skipped on this machine"
        );
    }

    // Best-of-up-to-MAX_ATTEMPTS: retry the whole suite while a *timing*
    // gate fails, keeping each benchmark's best time across attempts. A
    // structural failure (missing results) never retries.
    let mut merged: Vec<Entry> = Vec::new();
    for attempt in 1..=MAX_ATTEMPTS {
        eprintln!(
            "bench-check: bench attempt {attempt}/{MAX_ATTEMPTS} (criterion shim, kernels_* filter{})...",
            if simd { ", simd feature" } else { "" }
        );
        let run = match run_benches(repo, &json_path, simd) {
            Ok(run) => run,
            Err(msg) => {
                eprintln!("bench-check FAILURE: {msg}");
                return ExitCode::FAILURE;
            }
        };
        merge_best(&mut merged, run);
        let failures = evaluate(
            &merged,
            baseline.as_deref(),
            baseline_par.as_deref(),
            record,
            enforce_par,
            simd,
            scalar_ref_ns,
            false,
        );
        if failures.is_empty() || !retryable(&failures) {
            break;
        }
        if attempt < MAX_ATTEMPTS {
            eprintln!(
                "bench-check: timing gate missed on attempt {attempt}; retrying to discount scheduler noise"
            );
        }
    }

    let mut failures = evaluate(
        &merged,
        baseline.as_deref(),
        baseline_par.as_deref(),
        record,
        enforce_par,
        simd,
        scalar_ref_ns,
        true,
    );
    if baseline.is_none() && !record {
        eprintln!(
            "bench-check: no baseline at {}; recording one from this run",
            baseline_path.display()
        );
    }
    if baseline_par.is_none() && !record {
        eprintln!(
            "bench-check: no parallel baseline at {}; recording one from this run",
            baseline_par_path.display()
        );
    }

    // Record the baselines when asked to (or when either is missing). The
    // merged results are split by id prefix: `kernels_par_*` entries go to
    // the parallel-layer file, the rest to the serial-kernel file.
    let (par_entries, serial_entries): (Vec<Entry>, Vec<Entry>) = merged
        .iter()
        .cloned()
        .partition(|e| e.id.starts_with(PAR_PREFIX));
    if failures.is_empty() && (record || baseline.is_none() || baseline_par.is_none()) {
        if record {
            eprintln!("bench-check: --record: rewriting baselines");
        }
        for (path, entries) in [
            (&baseline_path, &serial_entries),
            (&baseline_par_path, &par_entries),
        ] {
            if let Err(e) = write_baseline(path, entries) {
                eprintln!("bench-check FAILURE: could not write baseline: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("bench-check: baseline written to {}", path.display());
        }
    }

    // 4. Rounding-ablation gate (scalar pass only: the accuracy and rank
    //    gates are build-independent, and one timing baseline per machine is
    //    enough — running it twice would only double CI time).
    if !simd {
        failures.extend(rounding_check(repo, record));
    }

    // 5. Comm/compute overlap gate (scalar pass only, same reasoning): the
    //    pipelined distributed sweep must beat the serial-wait schedule on
    //    machines with enough hardware threads to actually overlap, and
    //    both schedules ride the regression gate everywhere.
    if !simd {
        failures.extend(overlap_check(repo, record, enforce_par));
    }

    if failures.is_empty() {
        eprintln!("bench-check: all gates passed");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("bench-check FAILURE: {f}");
        }
        ExitCode::FAILURE
    }
}

/// RUSTFLAGS for a `--simd` bench run: enable FMA codegen when the host
/// actually has it (the microkernel's `mul_add` only fuses under
/// `target_feature = "fma"`), otherwise leave codegen alone.
fn simd_rustflags() -> Option<String> {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("fma") {
            return Some("-C target-feature=+avx2,+fma".to_string());
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        // NEON (including fused multiply-add) is baseline on aarch64.
        return None;
    }
    #[allow(unreachable_code)]
    None
}

/// Runs one filtered pass of the `kernels_*` benches and parses the shim's
/// JSONL output. With `simd` the benches are built with the `simd` cargo
/// feature; `RUSTC_BOOTSTRAP=1` lets the stable toolchain accept the
/// `portable_simd` nightly gate so the check works on either channel.
fn run_benches(repo: &Path, json_path: &Path, simd: bool) -> Result<Vec<Entry>, String> {
    let _ = std::fs::remove_file(json_path);
    let mut cmd = Command::new("cargo");
    cmd.args(["bench", "-p", "tt-bench", "--bench", "linalg"])
        .current_dir(repo)
        .env("CRITERION_FILTER", "kernels_")
        .env("CRITERION_JSON", json_path);
    if simd {
        cmd.args(["--features", "simd"]);
        cmd.env("RUSTC_BOOTSTRAP", "1");
        if let Some(flags) = simd_rustflags() {
            cmd.env("RUSTFLAGS", flags);
        }
    }
    let status = cmd.status();
    match status {
        Ok(s) if s.success() => {}
        Ok(s) => return Err(format!("cargo bench exited with {s}")),
        Err(e) => return Err(format!("cargo bench could not run: {e}")),
    }
    let text = std::fs::read_to_string(json_path)
        .map_err(|e| format!("no results at {}: {e}", json_path.display()))?;
    let run = parse_entries(&text);
    if run.is_empty() {
        return Err("bench run produced zero kernels_* results".to_string());
    }
    Ok(run)
}

/// Folds a fresh run into the merged view, keeping each benchmark's best
/// (minimum) mean and min times and accumulating the sample count.
fn merge_best(merged: &mut Vec<Entry>, run: Vec<Entry>) {
    for e in run {
        if let Some(prev) = merged.iter_mut().find(|p| p.id == e.id) {
            prev.min_ns = prev.min_ns.min(e.min_ns);
            prev.mean_ns = prev.mean_ns.min(e.mean_ns);
            prev.samples += e.samples;
        } else {
            merged.push(e);
        }
    }
}

/// A failure set is worth a re-measure only if every entry is a timing gate
/// (speedup floor or baseline regression) — structural problems like missing
/// bench IDs reproduce identically.
fn retryable(failures: &[String]) -> bool {
    failures
        .iter()
        .all(|f| !f.contains("missing bench results"))
}

/// Applies both gates to the (merged) results, returning the failure list.
/// `verbose` controls the per-benchmark report lines; the evaluation itself
/// is pure, so it can run quietly inside the retry loop and verbosely once
/// at the end.
#[allow(clippy::too_many_arguments)]
fn evaluate(
    current: &[Entry],
    baseline: Option<&[Entry]>,
    baseline_par: Option<&[Entry]>,
    record: bool,
    enforce_par: bool,
    simd: bool,
    scalar_ref_ns: Option<u128>,
    verbose: bool,
) -> Vec<String> {
    let mut failures: Vec<String> = Vec::new();
    let gemm_floor = if simd {
        SIMD_GEMM_SPEEDUP_FLOOR
    } else {
        GEMM_SPEEDUP_FLOOR
    };

    // 1. Blocked-vs-reference speedups (gate on the GEMM pair). Floors
    //    compare best-observed (min) times: capability, not noise. Under
    //    --simd the GEMM denominator is the scalar-build reference from the
    //    scalar baseline when available (the in-run reference is itself
    //    FMA-auto-vectorized by the simd RUSTFLAGS — see the module docs).
    for &(label, blocked_id, reference_id) in PAIRS {
        match (find(current, blocked_id), find(current, reference_id)) {
            (Some(b), Some(r)) => {
                let is_gemm = label.starts_with("gemm");
                let (ref_ns, ref_tag) = match scalar_ref_ns {
                    Some(ns) if simd && is_gemm => (ns, " (scalar-build)"),
                    _ => (r.min_ns, ""),
                };
                let speedup = ref_ns as f64 / b.min_ns.max(1) as f64;
                if verbose {
                    eprintln!(
                        "bench-check: {label:<14} blocked {:>12} ns  reference {:>12} ns{ref_tag}  speedup {speedup:.2}x",
                        b.min_ns, ref_ns
                    );
                }
                if is_gemm && speedup < gemm_floor {
                    failures.push(format!(
                        "blocked GEMM speedup {speedup:.2}x is below the {gemm_floor}x floor at the calibration size"
                    ));
                }
            }
            _ => failures.push(format!(
                "missing bench results for {label} ({blocked_id} / {reference_id})"
            )),
        }
    }

    // 2. Parallel-layer 4-thread-over-1-thread speedups. The floors are
    //    hardware-gated: on a box with < 4 hardware threads the forced
    //    4-thread pool measures oversubscription, so only report.
    for &(label, par_id, serial_id) in PAR_PAIRS {
        match (find(current, par_id), find(current, serial_id)) {
            (Some(p), Some(s)) => {
                let speedup = s.min_ns as f64 / p.min_ns.max(1) as f64;
                if verbose {
                    eprintln!(
                        "bench-check: {label:<18} 4t {:>12} ns  1t {:>12} ns  speedup {speedup:.2}x{}",
                        p.min_ns,
                        s.min_ns,
                        if enforce_par { "" } else { "  (floor skipped)" }
                    );
                }
                if enforce_par && label.starts_with("par gemm") && speedup < PAR_GEMM_SPEEDUP_FLOOR
                {
                    failures.push(format!(
                        "parallel GEMM speedup {speedup:.2}x at 4 threads is below the {PAR_GEMM_SPEEDUP_FLOOR}x floor at 512^3"
                    ));
                }
                if enforce_par && label.starts_with("par syrk") && speedup < PAR_SYRK_SPEEDUP_FLOOR
                {
                    failures.push(format!(
                        "parallel SYRK at 4 threads is {speedup:.2}x the 1-thread time (below {PAR_SYRK_SPEEDUP_FLOOR}x): threads made it slower at 60000x64"
                    ));
                }
            }
            _ => failures.push(format!(
                "missing bench results for {label} ({par_id} / {serial_id})"
            )),
        }
    }

    // 3. Regression gate vs the recorded baselines (skipped when
    //    recording). Each entry checks against the baseline file it is
    //    recorded in: `kernels_par_*` ids against the parallel baseline.
    //    This gate compares *mean* times — a single lucky sample must not
    //    hide a distribution that got slower, and a single unlucky sample
    //    is already discounted by the best-of-attempts retry loop.
    if !record {
        for cur in current {
            let base_for_id = if cur.id.starts_with(PAR_PREFIX) {
                baseline_par
            } else {
                baseline
            };
            let Some(prev) = base_for_id.and_then(|base| find(base, &cur.id)) else {
                if verbose {
                    eprintln!("bench-check: {} has no baseline entry (new bench)", cur.id);
                }
                continue;
            };
            let limit = prev.mean_ns as f64 * REGRESSION_FACTOR;
            if cur.mean_ns as f64 > limit {
                failures.push(format!(
                    "{}: mean {} ns regressed >{:.0}% over baseline {} ns",
                    cur.id,
                    cur.mean_ns,
                    (REGRESSION_FACTOR - 1.0) * 100.0,
                    prev.mean_ns
                ));
            } else if verbose {
                eprintln!(
                    "bench-check: {:<40} mean {:>12} ns  baseline {:>12} ns  ok",
                    cur.id, cur.mean_ns, prev.mean_ns
                );
            }
        }
    }

    failures
}

/// Parses every line carrying an `"id"` key — both the shim's JSONL stream
/// and the baseline file (one entry object per line) use the same shape.
fn parse_entries(text: &str) -> Vec<Entry> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(id) = extract_str(line, "id") else {
            continue;
        };
        let (Some(mean_ns), Some(min_ns)) =
            (extract_u128(line, "mean_ns"), extract_u128(line, "min_ns"))
        else {
            continue;
        };
        let samples = extract_u128(line, "samples").unwrap_or(0) as u64;
        out.push(Entry {
            id,
            mean_ns,
            min_ns,
            samples,
        });
    }
    out
}

fn find<'a>(entries: &'a [Entry], id: &str) -> Option<&'a Entry> {
    entries.iter().find(|e| e.id == id)
}

/// Extracts a `"key":"value"` string field from a single JSON line. Good
/// enough for the shim's own output (ids never contain escaped quotes).
fn extract_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

/// Extracts a `"key":number` field from a single JSON line.
fn extract_u128(line: &str, key: &str) -> Option<u128> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let digits: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

// ---------------------------------------------------------------------------
// Rounding-ablation gate: accuracy × rank × time across the rounding family.
// ---------------------------------------------------------------------------

/// One row of the `rounding_ablation` bench (`tt-bench/src/bin/`): timing
/// plus the achieved relative error, the variant's accuracy bound, and the
/// maximum output rank.
#[derive(Debug, Clone)]
struct RoundingEntry {
    id: String,
    mean_ns: u128,
    min_ns: u128,
    samples: u64,
    rel_err: f64,
    bound: f64,
    max_rank: u64,
}

/// Runs the rounding-family ablation gate: every variant must achieve its
/// accuracy bound (always — accuracy is machine-independent), and against
/// the recorded baseline no variant's rank decision may drift and no mean
/// time may regress more than [`REGRESSION_FACTOR`]. Timing misses retry
/// like the kernel gates; accuracy and rank failures are deterministic
/// (fixed seeds) and fail immediately.
fn rounding_check(repo: &Path, record: bool) -> Vec<String> {
    let json_path = repo.join("target/bench-rounding.jsonl");
    let baseline_path = repo.join("results/BENCH_rounding_ablation.json");
    let baseline = std::fs::read_to_string(&baseline_path)
        .ok()
        .map(|text| parse_rounding_entries(&text));
    if baseline.is_none() && !record {
        eprintln!(
            "bench-check: no rounding baseline at {}; recording one from this run",
            baseline_path.display()
        );
    }

    let mut merged: Vec<RoundingEntry> = Vec::new();
    for attempt in 1..=MAX_ATTEMPTS {
        eprintln!("bench-check: rounding ablation attempt {attempt}/{MAX_ATTEMPTS}...");
        let run = match run_rounding_bench(repo, &json_path) {
            Ok(run) => run,
            Err(msg) => return vec![format!("rounding ablation: {msg}")],
        };
        merge_rounding_best(&mut merged, run);
        let failures = evaluate_rounding(&merged, baseline.as_deref(), record, false);
        if failures.is_empty() || !rounding_retryable(&failures) {
            break;
        }
        if attempt < MAX_ATTEMPTS {
            eprintln!(
                "bench-check: rounding timing gate missed on attempt {attempt}; retrying to discount scheduler noise"
            );
        }
    }

    let failures = evaluate_rounding(&merged, baseline.as_deref(), record, true);
    if failures.is_empty() && (record || baseline.is_none()) {
        if let Err(e) = write_rounding_baseline(&baseline_path, &merged) {
            return vec![format!("could not write rounding baseline: {e}")];
        }
        eprintln!(
            "bench-check: rounding baseline written to {}",
            baseline_path.display()
        );
    }
    failures
}

/// Runs the ablation binary once and parses its JSONL output.
fn run_rounding_bench(repo: &Path, json_path: &Path) -> Result<Vec<RoundingEntry>, String> {
    let _ = std::fs::remove_file(json_path);
    let status = Command::new("cargo")
        .args([
            "run",
            "--release",
            "-p",
            "tt-bench",
            "--bin",
            "rounding_ablation",
            "--",
            "--json",
        ])
        .arg(json_path)
        .current_dir(repo)
        .status();
    match status {
        Ok(s) if s.success() => {}
        Ok(s) => return Err(format!("rounding_ablation exited with {s}")),
        Err(e) => return Err(format!("rounding_ablation could not run: {e}")),
    }
    let text = std::fs::read_to_string(json_path)
        .map_err(|e| format!("no results at {}: {e}", json_path.display()))?;
    let run = parse_rounding_entries(&text);
    if run.is_empty() {
        return Err("ablation run produced zero rounding_* results".to_string());
    }
    Ok(run)
}

/// Folds a fresh ablation run into the merged view: best times across
/// attempts; the deterministic fields (error, bound, rank) are identical in
/// every run, so the first sighting stands.
fn merge_rounding_best(merged: &mut Vec<RoundingEntry>, run: Vec<RoundingEntry>) {
    for e in run {
        if let Some(prev) = merged.iter_mut().find(|p| p.id == e.id) {
            prev.min_ns = prev.min_ns.min(e.min_ns);
            prev.mean_ns = prev.mean_ns.min(e.mean_ns);
            prev.samples += e.samples;
        } else {
            merged.push(e);
        }
    }
}

/// Only timing regressions are worth a re-measure; accuracy-bound and
/// rank-drift failures come from seeded, deterministic runs.
fn rounding_retryable(failures: &[String]) -> bool {
    failures.iter().all(|f| f.contains("regressed"))
}

/// Applies the three rounding gates, and outside `record` requires a result
/// for every baseline row, returning the failure list.
fn evaluate_rounding(
    current: &[RoundingEntry],
    baseline: Option<&[RoundingEntry]>,
    record: bool,
    verbose: bool,
) -> Vec<String> {
    let mut failures = Vec::new();
    for cur in current {
        // Accuracy gate: unconditional. `!(a <= b)` also catches NaN.
        #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN must fail the gate
        if !(cur.rel_err <= cur.bound) {
            failures.push(format!(
                "{}: rel error {:.3e} exceeds its accuracy bound {:.3e}",
                cur.id, cur.rel_err, cur.bound
            ));
        }
        if verbose {
            eprintln!(
                "bench-check: {:<26} rel_err {:>9.2e} (bound {:>8.1e})  max rank {:>3}  mean {:>12} ns",
                cur.id, cur.rel_err, cur.bound, cur.max_rank, cur.mean_ns
            );
        }
        if record {
            continue;
        }
        let Some(prev) = baseline.and_then(|base| base.iter().find(|e| e.id == cur.id)) else {
            if verbose {
                eprintln!(
                    "bench-check: {} has no rounding baseline entry (new variant)",
                    cur.id
                );
            }
            continue;
        };
        // Rank gate: the truncation decision is seeded and deterministic;
        // any drift means the algorithm changed behavior, not the machine.
        if cur.max_rank != prev.max_rank {
            failures.push(format!(
                "{}: rank decision changed: max rank {} vs baseline {}",
                cur.id, cur.max_rank, prev.max_rank
            ));
        }
        let limit = prev.mean_ns as f64 * REGRESSION_FACTOR;
        if cur.mean_ns as f64 > limit {
            failures.push(format!(
                "{}: mean {} ns regressed >{:.0}% over baseline {} ns",
                cur.id,
                cur.mean_ns,
                (REGRESSION_FACTOR - 1.0) * 100.0,
                prev.mean_ns
            ));
        }
    }
    // A baseline row no run produced means its variant was deleted or
    // renamed: that changes what the gate covers, so it never passes
    // silently. Re-recording the baseline is how a deletion is accepted.
    if !record {
        for prev in baseline.unwrap_or_default() {
            if !current.iter().any(|cur| cur.id == prev.id) {
                failures.push(format!("missing bench results for {}", prev.id));
            }
        }
    }
    failures
}

/// Parses rounding-ablation JSONL (and the baseline file, same shape).
fn parse_rounding_entries(text: &str) -> Vec<RoundingEntry> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(id) = extract_str(line, "id") else {
            continue;
        };
        let (Some(mean_ns), Some(min_ns), Some(rel_err), Some(bound)) = (
            extract_u128(line, "mean_ns"),
            extract_u128(line, "min_ns"),
            extract_f64(line, "rel_err"),
            extract_f64(line, "bound"),
        ) else {
            continue;
        };
        out.push(RoundingEntry {
            id,
            mean_ns,
            min_ns,
            samples: extract_u128(line, "samples").unwrap_or(0) as u64,
            rel_err,
            bound,
            max_rank: extract_u128(line, "max_rank").unwrap_or(0) as u64,
        });
    }
    out
}

/// Extracts a `"key":number` float field (scientific notation included)
/// from a single JSON line.
fn extract_f64(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let token: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
        .collect();
    token.parse().ok()
}

/// Writes the rounding baseline in the same one-entry-per-line array shape
/// as the kernel baselines.
fn write_rounding_baseline(path: &Path, entries: &[RoundingEntry]) -> Result<(), std::io::Error> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut text = String::from("[\n");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        text.push_str(&format!(
            "{{\"id\":\"{}\",\"mean_ns\":{},\"min_ns\":{},\"samples\":{},\"rel_err\":{:e},\"bound\":{:e},\"max_rank\":{}}}{comma}\n",
            e.id, e.mean_ns, e.min_ns, e.samples, e.rel_err, e.bound, e.max_rank
        ));
    }
    text.push_str("]\n");
    std::fs::write(path, text)
}

// ---------------------------------------------------------------------------
// Comm/compute overlap gate: pipelined vs serial-wait distributed rounding.
// ---------------------------------------------------------------------------

/// Required pipelined-over-serial speedup of the distributed Gram sweep,
/// enforced only on machines with at least [`PAR_MIN_HW_THREADS`] hardware
/// threads: on fewer cores the thread "ranks" share a core and there is no
/// idle silicon to hide the communication behind — the pipelined schedule
/// legitimately reads ~1.0x (or below, paying the bookkeeping) there.
const OVERLAP_SPEEDUP_FLOOR: f64 = 1.15;

/// Bench ids of the overlap pair, as emitted by `dist_overlap` at P = 4.
const OVERLAP_PIPELINED_ID: &str = "dist_overlap_pipelined/p4";
const OVERLAP_SERIAL_ID: &str = "dist_overlap_serial/p4";

/// Runs the comm/compute overlap gate: the pipelined schedule must clear
/// [`OVERLAP_SPEEDUP_FLOOR`] over serial waits (hardware-gated like the
/// parallel kernel floors), and both schedules check the usual mean-time
/// regression against `results/BENCH_dist_overlap.json`. Timing misses
/// retry like every other gate; the bin itself asserts the two schedules'
/// rank decisions agree, so a divergence fails structurally (non-retryable
/// process error), never silently.
fn overlap_check(repo: &Path, record: bool, enforce_floor: bool) -> Vec<String> {
    let json_path = repo.join("target/bench-overlap.jsonl");
    let baseline_path = repo.join("results/BENCH_dist_overlap.json");
    let baseline = std::fs::read_to_string(&baseline_path)
        .ok()
        .map(|text| parse_entries(&text));
    if baseline.is_none() && !record {
        eprintln!(
            "bench-check: no overlap baseline at {}; recording one from this run",
            baseline_path.display()
        );
    }
    if !enforce_floor {
        eprintln!(
            "bench-check: fewer than {PAR_MIN_HW_THREADS} hardware threads; the {OVERLAP_SPEEDUP_FLOOR}x overlap floor is skipped on this machine"
        );
    }

    let mut merged: Vec<Entry> = Vec::new();
    for attempt in 1..=MAX_ATTEMPTS {
        eprintln!("bench-check: dist overlap attempt {attempt}/{MAX_ATTEMPTS}...");
        let run = match run_overlap_bench(repo, &json_path) {
            Ok(run) => run,
            Err(msg) => return vec![format!("dist overlap: {msg}")],
        };
        merge_best(&mut merged, run);
        let failures = evaluate_overlap(&merged, baseline.as_deref(), record, enforce_floor, false);
        if failures.is_empty() || !retryable(&failures) {
            break;
        }
        if attempt < MAX_ATTEMPTS {
            eprintln!(
                "bench-check: overlap timing gate missed on attempt {attempt}; retrying to discount scheduler noise"
            );
        }
    }

    let failures = evaluate_overlap(&merged, baseline.as_deref(), record, enforce_floor, true);
    if failures.is_empty() && (record || baseline.is_none()) {
        if let Err(e) = write_baseline(&baseline_path, &merged) {
            return vec![format!("could not write overlap baseline: {e}")];
        }
        eprintln!(
            "bench-check: overlap baseline written to {}",
            baseline_path.display()
        );
    }
    failures
}

/// Runs the `dist_overlap` binary once and parses its JSONL output.
fn run_overlap_bench(repo: &Path, json_path: &Path) -> Result<Vec<Entry>, String> {
    let _ = std::fs::remove_file(json_path);
    let status = Command::new("cargo")
        .args([
            "run",
            "--release",
            "-p",
            "tt-bench",
            "--bin",
            "dist_overlap",
            "--",
            "--json",
        ])
        .arg(json_path)
        .current_dir(repo)
        .status();
    match status {
        Ok(s) if s.success() => {}
        Ok(s) => return Err(format!("dist_overlap exited with {s}")),
        Err(e) => return Err(format!("dist_overlap could not run: {e}")),
    }
    let text = std::fs::read_to_string(json_path)
        .map_err(|e| format!("no results at {}: {e}", json_path.display()))?;
    let run = parse_entries(&text);
    if run.is_empty() {
        return Err("overlap run produced zero dist_overlap_* results".to_string());
    }
    Ok(run)
}

/// Applies the overlap floor (best-observed times, hardware-gated) and the
/// mean-time regression gate, returning the failure list.
fn evaluate_overlap(
    current: &[Entry],
    baseline: Option<&[Entry]>,
    record: bool,
    enforce_floor: bool,
    verbose: bool,
) -> Vec<String> {
    let mut failures = Vec::new();
    match (
        find(current, OVERLAP_PIPELINED_ID),
        find(current, OVERLAP_SERIAL_ID),
    ) {
        (Some(pipe), Some(serial)) => {
            let speedup = serial.min_ns as f64 / pipe.min_ns.max(1) as f64;
            if verbose {
                eprintln!(
                    "bench-check: dist overlap p4    pipelined {:>12} ns  serial {:>12} ns  speedup {speedup:.2}x{}",
                    pipe.min_ns,
                    serial.min_ns,
                    if enforce_floor { "" } else { "  (floor skipped)" }
                );
            }
            if enforce_floor && speedup < OVERLAP_SPEEDUP_FLOOR {
                failures.push(format!(
                    "pipelined distributed sweep is {speedup:.2}x the serial-wait schedule (below the {OVERLAP_SPEEDUP_FLOOR}x overlap floor at 4 ranks)"
                ));
            }
        }
        _ => failures.push(format!(
            "missing bench results for dist overlap ({OVERLAP_PIPELINED_ID} / {OVERLAP_SERIAL_ID})"
        )),
    }
    if !record {
        for cur in current {
            let Some(prev) = baseline.and_then(|base| find(base, &cur.id)) else {
                if verbose {
                    eprintln!("bench-check: {} has no baseline entry (new bench)", cur.id);
                }
                continue;
            };
            let limit = prev.mean_ns as f64 * REGRESSION_FACTOR;
            if cur.mean_ns as f64 > limit {
                failures.push(format!(
                    "{}: mean {} ns regressed >{:.0}% over baseline {} ns",
                    cur.id,
                    cur.mean_ns,
                    (REGRESSION_FACTOR - 1.0) * 100.0,
                    prev.mean_ns
                ));
            } else if verbose {
                eprintln!(
                    "bench-check: {:<40} mean {:>12} ns  baseline {:>12} ns  ok",
                    cur.id, cur.mean_ns, prev.mean_ns
                );
            }
        }
    }
    failures
}

/// Writes the baseline as a JSON array with one entry object per line, so
/// the same line parser reads it back.
fn write_baseline(path: &Path, entries: &[Entry]) -> Result<(), std::io::Error> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut text = String::from("[\n");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        text.push_str(&format!(
            "{{\"id\":\"{}\",\"mean_ns\":{},\"min_ns\":{},\"samples\":{}}}{comma}\n",
            e.id, e.mean_ns, e.min_ns, e.samples
        ));
    }
    text.push_str("]\n");
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_shim_jsonl() {
        let text = "{\"id\":\"kernels_gemm_blocked/256\",\"mean_ns\":1200,\"min_ns\":1000,\"samples\":10}\nnot json\n{\"id\":\"x\",\"mean_ns\":5,\"min_ns\":4,\"samples\":1}\n";
        let entries = parse_entries(text);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].id, "kernels_gemm_blocked/256");
        assert_eq!(entries[0].min_ns, 1000);
        assert_eq!(entries[1].samples, 1);
    }

    #[test]
    fn baseline_round_trips() {
        let entries = vec![
            Entry {
                id: "a/1".to_string(),
                mean_ns: 10,
                min_ns: 9,
                samples: 3,
            },
            Entry {
                id: "b/2".to_string(),
                mean_ns: 20,
                min_ns: 18,
                samples: 4,
            },
        ];
        let dir = std::env::temp_dir().join(format!("bench-check-{}", std::process::id()));
        let path = dir.join("BENCH_kernels.json");
        write_baseline(&path, &entries)
            .map_err(|e| e.to_string())
            .ok();
        let text = std::fs::read_to_string(&path).unwrap_or_default();
        let _ = std::fs::remove_dir_all(&dir);
        let back = parse_entries(&text);
        assert_eq!(back.len(), 2);
        assert_eq!(back[1].id, "b/2");
        assert_eq!(back[1].min_ns, 18);
    }

    #[test]
    fn extractors_reject_missing_keys() {
        assert_eq!(extract_str("{\"a\":1}", "id"), None);
        assert_eq!(extract_u128("{\"id\":\"x\"}", "min_ns"), None);
    }

    fn entry(id: &str, mean_ns: u128, min_ns: u128) -> Entry {
        Entry {
            id: id.to_string(),
            mean_ns,
            min_ns,
            samples: 10,
        }
    }

    #[test]
    fn merge_keeps_best_times_across_attempts() {
        let mut merged = vec![entry("a", 120, 100), entry("b", 220, 200)];
        merge_best(
            &mut merged,
            vec![entry("a", 90, 80), entry("b", 300, 260), entry("c", 50, 40)],
        );
        assert_eq!(merged.len(), 3);
        let a = find(&merged, "a").map(|e| (e.mean_ns, e.min_ns, e.samples));
        assert_eq!(a, Some((90, 80, 20)));
        let b = find(&merged, "b").map(|e| e.min_ns);
        assert_eq!(b, Some(200));
        let c = find(&merged, "c").map(|e| e.min_ns);
        assert_eq!(c, Some(40));
    }

    #[test]
    fn timing_failures_retry_but_structural_ones_do_not() {
        assert!(retryable(&[
            "x: min 10 ns regressed >15% over baseline 8 ns".to_string()
        ]));
        assert!(retryable(&[
            "blocked GEMM speedup 1.40x is below the 1.5x floor at the calibration size"
                .to_string()
        ]));
        assert!(!retryable(&[
            "missing bench results for gemm 256^3 (a / b)".to_string()
        ]));
        assert!(retryable(&[]));
    }

    /// A full result set covering every serial and parallel pair, with a
    /// comfortably passing 4-thread GEMM speedup (2.5x).
    fn full_current() -> Vec<Entry> {
        vec![
            entry("kernels_gemm_blocked/256", 120, 100),
            entry("kernels_gemm_reference/256", 240, 200),
            entry("kernels_syrk_blocked/40000x20", 120, 100),
            entry("kernels_syrk_reference/40000x20", 150, 130),
            entry("kernels_qr_blocked/4000x32", 120, 100),
            entry("kernels_qr_unblocked/4000x32", 130, 110),
            entry("kernels_par_gemm_4t/512", 500, 400),
            entry("kernels_par_gemm_1t/512", 1200, 1000),
            entry("kernels_par_syrk_4t/60000x64", 300, 250),
            entry("kernels_par_syrk_1t/60000x64", 700, 600),
            entry("kernels_par_qr_4t/8000x128", 900, 800),
            entry("kernels_par_qr_1t/8000x128", 1300, 1200),
        ]
    }

    /// Splits a result set the way the recorder does: serial entries vs
    /// `kernels_par_*` entries.
    fn split(entries: &[Entry]) -> (Vec<Entry>, Vec<Entry>) {
        let (par, serial): (Vec<Entry>, Vec<Entry>) = entries
            .iter()
            .cloned()
            .partition(|e| e.id.starts_with(PAR_PREFIX));
        (serial, par)
    }

    #[test]
    fn evaluate_flags_regressions_against_the_baseline() {
        let current = full_current();
        let (serial, par) = split(&current);
        // Same numbers as baseline: everything passes.
        assert!(evaluate(
            &current,
            Some(&serial),
            Some(&par),
            false,
            true,
            false,
            None,
            false
        )
        .is_empty());
        // One entry whose mean got >15% slower: exactly one failure.
        let mut slow = current.clone();
        if let Some(e) = slow
            .iter_mut()
            .find(|e| e.id == "kernels_qr_blocked/4000x32")
        {
            e.mean_ns = 150;
        }
        let failures = evaluate(
            &slow,
            Some(&serial),
            Some(&par),
            false,
            true,
            false,
            None,
            false,
        );
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("kernels_qr_blocked/4000x32"));
        // Recording skips the regression gate entirely.
        assert!(evaluate(
            &slow,
            Some(&serial),
            Some(&par),
            true,
            true,
            false,
            None,
            false
        )
        .is_empty());
        // A GEMM speedup below the floor fails even with no baseline.
        let mut slow_gemm = current.clone();
        if let Some(e) = slow_gemm
            .iter_mut()
            .find(|e| e.id == "kernels_gemm_blocked/256")
        {
            e.min_ns = 150;
        }
        let failures = evaluate(&slow_gemm, None, None, false, true, false, None, false);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("below the 1.5x floor"));
    }

    #[test]
    fn regression_gate_uses_mean_and_floors_use_min() {
        let current = full_current();
        let (serial, par) = split(&current);
        // A fattened tail (mean up 50%, best case unchanged) must fail even
        // though the min is identical to the baseline...
        let mut fat_tail = current.clone();
        if let Some(e) = fat_tail
            .iter_mut()
            .find(|e| e.id == "kernels_syrk_blocked/40000x20")
        {
            e.mean_ns = 180; // baseline mean 120, min unchanged at 100
        }
        let failures = evaluate(
            &fat_tail,
            Some(&serial),
            Some(&par),
            false,
            true,
            false,
            None,
            false,
        );
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("mean 180 ns regressed"));
        // ...while a noisy mean with a healthy min must NOT trip the
        // speedup floor, which reads best-observed times only.
        let mut noisy = current.clone();
        if let Some(e) = noisy
            .iter_mut()
            .find(|e| e.id == "kernels_gemm_blocked/256")
        {
            e.mean_ns = 10_000; // mean-based floor would read 0.02x
        }
        assert!(evaluate(&noisy, None, None, true, true, false, None, false).is_empty());
    }

    #[test]
    fn simd_mode_raises_the_gemm_floor() {
        // 2.0x blocked-over-reference: fine for scalar, under the 3x simd bar.
        let current = full_current();
        assert!(evaluate(&current, None, None, true, true, false, None, false).is_empty());
        let failures = evaluate(&current, None, None, true, true, true, None, false);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("below the 3x floor"));
        // With a scalar-build reference time from the scalar baseline the
        // denominator switches to it: 350/100 = 3.5x clears the simd floor
        // even though the in-run (auto-vectorized) reference reads 2.0x.
        assert!(evaluate(&current, None, None, true, true, true, Some(350), false).is_empty());
        // ...and a scalar reference that still reads under 3x keeps failing.
        let failures = evaluate(&current, None, None, true, true, true, Some(250), false);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("below the 3x floor"));
        // The scalar-ref denominator is simd-only: in scalar mode it is
        // ignored (None is always passed, but guard the contract anyway).
        assert!(evaluate(&current, None, None, true, true, false, Some(10_000), false).is_empty());
    }

    #[test]
    fn par_regressions_check_against_the_par_baseline() {
        let current = full_current();
        let (serial, par) = split(&current);
        // A parallel entry regressing is caught via the par baseline...
        let mut slow = current.clone();
        if let Some(e) = slow
            .iter_mut()
            .find(|e| e.id == "kernels_par_syrk_4t/60000x64")
        {
            e.mean_ns = 400;
        }
        let failures = evaluate(
            &slow,
            Some(&serial),
            Some(&par),
            false,
            true,
            false,
            None,
            false,
        );
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("kernels_par_syrk_4t/60000x64"));
        // ...and is invisible to a serial-only baseline (new bench, no gate).
        assert!(evaluate(&slow, Some(&serial), None, false, true, false, None, false).is_empty());
    }

    #[test]
    fn par_gemm_floor_is_hardware_gated() {
        // 1.25x at 4 threads: under the 1.8x floor.
        let mut current = full_current();
        if let Some(e) = current
            .iter_mut()
            .find(|e| e.id == "kernels_par_gemm_4t/512")
        {
            e.min_ns = 800;
        }
        let (serial, par) = split(&current);
        let failures = evaluate(
            &current,
            Some(&serial),
            Some(&par),
            true,
            true,
            false,
            None,
            false,
        );
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("below the 1.8x floor"));
        // On a small machine (enforce_par = false) the floor is skipped.
        assert!(evaluate(
            &current,
            Some(&serial),
            Some(&par),
            true,
            false,
            false,
            None,
            false
        )
        .is_empty());
    }

    #[test]
    fn par_syrk_slower_than_serial_fails_the_floor() {
        // 4t slower than 1t (0.86x): the regression this PR fixes must
        // never silently return.
        let mut current = full_current();
        if let Some(e) = current
            .iter_mut()
            .find(|e| e.id == "kernels_par_syrk_4t/60000x64")
        {
            e.min_ns = 700; // 1t min is 600
        }
        let failures = evaluate(&current, None, None, true, true, false, None, false);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("threads made it slower"));
        // Hardware-gated like the GEMM floor.
        assert!(evaluate(&current, None, None, true, false, false, None, false).is_empty());
    }

    fn rounding_entry(
        id: &str,
        mean_ns: u128,
        rel_err: f64,
        bound: f64,
        max_rank: u64,
    ) -> RoundingEntry {
        RoundingEntry {
            id: id.to_string(),
            mean_ns,
            min_ns: mean_ns,
            samples: 12,
            rel_err,
            bound,
            max_rank,
        }
    }

    #[test]
    fn extract_f64_handles_scientific_notation() {
        let line = "{\"id\":\"rounding_qr\",\"mean_ns\":100,\"min_ns\":90,\"samples\":5,\"rel_err\":9.97e-7,\"bound\":1.5e-4,\"max_rank\":12}";
        assert_eq!(extract_f64(line, "rel_err"), Some(9.97e-7));
        assert_eq!(extract_f64(line, "bound"), Some(1.5e-4));
        assert_eq!(extract_f64(line, "missing"), None);
        let entries = parse_rounding_entries(line);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].max_rank, 12);
        assert_eq!(entries[0].rel_err, 9.97e-7);
    }

    #[test]
    fn rounding_accuracy_gate_is_unconditional() {
        // Bound violated: fails even when recording, and even with no
        // baseline — correctness never depends on the machine.
        let bad = vec![rounding_entry("rounding_adaptive_kr", 100, 2e-4, 1e-4, 12)];
        for record in [false, true] {
            let failures = evaluate_rounding(&bad, None, record, false);
            assert_eq!(failures.len(), 1, "record={record}");
            assert!(failures[0].contains("exceeds its accuracy bound"));
            assert!(!rounding_retryable(&failures));
        }
        // NaN errors must not sneak past the comparison.
        let nan = vec![rounding_entry("rounding_qr", 100, f64::NAN, 1e-4, 12)];
        assert_eq!(evaluate_rounding(&nan, None, true, false).len(), 1);
    }

    #[test]
    fn rounding_rank_and_timing_gates_use_the_baseline() {
        let base = vec![
            rounding_entry("rounding_qr", 100, 1e-6, 1.5e-4, 12),
            rounding_entry("rounding_gram_sim", 100, 1e-6, 1.5e-4, 12),
        ];
        // Identical run: clean.
        assert!(evaluate_rounding(&base, Some(&base), false, false).is_empty());
        // A drifted rank decision fails (not retryable)...
        let drift = vec![
            rounding_entry("rounding_qr", 100, 1e-6, 1.5e-4, 13),
            base[1].clone(),
        ];
        let failures = evaluate_rounding(&drift, Some(&base), false, false);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("rank decision changed"));
        assert!(!rounding_retryable(&failures));
        // ...a slow mean regresses (retryable)...
        let slow = vec![
            rounding_entry("rounding_qr", 200, 1e-6, 1.5e-4, 12),
            base[1].clone(),
        ];
        let failures = evaluate_rounding(&slow, Some(&base), false, false);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("regressed"));
        assert!(rounding_retryable(&failures));
        // ...and recording skips both baseline gates.
        assert!(evaluate_rounding(&slow, Some(&base), true, false).is_empty());
        // An entry with no baseline row is a new variant, not a failure.
        let extra = vec![
            base[0].clone(),
            base[1].clone(),
            rounding_entry("rounding_new", 50, 1e-9, 1e-4, 3),
        ];
        assert!(evaluate_rounding(&extra, Some(&base), false, false).is_empty());
    }

    #[test]
    fn rounding_baseline_row_without_results_is_a_structural_failure() {
        let base = vec![
            rounding_entry("rounding_qr", 100, 1e-6, 1.5e-4, 12),
            rounding_entry("rounding_deleted", 100, 1e-6, 1.5e-4, 12),
        ];
        let run = vec![base[0].clone()];
        let failures = evaluate_rounding(&run, Some(&base), false, false);
        assert_eq!(
            failures,
            vec!["missing bench results for rounding_deleted".to_string()]
        );
        assert!(!rounding_retryable(&failures));
        // Recording a new baseline is how a deleted variant is accepted.
        assert!(evaluate_rounding(&run, Some(&base), true, false).is_empty());
    }

    #[test]
    fn rounding_merge_keeps_best_times_and_deterministic_fields() {
        let mut merged = vec![rounding_entry("rounding_qr", 120, 1e-6, 1.5e-4, 12)];
        merge_rounding_best(
            &mut merged,
            vec![
                rounding_entry("rounding_qr", 90, 1e-6, 1.5e-4, 12),
                rounding_entry("rounding_gram_rlr", 70, 1e-6, 1.5e-4, 12),
            ],
        );
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].mean_ns, 90);
        assert_eq!(merged[0].samples, 24);
    }

    #[test]
    fn rounding_baseline_round_trips() {
        let entries = vec![rounding_entry(
            "rounding_adaptive_kr",
            100,
            1.5e-6,
            1e-4,
            12,
        )];
        let dir = std::env::temp_dir().join(format!("bench-check-r-{}", std::process::id()));
        let path = dir.join("BENCH_rounding_ablation.json");
        write_rounding_baseline(&path, &entries)
            .map_err(|e| e.to_string())
            .ok();
        let text = std::fs::read_to_string(&path).unwrap_or_default();
        let _ = std::fs::remove_dir_all(&dir);
        let back = parse_rounding_entries(&text);
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].id, "rounding_adaptive_kr");
        assert_eq!(back[0].rel_err, 1.5e-6);
        assert_eq!(back[0].bound, 1e-4);
        assert_eq!(back[0].max_rank, 12);
    }

    /// A passing overlap pair: 1.25x pipelined-over-serial on best times.
    fn overlap_current() -> Vec<Entry> {
        vec![
            entry(OVERLAP_PIPELINED_ID, 900, 800),
            entry(OVERLAP_SERIAL_ID, 1100, 1000),
        ]
    }

    #[test]
    fn overlap_floor_is_hardware_gated() {
        let current = overlap_current();
        assert!(evaluate_overlap(&current, None, true, true, false).is_empty());
        // Pipelined no faster than serial: fails the floor on a big box...
        let mut flat = current.clone();
        if let Some(e) = flat.iter_mut().find(|e| e.id == OVERLAP_PIPELINED_ID) {
            e.min_ns = 1000;
        }
        let failures = evaluate_overlap(&flat, None, true, true, false);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("below the 1.15x overlap floor"));
        assert!(retryable(&failures));
        // ...and is skipped on a machine without the threads to overlap.
        assert!(evaluate_overlap(&flat, None, true, false, false).is_empty());
    }

    #[test]
    fn overlap_regression_gate_uses_mean_and_respects_record() {
        let base = overlap_current();
        // Identical run: clean even with the floor enforced.
        assert!(evaluate_overlap(&base, Some(&base), false, true, false).is_empty());
        // A fattened pipelined mean regresses against the baseline even
        // though its best time still clears the floor.
        let mut slow = base.clone();
        if let Some(e) = slow.iter_mut().find(|e| e.id == OVERLAP_PIPELINED_ID) {
            e.mean_ns = 1100; // baseline mean 900, min unchanged
        }
        let failures = evaluate_overlap(&slow, Some(&base), false, true, false);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("regressed"));
        // Recording skips the regression gate.
        assert!(evaluate_overlap(&slow, Some(&base), true, true, false).is_empty());
    }

    #[test]
    fn missing_overlap_results_are_structural_failures() {
        let current = vec![entry(OVERLAP_PIPELINED_ID, 900, 800)];
        let failures = evaluate_overlap(&current, None, true, false, false);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("missing bench results for dist overlap"));
        assert!(!retryable(&failures));
    }

    #[test]
    fn missing_par_results_are_structural_failures() {
        let current: Vec<Entry> = full_current()
            .into_iter()
            .filter(|e| e.id != "kernels_par_gemm_1t/512")
            .collect();
        let failures = evaluate(&current, None, None, true, false, false, None, false);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("missing bench results for par gemm 512^3"));
        assert!(!retryable(&failures));
    }
}
