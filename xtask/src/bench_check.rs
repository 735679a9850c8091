//! `cargo xtask bench-check [--record] [--simd]`: the benchmark regression
//! gates. Each gate is one row of [`GATES`] (command, baselines, floors,
//! accuracy, `--simd`), and every gate goes through the same [`evaluate`]:
//!
//! 1. **Floors** — each [`Pair`]'s best-time ratio must clear its minimum.
//!    Best (`min_ns`) times estimate capability with scheduler noise
//!    stripped.
//! 2. **Accuracy** — `rel_err ≤ bound`, NaN failing, even under `--record`.
//! 3. **Baseline** — outside `--record`: a mean time over 15% above its
//!    baseline row fails (means, so a fattened tail fails too); on accuracy
//!    gates so do a changed `max_rank` and a baseline row no run produced.
//! 4. **Recording** — `--record`, or a missing baseline file, rewrites the
//!    gate's baselines when every check passed. Baselines are per-machine,
//!    so CI records instead of gating on another machine's numbers.
//!
//! `--simd` builds with the nightly-only `simd` feature and gates
//! `_simd`-suffixed baselines. While every failure is [`Kind::Timing`], a
//! gate re-runs its command (up to [`MAX_ATTEMPTS`] runs) and keeps each
//! row's best times, so host noise passes on retry and a real regression
//! fails every attempt.

use std::path::Path;
use std::process::{Command, ExitCode};

/// Mean-time regression tolerance vs the baseline (1.15 = 15% slower).
const REGRESSION_FACTOR: f64 = 1.15;
/// Hardware-thread count below which hardware-gated floors are skipped.
const PAR_MIN_HW_THREADS: usize = 4;
/// Command runs allowed per gate before a timing failure is final.
const MAX_ATTEMPTS: usize = 3;

/// How a gate produces its JSONL rows.
enum Cmd {
    /// `cargo bench -p tt-bench --bench linalg` through the criterion shim,
    /// restricted to ids with this prefix.
    Criterion(&'static str),
    /// `cargo run --release -p tt-bench --bin <name> -- --json <path>`.
    Bin(&'static str),
}

/// A best-time ratio between two rows: `slow.min_ns / fast.min_ns`, reported
/// always and gated when the pair has a floor.
struct Pair {
    /// Name in the report line and in the missing-results failure.
    label: &'static str,
    /// Row ids of the optimized side and the side it is measured against.
    fast: &'static str,
    slow: &'static str,
    /// How the report line names the two sides.
    tags: [&'static str; 2],
    /// Required ratio; `None` only reports it.
    min: Option<f64>,
    /// Required ratio under `--simd`. The simd build's FMA flags
    /// auto-vectorize the in-run `slow` kernel too, so this floor reads the
    /// `slow` time from the scalar baseline recorded on the same machine.
    simd_min: Option<f64>,
    /// Enforced only with [`PAR_MIN_HW_THREADS`] hardware threads: forcing
    /// 4 threads onto fewer cores measures oversubscription.
    hw_gated: bool,
    /// Failure message; `{x}` is the measured ratio, `{min}` the floor.
    fail: &'static str,
}

/// One gate: what it runs, where its baselines live and what it checks.
struct GateSpec {
    /// Name in progress lines and in run failures.
    name: &'static str,
    cmd: Cmd,
    /// Baseline file stems under `results/` with the id prefix routed to
    /// each; the first file's prefix is empty, so it takes every other id.
    baselines: &'static [(&'static str, &'static str)],
    pairs: &'static [Pair],
    /// Rows carry `rel_err`/`bound`/`max_rank`: gate accuracy always, and
    /// rank drift plus baseline-row coverage outside `--record`.
    accuracy: bool,
    /// Also runs under `--simd`, against `_simd`-suffixed baselines.
    simd: bool,
}

/// Defaults of a blocked-vs-reference kernel pair; without a `min` a pair
/// is only reported.
const SERIAL_PAIR: Pair = Pair {
    label: "",
    fast: "",
    slow: "",
    tags: ["blocked", "reference"],
    min: None,
    simd_min: None,
    hw_gated: false,
    fail: "",
};
/// Defaults of a pair that runs 4 threads: hardware-gated.
const THREAD_PAIR: Pair = Pair {
    tags: ["4t", "1t"],
    hw_gated: true,
    ..SERIAL_PAIR
};

/// Every gate `bench-check` runs, in order.
const GATES: &[GateSpec] = &[
    GateSpec {
        name: "kernels",
        cmd: Cmd::Criterion("kernels_"),
        baselines: &[
            ("BENCH_kernels", ""),
            ("BENCH_kernels_par", "kernels_par_"),
        ],
        pairs: &[
            Pair {
                label: "gemm 256^3",
                fast: "kernels_gemm_blocked/256",
                slow: "kernels_gemm_reference/256",
                min: Some(1.5),
                simd_min: Some(3.0),
                fail: "blocked GEMM speedup {x}x is below the {min}x floor at the calibration size",
                ..SERIAL_PAIR
            },
            Pair {
                label: "syrk 40000x20",
                fast: "kernels_syrk_blocked/40000x20",
                slow: "kernels_syrk_reference/40000x20",
                ..SERIAL_PAIR
            },
            Pair {
                label: "qr 4000x32",
                fast: "kernels_qr_blocked/4000x32",
                slow: "kernels_qr_unblocked/4000x32",
                ..SERIAL_PAIR
            },
            Pair {
                label: "par gemm 512^3",
                fast: "kernels_par_gemm_4t/512",
                slow: "kernels_par_gemm_1t/512",
                min: Some(1.8),
                fail: "parallel GEMM speedup {x}x at 4 threads is below the {min}x floor at 512^3",
                ..THREAD_PAIR
            },
            // Below 1.0 threads made SYRK *slower*: the shared-panel
            // re-packing bug this floor keeps fixed.
            Pair {
                label: "par syrk 60000x64",
                fast: "kernels_par_syrk_4t/60000x64",
                slow: "kernels_par_syrk_1t/60000x64",
                min: Some(1.0),
                fail: "parallel SYRK at 4 threads is {x}x the 1-thread time (below {min}x): threads made it slower at 60000x64",
                ..THREAD_PAIR
            },
            Pair {
                label: "par qr 8000x128",
                fast: "kernels_par_qr_4t/8000x128",
                slow: "kernels_par_qr_1t/8000x128",
                ..THREAD_PAIR
            },
        ],
        accuracy: false,
        simd: true,
    },
    GateSpec {
        name: "rounding ablation",
        cmd: Cmd::Bin("rounding_ablation"),
        baselines: &[("BENCH_rounding_ablation", "")],
        pairs: &[],
        accuracy: true,
        simd: false,
    },
];

/// One benchmark row, as a gate's command emits it and as a baseline file
/// stores it. The accuracy fields are set exactly on accuracy gates.
#[derive(Debug, Clone, Default, PartialEq)]
struct Entry {
    id: String,
    mean_ns: u128,
    min_ns: u128,
    samples: u64,
    rel_err: Option<f64>,
    bound: Option<f64>,
    max_rank: Option<u64>,
}

/// What a failed check says about re-measuring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A floor or mean regression: host noise can cause it, so re-measure.
    Timing,
    /// Accuracy or rank drift from a seeded run: reproduces identically.
    Deterministic,
    /// Missing results, a failed command or an unwritable baseline.
    Structural,
}

#[derive(Debug, Clone, PartialEq)]
struct Failure {
    kind: Kind,
    msg: String,
}

fn fail(kind: Kind, msg: String) -> Failure {
    Failure { kind, msg }
}

/// Only an all-timing failure set is worth a re-measure.
fn retryable(failures: &[Failure]) -> bool {
    failures.iter().all(|f| f.kind == Kind::Timing)
}

/// The command-line switches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Mode {
    record: bool,
    simd: bool,
    /// Enforce hardware-gated floors.
    hw: bool,
}

/// Parses `[--record] [--simd]`, returning the first other argument as the
/// error.
fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut mode = Mode::default();
    for arg in args {
        match arg.as_str() {
            "--record" => mode.record = true,
            "--simd" => mode.simd = true,
            other => return Err(other.to_string()),
        }
    }
    Ok(mode)
}

/// Entry point for the `bench-check` subcommand.
pub fn bench_check(repo: &Path, args: &[String]) -> ExitCode {
    let mut mode = match parse_args(args) {
        Ok(mode) => mode,
        Err(arg) => {
            eprintln!(
                "bench-check: unknown argument `{arg}`\nusage: cargo xtask bench-check [--record] [--simd]"
            );
            return ExitCode::FAILURE;
        }
    };
    mode.hw = std::thread::available_parallelism()
        .map(|n| n.get() >= PAR_MIN_HW_THREADS)
        .unwrap_or(false);
    let failures: Vec<Failure> = GATES
        .iter()
        .filter(|spec| spec.simd || !mode.simd)
        .flat_map(|spec| run_gate(repo, spec, mode))
        .collect();
    if failures.is_empty() {
        eprintln!("bench-check: all gates passed");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("bench-check FAILURE: {}", f.msg);
        }
        ExitCode::FAILURE
    }
}

/// A gate with its baselines loaded.
struct Gate {
    spec: &'static GateSpec,
    /// One per `spec.baselines` file; `None` when the file is missing.
    baselines: Vec<Option<Vec<Entry>>>,
    /// Under `--simd`: the scalar build's first baseline, for `simd_min`.
    scalar: Option<Vec<Entry>>,
}

impl Gate {
    /// Loads the baselines through `read` (file stem → text).
    fn load(spec: &'static GateSpec, simd: bool, read: impl Fn(&str) -> Option<String>) -> Gate {
        let parse = |stem: &str| read(stem).map(|text| parse_entries(&text, spec.accuracy));
        Gate {
            spec,
            baselines: spec
                .baselines
                .iter()
                .map(|(stem, _)| parse(&suffixed(stem, simd)))
                .collect(),
            scalar: simd.then(|| parse(spec.baselines[0].0)).flatten(),
        }
    }

    /// Index of the baseline file row `id` is recorded in: the last file
    /// whose prefix it starts with (the first file's prefix is empty).
    fn route(&self, id: &str) -> usize {
        let mut prefixes = self.spec.baselines.iter().map(|(_, prefix)| prefix);
        prefixes.rposition(|p| id.starts_with(p)).unwrap_or(0)
    }

    /// The scalar-build time a `simd_min` floor compares to under `--simd`.
    fn scalar_ns(&self, pair: &Pair) -> Option<u128> {
        let scalar = pair.simd_min.and(self.scalar.as_deref())?;
        find(scalar, pair.slow).map(|e| e.min_ns)
    }
}

/// Runs one gate: command, best-of-attempts merge, checks, recording.
fn run_gate(repo: &Path, spec: &'static GateSpec, mode: Mode) -> Vec<Failure> {
    let read = |stem: &str| std::fs::read_to_string(baseline_path(repo, stem)).ok();
    let gate = Gate::load(spec, mode.simd, read);
    let unreferenced = |p: &Pair| p.simd_min.is_some() && gate.scalar_ns(p).is_none();
    if mode.simd && spec.pairs.iter().any(unreferenced) {
        eprintln!(
            "bench-check: no scalar baseline reference for the simd floor; comparing against \
             the in-run (FMA-compiled) reference — run `cargo xtask bench-check --record` first"
        );
    }

    let json_path = repo.join(format!("target/{}.jsonl", spec.baselines[0].0));
    let mut merged: Vec<Entry> = Vec::new();
    for attempt in 1..=MAX_ATTEMPTS {
        eprintln!(
            "bench-check: {} attempt {attempt}/{MAX_ATTEMPTS}{}...",
            spec.name,
            if mode.simd { " (simd feature)" } else { "" }
        );
        match run_command(repo, spec, mode.simd, &json_path) {
            Ok(run) => merge_best(&mut merged, run),
            Err(msg) => return vec![fail(Kind::Structural, format!("{}: {msg}", spec.name))],
        }
        let failures = evaluate(&gate, mode, &merged, false);
        if failures.is_empty() || !retryable(&failures) {
            break;
        }
        if attempt < MAX_ATTEMPTS {
            eprintln!(
                "bench-check: {} timing gate missed on attempt {attempt}; retrying to discount scheduler noise",
                spec.name
            );
        }
    }

    let failures = evaluate(&gate, mode, &merged, true);
    if failures.is_empty() && (mode.record || gate.baselines.iter().any(Option::is_none)) {
        for (i, (stem, _)) in spec.baselines.iter().enumerate() {
            let path = baseline_path(repo, &suffixed(stem, mode.simd));
            let rows: Vec<Entry> = merged
                .iter()
                .filter(|e| gate.route(&e.id) == i)
                .cloned()
                .collect();
            if let Err(e) = write_baseline(&path, &rows) {
                let msg = format!("could not write {} baseline: {e}", spec.name);
                return vec![fail(Kind::Structural, msg)];
            }
            eprintln!("bench-check: baseline written to {}", path.display());
        }
    }
    failures
}

fn baseline_path(repo: &Path, stem: &str) -> std::path::PathBuf {
    repo.join(format!("results/{stem}.json"))
}

/// A baseline stem as `--simd` (or not) names it.
fn suffixed(stem: &str, simd: bool) -> String {
    format!("{stem}{}", if simd { "_simd" } else { "" })
}

/// Runs a gate's command once and parses its JSONL rows. With `simd` the
/// benches build with the `simd` cargo feature; `RUSTC_BOOTSTRAP=1` lets the
/// stable toolchain accept the `portable_simd` nightly gate.
fn run_command(
    repo: &Path,
    spec: &GateSpec,
    simd: bool,
    json_path: &Path,
) -> Result<Vec<Entry>, String> {
    let _ = std::fs::remove_file(json_path);
    let mut cmd = Command::new("cargo");
    let features: &[&str] = if simd { &["--features", "simd"] } else { &[] };
    if simd {
        cmd.env("RUSTC_BOOTSTRAP", "1");
        // The microkernel's `mul_add` only fuses under `target_feature =
        // "fma"`; aarch64 has it in its baseline.
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("fma") {
            cmd.env("RUSTFLAGS", "-C target-feature=+avx2,+fma");
        }
    }
    let what = match spec.cmd {
        Cmd::Criterion(filter) => {
            cmd.args(["bench", "-p", "tt-bench", "--bench", "linalg"])
                .args(features);
            cmd.env("CRITERION_FILTER", filter)
                .env("CRITERION_JSON", json_path);
            "cargo bench"
        }
        Cmd::Bin(bin) => {
            cmd.args(["run", "--release", "-p", "tt-bench", "--bin", bin])
                .args(features);
            cmd.args(["--", "--json"]).arg(json_path);
            bin
        }
    };
    match cmd.current_dir(repo).status() {
        Ok(s) if s.success() => {}
        Ok(s) => return Err(format!("{what} exited with {s}")),
        Err(e) => return Err(format!("{what} could not run: {e}")),
    }
    let text = std::fs::read_to_string(json_path)
        .map_err(|e| format!("no results at {}: {e}", json_path.display()))?;
    let run = parse_entries(&text, spec.accuracy);
    if run.is_empty() {
        return Err(format!("{} run produced zero results", spec.name));
    }
    Ok(run)
}

/// Folds a fresh run into the merged view, keeping each row's best (minimum)
/// mean and min times and accumulating the sample count. The accuracy fields
/// come from seeded runs, so the first sighting stands.
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

/// Applies the gate's checks to the (merged) rows, returning the failures.
/// `verbose` prints the per-row report; the evaluation itself is pure, so it
/// runs quietly inside the retry loop and verbosely once at the end.
fn evaluate(gate: &Gate, mode: Mode, current: &[Entry], verbose: bool) -> Vec<Failure> {
    let spec = gate.spec;
    let mut failures = Vec::new();
    for p in spec.pairs {
        let (Some(fast), Some(slow)) = (find(current, p.fast), find(current, p.slow)) else {
            let msg = format!(
                "missing bench results for {} ({} / {})",
                p.label, p.fast, p.slow
            );
            failures.push(fail(Kind::Structural, msg));
            continue;
        };
        let scalar = gate.scalar_ns(p).filter(|_| mode.simd);
        let slow_ns = scalar.unwrap_or(slow.min_ns);
        let ratio = slow_ns as f64 / fast.min_ns.max(1) as f64;
        let skipped = p.hw_gated && !mode.hw;
        if verbose {
            eprintln!(
                "bench-check: {:<18} {} {:>12} ns  {} {:>12} ns{}  speedup {ratio:.2}x{}",
                p.label,
                p.tags[0],
                fast.min_ns,
                p.tags[1],
                slow_ns,
                scalar.map_or("", |_| " (scalar-build)"),
                if skipped { "  (floor skipped)" } else { "" }
            );
        }
        let min = p.simd_min.filter(|_| mode.simd).or(p.min);
        if let Some(min) = min.filter(|&min| !skipped && ratio < min) {
            let msg = p.fail.replace("{x}", &format!("{ratio:.2}"));
            failures.push(fail(Kind::Timing, msg.replace("{min}", &min.to_string())));
        }
    }

    for cur in current {
        if let (Some(rel_err), Some(bound)) = (cur.rel_err, cur.bound) {
            #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN must fail the gate
            if !(rel_err <= bound) {
                let msg = format!(
                    "{}: rel error {rel_err:.3e} exceeds its accuracy bound {bound:.3e}",
                    cur.id
                );
                failures.push(fail(Kind::Deterministic, msg));
            }
            if verbose {
                eprintln!(
                    "bench-check: {:<26} rel_err {rel_err:>9.2e} (bound {bound:>8.1e})  max rank {:>3}  mean {:>12} ns",
                    cur.id,
                    cur.max_rank.unwrap_or(0),
                    cur.mean_ns
                );
            }
        }
        if mode.record {
            continue;
        }
        let base = gate.baselines[gate.route(&cur.id)].as_deref();
        let Some(prev) = base.and_then(|base| find(base, &cur.id)) else {
            if verbose {
                eprintln!("bench-check: {} has no baseline entry (new bench)", cur.id);
            }
            continue;
        };
        if cur.max_rank != prev.max_rank {
            let (rank, was) = (cur.max_rank.unwrap_or(0), prev.max_rank.unwrap_or(0));
            let msg = format!(
                "{}: rank decision changed: max rank {rank} vs baseline {was}",
                cur.id
            );
            failures.push(fail(Kind::Deterministic, msg));
        }
        if cur.mean_ns as f64 > prev.mean_ns as f64 * REGRESSION_FACTOR {
            let msg = format!(
                "{}: mean {} ns regressed >{:.0}% over baseline {} ns",
                cur.id,
                cur.mean_ns,
                (REGRESSION_FACTOR - 1.0) * 100.0,
                prev.mean_ns
            );
            failures.push(fail(Kind::Timing, msg));
        } else if verbose && !spec.accuracy {
            eprintln!(
                "bench-check: {:<40} mean {:>12} ns  baseline {:>12} ns  ok",
                cur.id, cur.mean_ns, prev.mean_ns
            );
        }
    }

    // A baseline row no run produced is a deleted or renamed variant; only
    // re-recording the baseline accepts that.
    if spec.accuracy && !mode.record {
        for prev in gate.baselines.iter().flatten().flatten() {
            if find(current, &prev.id).is_none() {
                let msg = format!("missing bench results for {}", prev.id);
                failures.push(fail(Kind::Structural, msg));
            }
        }
    }
    failures
}

fn find<'a>(entries: &'a [Entry], id: &str) -> Option<&'a Entry> {
    entries.iter().find(|e| e.id == id)
}

/// Parses every line carrying the row keys — a command's JSONL stream and a
/// baseline file (one row object per line) share the shape. With `accuracy`
/// a row also needs `rel_err` and `bound` (`max_rank` defaults to 0);
/// without it those fields are ignored.
fn parse_entries(text: &str, accuracy: bool) -> Vec<Entry> {
    let row = |line: &str| {
        let acc = |key| match accuracy {
            true => extract_f64(line, key).map(Some),
            false => Some(None),
        };
        Some(Entry {
            id: extract_str(line, "id")?,
            mean_ns: extract_u128(line, "mean_ns")?,
            min_ns: extract_u128(line, "min_ns")?,
            samples: extract_u128(line, "samples").unwrap_or(0) as u64,
            rel_err: acc("rel_err")?,
            bound: acc("bound")?,
            max_rank: accuracy.then(|| extract_u128(line, "max_rank").unwrap_or(0) as u64),
        })
    };
    text.lines().filter_map(row).collect()
}

/// Extracts a `"key":"value"` string field from a single JSON line. Good
/// enough for the shim's own output (ids never contain escaped quotes).
fn extract_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let rest = &line[line.find(&pat)? + pat.len()..];
    Some(rest[..rest.find('"')?].to_string())
}

/// Extracts a `"key":number` field from a single JSON line.
fn extract_u128(line: &str, key: &str) -> Option<u128> {
    numeric_token(line, key, false)?.parse().ok()
}

/// Extracts a `"key":number` float field (scientific notation included)
/// from a single JSON line. The non-finite spellings Rust prints (`NaN`,
/// `inf`, `-inf`) parse too, so such a row reaches the accuracy check
/// instead of vanishing.
fn extract_f64(line: &str, key: &str) -> Option<f64> {
    numeric_token(line, key, true)?.parse().ok()
}

fn numeric_token(line: &str, key: &str, float: bool) -> Option<String> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let numeric = |c: &char| {
        c.is_ascii_digit() || float && (c.is_ascii_alphabetic() || matches!(c, '.' | '-' | '+'))
    };
    Some(rest.chars().take_while(numeric).collect())
}

/// Writes a baseline as a JSON array with one row object per line, so the
/// same line parser reads it back.
fn write_baseline(path: &Path, entries: &[Entry]) -> Result<(), std::io::Error> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut text = String::from("[\n");
    for (i, e) in entries.iter().enumerate() {
        text.push_str(&format!(
            "{{\"id\":\"{}\",\"mean_ns\":{},\"min_ns\":{},\"samples\":{}",
            e.id, e.mean_ns, e.min_ns, e.samples
        ));
        for (key, value) in [("rel_err", e.rel_err), ("bound", e.bound)] {
            if let Some(v) = value {
                text.push_str(&format!(",\"{key}\":{v:e}"));
            }
        }
        if let Some(max_rank) = e.max_rank {
            text.push_str(&format!(",\"max_rank\":{max_rank}"));
        }
        let comma = if i + 1 == entries.len() { "" } else { "," };
        text.push_str(&format!("}}{comma}\n"));
    }
    text.push_str("]\n");
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Evaluates gate `i` of [`GATES`] quietly against in-memory baselines.
    fn eval(
        i: usize,
        current: &[Entry],
        baselines: &[Option<&[Entry]>],
        scalar: Option<Vec<Entry>>,
        mode: Mode,
    ) -> Vec<Failure> {
        let gate = Gate {
            spec: &GATES[i],
            baselines: baselines.iter().map(|b| b.map(<[Entry]>::to_vec)).collect(),
            scalar,
        };
        evaluate(&gate, mode, current, false)
    }

    /// The kernel gate, with `scalar_ref_ns` as the scalar baseline's GEMM
    /// reference time.
    #[allow(clippy::too_many_arguments)]
    fn kernels(
        current: &[Entry],
        baseline: Option<&[Entry]>,
        baseline_par: Option<&[Entry]>,
        record: bool,
        hw: bool,
        simd: bool,
        scalar_ref_ns: Option<u128>,
    ) -> Vec<Failure> {
        let scalar = scalar_ref_ns.map(|ns| vec![entry("kernels_gemm_reference/256", ns, ns)]);
        let mode = Mode { record, simd, hw };
        eval(0, current, &[baseline, baseline_par], scalar, mode)
    }

    fn rounding(current: &[Entry], baseline: Option<&[Entry]>, record: bool) -> Vec<Failure> {
        let mode = Mode {
            record,
            simd: false,
            hw: false,
        };
        eval(1, current, &[baseline], None, mode)
    }

    #[test]
    fn args_accept_the_two_switches_and_reject_anything_else() {
        let args = |a: &[&str]| parse_args(&a.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let mode = |record, simd| {
            Ok(Mode {
                record,
                simd,
                hw: false,
            })
        };
        assert_eq!(args(&[]), mode(false, false));
        assert_eq!(args(&["--record"]), mode(true, false));
        assert_eq!(args(&["--simd", "--record"]), mode(true, true));
        assert_eq!(args(&["--recrod"]), Err("--recrod".to_string()));
        assert_eq!(args(&["--record", "simd"]), Err("simd".to_string()));
    }

    #[test]
    fn parses_shim_jsonl() {
        let text = "{\"id\":\"kernels_gemm_blocked/256\",\"mean_ns\":1200,\"min_ns\":1000,\"samples\":10}\nnot json\n{\"id\":\"x\",\"mean_ns\":5,\"min_ns\":4,\"samples\":1}\n";
        let entries = parse_entries(text, false);
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
                ..Default::default()
            },
            Entry {
                id: "b/2".to_string(),
                mean_ns: 20,
                min_ns: 18,
                samples: 4,
                ..Default::default()
            },
        ];
        let dir = std::env::temp_dir().join(format!("bench-check-{}", std::process::id()));
        let path = dir.join("BENCH_kernels.json");
        write_baseline(&path, &entries)
            .map_err(|e| e.to_string())
            .ok();
        let text = std::fs::read_to_string(&path).unwrap_or_default();
        let _ = std::fs::remove_dir_all(&dir);
        let back = parse_entries(&text, false);
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
            ..Default::default()
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
        assert!(retryable(&[fail(
            Kind::Timing,
            "x: min 10 ns regressed >15% over baseline 8 ns".to_string()
        )]));
        assert!(retryable(&[fail(
            Kind::Timing,
            "blocked GEMM speedup 1.40x is below the 1.5x floor at the calibration size"
                .to_string()
        )]));
        assert!(!retryable(&[fail(
            Kind::Structural,
            "missing bench results for gemm 256^3 (a / b)".to_string()
        )]));
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
            .partition(|e| e.id.starts_with("kernels_par_"));
        (serial, par)
    }

    #[test]
    fn evaluate_flags_regressions_against_the_baseline() {
        let current = full_current();
        let (serial, par) = split(&current);
        // Same numbers as baseline: everything passes.
        assert!(kernels(
            &current,
            Some(&serial),
            Some(&par),
            false,
            true,
            false,
            None
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
        let failures = kernels(&slow, Some(&serial), Some(&par), false, true, false, None);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].msg.contains("kernels_qr_blocked/4000x32"));
        // Recording skips the regression gate entirely.
        assert!(kernels(&slow, Some(&serial), Some(&par), true, true, false, None).is_empty());
        // A GEMM speedup below the floor fails even with no baseline.
        let mut slow_gemm = current.clone();
        if let Some(e) = slow_gemm
            .iter_mut()
            .find(|e| e.id == "kernels_gemm_blocked/256")
        {
            e.min_ns = 150;
        }
        let failures = kernels(&slow_gemm, None, None, false, true, false, None);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].msg.contains("below the 1.5x floor"));
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
        let failures = kernels(
            &fat_tail,
            Some(&serial),
            Some(&par),
            false,
            true,
            false,
            None,
        );
        assert_eq!(failures.len(), 1);
        assert!(failures[0].msg.contains("mean 180 ns regressed"));
        // ...while a noisy mean with a healthy min must NOT trip the
        // speedup floor, which reads best-observed times only.
        let mut noisy = current.clone();
        if let Some(e) = noisy
            .iter_mut()
            .find(|e| e.id == "kernels_gemm_blocked/256")
        {
            e.mean_ns = 10_000; // mean-based floor would read 0.02x
        }
        assert!(kernels(&noisy, None, None, true, true, false, None).is_empty());
    }

    #[test]
    fn simd_mode_raises_the_gemm_floor() {
        // 2.0x blocked-over-reference: fine for scalar, under the 3x simd bar.
        let current = full_current();
        assert!(kernels(&current, None, None, true, true, false, None).is_empty());
        let failures = kernels(&current, None, None, true, true, true, None);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].msg.contains("below the 3x floor"));
        // With a scalar-build reference time from the scalar baseline the
        // denominator switches to it: 350/100 = 3.5x clears the simd floor
        // even though the in-run (auto-vectorized) reference reads 2.0x.
        assert!(kernels(&current, None, None, true, true, true, Some(350)).is_empty());
        // ...and a scalar reference that still reads under 3x keeps failing.
        let failures = kernels(&current, None, None, true, true, true, Some(250));
        assert_eq!(failures.len(), 1);
        assert!(failures[0].msg.contains("below the 3x floor"));
        // The scalar-ref denominator is simd-only: in scalar mode it is
        // ignored (None is always passed, but guard the contract anyway).
        assert!(kernels(&current, None, None, true, true, false, Some(10_000)).is_empty());
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
        let failures = kernels(&slow, Some(&serial), Some(&par), false, true, false, None);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].msg.contains("kernels_par_syrk_4t/60000x64"));
        // ...and is invisible to a serial-only baseline (new bench, no gate).
        assert!(kernels(&slow, Some(&serial), None, false, true, false, None).is_empty());
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
        let failures = kernels(&current, Some(&serial), Some(&par), true, true, false, None);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].msg.contains("below the 1.8x floor"));
        // On a small machine (enforce_par = false) the floor is skipped.
        assert!(kernels(
            &current,
            Some(&serial),
            Some(&par),
            true,
            false,
            false,
            None
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
        let failures = kernels(&current, None, None, true, true, false, None);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].msg.contains("threads made it slower"));
        // Hardware-gated like the GEMM floor.
        assert!(kernels(&current, None, None, true, false, false, None).is_empty());
    }

    fn rounding_entry(id: &str, mean_ns: u128, rel_err: f64, bound: f64, max_rank: u64) -> Entry {
        Entry {
            id: id.to_string(),
            mean_ns,
            min_ns: mean_ns,
            samples: 12,
            rel_err: Some(rel_err),
            bound: Some(bound),
            max_rank: Some(max_rank),
        }
    }

    #[test]
    fn extract_f64_handles_scientific_notation() {
        let line = "{\"id\":\"rounding_qr\",\"mean_ns\":100,\"min_ns\":90,\"samples\":5,\"rel_err\":9.97e-7,\"bound\":1.5e-4,\"max_rank\":12}";
        assert_eq!(extract_f64(line, "rel_err"), Some(9.97e-7));
        assert_eq!(extract_f64(line, "bound"), Some(1.5e-4));
        assert_eq!(extract_f64(line, "missing"), None);
        let entries = parse_entries(line, true);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].max_rank, Some(12));
        assert_eq!(entries[0].rel_err, Some(9.97e-7));
    }

    #[test]
    fn non_finite_errors_parse_and_fail_in_every_mode() {
        let row = |rel_err: &str| {
            let line = format!(
                "{{\"id\":\"rounding_qr\",\"mean_ns\":100,\"min_ns\":90,\"samples\":5,\"rel_err\":{rel_err},\"bound\":1.5e-4,\"max_rank\":12}}"
            );
            parse_entries(&line, true)
        };
        for (text, want) in [
            ("NaN", f64::NAN),
            ("inf", f64::INFINITY),
            ("-inf", f64::NEG_INFINITY),
        ] {
            let entries = row(text);
            assert_eq!(entries.len(), 1, "{text} row dropped");
            let rel_err = entries[0].rel_err.unwrap_or(0.0);
            assert_eq!(rel_err.to_bits(), want.to_bits(), "{text}");
            assert_eq!(entries[0].max_rank, Some(12));
        }
        // A NaN or infinite error fails the accuracy check, recording or not,
        // so it never reaches a baseline file.
        for text in ["NaN", "inf"] {
            for record in [false, true] {
                let failures = rounding(&row(text), None, record);
                assert_eq!(failures.len(), 1, "{text} record={record}");
                assert!(failures[0].msg.contains("exceeds its accuracy bound"));
            }
        }
    }

    #[test]
    fn rounding_accuracy_gate_is_unconditional() {
        // Bound violated: fails even when recording, and even with no
        // baseline — correctness never depends on the machine.
        let bad = vec![rounding_entry("rounding_adaptive_kr", 100, 2e-4, 1e-4, 12)];
        for record in [false, true] {
            let failures = rounding(&bad, None, record);
            assert_eq!(failures.len(), 1, "record={record}");
            assert!(failures[0].msg.contains("exceeds its accuracy bound"));
            assert!(!retryable(&failures));
        }
        // NaN errors must not sneak past the comparison.
        let nan = vec![rounding_entry("rounding_qr", 100, f64::NAN, 1e-4, 12)];
        assert_eq!(rounding(&nan, None, true).len(), 1);
    }

    #[test]
    fn rounding_rank_and_timing_gates_use_the_baseline() {
        let base = vec![
            rounding_entry("rounding_qr", 100, 1e-6, 1.5e-4, 12),
            rounding_entry("rounding_gram_sim", 100, 1e-6, 1.5e-4, 12),
        ];
        // Identical run: clean.
        assert!(rounding(&base, Some(&base), false).is_empty());
        // A drifted rank decision fails (not retryable)...
        let drift = vec![
            rounding_entry("rounding_qr", 100, 1e-6, 1.5e-4, 13),
            base[1].clone(),
        ];
        let failures = rounding(&drift, Some(&base), false);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].msg.contains("rank decision changed"));
        assert!(!retryable(&failures));
        // ...a slow mean regresses (retryable)...
        let slow = vec![
            rounding_entry("rounding_qr", 200, 1e-6, 1.5e-4, 12),
            base[1].clone(),
        ];
        let failures = rounding(&slow, Some(&base), false);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].msg.contains("regressed"));
        assert!(retryable(&failures));
        // ...and recording skips both baseline gates.
        assert!(rounding(&slow, Some(&base), true).is_empty());
        // An entry with no baseline row is a new variant, not a failure.
        let extra = vec![
            base[0].clone(),
            base[1].clone(),
            rounding_entry("rounding_new", 50, 1e-9, 1e-4, 3),
        ];
        assert!(rounding(&extra, Some(&base), false).is_empty());
    }

    #[test]
    fn rounding_baseline_row_without_results_is_a_structural_failure() {
        let base = vec![
            rounding_entry("rounding_qr", 100, 1e-6, 1.5e-4, 12),
            rounding_entry("rounding_deleted", 100, 1e-6, 1.5e-4, 12),
        ];
        let run = vec![base[0].clone()];
        let failures = rounding(&run, Some(&base), false);
        assert_eq!(
            failures,
            vec![fail(
                Kind::Structural,
                "missing bench results for rounding_deleted".to_string()
            )]
        );
        assert!(!retryable(&failures));
        // Recording a new baseline is how a deleted variant is accepted.
        assert!(rounding(&run, Some(&base), true).is_empty());
    }

    #[test]
    fn rounding_merge_keeps_best_times_and_deterministic_fields() {
        let mut merged = vec![rounding_entry("rounding_qr", 120, 1e-6, 1.5e-4, 12)];
        merge_best(
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
        write_baseline(&path, &entries)
            .map_err(|e| e.to_string())
            .ok();
        let text = std::fs::read_to_string(&path).unwrap_or_default();
        let _ = std::fs::remove_dir_all(&dir);
        let back = parse_entries(&text, true);
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].id, "rounding_adaptive_kr");
        assert_eq!(back[0].rel_err, Some(1.5e-6));
        assert_eq!(back[0].bound, Some(1e-4));
        assert_eq!(back[0].max_rank, Some(12));
    }

    #[test]
    fn missing_par_results_are_structural_failures() {
        let current: Vec<Entry> = full_current()
            .into_iter()
            .filter(|e| e.id != "kernels_par_gemm_1t/512")
            .collect();
        let failures = kernels(&current, None, None, true, false, false, None);
        assert_eq!(failures.len(), 1);
        assert!(failures[0]
            .msg
            .contains("missing bench results for par gemm 512^3"));
        assert!(!retryable(&failures));
    }

    // -----------------------------------------------------------------------
    // Golden verdicts over the committed baselines.
    // -----------------------------------------------------------------------

    /// A committed baseline file under `results/`, by stem.
    fn committed(stem: &str) -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../results/{stem}.json"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    /// Runs one gate's evaluator on the `current` JSONL run against the
    /// committed baselines, returning its failures and whether the retry
    /// loop would re-measure them; `None` when the gate does not run in
    /// this mode.
    fn gate_verdict(
        gate: &str,
        current: &str,
        record: bool,
        hw: bool,
        simd: bool,
    ) -> Option<(Vec<String>, bool)> {
        let stem = format!("BENCH_{gate}");
        let spec = GATES
            .iter()
            .find(|g| g.baselines[0].0 == stem && (g.simd || !simd))?;
        let loaded = Gate::load(spec, simd, |stem| Some(committed(stem)));
        let current = parse_entries(current, spec.accuracy);
        let f = evaluate(&loaded, Mode { record, simd, hw }, &current, false);
        let retry = retryable(&f);
        Some((f.into_iter().map(|f| f.msg).collect(), retry))
    }

    /// The ids of a JSONL text's rows, in order.
    fn ids(text: &str) -> Vec<String> {
        text.lines().filter_map(|l| extract_str(l, "id")).collect()
    }

    /// Rewrites field `key` of row `id` with `f(old value)`.
    fn set_field(text: &str, id: &str, key: &str, f: impl Fn(&str) -> String) -> String {
        let row = format!("\"id\":\"{id}\"");
        let pat = format!("\"{key}\":");
        let mut out = String::new();
        for line in text.lines() {
            let mut line = line.to_string();
            if let (true, Some(at)) = (line.contains(&row), line.find(&pat)) {
                let start = at + pat.len();
                let end = start + line[start..].find([',', '}']).unwrap_or(0);
                let new = f(&line[start..end]);
                line.replace_range(start..end, &new);
            }
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Perturbed copies of a gate's committed run, by case name; `None`
    /// where the case does not apply to the gate (no floor, no accuracy
    /// fields). Cases touch the first or the last row.
    fn perturb(case: &str, text: &str, floor: Option<(&str, &str)>) -> Option<String> {
        let ids = ids(text);
        let (first, last) = (ids.first()?.as_str(), ids.last()?.as_str());
        let accuracy = text.contains("\"rel_err\"");
        match case {
            "base" => Some(text.to_string()),
            "mean+20%" => Some(set_field(text, last, "mean_ns", |v| {
                (v.parse::<u128>().unwrap_or(0) * 6 / 5).to_string()
            })),
            "under-floor" => floor.map(|(num, den)| {
                let den_min = text
                    .lines()
                    .filter(|l| extract_str(l, "id").as_deref() == Some(den))
                    .find_map(|l| extract_u128(l, "min_ns"))
                    .unwrap_or(0);
                set_field(text, num, "min_ns", |_| (2 * den_min).to_string())
            }),
            "row-deleted" => {
                let row = format!("\"id\":\"{first}\"");
                Some(
                    text.lines()
                        .filter(|l| !l.contains(&row))
                        .map(|l| format!("{l}\n"))
                        .collect(),
                )
            }
            "rel_err-NaN" if accuracy => Some(set_field(text, first, "rel_err", |_| "NaN".into())),
            "max_rank-changed" if accuracy => Some(set_field(text, last, "max_rank", |v| {
                (v.parse::<u64>().unwrap_or(0) + 1).to_string()
            })),
            _ => None,
        }
    }

    /// Every committed baseline fed through its gate as both the run and the
    /// baseline, plus perturbed runs, under every (record, hardware gate,
    /// simd) combination: the failure lists and retry decisions are
    /// snapshotted in `tests/fixtures/bench_check_verdicts.golden`.
    /// Re-recording a committed baseline changes this snapshot; the assert
    /// prints the new one.
    #[test]
    fn golden_verdicts_on_committed_baselines() {
        // (gate, simd, committed run files, floor pair pushed under its floor)
        type Scenario = (
            &'static str,
            bool,
            &'static [&'static str],
            Option<(&'static str, &'static str)>,
        );
        let scenarios: [Scenario; 4] = [
            (
                "kernels",
                false,
                &["BENCH_kernels", "BENCH_kernels_par"],
                Some(("kernels_gemm_blocked/256", "kernels_gemm_reference/256")),
            ),
            (
                "kernels",
                true,
                &["BENCH_kernels_simd", "BENCH_kernels_par_simd"],
                Some(("kernels_gemm_blocked/256", "kernels_gemm_reference/256")),
            ),
            (
                "rounding_ablation",
                false,
                &["BENCH_rounding_ablation"],
                None,
            ),
            (
                "rounding_ablation",
                true,
                &["BENCH_rounding_ablation"],
                None,
            ),
        ];
        let cases = [
            "base",
            "mean+20%",
            "under-floor",
            "row-deleted",
            "rel_err-NaN",
            "max_rank-changed",
        ];
        let mut lines = Vec::new();
        for (gate, simd, files, floor) in scenarios {
            let run: String = files.iter().map(|f| committed(f)).collect();
            for case in cases {
                let Some(current) = perturb(case, &run, floor) else {
                    continue;
                };
                for record in [false, true] {
                    for hw in [false, true] {
                        let line = match gate_verdict(gate, &current, record, hw, simd) {
                            None => format!("{gate} simd={simd}: not run"),
                            Some((f, _)) if f.is_empty() => {
                                format!("{gate} simd={simd} {case} record={record} hw={hw}: pass")
                            }
                            Some((f, retry)) => format!(
                                "{gate} simd={simd} {case} record={record} hw={hw}: fail ({}): {}",
                                if retry { "retry" } else { "final" },
                                f.join(" | ")
                            ),
                        };
                        lines.push(line);
                    }
                }
            }
        }
        lines.dedup();
        let actual = lines.join("\n") + "\n";
        let expected = include_str!("../tests/fixtures/bench_check_verdicts.golden");
        assert!(
            actual == expected,
            "bench-check verdicts changed; new snapshot:\n{actual}"
        );
    }

    /// Re-writing every committed baseline from its parsed entries gives the
    /// committed bytes back.
    #[test]
    fn committed_baselines_rewrite_byte_identically() {
        let dir = std::env::temp_dir().join(format!("bench-check-g-{}", std::process::id()));
        for stem in [
            "BENCH_kernels",
            "BENCH_kernels_par",
            "BENCH_kernels_simd",
            "BENCH_kernels_par_simd",
            "BENCH_rounding_ablation",
        ] {
            let text = committed(stem);
            let path = dir.join(format!("{stem}.json"));
            let written = write_baseline(&path, &parse_entries(&text, stem.contains("rounding")));
            assert!(written.is_ok(), "{stem}: {written:?}");
            let back = std::fs::read_to_string(&path).unwrap_or_default();
            assert_eq!(back, text, "{stem}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
