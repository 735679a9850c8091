//! Benchmark harness reproducing the paper's evaluation (§V).
//!
//! One binary per table/figure (see DESIGN.md §4 for the index):
//!
//! | target   | reproduces |
//! |----------|------------|
//! | `table1` | Table I (synthetic models) |
//! | `fig2`   | Fig. 2a/2b (strong scaling, models 1–2) |
//! | `fig3`   | Fig. 3a/3b (strong scaling + breakdown, model 3) |
//! | `fig4`   | Fig. 4 (weak scaling breakdown, model 1) |
//! | `fig5`   | Fig. 5a/5b (TT-GMRES on the cookies problem) |
//! | `fig6`   | Fig. 6 (+ §V-D2 true-residual table) |
//! | `fig7`   | Fig. 7 (weak scaling, model 4) |
//!
//! Scaling runs execute one representative rank's real local computation and
//! price communication with the LogP-style [`tt_comm::CostModel`] — see
//! DESIGN.md §2 for why this preserves the paper's comparisons on a
//! single-core machine. Every binary prints the machine parameters it used.

#![allow(
    clippy::print_stdout,
    reason = "user-facing output is this target's job"
)]
#![allow(
    clippy::disallowed_methods,
    reason = "wall-clock timing is what this target reports; no result depends on it"
)]
#![forbid(unsafe_code)]

use std::time::Instant;

use tt_comm::{Communicator, CostModel, ModelComm};
use tt_core::synthetic::ModelSpec;
use tt_core::{RoundReport, RoundingMethod, RoundingOptions, TtTensor};

/// One of the four rounding algorithms compared throughout §V: a core
/// [`RoundingMethod`] under its legend name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Variant {
    method: RoundingMethod,
    name: &'static str,
}

// The variants keep enum-style names (`Variant::Qr`), the spelling every
// harness and figure binary uses.
#[allow(
    non_upper_case_globals,
    reason = "the variants keep enum-style names, the spelling every harness uses"
)]
impl Variant {
    /// TT-Rounding via orthogonalization (Alg. 2) — the baseline.
    pub const Qr: Variant = Variant {
        method: RoundingMethod::Qr,
        name: "TT-Round-QR",
    };
    /// Gram SVD, sequence, RLR ordering (Alg. 6).
    pub const GramRlr: Variant = Variant {
        method: RoundingMethod::GramRlr,
        name: "Gram-RLR",
    };
    /// Gram SVD, sequence, LRL ordering.
    pub const GramLrl: Variant = Variant {
        method: RoundingMethod::GramLrl,
        name: "Gram-LRL",
    };
    /// Gram SVD, simultaneous (Alg. 5).
    pub const GramSim: Variant = Variant {
        method: RoundingMethod::GramSim,
        name: "Gram-Sim",
    };

    /// Legend name matching the paper.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Runs the variant on a copy of the (local) tensor against the given
    /// communicator.
    pub fn round(
        &self,
        comm: &impl Communicator,
        x: &TtTensor,
        opts: &RoundingOptions,
    ) -> (TtTensor, RoundReport) {
        tt_core::round(comm, x.clone(), self.method, opts)
    }
}

/// All four variants, in the paper's plotting order.
pub const ALL_VARIANTS: [Variant; 4] = [
    Variant::Qr,
    Variant::GramSim,
    Variant::GramRlr,
    Variant::GramLrl,
];

/// One timed rounding run at a given rank count.
#[derive(Debug, Clone)]
pub struct TimedRun {
    /// Rank count `P`.
    pub p: usize,
    /// Measured per-rank local compute seconds (min over trials).
    pub compute_s: f64,
    /// Modeled communication seconds.
    pub comm_s: f64,
}

impl TimedRun {
    /// Total modeled wall time.
    pub fn total(&self) -> f64 {
        self.compute_s + self.comm_s
    }
}

/// The maximum local mode dimensions over all ranks (`⌈I_k/P⌉`): the
/// critical-path rank that gates every collective.
pub fn max_local_dims(dims: &[usize], p: usize) -> Vec<usize> {
    dims.iter().map(|&d| d.div_ceil(p)).collect()
}

/// Executes one representative rank's rounding work for `spec` at `p` ranks
/// and returns measured compute + modeled communication.
///
/// The tensor is the Table-I redundant construction (rank 20 → 10) on the
/// *local* mode dimensions, and rounding runs with the target-rank cap so
/// the executed instruction stream matches a real distributed run exactly.
pub fn run_scaling_point(
    spec: &ModelSpec,
    p: usize,
    variant: Variant,
    model: &CostModel,
    trials: usize,
    seed: u64,
) -> TimedRun {
    let local_dims = max_local_dims(&spec.dims, p);
    run_scaling_point_dims(
        &local_dims,
        spec.target_rank,
        p,
        variant,
        model,
        trials,
        seed,
    )
}

/// Same as [`run_scaling_point`] but with explicit local dimensions (used by
/// the weak-scaling harnesses).
#[allow(
    clippy::too_many_arguments,
    reason = "one scaling point is the full set of harness parameters the figure binaries pass"
)]
pub fn run_scaling_point_dims(
    local_dims: &[usize],
    target_rank: usize,
    p: usize,
    variant: Variant,
    model: &CostModel,
    trials: usize,
    seed: u64,
) -> TimedRun {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let x = tt_core::synthetic::generate_redundant(local_dims, target_rank, &mut rng);
    let opts = RoundingOptions::with_tolerance(1e-8).max_rank(target_rank);

    let mut best_compute = f64::INFINITY;
    let mut comm_s = 0.0;
    for _ in 0..trials.max(1) {
        let comm = ModelComm::new(p);
        let t0 = Instant::now();
        let (_y, _report) = variant.round(&comm, &x, &opts);
        let dt = t0.elapsed().as_secs_f64();
        best_compute = best_compute.min(dt);
        comm_s = comm.stats().modeled_time(model, p);
    }
    TimedRun {
        p,
        compute_s: best_compute,
        comm_s,
    }
}

/// Calibrates γ (seconds per flop) from a GEMM probe, so modeled compute
/// numbers printed alongside measurements refer to this machine.
///
/// The probe goes through the public `gemm` dispatcher, which routes a
/// 256×256×256 multiply to the packed blocked kernel
/// (`tt_linalg::kernel_choice(256, 256, 256) == Kernel::Blocked` — pinned by
/// a test below), and the modeled flop count is `gemm_flops` for the same
/// dimensions. γ therefore reflects the flop rate of the engine the rounding
/// hot path actually runs on, not the reference loops.
pub fn calibrate_gamma() -> f64 {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let n = 256;
    debug_assert_eq!(
        tt_linalg::kernel_choice(n, n, n),
        tt_linalg::Kernel::Blocked
    );
    let a = tt_linalg::Matrix::gaussian(n, n, &mut rng);
    let b = tt_linalg::Matrix::gaussian(n, n, &mut rng);
    // warm-up + 3 timed reps
    let _ = tt_linalg::gemm(tt_linalg::Trans::No, &a, tt_linalg::Trans::No, &b, 1.0);
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        let c = tt_linalg::gemm(tt_linalg::Trans::No, &a, tt_linalg::Trans::No, &b, 1.0);
        best = best.min(t0.elapsed().as_secs_f64());
        std::hint::black_box(&c);
    }
    best / tt_linalg::gemm::gemm_flops(n, n, n)
}

/// Builds the default cost model with γ calibrated on this machine.
pub fn calibrated_model() -> CostModel {
    CostModel {
        gamma: calibrate_gamma(),
        ..Default::default()
    }
}

/// Prints the cost-model banner every harness emits.
pub fn print_model_banner(model: &CostModel) {
    println!(
        "# cost model: alpha = {:.2e} s/msg, beta = {:.2e} s/word, gamma = {:.2e} s/flop ({:.2} Gflop/s, blocked-gemm probe)",
        model.alpha,
        model.beta,
        model.gamma,
        1e-9 / model.gamma
    );
    println!("# compute times are MEASURED on this machine (one representative rank's");
    println!("# real local work); communication times are MODELED (see DESIGN.md #2).");
}

/// Tiny `--key value` argument parser for the harness binaries.
pub struct Args {
    args: Vec<String>,
}

impl Args {
    /// Captures the process arguments.
    pub fn parse() -> Self {
        Args {
            args: std::env::args().skip(1).collect(),
        }
    }

    /// Value of `--key`, parsed.
    pub fn get<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        let flag = format!("--{key}");
        self.args
            .iter()
            .position(|a| a == &flag)
            .and_then(|i| self.args.get(i + 1))
            .and_then(|v| v.parse().ok())
    }

    /// Whether the bare flag `--key` is present.
    pub fn has(&self, key: &str) -> bool {
        let flag = format!("--{key}");
        self.args.iter().any(|a| a == &flag)
    }
}

/// Accuracy of one gated row: the achieved relative error, the bound it
/// must not exceed, and the largest output rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accuracy {
    /// Achieved relative error.
    pub rel_err: f64,
    /// The variant's accuracy bound.
    pub bound: f64,
    /// Largest TT rank of the output.
    pub max_rank: usize,
}

impl Accuracy {
    /// Whether the error misses its bound; a NaN error does, as in the
    /// `cargo xtask bench-check` accuracy gate.
    #[allow(clippy::neg_cmp_op_on_partial_ord, reason = "NaN must count as a miss")]
    pub fn violated(&self) -> bool {
        !(self.rel_err <= self.bound)
    }
}

/// One timed row of a bench bin that `cargo xtask bench-check` gates.
#[derive(Debug, Clone, PartialEq)]
pub struct GateRow {
    /// Benchmark id, the key of the row in the gate's baseline file.
    pub id: String,
    /// Mean wall time per run.
    pub mean_ns: u128,
    /// Best wall time per run.
    pub min_ns: u128,
    /// Timed runs.
    pub samples: u64,
    /// Set on rows the gate also checks for accuracy.
    pub accuracy: Option<Accuracy>,
}

impl GateRow {
    /// The row as one JSONL line, the shape `cargo xtask bench-check` parses.
    pub fn jsonl(&self) -> String {
        let mut line = format!(
            "{{\"id\":\"{}\",\"mean_ns\":{},\"min_ns\":{},\"samples\":{}",
            self.id, self.mean_ns, self.min_ns, self.samples
        );
        if let Some(a) = &self.accuracy {
            line.push_str(&format!(
                ",\"rel_err\":{:e},\"bound\":{:e},\"max_rank\":{}",
                a.rel_err, a.bound, a.max_rank
            ));
        }
        line + "}"
    }
}

/// Writes `rows` as the JSONL a gated bin's `--json <path>` produces.
pub fn write_gate_jsonl(path: &str, rows: &[GateRow]) -> std::io::Result<()> {
    std::fs::write(
        path,
        rows.iter().map(|r| r.jsonl() + "\n").collect::<String>(),
    )
}

/// Formats seconds compactly.
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:8.3} s")
    } else if s >= 1e-3 {
        format!("{:8.3} ms", s * 1e3)
    } else {
        format!("{:8.3} µs", s * 1e6)
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "tests compare exact values on purpose")]
mod tests {
    use super::*;

    /// Pins the γ-calibration contract: the probe GEMM's dimensions route to
    /// the blocked kernel, and the flop count the measurement is divided by
    /// is the standard 2·m·n·k of that same multiply. If the dispatch
    /// threshold ever moves past 256, or `gemm_flops` changes convention,
    /// this fails rather than silently mis-calibrating the cost model.
    #[test]
    fn gamma_calibration_uses_blocked_kernel() {
        assert_eq!(
            tt_linalg::kernel_choice(256, 256, 256),
            tt_linalg::Kernel::Blocked
        );
        let flops = tt_linalg::gemm_flops(256, 256, 256);
        assert_eq!(flops, 2.0 * 256.0f64.powi(3));
        let gamma = calibrate_gamma();
        // Sanity range: between 10 Mflop/s and 1 Tflop/s on any real machine.
        assert!(gamma > 1e-12 && gamma < 1e-7, "gamma = {gamma}");
    }

    #[test]
    fn max_local_dims_is_ceiling() {
        assert_eq!(max_local_dims(&[10, 20, 7], 4), vec![3, 5, 2]);
        assert_eq!(max_local_dims(&[10], 1), vec![10]);
        assert_eq!(max_local_dims(&[5], 8), vec![1]);
    }

    #[test]
    fn scaling_point_runs_all_variants() {
        let model = CostModel::default();
        let spec = ModelSpec::table1(4).scaled(0.01);
        for v in ALL_VARIANTS {
            let run = run_scaling_point(&spec, 8, v, &model, 1, 1);
            assert!(run.compute_s > 0.0, "{v:?}");
            assert!(run.comm_s > 0.0, "{v:?}");
        }
    }

    #[test]
    fn comm_grows_with_p_compute_shrinks() {
        let model = CostModel::default();
        let spec = ModelSpec::table1(1).scaled(0.05);
        let a = run_scaling_point(&spec, 1, Variant::GramLrl, &model, 1, 2);
        let b = run_scaling_point(&spec, 64, Variant::GramLrl, &model, 1, 2);
        assert_eq!(a.comm_s, 0.0, "P=1 has no communication");
        assert!(b.comm_s > 0.0);
        assert!(b.compute_s < a.compute_s, "local work must shrink with P");
    }

    #[test]
    fn qr_variant_records_more_bandwidth_than_gram() {
        // The headline communication claim: TSQR bandwidth carries log P.
        let model = CostModel::default();
        let spec = ModelSpec::table1(1).scaled(0.02);
        let q = run_scaling_point(&spec, 256, Variant::Qr, &model, 1, 3);
        let g = run_scaling_point(&spec, 256, Variant::GramLrl, &model, 1, 3);
        assert!(
            q.comm_s > g.comm_s,
            "QR comm {} must exceed Gram comm {}",
            q.comm_s,
            g.comm_s
        );
    }

    #[test]
    fn gate_rows_render_the_bench_check_jsonl_shape() {
        let mut row = GateRow {
            id: "rounding_qr".into(),
            mean_ns: 4581678,
            min_ns: 4091487,
            samples: 12,
            accuracy: None,
        };
        assert_eq!(
            row.jsonl(),
            r#"{"id":"rounding_qr","mean_ns":4581678,"min_ns":4091487,"samples":12}"#
        );
        row.accuracy = Some(Accuracy {
            rel_err: 9.974152922148776e-7,
            bound: 1.5 * 1e-4,
            max_rank: 12,
        });
        assert!(row.jsonl().ends_with(
            r#","samples":12,"rel_err":9.974152922148776e-7,"bound":1.5000000000000001e-4,"max_rank":12}"#
        ));
    }

    #[test]
    fn nan_error_violates_its_bound() {
        let acc = |rel_err| Accuracy {
            rel_err,
            bound: 1e-4,
            max_rank: 12,
        };
        assert!(!acc(1e-6).violated());
        assert!(acc(2e-4).violated());
        assert!(acc(f64::NAN).violated());
    }

    #[test]
    fn args_parse() {
        let a = Args {
            args: vec!["--model".into(), "2".into(), "--verbose".into()],
        };
        assert_eq!(a.get::<usize>("model"), Some(2));
        assert_eq!(a.get::<f64>("missing"), None);
        assert!(a.has("verbose"));
        assert!(!a.has("quiet"));
    }
}
