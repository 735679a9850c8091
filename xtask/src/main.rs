//! Thin CLI over the [`xtask`] library: parses the task name and
//! dispatches. All logic lives in the library so the integration tests
//! under `xtask/tests/` can drive it directly.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use xtask::{analyze, bench_check, lint, repo_root};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint::lint(&repo_root()),
        Some("analyze") => analyze::analyze(&repo_root(), &args[1..]),
        Some("bench-check") => bench_check::bench_check(&repo_root(), &args[1..]),
        Some(other) => {
            eprintln!("unknown xtask `{other}`\n");
            usage();
            ExitCode::FAILURE
        }
        None => {
            usage();
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!(
        "usage: cargo xtask <task>\n\ntasks:\n  \
         lint                   rustfmt check, clippy under [workspace.lints] + clippy.toml, forbid(unsafe_code) audit\n  \
         analyze [--format text|sarif] [--stats]\n                         \
         SPMD collective-safety check over library sources: collective_order,\n                         \
         collectives reached from rank-dependent control flow through the call graph\n  \
         bench-check [--record] [--simd]\n                         \
         run the gates of the GATES table in xtask/src/bench_check.rs (kernels,\n                         \
         rounding ablation) against results/BENCH_*.json; --record rewrites the\n                         \
         baselines; --simd gates the `simd` feature build"
    );
}
