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
         lint                   rustfmt check, clippy deny-list, unwrap/expect source lint, forbid(unsafe_code) audit\n  \
         analyze [flags]        SPMD collective-safety + numeric-discipline passes over library sources,\n                         \
         including the interprocedural call-graph passes (collective_order, protocol_match,\n                         \
         deadlock_check, determinism, alloc_hot_path)\n                         \
         (--format text|json|sarif, --list-passes, --stats, --jobs N, --no-cache,\n                         \
         --changed-only[=REF], --fix-suppressions [--apply],\n                         \
         --no-check-suppressions; suppress with `// analyze::allow(<pass>): reason`)\n  \
         bench-check [--record] [--simd]\n                         \
         run the gates of the GATES table in xtask/src/bench_check.rs (kernels,\n                         \
         rounding ablation, dist overlap) against results/BENCH_*.json; --record\n                         \
         rewrites the baselines; --simd gates the `simd` feature build"
    );
}
