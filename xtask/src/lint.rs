//! `cargo xtask lint` — the repo's fast static gate (DESIGN.md §7):
//!
//! 1. `cargo fmt --all -- --check` — formatting drift fails the build;
//! 2. `cargo clippy --workspace --all-targets -- -D warnings`, under the lint
//!    policy of the root `Cargo.toml`'s `[workspace.lints]` and the bans of
//!    `clippy.toml` (panic surface, exact float comparison, truncating
//!    casts, threads, locks, clocks, environment reads, hash-ordered
//!    collections);
//! 3. an audit that every crate root opts into `#![forbid(unsafe_code)]`.
//!
//! The SPMD protocol check lives in `cargo xtask analyze`
//! ([`crate::analyze`]); `lint` stays the quick always-on gate.

use std::path::Path;
use std::process::{Command, ExitCode};

use crate::crate_roots;

/// CLI entry point for `cargo xtask lint`.
pub fn lint(repo: &Path) -> ExitCode {
    let mut failures: Vec<String> = Vec::new();

    run_step(
        &mut failures,
        "rustfmt",
        Command::new("cargo").args(["fmt", "--all", "--", "--check"]),
    );

    // The lint set is configuration, not code: `[workspace.lints]` and
    // `clippy.toml`. `-D warnings` makes every warning, a new toolchain's
    // included, fail the gate.
    run_step(
        &mut failures,
        "clippy",
        Command::new("cargo").args([
            "clippy",
            "--workspace",
            "--all-targets",
            "--quiet",
            "--",
            "-D",
            "warnings",
        ]),
    );

    match unsafe_audit(repo) {
        Ok(()) => eprintln!("lint: forbid(unsafe_code) audit ......... ok"),
        Err(missing) => failures.push(format!(
            "crate roots missing #![forbid(unsafe_code)]: {}",
            missing.join(", ")
        )),
    }

    if failures.is_empty() {
        eprintln!("lint: all checks passed");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("lint FAILURE: {f}");
        }
        ExitCode::FAILURE
    }
}

fn run_step(failures: &mut Vec<String>, name: &str, cmd: &mut Command) {
    match cmd.status() {
        Ok(status) if status.success() => {
            eprintln!(
                "lint: {name} {} ok",
                ".".repeat(38usize.saturating_sub(name.len()))
            );
        }
        Ok(status) => failures.push(format!("{name} failed with {status}")),
        Err(e) => failures.push(format!("{name} could not run: {e}")),
    }
}

fn unsafe_audit(repo: &Path) -> Result<(), Vec<String>> {
    let mut missing = Vec::new();
    for root in crate_roots(repo) {
        let ok = std::fs::read_to_string(&root)
            .map(|text| text.contains("#![forbid(unsafe_code)]"))
            .unwrap_or(false);
        if !ok {
            missing.push(
                root.strip_prefix(repo)
                    .unwrap_or(&root)
                    .display()
                    .to_string(),
            );
        }
    }
    if missing.is_empty() {
        Ok(())
    } else {
        Err(missing)
    }
}
