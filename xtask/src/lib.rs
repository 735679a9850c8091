//! Workspace automation library (the cargo `xtask` pattern: a plain crate
//! invoked through the `.cargo/config.toml` alias, so the whole toolchain
//! needs nothing but `cargo` itself).
//!
//! Tasks (dispatched by the thin `main.rs`):
//!
//! * [`lint`] — the always-on gate: rustfmt check, clippy deny-list,
//!   scanner-based unwrap/expect source lint, `forbid(unsafe_code)` audit;
//! * [`analyze`] — the SPMD collective-safety and numeric-discipline
//!   analyzer: the [`scanner`] token model, the per-file and
//!   interprocedural [`passes`] over the [`callgraph`], with in-source
//!   suppressions (DESIGN.md §8) and [`sarif`] output;
//! * [`bench_check`] — the benchmark regression gates (kernels and the
//!   rounding ablation) against the recorded `results/BENCH_*.json`
//!   baselines, one row of its gate table each.

#![forbid(unsafe_code)]

pub mod analyze;
pub mod bench_check;
pub mod callgraph;
pub mod lint;
pub mod passes;
pub mod sarif;
pub mod scanner;

use std::path::{Path, PathBuf};

/// Directories holding non-test library sources, relative to the repo root.
/// `tests/`, `benches/`, and `examples/` trees are exempt from the source
/// lints; `#[cfg(test)]` regions inside these sources are masked by the
/// scanner's [`scanner::CodeModel`].
pub const LIBRARY_SRC_ROOTS: &[&str] = &["crates", "src", "vendor", "xtask/src"];

/// The repo root, derived from the xtask manifest dir (`cargo xtask` always
/// runs with the manifest dir set to `<repo>/xtask`).
pub fn repo_root() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".to_string());
    let path = PathBuf::from(&manifest);
    path.parent().map(Path::to_path_buf).unwrap_or(path)
}

/// Every crate root that must carry `#![forbid(unsafe_code)]`.
pub fn crate_roots(repo: &Path) -> Vec<PathBuf> {
    let mut roots = vec![repo.join("src/lib.rs"), repo.join("xtask/src/lib.rs")];
    for dir in ["crates", "vendor"] {
        let Ok(entries) = std::fs::read_dir(repo.join(dir)) else {
            continue;
        };
        for entry in entries.flatten() {
            let lib = entry.path().join("src/lib.rs");
            if lib.is_file() {
                roots.push(lib);
            }
        }
    }
    roots.sort();
    roots
}

/// Every non-test library source under [`LIBRARY_SRC_ROOTS`], sorted: the
/// file set `cargo xtask analyze` and the source lints scan.
pub fn library_src_files(repo: &Path) -> Result<Vec<PathBuf>, std::io::Error> {
    let mut files = Vec::new();
    for root in LIBRARY_SRC_ROOTS {
        collect_rs_files(&repo.join(root), &mut files)?;
    }
    files.sort();
    Ok(files)
}

/// Recursively collects `.rs` files, skipping test-only trees
/// (`tests/`, `benches/`, `examples/`) and build output (`target/`).
pub fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), std::io::Error> {
    if !dir.exists() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "tests" | "benches" | "examples" | "target") {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}
