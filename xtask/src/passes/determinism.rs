//! Pass `determinism`: nondeterminism sources reachable from kernel and
//! rounding entry points.
//!
//! The numeric crates keep a bitwise determinism contract (DESIGN.md
//! §11): for a fixed input and build configuration, every kernel and
//! every rounding sweep produces bit-identical results — the property the
//! bit pins and cross-rank reproducibility both rest on. The contract dies
//! quietly: a `HashMap` iteration feeding a reduction reorders the sum per
//! process, an `Instant::now` branch makes timing observable, an
//! `env::var` read makes results depend on the launch environment.
//!
//! This pass flags the *sources* — `HashMap`/`HashSet` (iteration order),
//! wall-clock reads, thread-identity queries, environment reads,
//! `available_parallelism`, unseeded RNG constructors — but only in
//! functions reachable from a hot-path entry point
//! ([`crate::callgraph::HOT_ROOT_PREFIXES`]: the `gemm`/`syrk`/QR/TSQR
//! kernel surface and the `round_*`/`gram_sweep*` rounding drivers), walking
//! the workspace call graph so helpers three calls down are still covered.
//! Code not reachable from those roots (CLI tooling, bench harnesses,
//! builders) may read clocks and environments freely.
//!
//! Vendored crates mirror external APIs and are exempt by allowlist; a
//! sanctioned use inside the workspace carries an in-source suppression
//! stating why it cannot move a result bit.

use super::{Diagnostic, GraphContext, GraphPass};

/// See the module docs.
pub struct Determinism;

impl GraphPass for Determinism {
    fn name(&self) -> &'static str {
        "determinism"
    }

    fn description(&self) -> &'static str {
        "nondeterminism sources (hash-order, clock, thread-id, env, unseeded RNG) reachable \
         from kernel/rounding entry points (bitwise contract, DESIGN.md §10/§11)"
    }

    fn allowlist(&self) -> &'static [&'static str] {
        // Vendored shims mirror external crate APIs (criterion reads
        // clocks; rand's whole point is entropy); tooling and bench
        // harnesses are not numeric code and may read clocks/environments
        // freely — they only enter the graph through ambiguous call edges.
        // The comm layer reads clocks for recv-timeout bookkeeping, which
        // affects scheduling but never the values a collective delivers;
        // its determinism story is the collective algebra checked by
        // `collective_order` and VerifyComm at runtime.
        &["vendor", "xtask", "crates/tt-bench", "crates/tt-comm"]
    }

    fn run(&self, cx: &GraphContext<'_>, out: &mut Vec<Diagnostic>) {
        for (ni, node) in cx.graph.nodes.iter().enumerate() {
            // Each function reports its own direct evidence; transitive
            // reports would re-flag one source once per caller.
            let Some(root) = cx.hot[ni].as_ref() else {
                continue;
            };
            let summary = cx.graph.summary(ni);
            for e in &summary.nondet {
                out.push(Diagnostic {
                    pass: self.name(),
                    file: node.file.clone(),
                    line: e.line,
                    message: format!(
                        "{} in `{}`, reachable from hot-path entry `{root}`: kernels and \
                         rounding sweeps must be bitwise deterministic for fixed input and \
                         build configuration (DESIGN.md §11) — use a BTreeMap/sorted order, a seeded \
                         RNG, or move the dependence out of the hot path",
                        e.what, node.name
                    ),
                });
            }
        }
    }
}
