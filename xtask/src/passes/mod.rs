//! The `cargo xtask analyze` pass framework (DESIGN.md §8).
//!
//! Each pass is a lexical heuristic over the [`crate::scanner::CodeModel`]
//! of one source file. Passes never see test code: `tests/`, `benches/`,
//! and `examples/` trees are not collected, and `#[cfg(test)]` regions are
//! masked out by the model. False positives are expected and handled by the
//! suppression syntax (`// analyze::allow(<pass>): reason`, see
//! [`crate::analyze`]) — the reason string is mandatory, so every accepted
//! finding is documented at the call site.

use crate::callgraph::{CallGraph, Facts};
use crate::scanner::{CodeModel, TokenKind};

pub mod collective_order;
pub mod determinism;
pub mod float_discipline;
pub mod p2p_pairing;
pub mod panic_surface;
pub mod request_pairing;
pub mod thread_discipline;

/// One finding of one pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The reporting pass's name (the key used in `analyze::allow(...)`).
    pub pass: &'static str,
    /// Repo-relative path of the file.
    pub file: String,
    /// 1-based line of the triggering token.
    pub line: usize,
    /// Human-readable description of the finding.
    pub message: String,
}

/// A static-analysis pass over one file.
pub trait Pass {
    /// Stable name, used in diagnostics and `analyze::allow(...)`.
    fn name(&self) -> &'static str;

    /// One-line description for `--list-passes` and docs.
    fn description(&self) -> &'static str;

    /// Repo-relative path prefixes this pass does not run on. Allowlists
    /// are part of a pass's *rule* (e.g. LAPACK-style kernels legitimately
    /// compare floats exactly), documented in DESIGN.md §8.
    fn allowlist(&self) -> &'static [&'static str] {
        &[]
    }

    /// Runs the pass over `model`, appending findings to `out`. `file` is
    /// the repo-relative path used in diagnostics.
    fn run(&self, file: &str, model: &CodeModel, out: &mut Vec<Diagnostic>);
}

/// The full registry, in reporting order.
pub fn all_passes() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(p2p_pairing::P2pPairing),
        Box::new(request_pairing::RequestPairing),
        Box::new(float_discipline::FloatCmp),
        Box::new(float_discipline::NarrowCast),
        Box::new(panic_surface::PanicSurface),
        Box::new(thread_discipline::ThreadDiscipline),
    ]
}

/// Everything an interprocedural pass sees: the workspace call graph, the
/// propagated transitive facts, and the hot-path reachability witness per
/// node (`Some(root_name)` when the node is in the forward closure of a
/// [`crate::callgraph::HOT_ROOT_PREFIXES`] entry point).
pub struct GraphContext<'a> {
    /// The workspace call graph (DESIGN.md §10).
    pub graph: &'a CallGraph,
    /// The transitive collective fact (the one `collective_order` reads).
    pub facts: &'a Facts,
    /// Per-node hot-path witness root, indexed like `graph.nodes`.
    pub hot: &'a [Option<String>],
}

/// An interprocedural pass over the whole workspace (DESIGN.md §10). Unlike
/// [`Pass`], a `GraphPass` runs once per analysis, after every file's
/// summary has been merged into the call graph; its diagnostics carry the
/// file they point into, and the driver applies the allowlist by filtering
/// on that path.
pub trait GraphPass {
    /// Stable name, used in diagnostics and `analyze::allow(...)`.
    fn name(&self) -> &'static str;

    /// One-line description for `--list-passes` and docs.
    fn description(&self) -> &'static str;

    /// Repo-relative path prefixes whose findings this pass drops (same
    /// contract as [`Pass::allowlist`], applied post hoc by the driver).
    fn allowlist(&self) -> &'static [&'static str] {
        &[]
    }

    /// Runs the pass over the whole graph, appending findings to `out`.
    fn run(&self, cx: &GraphContext<'_>, out: &mut Vec<Diagnostic>);
}

/// The interprocedural registry, in reporting order.
pub fn all_graph_passes() -> Vec<Box<dyn GraphPass>> {
    vec![
        Box::new(collective_order::CollectiveOrder),
        Box::new(determinism::Determinism),
    ]
}

/// Every pass name — per-file and interprocedural — for suppression
/// validation and `--list-passes`.
pub fn all_pass_names() -> Vec<&'static str> {
    all_passes()
        .iter()
        .map(|p| p.name())
        .chain(all_graph_passes().iter().map(|p| p.name()))
        .collect()
}

/// The `Communicator` collective methods (the SPMD-critical call surface).
pub const COLLECTIVES: &[&str] = &[
    "allreduce_sum",
    "allreduce_max",
    "broadcast",
    "allgather",
    "barrier",
];

/// True for identifiers that lexically look rank-valued (`rank`, `vrank`,
/// `my_rank`, ...).
fn is_rank_ident(text: &str) -> bool {
    text == "rank" || text.ends_with("rank")
}

/// True if token `i` is a `.unwrap()` or `.expect(` method call (shared
/// with the `cargo xtask lint` unwrap lint, which predates the pass
/// framework and stays in the always-on gate).
pub(crate) fn is_unwrap_call(model: &CodeModel, i: usize) -> bool {
    is_method_call(model, i, "unwrap") || is_method_call(model, i, "expect")
}

/// True if token `i` is a method call `.name(`.
pub(crate) fn is_method_call(model: &CodeModel, i: usize, name: &str) -> bool {
    model.tokens[i].is_ident(name)
        && i > 0
        && model.tokens[i - 1].is_punct(".")
        && model.tokens.get(i + 1).is_some_and(|t| t.is_punct("("))
}

/// Marks tokens lexically inside a conditional region whose branch selection
/// depends on a rank-valued identifier: the bodies of `if`/`while` whose
/// condition mentions a rank ident (including every chained `else` branch —
/// reaching the `else` is just as rank-dependent), and the body of a `match`
/// whose scrutinee mentions one.
pub(crate) fn rank_conditional_mask(model: &CodeModel) -> Vec<bool> {
    let toks = &model.tokens;
    let n = toks.len();
    let mut mask = vec![false; n];
    let mut i = 0usize;
    while i < n {
        let t = &toks[i];
        let is_branch = t.is_ident("if") || t.is_ident("while") || t.is_ident("match");
        if !is_branch {
            i += 1;
            continue;
        }
        // Collect the condition / scrutinee up to the `{` opening the body.
        let mut j = i + 1;
        let mut pd = 0i64;
        let mut has_rank = false;
        let mut open = None;
        while j < n {
            let u = &toks[j];
            if u.is_punct("(") || u.is_punct("[") {
                pd += 1;
            } else if u.is_punct(")") || u.is_punct("]") {
                pd -= 1;
            } else if u.is_punct("{") && pd <= 0 {
                open = Some(j);
                break;
            } else if u.is_punct(";") && pd <= 0 {
                break;
            } else if u.kind == TokenKind::Ident && is_rank_ident(&u.text) {
                has_rank = true;
            }
            j += 1;
        }
        let Some(open) = open else {
            i += 1;
            continue;
        };
        if !has_rank {
            i += 1;
            continue;
        }
        let mut end = model.matching_brace(open);
        for flag in mask.iter_mut().take(end + 1).skip(open) {
            *flag = true;
        }
        // Chained `else` / `else if` branches are equally rank-dependent
        // (`match` has no chaining).
        if !t.is_ident("match") {
            let mut k = end + 1;
            while k < n && toks[k].is_ident("else") {
                // Skip an optional `if <cond>` to the branch body.
                let mut m = k + 1;
                let mut pd2 = 0i64;
                let mut open2 = None;
                while m < n {
                    let u = &toks[m];
                    if u.is_punct("(") || u.is_punct("[") {
                        pd2 += 1;
                    } else if u.is_punct(")") || u.is_punct("]") {
                        pd2 -= 1;
                    } else if u.is_punct("{") && pd2 <= 0 {
                        open2 = Some(m);
                        break;
                    } else if u.is_punct(";") && pd2 <= 0 {
                        break;
                    }
                    m += 1;
                }
                let Some(open2) = open2 else { break };
                end = model.matching_brace(open2);
                for flag in mask.iter_mut().take(end + 1).skip(open2) {
                    *flag = true;
                }
                k = end + 1;
            }
        }
        i = open + 1;
    }
    mask
}
