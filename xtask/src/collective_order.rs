//! The one check of `cargo xtask analyze`: collectives reached from
//! rank-dependent control flow (DESIGN.md §8 and §10).
//!
//! Every distributed algorithm in this workspace is SPMD against
//! `tt_comm::Communicator`: all ranks must execute an *identical sequence*
//! of collectives. The fastest way to break that during a refactor is to
//! move an `allreduce`/`broadcast` into an `if rank == 0 { .. }` block (or
//! behind a rank-guarded early `return`) — every rank but one then skips
//! the collective, and the job deadlocks or silently corrupts data. The
//! runtime counterpart, `tt_comm::ThreadComm`'s checked receives, catches
//! this only on schedules a test happens to execute; this check flags the
//! shape at lint time, before any rank runs.
//!
//! [`collective_order`] walks every call site of the workspace call graph
//! and flags one that
//!
//! * sits inside a rank-dependent conditional region (an `if`/`while`/
//!   `match` whose condition mentions a rank id, or any chained `else`
//!   branch of one), or
//! * follows a rank-guarded early `return` in the same function,
//!
//! when the call is a collective primitive itself (`comm.broadcast(..)`),
//! or its callee *transitively issues a collective* (per the propagated
//! facts, with a witness chain naming the path down to the primitive) — the
//! refactored form where the collective moved into a helper and only the
//! call to the helper sits behind the rank test. Callers named like the
//! collectives themselves are exempt: a backend implementing `broadcast`
//! may freely branch on rank — that is the collective, not a call site.
//!
//! The check is a lexical heuristic over the [`crate::scanner::CodeModel`];
//! it never sees test code (`tests/`, `benches/` and `examples/` trees are
//! not collected, and `#[cfg(test)]` regions are masked out by the model).

use crate::callgraph::{CallGraph, Facts};
use crate::scanner::{CodeModel, TokenKind};

/// The rule id of every finding (text output and SARIF).
pub const RULE: &str = "collective_order";

/// The rule's one-line description (SARIF rule metadata).
pub const DESCRIPTION: &str = "collectives, direct or through helpers, inside rank-dependent \
                               conditionals or after rank-guarded early returns (DESIGN.md §10)";

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Repo-relative path of the file.
    pub file: String,
    /// 1-based line of the call site.
    pub line: usize,
    /// Human-readable description of the finding.
    pub message: String,
}

/// The `Communicator` collective methods (the SPMD-critical call surface).
pub const COLLECTIVES: &[&str] = &[
    "allreduce_sum",
    "allreduce_max",
    "broadcast",
    "allgather",
    "barrier",
];

/// True for the identifiers that hold a rank id: `rank` (which covers
/// `comm.rank()`) and TSQR's virtual rank `vrank`. Names that merely end in
/// `rank` (`max_rank`, `target_rank`, ...) are TT-rank counts, not rank ids.
fn is_rank_ident(text: &str) -> bool {
    text == "rank" || text == "vrank"
}

/// Runs the check over the whole call graph. Findings come in file order,
/// then line order.
pub fn collective_order(graph: &CallGraph, facts: &Facts) -> Vec<Diagnostic> {
    let mut out: Vec<(usize, Diagnostic)> = Vec::new();
    for (ni, edges) in graph.edges.iter().enumerate() {
        let caller = &graph.nodes[ni];
        // A communicator backend/decorator implementing a collective is
        // rank-dependent by construction.
        if COLLECTIVES.contains(&caller.name.as_str()) {
            continue;
        }
        for edge in edges {
            let site = &edge.site;
            if !site.in_rank_cond && site.after_rank_return.is_none() {
                continue;
            }
            let name = &site.callee;
            let ret = site.after_rank_return.unwrap_or(0);
            let message = if site.is_method && COLLECTIVES.contains(&name.as_str()) {
                if site.in_rank_cond {
                    format!(
                        "collective `{name}` inside a rank-dependent conditional: every \
                         rank must execute an identical collective sequence (SPMD); hoist \
                         the call or make the condition rank-uniform"
                    )
                } else {
                    format!(
                        "collective `{name}` is skipped by ranks taking the rank-guarded \
                         early return at line {ret}: the remaining ranks will block in it \
                         forever"
                    )
                }
            } else {
                // Over-approximation on ambiguous edges: any candidate
                // carrying the fact makes the site suspect; the witness
                // chain tells the reader which resolution was assumed.
                let Some(witness) = edge
                    .targets
                    .iter()
                    .find_map(|&t| facts.collective[t].as_ref())
                else {
                    continue;
                };
                if site.in_rank_cond {
                    format!(
                        "call to `{name}` inside a rank-dependent conditional transitively \
                         issues a collective ({}): ranks skipping this branch skip the \
                         collective and the rest deadlock in it — hoist the call or make \
                         the condition rank-uniform",
                        witness.chain
                    )
                } else {
                    format!(
                        "call to `{name}` after the rank-guarded early return at line \
                         {ret} transitively issues a collective ({}): returning ranks \
                         never reach it and the rest block forever",
                        witness.chain
                    )
                }
            };
            out.push((
                caller.file_idx,
                Diagnostic {
                    file: caller.file.clone(),
                    line: site.line,
                    message,
                },
            ));
        }
    }
    // Stable, so same-line findings keep call-site order.
    out.sort_by_key(|(file_idx, d)| (*file_idx, d.line));
    out.into_iter().map(|(_, d)| d).collect()
}

/// Marks tokens lexically inside a conditional region whose branch selection
/// depends on a rank id: the bodies of `if`/`while` whose condition
/// mentions one (including every chained `else` branch — reaching the
/// `else` is just as rank-dependent), and the body of a `match` whose
/// scrutinee mentions one.
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
