//! Pass `collective_order`: collectives reached from rank-dependent control
//! flow.
//!
//! Every distributed algorithm in this workspace is SPMD against
//! `tt_comm::Communicator`: all ranks must execute an *identical sequence*
//! of collectives. The fastest way to break that during a refactor is to
//! move an `allreduce`/`broadcast` into an `if rank == 0 { .. }` block (or
//! behind a rank-guarded early `return`) — every rank but one then skips
//! the collective, and the job deadlocks or silently corrupts data. The
//! runtime counterpart, `tt_comm::verify::VerifyComm`, catches this only on
//! schedules a test happens to execute; this pass flags the shape at lint
//! time, before any rank runs.
//!
//! It walks every call site of the workspace call graph and flags one that
//!
//! * sits inside a rank-dependent conditional region (an `if`/`while`/
//!   `match` whose condition mentions a rank-valued identifier, or any
//!   chained `else` branch of one), or
//! * follows a rank-guarded early `return` in the same function,
//!
//! when the call is a collective primitive itself (`comm.broadcast(..)`),
//! or its callee *transitively issues a collective* (per the propagated
//! facts, with a witness chain naming the path down to the primitive) — the
//! refactored form where the collective moved into a helper and only the
//! call to the helper sits behind the rank test. Callers named like the
//! collectives themselves are exempt: a backend implementing `broadcast`
//! may freely branch on rank — that is the collective, not a call site.

use super::{Diagnostic, GraphContext, GraphPass, COLLECTIVES};

/// See the module docs.
pub struct CollectiveOrder;

impl GraphPass for CollectiveOrder {
    fn name(&self) -> &'static str {
        "collective_order"
    }

    fn description(&self) -> &'static str {
        "collectives, direct or through helpers, inside rank-dependent conditionals or after \
         rank-guarded early returns (DESIGN.md §10)"
    }

    fn run(&self, cx: &GraphContext<'_>, out: &mut Vec<Diagnostic>) {
        for (ni, edges) in cx.graph.edges.iter().enumerate() {
            let caller = &cx.graph.nodes[ni];
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
                        .find_map(|&t| cx.facts.collective[t].as_ref())
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
                out.push(Diagnostic {
                    pass: self.name(),
                    file: caller.file.clone(),
                    line: site.line,
                    message,
                });
            }
        }
    }
}
