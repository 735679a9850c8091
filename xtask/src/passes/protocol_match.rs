//! Pass `protocol_match`: the lint-time shadow of `VerifyComm`.
//!
//! The runtime fingerprinting layer aborts when two ranks disagree on the
//! next collective (kind or order). That catches divergence only on the
//! schedules tests happen to run; this pass proves it statically where it
//! can. For every rank-conditional branch point in every function skeleton
//! (see [`crate::skeleton`]), it computes the *collective sequence* each
//! arm emits — expanding helper calls interprocedurally when the call
//! resolves to a unique collective-issuing target, with the expansion
//! chain spelled out in the message — and flags branch points whose arms
//! provably emit different non-empty sequences.
//!
//! Scope discipline against double-reporting: an *empty* arm opposite a
//! collective-emitting one is already `collective_order`'s finding (direct
//! or through a call), so this pass only fires when at least two arms each
//! reach a collective and their sequences differ — the case
//! `collective_order` cannot see. Arms whose sequence cannot be
//! proven (unknown-iteration loops over collectives, ambiguous call
//! resolution, early `return`) are conservatively skipped: like the
//! runtime it shadows, the pass reports only provable divergence.
//! Communicator backends (functions named after a collective or the p2p
//! primitives) legitimately branch on rank *inside* the protocol and are
//! exempt.

use super::{Diagnostic, GraphContext, GraphPass, COLLECTIVES};
use crate::skeleton::Skel;

/// See the module docs.
pub struct ProtocolMatch;

/// The collective sequence of one branch arm, when provable.
enum CollSeq {
    Known(Vec<String>),
    Unknown,
}

/// Recursion bound for interprocedural expansion (mirrors the witness
/// chain depth of the fact layer).
const MAX_DEPTH: usize = 6;

/// Computes the collective sequence `s` emits, expanding unique
/// collective-issuing call targets. `via` accumulates expanded callee
/// names for the message; `stack` guards cycles.
fn seq_of(
    cx: &GraphContext<'_>,
    ni: usize,
    s: &Skel,
    via: &mut Vec<String>,
    stack: &mut Vec<usize>,
) -> CollSeq {
    match s {
        Skel::Seq(xs) => {
            let mut out = Vec::new();
            for x in xs {
                match seq_of(cx, ni, x, via, stack) {
                    CollSeq::Known(mut ks) => out.append(&mut ks),
                    CollSeq::Unknown => return CollSeq::Unknown,
                }
            }
            CollSeq::Known(out)
        }
        Skel::Coll { kind, .. } => CollSeq::Known(vec![kind.clone()]),
        // A posted i-collective enters the rank's stream at the *post*
        // site — exactly where VerifyComm records its fingerprint (the
        // cross-rank check merely runs later, at the wait). p2p posts and
        // waits contribute nothing to the collective sequence.
        Skel::Post { kind, .. } if kind == "iallreduce_sum" => CollSeq::Known(vec![kind.clone()]),
        Skel::Post { .. } | Skel::Wait { .. } => CollSeq::Known(Vec::new()),
        Skel::Send { .. } | Skel::Recv { .. } => CollSeq::Known(Vec::new()),
        Skel::Let { .. } | Skel::Mut { .. } => CollSeq::Known(Vec::new()),
        // Control escapes make the suffix of the enclosing arm
        // incomparable: give up on this arm rather than guess.
        Skel::Brk | Skel::Cont | Skel::Ret => CollSeq::Unknown,
        Skel::Call { callee, line, .. } => {
            let mut targets: Vec<usize> = Vec::new();
            for edge in &cx.graph.edges[ni] {
                if edge.site.line != *line || edge.site.callee != *callee {
                    continue;
                }
                for &t in &edge.targets {
                    if cx.facts.collective[t].is_some() && !targets.contains(&t) {
                        targets.push(t);
                    }
                }
            }
            match targets.as_slice() {
                [] => CollSeq::Known(Vec::new()),
                [t] => {
                    let t = *t;
                    if stack.contains(&t) || stack.len() >= MAX_DEPTH {
                        return CollSeq::Unknown;
                    }
                    if !via.contains(callee) {
                        via.push(callee.clone());
                    }
                    stack.push(t);
                    let r = seq_of(cx, t, &cx.graph.summary(t).skeleton, via, stack);
                    stack.pop();
                    r
                }
                _ => CollSeq::Unknown,
            }
        }
        Skel::If { then, els, .. } => {
            // A nested branch contributes a provable sequence only when
            // both arms agree (rank-conditional nested branches are
            // checked at their own site by the walk).
            let a = seq_of(cx, ni, then, via, stack);
            let b = seq_of(cx, ni, els, via, stack);
            match (a, b) {
                (CollSeq::Known(x), CollSeq::Known(y)) if x == y => CollSeq::Known(x),
                _ => CollSeq::Unknown,
            }
        }
        Skel::Match { arms, .. } => {
            let mut first: Option<Vec<String>> = None;
            for a in arms {
                match seq_of(cx, ni, a, via, stack) {
                    CollSeq::Known(x) => match &first {
                        None => first = Some(x),
                        Some(f) if *f == x => {}
                        _ => return CollSeq::Unknown,
                    },
                    CollSeq::Unknown => return CollSeq::Unknown,
                }
            }
            CollSeq::Known(first.unwrap_or_default())
        }
        Skel::While { body, .. } | Skel::Loop { body, .. } | Skel::For { body, .. } => {
            // Unknown trip count: a collective inside is emitted some
            // unprovable number of times.
            match seq_of(cx, ni, body, via, stack) {
                CollSeq::Known(ks) if ks.is_empty() => CollSeq::Known(Vec::new()),
                _ => CollSeq::Unknown,
            }
        }
    }
}

fn fmt_seq(ks: &[String]) -> String {
    format!("[{}]", ks.join(", "))
}

/// Walks the skeleton of node `ni` reporting rank-conditional branch
/// points whose arms provably emit different non-empty collective
/// sequences.
fn walk(cx: &GraphContext<'_>, ni: usize, s: &Skel, out: &mut Vec<Diagnostic>) {
    let check_arms = |arms: &[(&str, &Skel)], line: usize, out: &mut Vec<Diagnostic>| {
        let mut known: Vec<(String, Vec<String>, Vec<String>)> = Vec::new();
        for (label, arm) in arms {
            let mut via = Vec::new();
            let mut stack = vec![ni];
            if let CollSeq::Known(ks) = seq_of(cx, ni, arm, &mut via, &mut stack) {
                if !ks.is_empty() {
                    known.push(((*label).to_string(), ks, via));
                }
            }
        }
        if known.len() < 2 {
            return;
        }
        if known.windows(2).all(|w| w[0].1 == w[1].1) {
            return;
        }
        let node = &cx.graph.nodes[ni];
        let detail = known
            .iter()
            .map(|(label, ks, via)| {
                if via.is_empty() {
                    format!("{label} emits {}", fmt_seq(ks))
                } else {
                    format!(
                        "{label} emits {} (via `{}`)",
                        fmt_seq(ks),
                        via.join("` → `")
                    )
                }
            })
            .collect::<Vec<_>>()
            .join("; ");
        out.push(Diagnostic {
            pass: "protocol_match",
            file: node.file.clone(),
            line,
            message: format!(
                "rank-conditional branches in `{}` emit different collective sequences: \
                 {detail} — every rank must execute the same collective protocol \
                 (VerifyComm aborts here at runtime; make the sequences identical or \
                 hoist the collectives out of the branch)",
                node.name
            ),
        });
    };
    match s {
        Skel::Seq(xs) => xs.iter().for_each(|x| walk(cx, ni, x, out)),
        Skel::If {
            rank_cond,
            then,
            els,
            line,
            ..
        } => {
            if *rank_cond {
                check_arms(
                    &[
                        ("the `if` arm", then.as_ref()),
                        ("the `else` arm", els.as_ref()),
                    ],
                    *line,
                    out,
                );
            }
            walk(cx, ni, then, out);
            walk(cx, ni, els, out);
        }
        Skel::Match {
            rank_cond,
            arms,
            line,
            ..
        } => {
            if *rank_cond {
                let labeled: Vec<(String, &Skel)> = arms
                    .iter()
                    .enumerate()
                    .map(|(k, a)| (format!("arm {k}"), a))
                    .collect();
                let refs: Vec<(&str, &Skel)> =
                    labeled.iter().map(|(l, a)| (l.as_str(), *a)).collect();
                check_arms(&refs, *line, out);
            }
            arms.iter().for_each(|a| walk(cx, ni, a, out));
        }
        Skel::While { body, .. } | Skel::Loop { body, .. } | Skel::For { body, .. } => {
            walk(cx, ni, body, out)
        }
        _ => {}
    }
}

impl GraphPass for ProtocolMatch {
    fn name(&self) -> &'static str {
        "protocol_match"
    }

    fn description(&self) -> &'static str {
        "rank-conditional branches whose arms provably emit different collective \
         sequences (path-sensitive, interprocedural VerifyComm shadow; DESIGN.md §13)"
    }

    fn run(&self, cx: &GraphContext<'_>, out: &mut Vec<Diagnostic>) {
        for ni in 0..cx.graph.nodes.len() {
            let name = cx.graph.nodes[ni].name.as_str();
            // Communicator backends: branching on rank inside the
            // implementation of a primitive IS the protocol.
            if COLLECTIVES.contains(&name) || name.contains("send") || name.contains("recv") {
                continue;
            }
            walk(cx, ni, &cx.graph.summary(ni).skeleton, out);
        }
    }
}
