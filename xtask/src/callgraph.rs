//! Workspace call graph and interprocedural summary propagation
//! (DESIGN.md §10).
//!
//! One [`CodeModel`] shows a single file, which is exactly why a collective
//! moved into a *helper* behind a rank test used to slip through. This
//! module lifts the analysis to the workspace level in three layers:
//!
//! 1. **Extraction** — [`FileSummary::extract`] walks a file's `CodeModel`
//!    once and records, per `fn`: its `impl` owner, every call site (callee
//!    name, `::`-path qualifier, method-ness, enclosing rank-conditional /
//!    rank-guarded-return context) and its *direct fact* (issues a
//!    collective).
//! 2. **Resolution** — [`CallGraph::build`] links call sites to `fn`
//!    definitions by simple name. A type-qualified call (`Matrix::zeros(`,
//!    `Self::helper(`) links only to that type's `impl` fns and is external
//!    when there is none; other calls are narrowed by the call's `::`
//!    qualifier and the calling file's `use` paths, then same-file, then
//!    same-crate. Resolution is heuristic (the scanner does not
//!    type-check), so its precision is *auditable*: every call is
//!    classified resolved / ambiguous (edges to all candidates,
//!    over-approximating) / external (no workspace definition), and the
//!    counts surface in `cargo xtask analyze --stats`.
//! 3. **Propagation** — [`propagate`] runs the collective fact to a
//!    fixpoint over the graph (cycles terminate because facts only ever
//!    switch on), so "transitively issues a collective" becomes queryable
//!    per function, with a human-readable call-chain witness for
//!    diagnostics.
//!
//! The check [`crate::collective_order`] is the consumer of this module.

use std::collections::BTreeMap;

use crate::collective_order::{rank_conditional_mask, COLLECTIVES};
use crate::scanner::{CodeModel, TokenKind};

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Callee identifier (the ident directly before the `(`).
    pub callee: String,
    /// `::`-path qualifier for path calls (`truncate::gram_truncate(` →
    /// `"truncate"`, `a::b::c(` → `"a::b"`); `None` for bare and method
    /// calls.
    pub qualifier: Option<String>,
    /// True for `.name(` method calls.
    pub is_method: bool,
    /// 1-based source line.
    pub line: usize,
    /// Inside an `if`/`while`/`match` region whose condition mentions a
    /// rank-valued identifier (or a chained `else` of one).
    pub in_rank_cond: bool,
    /// Follows a rank-guarded early `return` in the same function; carries
    /// the return's line for diagnostics.
    pub after_rank_return: Option<usize>,
}

/// One piece of direct (intra-function) evidence: what was seen and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evidence {
    /// Short description of the construct (`"`.allreduce_sum()`"`).
    pub what: String,
    /// 1-based source line.
    pub line: usize,
}

/// Everything the workspace analysis needs to know about one `fn`, with no
/// reference back into the token stream (so the `CodeModel` can be dropped
/// after extraction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnSummary {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Names a `Name::f(` call reaches this fn by: the self type of its
    /// `impl` block, then the trait for a trait impl; the trait for a
    /// default method. Empty for free fns.
    pub owners: Vec<String>,
    /// Call sites in body order.
    pub calls: Vec<CallSite>,
    /// Direct collective issued (method-call form), if any: first one wins.
    pub collective: Option<Evidence>,
}

/// Summary of one source file: its `use`-path import map plus all fn
/// summaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileSummary {
    /// Repo-relative path.
    pub path: String,
    /// Imported name → `use` path segments (without the name itself), e.g.
    /// `use crate::round::truncate::gram_truncate;` stores
    /// `gram_truncate → ["crate", "round", "truncate"]`.
    pub uses: BTreeMap<String, Vec<String>>,
    /// All non-test `fn` items, in source order.
    pub fns: Vec<FnSummary>,
}

/// Keywords that can precede a `(` without being a call.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "in", "as", "let", "mut", "ref", "move",
    "pub", "use", "mod", "impl", "struct", "enum", "trait", "where", "dyn", "break", "continue",
    "else",
];

impl FileSummary {
    /// Extracts the summary of `path` from its scanned model. Total on
    /// arbitrary input (property-tested with the scanner).
    pub fn extract(path: &str, model: &CodeModel) -> FileSummary {
        let rank_mask = rank_conditional_mask(model);
        let toks = &model.tokens;
        let n = toks.len();

        let blocks = impl_blocks(model);
        let mut out = FileSummary {
            path: path.to_string(),
            uses: extract_uses(model),
            fns: Vec::new(),
        };

        for f in &model.fns {
            let Some((body_start, body_end)) = f.body else {
                continue;
            };
            if model.in_test.get(f.fn_idx).copied().unwrap_or(false) {
                continue;
            }
            let owners = blocks
                .iter()
                .filter(|(open, close, _)| *open < f.fn_idx && f.fn_idx < *close)
                .min_by_key(|(open, close, _)| close - open)
                .map(|(_, _, owners)| owners.clone())
                .unwrap_or_default();
            let mut fs = FnSummary {
                name: f.name.clone(),
                line: f.line,
                owners,
                calls: Vec::new(),
                collective: None,
            };

            // Rank-guarded early-return regions in this fn: past `end`,
            // calls are `after_rank_return` (what `collective_order` flags
            // when the call reaches a collective).
            let mut guard_ends: Vec<(usize, usize)> = Vec::new(); // (end tok, ret line)
            {
                let mut i = body_start;
                while i <= body_end.min(n.saturating_sub(1)) {
                    if rank_mask[i] && toks[i].is_ident("return") && !model.in_test[i] {
                        let mut end = i;
                        while end + 1 < n && rank_mask[end + 1] {
                            end += 1;
                        }
                        guard_ends.push((end, toks[i].line));
                        i = end + 1;
                        continue;
                    }
                    i += 1;
                }
            }

            for i in body_start..=body_end.min(n.saturating_sub(1)) {
                if model.in_test[i] {
                    continue;
                }
                // Only this fn's innermost body (nested fns get their own
                // summary row).
                if model.enclosing_fn(i).map(|g| g.fn_idx) != Some(f.fn_idx) {
                    continue;
                }
                let t = &toks[i];
                if t.kind != TokenKind::Ident {
                    continue;
                }
                let line = t.line;

                // Calls: ident followed by `(`.
                let prev_dot = i > 0 && toks[i - 1].is_punct(".");
                if !toks.get(i + 1).is_some_and(|u| u.is_punct("(")) {
                    continue;
                }
                if NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
                    continue;
                }
                // The fn's own definition ident.
                if i > 0 && toks[i - 1].is_ident("fn") {
                    continue;
                }

                let after_ret = guard_ends.iter().find(|(end, _)| *end < i).map(|(_, l)| *l);

                if prev_dot {
                    // Method call. (The site below is recorded for a
                    // collective too: `collective_order` reports direct
                    // primitives from the same sites as helper calls.)
                    if COLLECTIVES.contains(&t.text.as_str()) && fs.collective.is_none() {
                        fs.collective = Some(Evidence {
                            what: format!("`.{}()`", t.text),
                            line,
                        });
                    }
                    fs.calls.push(CallSite {
                        callee: t.text.clone(),
                        qualifier: None,
                        is_method: true,
                        line,
                        in_rank_cond: rank_mask[i],
                        after_rank_return: after_ret,
                    });
                    continue;
                }

                // Path call: walk back over `seg ::` pairs.
                let mut qual_segs: Vec<String> = Vec::new();
                let mut j = i;
                while j >= 2 && toks[j - 1].is_punct("::") && toks[j - 2].kind == TokenKind::Ident {
                    qual_segs.push(toks[j - 2].text.clone());
                    j -= 2;
                }
                qual_segs.reverse();
                let qualifier = if qual_segs.is_empty() {
                    None
                } else {
                    Some(qual_segs.join("::"))
                };

                // Bare capitalized callees are (almost always) tuple-struct
                // or enum-variant constructors (`Some(x)`, `Restore(prev)`);
                // recording them as calls would flood the unresolved report.
                let bare_ctor =
                    qualifier.is_none() && t.text.chars().next().is_some_and(char::is_uppercase);
                if bare_ctor {
                    continue;
                }

                fs.calls.push(CallSite {
                    callee: t.text.clone(),
                    qualifier,
                    is_method: false,
                    line,
                    in_rank_cond: rank_mask[i],
                    after_rank_return: after_ret,
                });
            }
            out.fns.push(fs);
        }
        out
    }
}

/// `(body open, body close, owners)` of every `impl` and `trait` block, in
/// token indices; the owners are as documented on [`FnSummary::owners`].
/// An `impl` in type position (`x: impl Trait`, `-> impl Iterator`) opens
/// no block.
fn impl_blocks(model: &CodeModel) -> Vec<(usize, usize, Vec<String>)> {
    let toks = &model.tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let is_trait = t.is_ident("trait");
        if !is_trait && !t.is_ident("impl") {
            continue;
        }
        if i > 0 && ["->", ":", "(", ",", "<", "&", "="].contains(&toks[i - 1].text.as_str()) {
            continue;
        }
        // Header up to the `{` outside angle brackets. The last identifier
        // at angle depth 0 names the type (`fmt::Display` → `Display`); a
        // `for` turns the name so far into the trait.
        let mut angle = 0i64;
        let mut name: Option<String> = None;
        let mut trait_name: Option<String> = None;
        let mut in_where = false;
        let mut open = None;
        for (j, u) in toks.iter().enumerate().skip(i + 1) {
            match u.text.as_str() {
                "<" => angle += 1,
                "<<" => angle += 2,
                ">" => angle -= 1,
                ">>" => angle -= 2,
                "{" if angle <= 0 => {
                    open = Some(j);
                    break;
                }
                ";" | "(" | ")" | "," | "=" if angle <= 0 => break,
                "where" => in_where = true,
                "for" if angle <= 0 && !is_trait => trait_name = name.take(),
                "mut" | "dyn" | "unsafe" => {}
                // A trait's own name comes first; supertraits follow it.
                _ if angle <= 0
                    && !in_where
                    && u.kind == TokenKind::Ident
                    && !(is_trait && name.is_some()) =>
                {
                    name = Some(u.text.clone());
                }
                _ => {}
            }
        }
        let Some(open) = open else { continue };
        let owners: Vec<String> = name.into_iter().chain(trait_name).collect();
        out.push((open, model.matching_brace(open), owners));
    }
    out
}

/// Parses `use` declarations into a name → path-segments map. Handles
/// `use a::b::c;`, `use a::b::{c, d as e};` (one group level, the workspace
/// idiom), and ignores globs. Total on malformed input.
fn extract_uses(model: &CodeModel) -> BTreeMap<String, Vec<String>> {
    let toks = &model.tokens;
    let n = toks.len();
    let mut out = BTreeMap::new();
    let mut i = 0usize;
    while i < n {
        if !toks[i].is_ident("use") {
            i += 1;
            continue;
        }
        // Collect the path up to `;`, `{`, or end.
        let mut segs: Vec<String> = Vec::new();
        let mut j = i + 1;
        while j < n {
            let t = &toks[j];
            if t.kind == TokenKind::Ident {
                segs.push(t.text.clone());
                j += 1;
            } else if t.is_punct("::") {
                j += 1;
            } else {
                break;
            }
        }
        match toks.get(j) {
            Some(t) if t.is_punct(";") => {
                // `use a::b::c;` (or `... as alias` — segs then ends with
                // [.., "c", "as", "alias"]; register the alias).
                register_use(&mut out, &segs);
                i = j + 1;
            }
            Some(t) if t.is_punct("{") => {
                let close = model.matching_brace(j);
                let prefix = segs.clone();
                let mut item: Vec<String> = Vec::new();
                for t in toks.iter().take(close.min(n)).skip(j + 1) {
                    if t.kind == TokenKind::Ident {
                        item.push(t.text.clone());
                    } else if t.is_punct(",") {
                        let mut full = prefix.clone();
                        full.append(&mut item);
                        register_use(&mut out, &full);
                    }
                    // `::` inside a group extends the item path; `{` nested
                    // groups degrade gracefully (their idents join the item).
                }
                if !item.is_empty() {
                    let mut full = prefix;
                    full.extend(item);
                    register_use(&mut out, &full);
                }
                i = close + 1;
            }
            _ => i = j + 1,
        }
    }
    out
}

/// Registers one flattened `use` path (`[... , name]` or
/// `[..., name, "as", alias]`) into the import map.
fn register_use(out: &mut BTreeMap<String, Vec<String>>, segs: &[String]) {
    if segs.is_empty() {
        return;
    }
    let (name, path) = match segs {
        [path @ .., n, kw, alias] if kw == "as" => {
            let mut p = path.to_vec();
            p.push(n.clone());
            (alias.clone(), p)
        }
        [path @ .., n] => (n.clone(), path.to_vec()),
        _ => return,
    };
    if name == "self" || name == "*" {
        return;
    }
    out.entry(name).or_insert(path);
}

/// How one call site was linked (see the module docs on auditability).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Unique workspace definition.
    Resolved,
    /// Several candidate definitions — edges to all (over-approximation).
    Ambiguous,
    /// No workspace definition (std / vendored-API surface / primitive).
    External,
}

/// One edge of the call graph: a call site plus its candidate targets.
#[derive(Debug, Clone)]
pub struct Edge {
    /// The originating call site (copied out of the summary).
    pub site: CallSite,
    /// Target node indices (empty for external calls).
    pub targets: Vec<usize>,
    /// Resolution class, for the stats report.
    pub resolution: Resolution,
}

/// One node: a function, identified by summary coordinates.
#[derive(Debug, Clone)]
pub struct Node {
    /// Repo-relative file path.
    pub file: String,
    /// Crate key derived from the path (`crates/tt-core/...` → `tt-core`).
    pub crate_key: String,
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Index of the owning [`FileSummary`] in [`CallGraph::files`].
    pub file_idx: usize,
    /// Index of the [`FnSummary`] within that file.
    pub fn_idx: usize,
}

/// The workspace call graph: nodes, per-node out-edges, and the audit
/// counters.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// The input summaries, in file order.
    pub files: Vec<FileSummary>,
    /// All functions.
    pub nodes: Vec<Node>,
    /// Out-edges per node (indexed like `nodes`).
    pub edges: Vec<Vec<Edge>>,
    /// Calls linked to exactly one definition.
    pub resolved_calls: usize,
    /// Calls linked to several candidates (edges to all).
    pub ambiguous_calls: usize,
    /// Calls with no workspace definition.
    pub external_calls: usize,
}

/// Crate key of a repo-relative path: second component under `crates/` or
/// `vendor/`, first component otherwise (`src` for the root crate,
/// `xtask` for the tooling crate).
pub fn crate_key(path: &str) -> String {
    let mut parts = path.split('/');
    match parts.next() {
        Some("crates") | Some("vendor") => parts.next().unwrap_or("").to_string(),
        Some(first) => first.to_string(),
        None => String::new(),
    }
}

impl CallGraph {
    /// Builds the graph over `files` (summaries in deterministic file
    /// order).
    pub fn build(files: Vec<FileSummary>) -> CallGraph {
        let mut g = CallGraph {
            files,
            ..CallGraph::default()
        };
        // Node table + name index.
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (fi, f) in g.files.iter().enumerate() {
            for (ki, fs) in f.fns.iter().enumerate() {
                let idx = g.nodes.len();
                g.nodes.push(Node {
                    file: f.path.clone(),
                    crate_key: crate_key(&f.path),
                    name: fs.name.clone(),
                    line: fs.line,
                    file_idx: fi,
                    fn_idx: ki,
                });
                by_name
                    .entry(&g.files[fi].fns[ki].name)
                    .or_default()
                    .push(idx);
            }
        }
        // Work around borrowck: collect edges into a side table first.
        let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); g.nodes.len()];
        for (ni, node_edges) in edges.iter_mut().enumerate() {
            let node = &g.nodes[ni];
            let file = &g.files[node.file_idx];
            let fs = &file.fns[node.fn_idx];
            for site in &fs.calls {
                // Collective primitives are direct evidence, not edges: the
                // backends *implement* the operation, and propagating
                // through them would re-derive what the direct fact states.
                if COLLECTIVES.contains(&site.callee.as_str()) {
                    node_edges.push(Edge {
                        site: site.clone(),
                        targets: Vec::new(),
                        resolution: Resolution::External,
                    });
                    continue;
                }
                let empty: Vec<usize> = Vec::new();
                let cands = by_name.get(site.callee.as_str()).unwrap_or(&empty);
                let (targets, resolution) = resolve(&g.files, &g.nodes, node, site, cands);
                match resolution {
                    Resolution::Resolved => g.resolved_calls += 1,
                    Resolution::Ambiguous => g.ambiguous_calls += 1,
                    Resolution::External => g.external_calls += 1,
                }
                node_edges.push(Edge {
                    site: site.clone(),
                    targets,
                    resolution,
                });
            }
        }
        g.edges = edges;
        g
    }

    /// Total number of edges (call sites).
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// The [`FnSummary`] behind node `ni`.
    pub fn summary(&self, ni: usize) -> &FnSummary {
        &self.files[self.nodes[ni].file_idx].fns[self.nodes[ni].fn_idx]
    }
}

/// The type a `Type::f(` call names: the qualifier's last segment when it
/// is capitalized or a primitive type, with `Self` read as the caller's own
/// type. `None` for module paths and unqualified calls.
fn qualifying_type<'a>(site: &'a CallSite, caller: &'a FnSummary) -> Option<&'a str> {
    let last = site.qualifier.as_deref()?.rsplit("::").next()?;
    if last == "Self" {
        return caller.owners.first().map(String::as_str);
    }
    let primitive = matches!(
        last,
        "f64" | "f32" | "usize" | "isize" | "u64" | "i64" | "u32" | "i32" | "u8" | "str"
    );
    (primitive || last.starts_with(char::is_uppercase)).then_some(last)
}

/// Narrows `cands` for one call site. See the module docs for the
/// preference order.
fn resolve(
    files: &[FileSummary],
    nodes: &[Node],
    caller: &Node,
    site: &CallSite,
    cands: &[usize],
) -> (Vec<usize>, Resolution) {
    let file = &files[caller.file_idx];
    let owner = |c: usize| &files[nodes[c].file_idx].fns[nodes[c].fn_idx].owners;
    if let Some(ty) = qualifying_type(site, &file.fns[caller.fn_idx]) {
        let owned: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&c| owner(c).iter().any(|o| o == ty))
            .collect();
        return match owned.len() {
            0 => (Vec::new(), Resolution::External),
            1 => (owned, Resolution::Resolved),
            _ => pick_local(caller, nodes, owned),
        };
    }
    if cands.is_empty() {
        return (Vec::new(), Resolution::External);
    }
    if cands.len() == 1 {
        return (cands.to_vec(), Resolution::Resolved);
    }
    // Hints: the call's `::` qualifier segments plus the file's `use` path
    // for the callee name. A candidate matches a hint set when every
    // plausible module segment appears in its path (crate names with `-`
    // match their `_` form).
    let mut hints: Vec<String> = Vec::new();
    if let Some(q) = &site.qualifier {
        hints.extend(q.split("::").map(str::to_string));
    }
    if let Some(path) = file.uses.get(&site.callee) {
        hints.extend(path.iter().cloned());
    }
    hints.retain(|h| h != "crate" && h != "self" && h != "super" && h != "std");
    if !hints.is_empty() {
        let narrowed: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&c| {
                hints.iter().all(|h| {
                    let h_dash = h.replace('_', "-");
                    nodes[c].file.split('/').any(|comp| {
                        let stem = comp.strip_suffix(".rs").unwrap_or(comp);
                        stem == h || stem == h_dash
                    }) || nodes[c].crate_key == h_dash
                        || nodes[c].crate_key == *h
                })
            })
            .collect();
        if narrowed.len() == 1 {
            return (narrowed, Resolution::Resolved);
        }
        if !narrowed.is_empty() {
            return pick_local(caller, nodes, narrowed);
        }
    }
    pick_local(caller, nodes, cands.to_vec())
}

/// Same-file, then same-crate preference; ambiguous keeps every candidate
/// in the preferred pool (over-approximation, counted for the audit).
fn pick_local(caller: &Node, nodes: &[Node], pool: Vec<usize>) -> (Vec<usize>, Resolution) {
    let same_file: Vec<usize> = pool
        .iter()
        .copied()
        .filter(|&c| nodes[c].file == caller.file)
        .collect();
    if same_file.len() == 1 {
        return (same_file, Resolution::Resolved);
    }
    if !same_file.is_empty() {
        return (same_file, Resolution::Ambiguous);
    }
    let same_crate: Vec<usize> = pool
        .iter()
        .copied()
        .filter(|&c| nodes[c].crate_key == caller.crate_key)
        .collect();
    if same_crate.len() == 1 {
        return (same_crate, Resolution::Resolved);
    }
    if !same_crate.is_empty() {
        return (same_crate, Resolution::Ambiguous);
    }
    (pool, Resolution::Ambiguous)
}

/// One transitive fact with its human-readable witness chain
/// (`"`a` → `b` → `.allreduce_sum()` (crates/…/gram.rs:141)"`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// Call-chain description ending in the direct evidence.
    pub chain: String,
    /// Chain length (0 = the fact is direct in this function).
    pub depth: usize,
}

/// Transitive facts per node, computed by [`propagate`].
#[derive(Debug, Default)]
pub struct Facts {
    /// Transitively issues a `Communicator` collective.
    pub collective: Vec<Option<Witness>>,
}

/// Maximum witness-chain length spelled out in messages; deeper chains are
/// elided with `…` (the fact itself still propagates to any depth).
const MAX_CHAIN: usize = 4;

/// Runs the transitive fact to a fixpoint over the graph. Terminates on cycles
/// because facts only ever switch on (monotone), and is deterministic: the
/// node order is file order and the first witness found is kept.
pub fn propagate(g: &CallGraph) -> Facts {
    let n = g.nodes.len();
    let mut facts = Facts {
        collective: vec![None; n],
    };

    // Seed with direct evidence.
    for ni in 0..n {
        let fs = g.summary(ni);
        let seed = |e: &Evidence| Witness {
            chain: format!("{} ({}:{})", e.what, g.nodes[ni].file, e.line),
            depth: 0,
        };
        if let Some(e) = &fs.collective {
            facts.collective[ni] = Some(seed(e));
        }
    }

    // Monotone fixpoint. Each iteration can only turn facts on, so at most
    // `n` iterations; in practice the call-depth of the workspace (~5).
    loop {
        let mut changed = false;
        for ni in 0..n {
            for edge in &g.edges[ni] {
                for &t in &edge.targets {
                    changed |= lift(&mut facts.collective, ni, t, &g.nodes[t].name);
                }
            }
        }
        if !changed {
            break;
        }
    }
    facts
}

/// Copies a fact from callee `t` up to caller `ni`, extending the witness
/// chain. Returns true if the caller's fact switched on.
fn lift(slot: &mut [Option<Witness>], ni: usize, t: usize, callee_name: &str) -> bool {
    if ni == t || slot[ni].is_some() {
        return false;
    }
    let Some(w) = slot[t].clone() else {
        return false;
    };
    let chain = if w.depth >= MAX_CHAIN {
        format!("`{callee_name}` → …")
    } else {
        format!("`{callee_name}` → {}", w.chain)
    };
    slot[ni] = Some(Witness {
        chain,
        depth: w.depth + 1,
    });
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::CodeModel;

    fn summarize(path: &str, src: &str) -> FileSummary {
        FileSummary::extract(path, &CodeModel::build(src))
    }

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        CallGraph::build(files.iter().map(|(p, s)| summarize(p, s)).collect())
    }

    fn node(g: &CallGraph, name: &str) -> usize {
        g.nodes
            .iter()
            .position(|n| n.name == name)
            .unwrap_or_else(|| panic!("node {name}"))
    }

    #[test]
    fn call_sites_record_context() {
        let s = summarize(
            "a.rs",
            "fn f(comm: &C) {\n    let rank = comm.rank();\n    if rank == 0 { helper(); }\n    for i in 0..3 { other(i); }\n}\n",
        );
        let f = &s.fns[0];
        // `.rank()` is a method call site too.
        let helper = f
            .calls
            .iter()
            .find(|c| c.callee == "helper")
            .expect("helper");
        assert!(helper.in_rank_cond);
        let other = f.calls.iter().find(|c| c.callee == "other").expect("other");
        assert!(!other.in_rank_cond);
    }

    #[test]
    fn after_rank_return_is_flagged_with_line() {
        let s = summarize(
            "a.rs",
            "fn f(comm: &C) {\n    if comm.rank() > 0 {\n        return;\n    }\n    late();\n}\n",
        );
        let late = s.fns[0]
            .calls
            .iter()
            .find(|c| c.callee == "late")
            .expect("late");
        assert_eq!(late.after_rank_return, Some(3));
    }

    #[test]
    fn direct_facts_are_extracted() {
        let s = summarize(
            "a.rs",
            "fn f(comm: &C) {\n    comm.allreduce_sum(&mut [0.0]);\n}\n",
        );
        let f = &s.fns[0];
        assert!(f.collective.as_ref().is_some_and(|e| e.line == 2));
    }

    #[test]
    fn use_paths_are_parsed_including_groups_and_aliases() {
        let s = summarize(
            "a.rs",
            "use crate::round::truncate::{gram_truncate, SingularSide};\nuse tt_linalg::gemm_v as gv;\nfn f() {}\n",
        );
        assert_eq!(
            s.uses.get("gram_truncate"),
            Some(&vec![
                "crate".to_string(),
                "round".to_string(),
                "truncate".to_string()
            ])
        );
        assert_eq!(
            s.uses.get("gv"),
            Some(&vec!["tt_linalg".to_string(), "gemm_v".to_string()])
        );
    }

    #[test]
    fn unique_names_resolve_and_unknowns_are_external() {
        let g = graph(&[
            (
                "crates/a/src/lib.rs",
                "fn caller() { helper(); std_only(); }",
            ),
            ("crates/b/src/lib.rs", "fn helper() {}"),
        ]);
        assert_eq!(g.resolved_calls, 1);
        assert_eq!(g.external_calls, 1);
        assert_eq!(g.ambiguous_calls, 0);
        let caller = node(&g, "caller");
        let helper = node(&g, "helper");
        assert!(g.edges[caller]
            .iter()
            .any(|e| e.targets == vec![helper] && e.resolution == Resolution::Resolved));
    }

    #[test]
    fn same_file_beats_cross_file_candidates() {
        let g = graph(&[
            ("crates/a/src/lib.rs", "fn caller() { dup(); }\nfn dup() {}"),
            ("crates/b/src/lib.rs", "fn dup() {}"),
        ]);
        let caller = node(&g, "caller");
        let local = g
            .nodes
            .iter()
            .position(|n| n.name == "dup" && n.file.starts_with("crates/a"))
            .expect("local dup");
        assert_eq!(g.edges[caller][0].targets, vec![local]);
        assert_eq!(g.edges[caller][0].resolution, Resolution::Resolved);
    }

    #[test]
    fn use_path_narrows_cross_crate_candidates() {
        let g = graph(&[
            (
                "crates/tt-core/src/lib.rs",
                "use tt_linalg::dup;\nfn caller() { dup(); }",
            ),
            ("crates/tt-linalg/src/lib.rs", "fn dup() {}"),
            ("crates/tt-comm/src/lib.rs", "fn dup() {}"),
        ]);
        let caller = node(&g, "caller");
        let want = g
            .nodes
            .iter()
            .position(|n| n.name == "dup" && n.file.contains("tt-linalg"))
            .expect("linalg dup");
        assert_eq!(g.edges[caller][0].targets, vec![want]);
        assert_eq!(g.edges[caller][0].resolution, Resolution::Resolved);
        assert_eq!(g.resolved_calls, 1);
    }

    #[test]
    fn qualifier_narrows_by_module_file_stem() {
        let g = graph(&[
            (
                "crates/tt-core/src/round/mod.rs",
                "fn caller() { truncate::dup(); }",
            ),
            ("crates/tt-core/src/round/truncate.rs", "fn dup() {}"),
            ("crates/tt-core/src/round/qr.rs", "fn dup() {}"),
        ]);
        let caller = node(&g, "caller");
        let want = g
            .nodes
            .iter()
            .position(|n| n.file.ends_with("truncate.rs"))
            .expect("truncate dup");
        assert_eq!(g.edges[caller][0].targets, vec![want]);
    }

    #[test]
    fn ambiguous_calls_edge_to_all_candidates_and_are_counted() {
        let g = graph(&[
            ("crates/a/src/lib.rs", "fn caller() { dup(); }"),
            ("crates/b/src/lib.rs", "fn dup() {}"),
            ("crates/c/src/lib.rs", "fn dup() {}"),
        ]);
        let caller = node(&g, "caller");
        assert_eq!(g.edges[caller][0].targets.len(), 2);
        assert_eq!(g.edges[caller][0].resolution, Resolution::Ambiguous);
        assert_eq!(g.ambiguous_calls, 1);
    }

    #[test]
    fn propagation_terminates_on_recursion_and_cycles() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "fn a(comm: &C) { b(comm); }\nfn b(comm: &C) { a(comm); c(comm); }\nfn c(comm: &C) { comm.barrier(); rec(comm); }\nfn rec(comm: &C) { rec(comm); }\n",
        )]);
        let facts = propagate(&g);
        for f in ["a", "b", "c"] {
            assert!(
                facts.collective[node(&g, f)].is_some(),
                "{f} must transitively issue a collective"
            );
        }
        assert!(facts.collective[node(&g, "rec")].is_none());
        // The witness chain names the path down to the primitive.
        let w = facts.collective[node(&g, "a")].clone().expect("witness");
        assert!(w.chain.contains("`b`"), "chain: {}", w.chain);
        assert!(w.chain.contains("barrier"), "chain: {}", w.chain);
    }

    #[test]
    fn owners_name_the_impl_type_then_the_trait() {
        let s = summarize(
            "a.rs",
            "impl<T> Foo<T> { fn a() {} }\nimpl fmt::Display for Bar<'_> { fn b() {} }\n\
             trait Baz: Clone { fn c() {} }\n\
             fn d(x: impl Fn()) -> impl Iterator<Item = f64> { fn e() {} }\n",
        );
        let owners = |name: &str| {
            s.fns
                .iter()
                .find(|f| f.name == name)
                .map(|f| f.owners.clone())
                .unwrap_or_else(|| panic!("fn {name}"))
        };
        assert_eq!(owners("a"), ["Foo"]);
        assert_eq!(owners("b"), ["Bar", "Display"]);
        assert_eq!(owners("c"), ["Baz"]);
        assert!(owners("d").is_empty());
        assert!(owners("e").is_empty());
    }

    #[test]
    fn type_qualified_calls_link_only_to_that_types_impl() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "impl M {\n    fn new() {}\n    fn zeros() { Self::new(); }\n}\nfn new() {}\n\
             fn caller() { M::zeros(); Vec::new(); M::new(); }\n",
        )]);
        let method_new = g
            .nodes
            .iter()
            .position(|n| n.name == "new" && n.line == 2)
            .expect("M::new");
        let caller = node(&g, "caller");
        let edges = &g.edges[caller];
        assert_eq!(edges[0].targets, vec![node(&g, "zeros")]);
        assert_eq!(edges[1].resolution, Resolution::External, "Vec::new");
        assert_eq!(edges[2].targets, vec![method_new]);
        assert_eq!(g.edges[node(&g, "zeros")][0].targets, vec![method_new]);
    }

    #[test]
    fn crate_key_covers_all_roots() {
        assert_eq!(crate_key("crates/tt-core/src/lib.rs"), "tt-core");
        assert_eq!(crate_key("vendor/rand/src/lib.rs"), "rand");
        assert_eq!(crate_key("src/lib.rs"), "src");
        assert_eq!(crate_key("xtask/src/lib.rs"), "xtask");
    }
}
