//! Workspace call graph and interprocedural summary propagation
//! (DESIGN.md §10).
//!
//! The per-file passes (DESIGN.md §8) see one [`CodeModel`] at a time, which
//! is exactly why a rank-guarded early return in a *helper* or a `HashMap`
//! iteration three calls below a kernel entry point used to slip through.
//! This module lifts the analysis to the workspace level in three layers:
//!
//! 1. **Extraction** — [`FileSummary::extract`] walks a file's `CodeModel`
//!    once and records, per `fn`: every call site (callee name, `::`-path
//!    qualifier, method-ness, enclosing rank-conditional /
//!    rank-guarded-return context) and the function's *direct facts* (issues
//!    a collective, nondeterminism sources).
//! 2. **Resolution** — [`CallGraph::build`] links call sites to `fn`
//!    definitions by simple name, narrowed by the call's `::` qualifier and
//!    the calling file's `use` paths, then same-file, then same-crate.
//!    Resolution is heuristic (the scanner does not type-check), so its
//!    precision is *auditable*: every call is classified resolved /
//!    ambiguous (edges to all candidates, over-approximating) / external
//!    (no workspace definition), and the counts surface in
//!    `cargo xtask analyze --stats`.
//! 3. **Propagation** — [`propagate`] runs the collective fact to a
//!    fixpoint over the graph (cycles terminate because facts only ever
//!    switch on), so "transitively issues a collective" becomes queryable
//!    per function, with a human-readable call-chain witness for
//!    diagnostics. The direct nondeterminism sources are read as extracted:
//!    `determinism` pairs them with the hot-path reachability below.
//!
//! The interprocedural passes (`collective_order`, `determinism`) are
//! consumers of this module; see
//! [`crate::passes::GraphPass`].

use std::collections::BTreeMap;

use crate::passes::{rank_conditional_mask, COLLECTIVES};
use crate::scanner::{CodeModel, TokenKind};

/// Identifier prefixes marking *hot-path entry points*: the kernel and
/// rounding functions whose transitive callees must uphold the bitwise
/// determinism contract (DESIGN.md §11).
/// Matching is by name prefix rather than by path so fixtures and future
/// crates participate without configuration; the prefixes are chosen to hit
/// the `tt-linalg` kernel surface and the `tt-core` rounding/orthogonalization
/// sweeps and nothing else.
pub const HOT_ROOT_PREFIXES: &[&str] = &[
    "round_",
    "gram_sweep",
    "tsqr",
    "gemm",
    "syrk",
    "householder_qr",
    "orthogonalize",
];

/// True if `name` names a hot-path entry point (see [`HOT_ROOT_PREFIXES`]).
pub fn is_hot_root(name: &str) -> bool {
    HOT_ROOT_PREFIXES.iter().any(|p| name.starts_with(p))
}

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
    /// Short description of the construct (`"`HashMap` (nondeterministic
    /// iteration order)"`, `"`.allreduce_sum()`"`, ...).
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
    /// Call sites in body order.
    pub calls: Vec<CallSite>,
    /// Direct collective issued (method-call form), if any: first one wins.
    pub collective: Option<Evidence>,
    /// Direct nondeterminism sources (deduplicated per line).
    pub nondet: Vec<Evidence>,
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

/// Nondeterminism sources recognized lexically: `(trigger tokens, label)`.
/// The trigger is either a lone identifier or a `prefix::name` pair.
const NONDET_SOURCES: &[(&str, Option<&str>, &str)] = &[
    (
        "HashMap",
        None,
        "`HashMap` (nondeterministic iteration order)",
    ),
    (
        "HashSet",
        None,
        "`HashSet` (nondeterministic iteration order)",
    ),
    (
        "now",
        Some("Instant"),
        "`Instant::now` (wall-clock dependence)",
    ),
    (
        "now",
        Some("SystemTime"),
        "`SystemTime::now` (wall-clock dependence)",
    ),
    (
        "current",
        Some("thread"),
        "`thread::current` (thread identity)",
    ),
    ("ThreadId", None, "`ThreadId` (thread identity)"),
    ("var", Some("env"), "`env::var` (environment dependence)"),
    (
        "var_os",
        Some("env"),
        "`env::var_os` (environment dependence)",
    ),
    (
        "available_parallelism",
        None,
        "`available_parallelism` (hardware-shape dependence)",
    ),
    ("thread_rng", None, "`thread_rng` (unseeded randomness)"),
    ("from_entropy", None, "`from_entropy` (unseeded randomness)"),
];

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
            let mut fs = FnSummary {
                name: f.name.clone(),
                line: f.line,
                calls: Vec::new(),
                collective: None,
                nondet: Vec::new(),
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

                // Nondeterminism sources (not calls — any occurrence).
                for (name, prefix, label) in NONDET_SOURCES {
                    if &t.text != name {
                        continue;
                    }
                    let prefix_ok = match prefix {
                        None => true,
                        Some(p) => i >= 2 && toks[i - 1].is_punct("::") && toks[i - 2].is_ident(p),
                    };
                    if prefix_ok && !fs.nondet.iter().any(|e| e.line == line && e.what == *label) {
                        fs.nondet.push(Evidence {
                            what: (*label).to_string(),
                            line,
                        });
                    }
                }

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
                    if (COLLECTIVES.contains(&t.text.as_str()) || t.text == "iallreduce_sum")
                        && fs.collective.is_none()
                    {
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
    /// Ambiguous callee names with their occurrence counts, for the
    /// precision audit in `--stats`.
    pub ambiguous_names: BTreeMap<String, usize>,
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
                // The nonblocking post is the same primitive surface.
                if COLLECTIVES.contains(&site.callee.as_str()) || site.callee == "iallreduce_sum" {
                    node_edges.push(Edge {
                        site: site.clone(),
                        targets: Vec::new(),
                        resolution: Resolution::External,
                    });
                    continue;
                }
                let empty: Vec<usize> = Vec::new();
                let cands = by_name.get(site.callee.as_str()).unwrap_or(&empty);
                let (targets, resolution) = resolve(&g.nodes, node, file, site, cands);
                match resolution {
                    Resolution::Resolved => g.resolved_calls += 1,
                    Resolution::Ambiguous => {
                        g.ambiguous_calls += 1;
                        *g.ambiguous_names.entry(site.callee.clone()).or_insert(0) += 1;
                    }
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

/// Narrows `cands` for one call site. See the module docs for the
/// preference order.
fn resolve(
    nodes: &[Node],
    caller: &Node,
    file: &FileSummary,
    site: &CallSite,
    cands: &[usize],
) -> (Vec<usize>, Resolution) {
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

/// Forward reachability from the hot-path roots ([`is_hot_root`]): for each
/// node, the name of a witnessing root (`None` = not reachable). Roots
/// witness themselves.
pub fn hot_reachability(g: &CallGraph) -> Vec<Option<String>> {
    let n = g.nodes.len();
    let mut witness: Vec<Option<String>> = vec![None; n];
    let mut queue: Vec<usize> = Vec::new();
    for (ni, w) in witness.iter_mut().enumerate() {
        if is_hot_root(&g.nodes[ni].name) {
            *w = Some(g.nodes[ni].name.clone());
            queue.push(ni);
        }
    }
    while let Some(ni) = queue.pop() {
        let root = witness[ni].clone();
        for edge in &g.edges[ni] {
            for &t in &edge.targets {
                if witness[t].is_none() {
                    witness[t] = root.clone();
                    queue.push(t);
                }
            }
        }
    }
    witness
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
            "fn f(comm: &C) {\n    comm.allreduce_sum(&mut [0.0]);\n    let m = HashMap::new();\n}\n",
        );
        let f = &s.fns[0];
        assert!(f.collective.as_ref().is_some_and(|e| e.line == 2));
        assert!(f.nondet.iter().any(|e| e.what.contains("HashMap")));
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
        assert_eq!(g.ambiguous_names.get("dup"), Some(&1));
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
    fn hot_reachability_walks_edges_from_named_roots() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "fn round_entry() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}\nfn unrelated() { leaf(); }\n",
        )]);
        let w = hot_reachability(&g);
        assert_eq!(w[node(&g, "round_entry")].as_deref(), Some("round_entry"));
        assert_eq!(w[node(&g, "leaf")].as_deref(), Some("round_entry"));
        assert!(w[node(&g, "unrelated")].is_none());
    }

    #[test]
    fn crate_key_covers_all_roots() {
        assert_eq!(crate_key("crates/tt-core/src/lib.rs"), "tt-core");
        assert_eq!(crate_key("vendor/rand/src/lib.rs"), "rand");
        assert_eq!(crate_key("src/lib.rs"), "src");
        assert_eq!(crate_key("xtask/src/lib.rs"), "xtask");
    }
}
