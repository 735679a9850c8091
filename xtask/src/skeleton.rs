//! Communication-skeleton extraction and bounded SPMD model checking
//! (DESIGN.md §13).
//!
//! The per-file passes and the call-graph facts (DESIGN.md §8/§10) answer
//! *reachability* questions — "does this function transitively issue a
//! collective?" — but ROADMAP item 4 (a real multi-process backend, where a
//! protocol mismatch is a cluster-wide hang rather than an in-process
//! panic) needs *protocol* questions answered at lint time: do all ranks
//! emit the same collective sequence, and can the p2p exchanges deadlock?
//! This module provides the shared infrastructure for the two passes that
//! answer them (`protocol_match`, `deadlock_check`):
//!
//! 1. **Skeleton IR** — [`Skel`], an ordered tree of communication
//!    operations (collective kind + tag expression, send/recv with
//!    peer-rank expression, nonblocking post/wait pairs modeled as
//!    *deferred rendezvous* — see [`Skel::Post`]) under the function's
//!    loop/branch structure, with rank-conditional branches marked. [`extract_fn`] builds it
//!    per `fn` from the token-level [`CodeModel`]; like the scanner it is
//!    *total* — arbitrary byte soup degrades to `Unknown` expressions and
//!    empty blocks, never to a panic (property-tested).
//! 2. **Expression mini-AST** — [`Expr`], capturing just enough arithmetic
//!    over rank-valued identifiers (`rank + mask`, `rank ^ 1`, `2 * rank`)
//!    to evaluate peer expressions at concrete abstract ranks. Everything
//!    else degrades to [`Expr::Opaque`]/[`Expr::Unknown`].
//! 3. **Bounded interpretation** — [`gen_traces`] runs a skeleton at a
//!    concrete `(rank, p)`, inlining comm-relevant callees through the
//!    call graph, and forks on every unknown branch/loop bound into a
//!    bounded set of per-rank *traces* (sequences of abstract comm ops
//!    plus the decision vector that produced them).
//! 4. **Interleaving simulation** — [`check_entry`] pairs one trace per
//!    rank (decisions on rank-independent state must agree across ranks),
//!    then exhaustively interleaves the sends/recvs/collectives with
//!    buffered sends and blocking recvs, at p ∈ {2, 3, 4}.
//!
//! The reporting semantics are deliberately *angelic*: a function is
//! flagged only when **no** explored resolution of the unknowns completes,
//! and any budget cap hit along the way makes the entry point
//! *inconclusive* (silent) instead. That keeps the pass sound-for-reporting
//! — every finding is a real "no execution completes within the model" —
//! at the cost of missing bugs hidden behind the caps, which is the right
//! trade for a lint gate (DESIGN.md §13 spells out the p ≤ 4 caveat).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::callgraph::{CallGraph, Facts};
use crate::passes::{is_rank_ident, COLLECTIVES};
use crate::scanner::{CodeModel, Token, TokenKind};

// ---------------------------------------------------------------------------
// Expression mini-AST
// ---------------------------------------------------------------------------

/// Unary operators the peer/tag expressions need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not.
    Not,
}

/// Binary operators the peer/tag expressions need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Shl,
    Shr,
    BitAnd,
    BitOr,
    BitXor,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

/// An abstract expression: exactly the arithmetic needed to evaluate
/// peer-rank and tag expressions at a concrete abstract rank, with a total
/// fallback ([`Expr::Opaque`]/[`Expr::Unknown`]) for everything else.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Named local / parameter.
    Var(String),
    /// `comm.rank()` — the abstract rank.
    Rank,
    /// `comm.size()` — the abstract communicator size.
    Size,
    /// Unknown value that *depends on the rank* (e.g. the result of a
    /// rank-conditional `if`/`match` expression).
    RankUnknown,
    /// Unknown rank-independent value.
    Unknown,
    /// Unary operation.
    Un(UnOp, Box<Expr>),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Unknown combination of the listed operands (method calls, indexing,
    /// field access): evaluates to unknown, rank-dependent iff any operand
    /// is.
    Opaque(Vec<Expr>),
}

/// Parses an integer literal body (`"42"`, `"1usize"`, `"0x1f"`, `"1_000"`).
fn parse_int(text: &str) -> Option<i64> {
    let t: String = text.chars().filter(|&c| c != '_').collect();
    let (digits, radix) = if let Some(h) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        (h, 16)
    } else if let Some(b) = t.strip_prefix("0b").or_else(|| t.strip_prefix("0B")) {
        (b, 2)
    } else if let Some(o) = t.strip_prefix("0o").or_else(|| t.strip_prefix("0O")) {
        (o, 8)
    } else {
        (t.as_str(), 10)
    };
    // Strip a type suffix (`usize`, `i64`, ...): keep the leading digit run.
    let end = digits
        .char_indices()
        .find(|(_, c)| !c.is_digit(radix))
        .map_or(digits.len(), |(i, _)| i);
    if end == 0 {
        return None;
    }
    i64::from_str_radix(&digits[..end], radix).ok()
}

/// Precedence-climbing expression parser over a token range. Total: any
/// token it cannot place degrades to [`Expr::Unknown`] and the parser
/// advances, so it terminates on arbitrary input.
struct ExprParser<'a> {
    toks: &'a [Token],
    pos: usize,
    hi: usize,
}

/// Parses the token range `[lo, hi)` as one expression.
pub fn parse_expr(toks: &[Token], lo: usize, hi: usize) -> Expr {
    let hi = hi.min(toks.len());
    if lo >= hi {
        return Expr::Unknown;
    }
    ExprParser { toks, pos: lo, hi }.expr(0)
}

/// Binding power of a binary operator punct, `None` if not one.
fn bin_power(text: &str) -> Option<(BinOp, u8)> {
    Some(match text {
        "||" => (BinOp::Or, 1),
        "&&" => (BinOp::And, 2),
        "==" => (BinOp::Eq, 3),
        "!=" => (BinOp::Ne, 3),
        "<" => (BinOp::Lt, 3),
        "<=" => (BinOp::Le, 3),
        ">" => (BinOp::Gt, 3),
        ">=" => (BinOp::Ge, 3),
        "|" => (BinOp::BitOr, 4),
        "^" => (BinOp::BitXor, 5),
        "&" => (BinOp::BitAnd, 6),
        "<<" => (BinOp::Shl, 7),
        ">>" => (BinOp::Shr, 7),
        "+" => (BinOp::Add, 8),
        "-" => (BinOp::Sub, 8),
        "*" => (BinOp::Mul, 9),
        "/" => (BinOp::Div, 9),
        "%" => (BinOp::Rem, 9),
        _ => return None,
    })
}

impl<'a> ExprParser<'a> {
    fn peek(&self) -> Option<&'a Token> {
        if self.pos < self.hi {
            Some(&self.toks[self.pos])
        } else {
            None
        }
    }

    fn expr(&mut self, min_bp: u8) -> Expr {
        let mut lhs = self.primary();
        lhs = self.postfix(lhs);
        while let Some(t) = self.peek() {
            if t.kind != TokenKind::Punct {
                break;
            }
            let Some((op, bp)) = bin_power(&t.text) else {
                break;
            };
            if bp < min_bp {
                break;
            }
            self.pos += 1;
            let rhs = {
                let mut r = self.primary();
                r = self.postfix(r);
                // Right side climbs at bp+1 (left associative).
                self.climb(r, bp + 1)
            };
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        lhs
    }

    /// Continues binary climbing with `lhs` already parsed.
    fn climb(&mut self, mut lhs: Expr, min_bp: u8) -> Expr {
        while let Some(t) = self.peek() {
            if t.kind != TokenKind::Punct {
                break;
            }
            let Some((op, bp)) = bin_power(&t.text) else {
                break;
            };
            if bp < min_bp {
                break;
            }
            self.pos += 1;
            let mut rhs = self.primary();
            rhs = self.postfix(rhs);
            let rhs = self.climb(rhs, bp + 1);
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        lhs
    }

    fn primary(&mut self) -> Expr {
        let Some(t) = self.peek() else {
            return Expr::Unknown;
        };
        match t.kind {
            TokenKind::Num { float } => {
                self.pos += 1;
                if float {
                    Expr::Unknown
                } else {
                    parse_int(&t.text).map_or(Expr::Unknown, Expr::Int)
                }
            }
            TokenKind::Ident => {
                let name = t.text.clone();
                self.pos += 1;
                match name.as_str() {
                    "true" => return Expr::Int(1),
                    "false" => return Expr::Int(0),
                    _ => {}
                }
                // Macro invocation: skip the `!` and the delimited body.
                if self.peek().is_some_and(|u| u.is_punct("!")) {
                    self.pos += 1;
                    self.skip_delimited();
                    return Expr::Unknown;
                }
                // Path segments (`a::b::f`) collapse to the last segment.
                let mut last = name;
                while self.peek().is_some_and(|u| u.is_punct("::")) {
                    self.pos += 1;
                    match self.peek() {
                        Some(u) if u.kind == TokenKind::Ident => {
                            last = u.text.clone();
                            self.pos += 1;
                        }
                        _ => return Expr::Unknown,
                    }
                }
                if self.peek().is_some_and(|u| u.is_punct("(")) {
                    let args = self.call_args();
                    return Expr::Opaque(args);
                }
                Expr::Var(last)
            }
            TokenKind::Punct => {
                let text = t.text.clone();
                self.pos += 1;
                match text.as_str() {
                    "-" => {
                        let e = self.primary();
                        let e = self.postfix(e);
                        Expr::Un(UnOp::Neg, Box::new(e))
                    }
                    "!" => {
                        let e = self.primary();
                        let e = self.postfix(e);
                        Expr::Un(UnOp::Not, Box::new(e))
                    }
                    // References and derefs are value-transparent here.
                    "&" | "*" => {
                        if self.peek().is_some_and(|u| u.is_ident("mut")) {
                            self.pos += 1;
                        }
                        let e = self.primary();
                        self.postfix(e)
                    }
                    "(" => {
                        // Parenthesized expression (tuples degrade to the
                        // first element wrapped opaque). `matching` expects
                        // `pos` at the open delimiter, so step back onto it.
                        self.pos -= 1;
                        let close = self.matching(")", "(");
                        self.pos += 1;
                        let inner = parse_expr(self.toks, self.pos, close);
                        let had_comma =
                            (self.pos..close.min(self.hi)).any(|i| self.toks[i].is_punct(","));
                        self.pos = (close + 1).min(self.hi);
                        if had_comma {
                            Expr::Opaque(vec![inner])
                        } else {
                            inner
                        }
                    }
                    _ => Expr::Unknown,
                }
            }
            _ => {
                self.pos += 1;
                Expr::Unknown
            }
        }
    }

    /// Postfix chain: method calls, field access, indexing, casts, `?`.
    fn postfix(&mut self, mut e: Expr) -> Expr {
        loop {
            let Some(t) = self.peek() else {
                return e;
            };
            if t.is_punct(".") {
                let Some(name_tok) = self.toks.get(self.pos + 1) else {
                    self.pos += 1;
                    return e;
                };
                if name_tok.kind != TokenKind::Ident
                    && !matches!(name_tok.kind, TokenKind::Num { .. })
                {
                    self.pos += 1;
                    return e;
                }
                let name = name_tok.text.clone();
                self.pos += 2;
                // `.collect::<..>()` turbofish: give up on the chain.
                if self.peek().is_some_and(|u| u.is_punct("::")) {
                    self.pos += 1;
                    return Expr::Opaque(vec![e]);
                }
                if self.peek().is_some_and(|u| u.is_punct("(")) {
                    let args = self.call_args();
                    e = match (name.as_str(), args.is_empty()) {
                        ("rank", true) => Expr::Rank,
                        ("size", true) => Expr::Size,
                        _ => {
                            let mut ops = vec![e];
                            ops.extend(args);
                            Expr::Opaque(ops)
                        }
                    };
                } else {
                    // Field access / tuple index.
                    e = Expr::Opaque(vec![e]);
                }
            } else if t.is_punct("[") {
                let close = self.matching("]", "[");
                self.pos = (close + 1).min(self.hi);
                e = Expr::Opaque(vec![e]);
            } else if t.is_punct("(") {
                let args = self.call_args();
                let mut ops = vec![e];
                ops.extend(args);
                e = Expr::Opaque(ops);
            } else if t.is_punct("?") {
                self.pos += 1;
            } else if t.is_ident("as") {
                // Skip the cast target type (ident path), value-transparent.
                self.pos += 1;
                while self
                    .peek()
                    .is_some_and(|u| u.kind == TokenKind::Ident || u.is_punct("::"))
                {
                    self.pos += 1;
                }
            } else {
                return e;
            }
        }
    }

    /// Index of the token matching `open` (which `self.pos` points at), in
    /// `[pos, hi)`; clamps to `hi - 1` when unbalanced.
    fn matching(&self, close: &str, open: &str) -> usize {
        let mut d = 0i64;
        for i in self.pos..self.hi {
            let t = &self.toks[i];
            if t.is_punct(open) {
                d += 1;
            } else if t.is_punct(close) {
                d -= 1;
                if d == 0 {
                    return i;
                }
            }
        }
        self.hi.saturating_sub(1)
    }

    /// Parses a `( a, b, ... )` argument list at `self.pos` (which points
    /// at the `(`), returning each argument as an expression and leaving
    /// `self.pos` after the `)`.
    fn call_args(&mut self) -> Vec<Expr> {
        let close = self.matching(")", "(");
        let lo = self.pos + 1;
        let mut out = Vec::new();
        let mut depth = 0i64;
        let mut start = lo;
        for i in lo..close.min(self.hi) {
            let t = &self.toks[i];
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
                depth -= 1;
            } else if t.is_punct(",") && depth <= 0 {
                out.push(parse_expr(self.toks, start, i));
                start = i + 1;
            }
        }
        if start < close {
            out.push(parse_expr(self.toks, start, close));
        }
        self.pos = (close + 1).min(self.hi);
        out
    }

    /// Skips one `(..)`/`[..]`/`{..}` group at `self.pos` (macro bodies).
    fn skip_delimited(&mut self) {
        let Some(t) = self.peek() else { return };
        let (o, c) = match t.text.as_str() {
            "(" => ("(", ")"),
            "[" => ("[", "]"),
            "{" => ("{", "}"),
            _ => return,
        };
        let close = self.matching(c, o);
        self.pos = (close + 1).min(self.hi);
    }
}

// ---------------------------------------------------------------------------
// Abstract values
// ---------------------------------------------------------------------------

/// Abstract value of an expression at a concrete `(rank, p)`. The
/// `rank_dep` bit tracks whether the value was influenced by the rank —
/// it decides whether a fork on this value is a *per-rank* decision or a
/// *shared* one that must agree across ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Val {
    /// Known integer.
    Int { v: i64, rank_dep: bool },
    /// Unknown.
    Unk { rank_dep: bool },
}

impl Val {
    fn rank_dep(self) -> bool {
        match self {
            Val::Int { rank_dep, .. } | Val::Unk { rank_dep } => rank_dep,
        }
    }
}

/// Evaluates `e` in `env` at concrete `(rank, p)`.
pub fn eval(e: &Expr, env: &BTreeMap<String, Val>, rank: i64, p: i64) -> Val {
    match e {
        Expr::Int(v) => Val::Int {
            v: *v,
            rank_dep: false,
        },
        Expr::Rank => Val::Int {
            v: rank,
            rank_dep: true,
        },
        Expr::Size => Val::Int {
            v: p,
            rank_dep: false,
        },
        Expr::RankUnknown => Val::Unk { rank_dep: true },
        Expr::Unknown => Val::Unk { rank_dep: false },
        Expr::Var(name) => env.get(name).copied().unwrap_or(Val::Unk {
            rank_dep: is_rank_ident(name),
        }),
        Expr::Un(op, a) => match eval(a, env, rank, p) {
            Val::Int { v, rank_dep } => Val::Int {
                v: match op {
                    UnOp::Neg => v.wrapping_neg(),
                    UnOp::Not => i64::from(v == 0),
                },
                rank_dep,
            },
            unk => unk,
        },
        Expr::Bin(op, a, b) => {
            let (va, vb) = (eval(a, env, rank, p), eval(b, env, rank, p));
            let rank_dep = va.rank_dep() || vb.rank_dep();
            let (Val::Int { v: x, .. }, Val::Int { v: y, .. }) = (va, vb) else {
                return Val::Unk { rank_dep };
            };
            let v = match op {
                BinOp::Add => x.wrapping_add(y),
                BinOp::Sub => x.wrapping_sub(y),
                BinOp::Mul => x.wrapping_mul(y),
                BinOp::Div if y != 0 => x.wrapping_div(y),
                BinOp::Rem if y != 0 => x.wrapping_rem(y),
                BinOp::Div | BinOp::Rem => return Val::Unk { rank_dep },
                BinOp::Shl => x.wrapping_shl(u32::try_from(y.clamp(0, 63)).unwrap_or(0)),
                BinOp::Shr => x.wrapping_shr(u32::try_from(y.clamp(0, 63)).unwrap_or(0)),
                BinOp::BitAnd => x & y,
                BinOp::BitOr => x | y,
                BinOp::BitXor => x ^ y,
                BinOp::Eq => i64::from(x == y),
                BinOp::Ne => i64::from(x != y),
                BinOp::Lt => i64::from(x < y),
                BinOp::Le => i64::from(x <= y),
                BinOp::Gt => i64::from(x > y),
                BinOp::Ge => i64::from(x >= y),
                BinOp::And => i64::from(x != 0 && y != 0),
                BinOp::Or => i64::from(x != 0 || y != 0),
            };
            Val::Int { v, rank_dep }
        }
        Expr::Opaque(ops) => Val::Unk {
            rank_dep: ops.iter().any(|o| eval(o, env, rank, p).rank_dep()),
        },
    }
}

// ---------------------------------------------------------------------------
// Skeleton IR and extraction
// ---------------------------------------------------------------------------

/// The iteration space of a `for` loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ForRange {
    /// `lo..hi` / `lo..=hi`.
    Range { lo: Expr, hi: Expr, inclusive: bool },
    /// Any other iterable.
    Iter(Expr),
}

/// One node of a function's communication skeleton: the ordered tree of
/// comm operations under loop/branch structure, with just enough data flow
/// (`Let`/`Mut`) to evaluate peer expressions and loop bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Skel {
    /// Ordered children.
    Seq(Vec<Skel>),
    /// Collective call: kind + first-argument ("tag") expression.
    Coll {
        kind: String,
        tag: Expr,
        line: usize,
    },
    /// `comm.send(peer, ..)`.
    Send { peer: Expr, line: usize },
    /// `comm.recv(peer)`.
    Recv { peer: Expr, line: usize },
    /// Nonblocking post: `comm.iallreduce_sum(..)` / `comm.isend(peer, ..)`
    /// / `comm.irecv(from)`. The rendezvous is *deferred*: an `isend`'s
    /// payload transmits eagerly at the post site (matching the runtime),
    /// while an `irecv`/`iallreduce_sum` enqueues its abstract op on the
    /// rank's pending FIFO and a later [`Skel::Wait`] emits it. Emission
    /// order therefore equals post order — the same invariant the runtime's
    /// FIFO request completion enforces.
    Post {
        kind: String,
        arg: Expr,
        line: usize,
    },
    /// `req.wait()` / `req.test()`: retires the oldest pending request
    /// (emitting its deferred op, if any). A wait with nothing pending is a
    /// no-op — `.wait()` on a non-`Request` receiver extracts here too.
    Wait { line: usize },
    /// Call site (resolved against the call graph at interpretation time).
    Call {
        callee: String,
        qualifier: Option<String>,
        is_method: bool,
        line: usize,
    },
    /// `if`/`else` (chained `else if` nests in `els`).
    If {
        rank_cond: bool,
        cond: Expr,
        then: Box<Skel>,
        els: Box<Skel>,
        line: usize,
    },
    /// `match`: arm patterns are not modeled, each arm body is a child.
    Match {
        rank_cond: bool,
        cond: Expr,
        arms: Vec<Skel>,
        line: usize,
    },
    /// `while cond { body }` (`while let` has `Unknown` cond).
    While {
        cond: Expr,
        body: Box<Skel>,
        line: usize,
    },
    /// `loop { body }`.
    Loop { body: Box<Skel>, line: usize },
    /// `for var in range { body }`.
    For {
        var: Option<String>,
        range: ForRange,
        body: Box<Skel>,
        line: usize,
    },
    /// Binding or (compound) assignment: `var` takes `value`.
    Let {
        var: String,
        value: Expr,
        line: usize,
    },
    /// Opaque mutation of `var` (statement-position `var.method(..)`).
    Mut { var: String, line: usize },
    /// `break`.
    Brk,
    /// `continue`.
    Cont,
    /// `return` (or `?`-style early exit is *not* modeled).
    Ret,
}

impl Skel {
    /// Empty sequence (the canonical "nothing").
    pub fn empty() -> Skel {
        Skel::Seq(Vec::new())
    }
}

/// Maximum statement-nesting depth the extractor follows; deeper structure
/// degrades to empty blocks (guards the recursion on adversarial input).
const MAX_NEST: usize = 48;

/// True when any token in `[lo, hi)` is a rank-valued identifier.
fn mentions_rank(toks: &[Token], lo: usize, hi: usize) -> bool {
    toks[lo.min(toks.len())..hi.min(toks.len())]
        .iter()
        .any(|t| t.kind == TokenKind::Ident && is_rank_ident(&t.text))
}

/// Extracts the communication skeleton of the fn whose body braces span
/// token indices `(open, close)` in `model`. Total on arbitrary input.
pub fn extract_fn(model: &CodeModel, open: usize, close: usize) -> Skel {
    Skel::Seq(parse_stmts(model, open + 1, close, 0))
}

/// Finds the statement-terminating `;` at delimiter depth 0 in `[i, hi)`,
/// or `hi` if none.
fn stmt_end(toks: &[Token], i: usize, hi: usize) -> usize {
    let mut d = 0i64;
    for (j, t) in toks.iter().enumerate().take(hi.min(toks.len())).skip(i) {
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            d += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            d -= 1;
            if d < 0 {
                return j;
            }
        } else if t.is_punct(";") && d <= 0 {
            return j;
        }
    }
    hi.min(toks.len())
}

/// Finds the body-opening `{` at paren/bracket depth 0 in `[i, hi)`
/// (stopping at `;`), the same contract as the scanner's fn-body search.
fn body_open(toks: &[Token], i: usize, hi: usize) -> Option<usize> {
    let mut pd = 0i64;
    for (j, t) in toks.iter().enumerate().take(hi.min(toks.len())).skip(i) {
        if t.is_punct("(") || t.is_punct("[") {
            pd += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            pd -= 1;
        } else if t.is_punct("{") && pd <= 0 {
            return Some(j);
        } else if t.is_punct(";") && pd <= 0 {
            return None;
        }
    }
    None
}

/// Parses the statements in token range `[lo, hi)` into skeleton nodes.
fn parse_stmts(model: &CodeModel, lo: usize, hi: usize, depth: usize) -> Vec<Skel> {
    let toks = &model.tokens;
    let hi = hi.min(toks.len());
    let mut out = Vec::new();
    if depth > MAX_NEST {
        return out;
    }
    let mut i = lo;
    while i < hi {
        let t = &toks[i];
        if t.kind != TokenKind::Ident && !t.is_punct("{") {
            i += 1;
            continue;
        }
        // Transparent block (`unsafe { .. }` arrives here via its `{`).
        if t.is_punct("{") {
            let close = model.matching_brace(i);
            out.extend(parse_stmts(model, i + 1, close.min(hi), depth + 1));
            i = close + 1;
            continue;
        }
        match t.text.as_str() {
            "if" => {
                let (node, next) = parse_if(model, i, hi, depth);
                if let Some(n) = node {
                    out.push(n);
                }
                i = next;
            }
            "while" => {
                let Some(open) = body_open(toks, i + 1, hi) else {
                    i += 1;
                    continue;
                };
                let close = model.matching_brace(open);
                let is_let = toks.get(i + 1).is_some_and(|u| u.is_ident("let"));
                let cond = if is_let {
                    if mentions_rank(toks, i + 1, open) {
                        Expr::RankUnknown
                    } else {
                        Expr::Unknown
                    }
                } else {
                    parse_expr(toks, i + 1, open)
                };
                out.push(Skel::While {
                    cond,
                    body: Box::new(Skel::Seq(parse_stmts(
                        model,
                        open + 1,
                        close.min(hi),
                        depth + 1,
                    ))),
                    line: t.line,
                });
                i = close + 1;
            }
            "loop" => {
                let Some(open) = body_open(toks, i + 1, hi) else {
                    i += 1;
                    continue;
                };
                let close = model.matching_brace(open);
                out.push(Skel::Loop {
                    body: Box::new(Skel::Seq(parse_stmts(
                        model,
                        open + 1,
                        close.min(hi),
                        depth + 1,
                    ))),
                    line: t.line,
                });
                i = close + 1;
            }
            "for" => {
                let Some(open) = body_open(toks, i + 1, hi) else {
                    i += 1;
                    continue;
                };
                let close = model.matching_brace(open);
                // `for <pat> in <iter> {`: find the `in` at depth 0.
                let mut pd = 0i64;
                let mut in_at = None;
                for (j, u) in toks.iter().enumerate().take(open).skip(i + 1) {
                    if u.is_punct("(") || u.is_punct("[") {
                        pd += 1;
                    } else if u.is_punct(")") || u.is_punct("]") {
                        pd -= 1;
                    } else if u.is_ident("in") && pd <= 0 {
                        in_at = Some(j);
                        break;
                    }
                }
                let Some(in_at) = in_at else {
                    i = close + 1;
                    continue;
                };
                let var = (in_at == i + 2 && toks[i + 1].kind == TokenKind::Ident)
                    .then(|| toks[i + 1].text.clone());
                // Complex pattern (`for (a, b) in ..`, `for &x in ..`):
                // every ident it binds shadows the enclosing scope, so havoc
                // them at the top of each iteration lest a stale outer
                // binding leak into peer/tag expressions.
                let mut pat_muts = Vec::new();
                if var.is_none() {
                    for u in &toks[i + 1..in_at] {
                        if u.kind == TokenKind::Ident
                            && !matches!(u.text.as_str(), "mut" | "ref" | "_")
                        {
                            pat_muts.push(Skel::Mut {
                                var: u.text.clone(),
                                line: t.line,
                            });
                        }
                    }
                }
                // Top-level `..` splits a range (`..=` lexes as `..` `=`).
                let mut pd2 = 0i64;
                let mut dots = None;
                for (j, u) in toks.iter().enumerate().take(open).skip(in_at + 1) {
                    if u.is_punct("(") || u.is_punct("[") {
                        pd2 += 1;
                    } else if u.is_punct(")") || u.is_punct("]") {
                        pd2 -= 1;
                    } else if u.is_punct("..") && pd2 <= 0 {
                        dots = Some(j);
                        break;
                    }
                }
                let range = match dots {
                    Some(d) => {
                        let inclusive = toks.get(d + 1).is_some_and(|u| u.is_punct("="));
                        let hi_lo = if inclusive { d + 2 } else { d + 1 };
                        ForRange::Range {
                            lo: parse_expr(toks, in_at + 1, d),
                            hi: parse_expr(toks, hi_lo, open),
                            inclusive,
                        }
                    }
                    None => ForRange::Iter(parse_expr(toks, in_at + 1, open)),
                };
                let mut body_stmts = pat_muts;
                body_stmts.extend(parse_stmts(model, open + 1, close.min(hi), depth + 1));
                out.push(Skel::For {
                    var,
                    range,
                    body: Box::new(Skel::Seq(body_stmts)),
                    line: t.line,
                });
                i = close + 1;
            }
            "match" => {
                let Some(open) = body_open(toks, i + 1, hi) else {
                    i += 1;
                    continue;
                };
                let close = model.matching_brace(open);
                let rank_cond = mentions_rank(toks, i + 1, open);
                let cond = parse_expr(toks, i + 1, open);
                let mut arms = Vec::new();
                let mut j = open + 1;
                while j < close.min(hi) {
                    // Find this arm's `=>` at depth 0 relative to the match
                    // body.
                    let mut d = 0i64;
                    let mut arrow = None;
                    for (k, u) in toks.iter().enumerate().take(close.min(hi)).skip(j) {
                        if u.is_punct("(") || u.is_punct("[") || u.is_punct("{") {
                            d += 1;
                        } else if u.is_punct(")") || u.is_punct("]") || u.is_punct("}") {
                            d -= 1;
                        } else if u.is_punct("=>") && d <= 0 {
                            arrow = Some(k);
                            break;
                        }
                    }
                    let Some(arrow) = arrow else { break };
                    if toks.get(arrow + 1).is_some_and(|u| u.is_punct("{")) {
                        let arm_close = model.matching_brace(arrow + 1);
                        arms.push(Skel::Seq(parse_stmts(
                            model,
                            arrow + 2,
                            arm_close.min(hi),
                            depth + 1,
                        )));
                        j = arm_close + 1;
                        if toks.get(j).is_some_and(|u| u.is_punct(",")) {
                            j += 1;
                        }
                    } else {
                        // Expression arm: runs to the `,` at depth 0 (or the
                        // match close).
                        let mut d2 = 0i64;
                        let mut end = close.min(hi);
                        for (k, u) in toks.iter().enumerate().take(close.min(hi)).skip(arrow + 1) {
                            if u.is_punct("(") || u.is_punct("[") || u.is_punct("{") {
                                d2 += 1;
                            } else if u.is_punct(")") || u.is_punct("]") || u.is_punct("}") {
                                d2 -= 1;
                            } else if u.is_punct(",") && d2 <= 0 {
                                end = k;
                                break;
                            }
                        }
                        arms.push(Skel::Seq(parse_stmts(model, arrow + 1, end, depth + 1)));
                        j = end + 1;
                    }
                }
                out.push(Skel::Match {
                    rank_cond,
                    cond,
                    arms,
                    line: t.line,
                });
                i = close + 1;
            }
            "let" => {
                let mut j = i + 1;
                if toks.get(j).is_some_and(|u| u.is_ident("mut")) {
                    j += 1;
                }
                let simple_pat = toks.get(j).is_some_and(|u| u.kind == TokenKind::Ident)
                    && toks
                        .get(j + 1)
                        .is_some_and(|u| u.is_punct(":") || u.is_punct("="));
                if !simple_pat {
                    // Destructuring / `let Some(x) =` patterns: no binding
                    // modeled; keep scanning inside for comm ops.
                    i += 1;
                    continue;
                }
                let var = toks[j].text.clone();
                // Find the `=` at depth 0 (skips an annotated type).
                let end = stmt_end(toks, j + 1, hi);
                let mut eq = None;
                let mut d = 0i64;
                for (k, u) in toks.iter().enumerate().take(end).skip(j + 1) {
                    if u.is_punct("(") || u.is_punct("[") || u.is_punct("{") {
                        d += 1;
                    } else if u.is_punct(")") || u.is_punct("]") || u.is_punct("}") {
                        d -= 1;
                    } else if u.is_punct("=") && d <= 0 {
                        eq = Some(k);
                        break;
                    }
                }
                let Some(eq) = eq else {
                    i = end + 1;
                    continue;
                };
                let rhs = eq + 1;
                let rhs_structured = toks
                    .get(rhs)
                    .is_some_and(|u| u.is_ident("if") || u.is_ident("match"));
                let value = if rhs_structured {
                    // The branch structure is walked below (so its comm ops
                    // are recorded); the bound value itself is unknown,
                    // rank-dependent when the branch selection is.
                    let probe_hi = body_open(toks, rhs + 1, hi).unwrap_or(end);
                    if mentions_rank(toks, rhs + 1, probe_hi) {
                        Expr::RankUnknown
                    } else {
                        Expr::Unknown
                    }
                } else {
                    parse_expr(toks, rhs, end)
                };
                out.push(Skel::Let {
                    var,
                    value,
                    line: t.line,
                });
                // Continue scanning *inside* the right-hand side: comm ops
                // in the initializer (`let r = comm.recv(src);`) are real
                // ops the expression parser deliberately does not record.
                i = rhs;
            }
            "break" => {
                out.push(Skel::Brk);
                i += 1;
            }
            "continue" => {
                out.push(Skel::Cont);
                i += 1;
            }
            "return" => {
                out.push(Skel::Ret);
                i += 1;
            }
            "fn" => {
                // Nested fn item: its body is summarized separately.
                match body_open(toks, i + 1, hi) {
                    Some(open) => i = model.matching_brace(open) + 1,
                    None => i += 1,
                }
            }
            _ => {
                let line = t.line;
                let next_open = toks.get(i + 1).is_some_and(|u| u.is_punct("("));
                let prev_dot = i > 0 && toks[i - 1].is_punct(".");
                if prev_dot && next_open {
                    // Method call.
                    let args = model.call_args(i + 1);
                    let close = model.matching_paren(i + 1);
                    let arg0 = args
                        .first()
                        .map_or(Expr::Unknown, |&(a, b)| parse_expr(toks, a, b));
                    match t.text.as_str() {
                        k if COLLECTIVES.contains(&k) => {
                            out.push(Skel::Coll {
                                kind: k.to_string(),
                                tag: arg0,
                                line,
                            });
                            i = close + 1;
                        }
                        "send" => {
                            out.push(Skel::Send { peer: arg0, line });
                            i = close + 1;
                        }
                        "recv" => {
                            out.push(Skel::Recv { peer: arg0, line });
                            i = close + 1;
                        }
                        k @ ("iallreduce_sum" | "isend" | "irecv") => {
                            out.push(Skel::Post {
                                kind: k.to_string(),
                                arg: arg0,
                                line,
                            });
                            i = close + 1;
                        }
                        "wait" | "test" if args.is_empty() => {
                            // Zero-arg only: `Condvar::wait(guard)` and
                            // friends fall through to the generic call arm.
                            out.push(Skel::Wait { line });
                            i = close + 1;
                        }
                        "rank" | "size" => {
                            // Value reads, no comm op.
                            i = close + 1;
                        }
                        name => {
                            // Receiver mutation: statement-position
                            // `var.method(..)` havocs `var` (`combines
                            // .push(..)` must taint the later unroll).
                            if i >= 2
                                && toks[i - 2].kind == TokenKind::Ident
                                && (i < 3 || !toks[i - 3].is_punct("."))
                            {
                                out.push(Skel::Mut {
                                    var: toks[i - 2].text.clone(),
                                    line,
                                });
                            }
                            out.push(Skel::Call {
                                callee: name.to_string(),
                                qualifier: None,
                                is_method: true,
                                line,
                            });
                            i += 1;
                        }
                    }
                    continue;
                }
                if !prev_dot && next_open {
                    // Bare / path call (mirrors the call-graph extractor).
                    if crate::callgraph::NON_CALL_KEYWORDS.contains(&t.text.as_str())
                        || (i > 0 && toks[i - 1].is_ident("fn"))
                    {
                        i += 1;
                        continue;
                    }
                    let mut qual_segs: Vec<String> = Vec::new();
                    let mut j = i;
                    while j >= 2
                        && toks[j - 1].is_punct("::")
                        && toks[j - 2].kind == TokenKind::Ident
                    {
                        qual_segs.push(toks[j - 2].text.clone());
                        j -= 2;
                    }
                    qual_segs.reverse();
                    let qualifier = (!qual_segs.is_empty()).then(|| qual_segs.join("::"));
                    let bare_ctor = qualifier.is_none()
                        && t.text.chars().next().is_some_and(char::is_uppercase);
                    if !bare_ctor {
                        out.push(Skel::Call {
                            callee: t.text.clone(),
                            qualifier,
                            is_method: false,
                            line,
                        });
                    }
                    i += 1;
                    continue;
                }
                // Assignment / compound assignment on a plain variable.
                if !prev_dot && toks.get(i + 1).is_some_and(|u| u.kind == TokenKind::Punct) {
                    let op_text = toks[i + 1].text.as_str();
                    let (bin, rhs_at) = match op_text {
                        "=" => (None, Some(i + 2)),
                        "+=" => (Some(BinOp::Add), Some(i + 2)),
                        "-=" => (Some(BinOp::Sub), Some(i + 2)),
                        "*=" => (Some(BinOp::Mul), Some(i + 2)),
                        "/=" => (Some(BinOp::Div), Some(i + 2)),
                        // `<<=`/`>>=` lex as `<<` `=` / `>>` `=`.
                        "<<" | ">>" if toks.get(i + 2).is_some_and(|u| u.is_punct("=")) => (
                            Some(if op_text == "<<" {
                                BinOp::Shl
                            } else {
                                BinOp::Shr
                            }),
                            Some(i + 3),
                        ),
                        _ => (None, None),
                    };
                    if let Some(rhs) = rhs_at {
                        let end = stmt_end(toks, rhs, hi);
                        let rhs_expr = parse_expr(toks, rhs, end);
                        let value = match bin {
                            Some(op) => Expr::Bin(
                                op,
                                Box::new(Expr::Var(t.text.clone())),
                                Box::new(rhs_expr),
                            ),
                            None => rhs_expr,
                        };
                        out.push(Skel::Let {
                            var: t.text.clone(),
                            value,
                            line,
                        });
                        i = rhs;
                        continue;
                    }
                }
                i += 1;
            }
        }
    }
    out
}

/// Parses an `if` chain starting at token `i` (which holds `if`); returns
/// the node (if a body was found) and the index to continue from.
fn parse_if(model: &CodeModel, i: usize, hi: usize, depth: usize) -> (Option<Skel>, usize) {
    let toks = &model.tokens;
    if depth > MAX_NEST {
        return (None, i + 1);
    }
    let line = toks[i].line;
    let Some(open) = body_open(toks, i + 1, hi) else {
        return (None, i + 1);
    };
    let close = model.matching_brace(open);
    let is_let = toks.get(i + 1).is_some_and(|u| u.is_ident("let"));
    let rank_cond = mentions_rank(toks, i + 1, open);
    let cond = if is_let {
        if rank_cond {
            Expr::RankUnknown
        } else {
            Expr::Unknown
        }
    } else {
        parse_expr(toks, i + 1, open)
    };
    let then = Skel::Seq(parse_stmts(model, open + 1, close.min(hi), depth + 1));
    let mut next = close + 1;
    let els = if toks.get(next).is_some_and(|u| u.is_ident("else")) {
        if toks.get(next + 1).is_some_and(|u| u.is_ident("if")) {
            let (nested, after) = parse_if(model, next + 1, hi, depth + 1);
            next = after;
            nested.unwrap_or_else(Skel::empty)
        } else if let Some(eopen) = body_open(toks, next + 1, hi) {
            let eclose = model.matching_brace(eopen);
            next = eclose + 1;
            Skel::Seq(parse_stmts(model, eopen + 1, eclose.min(hi), depth + 1))
        } else {
            next += 1;
            Skel::empty()
        }
    } else {
        Skel::empty()
    };
    (
        Some(Skel::If {
            rank_cond,
            cond,
            then: Box::new(then),
            els: Box::new(els),
            line,
        }),
        next,
    )
}

// ---------------------------------------------------------------------------
// Bounded interpretation: per-rank traces
// ---------------------------------------------------------------------------

/// The abstract rank counts `deadlock_check` simulates. Small by design:
/// the interleaving space is exponential in `p`, and the binomial-tree /
/// neighbor-exchange protocols this workspace uses already exercise every
/// structural case (leaf, interior, root, idle rank) by p = 4. The
/// soundness caveat — a protocol correct at p ≤ 4 but wrong at p = 5 passes
/// the gate — is documented in DESIGN.md §13.
pub const CHECK_PS: &[usize] = &[2, 3, 4];

/// Abstract peer of a send/recv after evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PeerVal {
    /// Concrete rank (may be out of `0..p`: such a message matches no one).
    Known(i64),
    /// Unknown: matches any rank.
    Any,
}

/// Abstract collective tag (first argument) after evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagVal {
    /// Concrete value: participating ranks must agree on it.
    Known(i64),
    /// Unknown: compatible with anything.
    Any,
}

/// One abstract comm operation in a rank's trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Collective rendezvous.
    Coll {
        kind: String,
        tag: TagVal,
        line: usize,
    },
    /// Buffered (eager) point-to-point send.
    Send { peer: PeerVal, line: usize },
    /// Blocking point-to-point receive.
    Recv { peer: PeerVal, line: usize },
}

/// One branch/unroll decision taken while generating a trace. Decisions at
/// the same `(line, occ)` site with `shared == true` resolve
/// rank-independent state and must agree across ranks when traces are
/// paired into an execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dec {
    pub line: usize,
    pub occ: usize,
    pub choice: usize,
    pub shared: bool,
}

/// One complete per-rank trace: the op sequence and the decisions that
/// produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    pub ops: Vec<Op>,
    pub decs: Vec<Dec>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    Normal,
    Broke,
    Continued,
    Returned,
}

#[derive(Debug, Clone)]
struct Th {
    ops: Vec<Op>,
    env: BTreeMap<String, Val>,
    decs: Vec<Dec>,
    occ: BTreeMap<usize, usize>,
    flow: Flow,
    /// Posted-but-unretired nonblocking requests, in post order. `None` is
    /// an `isend` placeholder (its `Send` already emitted eagerly); `Some`
    /// holds the deferred `Recv`/`Coll` op a later `Wait` will emit. The
    /// FIFO mirrors the runtime invariant that requests complete in post
    /// order regardless of which handle is waited first.
    pending: VecDeque<Option<Op>>,
}

impl Default for Th {
    fn default() -> Self {
        Th {
            ops: Vec::new(),
            env: BTreeMap::new(),
            decs: Vec::new(),
            occ: BTreeMap::new(),
            flow: Flow::Normal,
            pending: VecDeque::new(),
        }
    }
}

/// Budget caps. Hitting any of them marks the generation *capped*, which
/// makes the whole entry point inconclusive (silent) — see the module docs
/// on angelic reporting.
const MAX_TRACES: usize = 16;
const MAX_OPS: usize = 256;
const MAX_ITERS: usize = 64;
const MAX_INLINE: usize = 8;
const MAX_UNROLL: usize = 2;
const MAX_COMBOS: usize = 256;
const SIM_BUDGET: usize = 20_000;
const MAX_STEPS: usize = 100_000;

struct Gen<'a> {
    g: &'a CallGraph,
    facts: &'a Facts,
    p: i64,
    rank: i64,
    capped: bool,
    /// exec_node invocation counter: the hard work bound. Exceeding it
    /// sets `capped` and short-circuits the rest of the walk (nodes are
    /// skipped, which is sound under angelic reporting — the entry
    /// degrades to Inconclusive unless a clean completion was found).
    steps: usize,
    /// Inlined callee skeletons, cloned once per target (stable addresses
    /// let `effect_memo` key on them).
    skel_cache: BTreeMap<usize, std::rc::Rc<Skel>>,
    /// `has_effect` results keyed by (fn node, subtree address).
    effect_memo: BTreeMap<(usize, usize), bool>,
    /// `inline_targets` results keyed by (fn node, call line, callee).
    target_memo: BTreeMap<(usize, usize, String), Vec<usize>>,
}

impl Gen<'_> {
    fn eval(&self, e: &Expr, env: &BTreeMap<String, Val>) -> Val {
        eval(e, env, self.rank, self.p)
    }

    /// Inline candidates of a call site: targets that transitively issue a
    /// collective or p2p op. Non-comm callees are skipped entirely.
    fn inline_targets(&mut self, ni: usize, line: usize, callee: &str) -> Vec<usize> {
        let key = (ni, line, callee.to_string());
        if let Some(v) = self.target_memo.get(&key) {
            return v.clone();
        }
        let mut out = BTreeSet::new();
        for edge in &self.g.edges[ni] {
            if edge.site.line != line || edge.site.callee != callee {
                continue;
            }
            for &t in &edge.targets {
                if self.facts.collective[t].is_some() || self.facts.p2p[t].is_some() {
                    out.insert(t);
                }
            }
        }
        let v: Vec<usize> = out.into_iter().collect();
        self.target_memo.insert(key, v.clone());
        v
    }

    /// One shared clone of a callee's skeleton (stable address for the
    /// effect memo).
    fn callee_skel(&mut self, t: usize) -> std::rc::Rc<Skel> {
        if let Some(s) = self.skel_cache.get(&t) {
            return s.clone();
        }
        let s = std::rc::Rc::new(self.g.summary(t).skeleton.clone());
        self.skel_cache.insert(t, s.clone());
        s
    }

    /// True when executing (or skipping) `s` can change the comm behavior:
    /// it contains a comm op, a control escape, or a call that reaches one.
    /// Memoized on the subtree address (skeletons are cloned once per run,
    /// so addresses are stable for the lifetime of this `Gen`).
    fn has_effect(&mut self, s: &Skel, ni: usize) -> bool {
        let key = (ni, s as *const Skel as usize);
        if let Some(&v) = self.effect_memo.get(&key) {
            return v;
        }
        let v = self.has_effect_uncached(s, ni);
        self.effect_memo.insert(key, v);
        v
    }

    fn has_effect_uncached(&mut self, s: &Skel, ni: usize) -> bool {
        match s {
            Skel::Seq(xs) => xs.iter().any(|x| self.has_effect(x, ni)),
            Skel::Coll { .. } | Skel::Send { .. } | Skel::Recv { .. } => true,
            Skel::Post { .. } | Skel::Wait { .. } => true,
            Skel::Brk | Skel::Cont | Skel::Ret => true,
            Skel::Call { callee, line, .. } => !self.inline_targets(ni, *line, callee).is_empty(),
            Skel::If { then, els, .. } => self.has_effect(then, ni) || self.has_effect(els, ni),
            Skel::Match { arms, .. } => arms.iter().any(|a| self.has_effect(a, ni)),
            Skel::While { body, .. } | Skel::Loop { body, .. } | Skel::For { body, .. } => {
                self.has_effect(body, ni)
            }
            Skel::Let { .. } | Skel::Mut { .. } => false,
        }
    }

    /// Havocs every variable the subtree can assign (used when an
    /// unknown-condition region is skipped rather than forked).
    fn havoc(&self, s: &Skel, env: &mut BTreeMap<String, Val>, rd: bool) {
        match s {
            Skel::Seq(xs) => xs.iter().for_each(|x| self.havoc(x, env, rd)),
            Skel::Let { var, .. } | Skel::Mut { var, .. } => {
                let old = env.get(var).map_or(is_rank_ident(var), |v| v.rank_dep());
                env.insert(
                    var.clone(),
                    Val::Unk {
                        rank_dep: old || rd,
                    },
                );
            }
            Skel::If { then, els, .. } => {
                self.havoc(then, env, rd);
                self.havoc(els, env, rd);
            }
            Skel::Match { arms, .. } => arms.iter().for_each(|a| self.havoc(a, env, rd)),
            Skel::While { body, .. } | Skel::Loop { body, .. } => self.havoc(body, env, rd),
            Skel::For { var, body, .. } => {
                if let Some(v) = var {
                    env.insert(v.clone(), Val::Unk { rank_dep: rd });
                }
                self.havoc(body, env, rd);
            }
            _ => {}
        }
    }

    fn push_op(&mut self, th: &mut Th, op: Op) {
        if th.ops.len() >= MAX_OPS {
            self.capped = true;
        } else {
            th.ops.push(op);
        }
    }

    fn peer_val(&self, v: Val) -> PeerVal {
        match v {
            Val::Int { v, .. } => PeerVal::Known(v),
            Val::Unk { .. } => PeerVal::Any,
        }
    }

    /// Takes one fresh decision at `(line)` for thread `th`.
    fn decide(th: &mut Th, line: usize, choice: usize, shared: bool) -> usize {
        let occ = *th.occ.get(&line).unwrap_or(&0);
        th.decs.push(Dec {
            line,
            occ,
            choice,
            shared,
        });
        occ
    }

    /// Runs `body` exactly `k` times over `ths`, honoring break/continue/
    /// return.
    fn run_repeat(
        &mut self,
        body: &Skel,
        ths: Vec<Th>,
        k: usize,
        ni: usize,
        stack: &mut Vec<usize>,
        ctrl_rd: bool,
    ) -> Vec<Th> {
        let mut done = Vec::new();
        let mut active = ths;
        for _ in 0..k {
            let mut next = Vec::new();
            for th in active {
                if th.flow != Flow::Normal {
                    done.push(th);
                    continue;
                }
                for mut r in self.exec_node(body, th, ni, stack, ctrl_rd) {
                    match r.flow {
                        Flow::Broke => {
                            r.flow = Flow::Normal;
                            done.push(r);
                        }
                        Flow::Returned => done.push(r),
                        Flow::Continued => {
                            r.flow = Flow::Normal;
                            next.push(r);
                        }
                        Flow::Normal => next.push(r),
                    }
                }
            }
            active = next;
            self.cap_threads(&mut active);
        }
        done.extend(active);
        done
    }

    fn cap_threads(&mut self, ths: &mut Vec<Th>) {
        if ths.len() > MAX_TRACES {
            ths.truncate(MAX_TRACES);
            self.capped = true;
        }
    }

    fn exec_seq(
        &mut self,
        nodes: &[Skel],
        ths: Vec<Th>,
        ni: usize,
        stack: &mut Vec<usize>,
        ctrl_rd: bool,
    ) -> Vec<Th> {
        let mut ths = ths;
        for node in nodes {
            let mut next = Vec::new();
            for th in ths {
                if th.flow != Flow::Normal {
                    next.push(th);
                } else {
                    next.extend(self.exec_node(node, th, ni, stack, ctrl_rd));
                }
            }
            ths = next;
            self.cap_threads(&mut ths);
        }
        ths
    }

    fn exec_node(
        &mut self,
        node: &Skel,
        mut th: Th,
        ni: usize,
        stack: &mut Vec<usize>,
        ctrl_rd: bool,
    ) -> Vec<Th> {
        self.steps += 1;
        if self.steps > MAX_STEPS {
            self.capped = true;
            return vec![th];
        }
        match node {
            Skel::Seq(xs) => self.exec_seq(xs, vec![th], ni, stack, ctrl_rd),
            Skel::Coll { kind, tag, line } => {
                let tv = match self.eval(tag, &th.env) {
                    Val::Int { v, .. } => TagVal::Known(v),
                    Val::Unk { .. } => TagVal::Any,
                };
                self.push_op(
                    &mut th,
                    Op::Coll {
                        kind: kind.clone(),
                        tag: tv,
                        line: *line,
                    },
                );
                vec![th]
            }
            Skel::Send { peer, line } => {
                let pv = self.peer_val(self.eval(peer, &th.env));
                self.push_op(
                    &mut th,
                    Op::Send {
                        peer: pv,
                        line: *line,
                    },
                );
                vec![th]
            }
            Skel::Recv { peer, line } => {
                let pv = self.peer_val(self.eval(peer, &th.env));
                self.push_op(
                    &mut th,
                    Op::Recv {
                        peer: pv,
                        line: *line,
                    },
                );
                vec![th]
            }
            Skel::Post { kind, arg, line } => {
                if th.pending.len() >= MAX_OPS {
                    self.capped = true;
                    return vec![th];
                }
                match kind.as_str() {
                    "isend" => {
                        // Payload transmits at post time (eager buffering in
                        // the runtime): the Send is emitted here and the
                        // queue only gets a placeholder for the wait to
                        // retire.
                        let pv = self.peer_val(self.eval(arg, &th.env));
                        self.push_op(
                            &mut th,
                            Op::Send {
                                peer: pv,
                                line: *line,
                            },
                        );
                        th.pending.push_back(None);
                    }
                    "irecv" => {
                        let pv = self.peer_val(self.eval(arg, &th.env));
                        th.pending.push_back(Some(Op::Recv {
                            peer: pv,
                            line: *line,
                        }));
                    }
                    _ => {
                        // `iallreduce_sum`: a deferred collective. The kind
                        // string is kept distinct from the blocking
                        // `allreduce_sum` — the runtime routes them over
                        // separate channels, so mixing them across ranks is
                        // a real mismatch the rendezvous check must see.
                        let tv = match self.eval(arg, &th.env) {
                            Val::Int { v, .. } => TagVal::Known(v),
                            Val::Unk { .. } => TagVal::Any,
                        };
                        th.pending.push_back(Some(Op::Coll {
                            kind: kind.clone(),
                            tag: tv,
                            line: *line,
                        }));
                    }
                }
                vec![th]
            }
            Skel::Wait { .. } => {
                // Retire the oldest pending request; emit its deferred op at
                // this wait site. Which *handle* is waited is immaterial —
                // runtime completion is FIFO in post order — so the lexical
                // queue is the faithful (and decidable) model. Nothing
                // pending means a foreign `.wait()`: no-op.
                if let Some(Some(op)) = th.pending.pop_front() {
                    self.push_op(&mut th, op);
                }
                vec![th]
            }
            Skel::Let { var, value, .. } => {
                let v = match self.eval(value, &th.env) {
                    Val::Int { v, rank_dep } => Val::Int {
                        v,
                        rank_dep: rank_dep || ctrl_rd,
                    },
                    Val::Unk { rank_dep } => Val::Unk {
                        rank_dep: rank_dep || ctrl_rd,
                    },
                };
                th.env.insert(var.clone(), v);
                vec![th]
            }
            Skel::Mut { var, .. } => {
                let old = th.env.get(var).map_or(is_rank_ident(var), |v| v.rank_dep());
                th.env.insert(
                    var.clone(),
                    Val::Unk {
                        rank_dep: old || ctrl_rd,
                    },
                );
                vec![th]
            }
            Skel::Brk => {
                th.flow = Flow::Broke;
                vec![th]
            }
            Skel::Cont => {
                th.flow = Flow::Continued;
                vec![th]
            }
            Skel::Ret => {
                th.flow = Flow::Returned;
                vec![th]
            }
            Skel::Call { callee, line, .. } => {
                let targets = self.inline_targets(ni, *line, callee);
                match targets.as_slice() {
                    [] => vec![th],
                    [t] => {
                        let t = *t;
                        if stack.contains(&t) || stack.len() >= MAX_INLINE {
                            self.capped = true;
                            return vec![th];
                        }
                        let skel = self.callee_skel(t);
                        let saved = std::mem::take(&mut th.env);
                        stack.push(t);
                        let out = self.exec_node(&skel, th, t, stack, ctrl_rd);
                        stack.pop();
                        out.into_iter()
                            .map(|mut r| {
                                r.env = saved.clone();
                                if r.flow == Flow::Returned {
                                    // A `return` is local to the callee.
                                    r.flow = Flow::Normal;
                                }
                                r
                            })
                            .collect()
                    }
                    _ => {
                        // Ambiguous comm helper: no sound inline choice.
                        self.capped = true;
                        vec![th]
                    }
                }
            }
            Skel::If {
                cond,
                then,
                els,
                line,
                ..
            } => match self.eval(cond, &th.env) {
                Val::Int { v, rank_dep } => {
                    let branch = if v != 0 { then } else { els };
                    self.exec_node(branch, th, ni, stack, ctrl_rd || rank_dep)
                }
                Val::Unk { rank_dep } => {
                    let rd = ctrl_rd || rank_dep;
                    if !self.has_effect(then, ni) && !self.has_effect(els, ni) {
                        let mut env = std::mem::take(&mut th.env);
                        self.havoc(then, &mut env, rd);
                        self.havoc(els, &mut env, rd);
                        th.env = env;
                        return vec![th];
                    }
                    let shared = !rd;
                    let occ = Self::decide(&mut th, *line, 0, shared);
                    th.occ.insert(*line, occ + 1);
                    let mut alt = th.clone();
                    if let Some(d) = alt.decs.last_mut() {
                        d.choice = 1;
                    }
                    let mut out = self.exec_node(then, th, ni, stack, rd);
                    out.extend(self.exec_node(els, alt, ni, stack, rd));
                    out
                }
            },
            Skel::Match {
                cond, arms, line, ..
            } => {
                if arms.is_empty() {
                    return vec![th];
                }
                let cv = self.eval(cond, &th.env);
                let rd = ctrl_rd || cv.rank_dep();
                if !arms.iter().any(|a| self.has_effect(a, ni)) {
                    let mut env = std::mem::take(&mut th.env);
                    for a in arms {
                        self.havoc(a, &mut env, rd);
                    }
                    th.env = env;
                    return vec![th];
                }
                let shared = !rd;
                let occ = Self::decide(&mut th, *line, 0, shared);
                th.occ.insert(*line, occ + 1);
                let mut out = Vec::new();
                for (k, arm) in arms.iter().enumerate() {
                    let mut fork = if k + 1 == arms.len() {
                        std::mem::take(&mut th)
                    } else {
                        th.clone()
                    };
                    if let Some(d) = fork.decs.last_mut() {
                        d.choice = k;
                    }
                    out.extend(self.exec_node(arm, fork, ni, stack, rd));
                }
                out
            }
            Skel::While { cond, body, line } => {
                let mut done = Vec::new();
                let mut active = vec![th];
                let mut iters = 0usize;
                while !active.is_empty() {
                    iters += 1;
                    if iters > MAX_ITERS {
                        self.capped = true;
                        done.extend(active);
                        break;
                    }
                    let mut next = Vec::new();
                    for mut th in active {
                        match self.eval(cond, &th.env) {
                            Val::Int { v: 0, .. } => done.push(th),
                            Val::Int { rank_dep, .. } => {
                                for mut r in
                                    self.exec_node(body, th, ni, stack, ctrl_rd || rank_dep)
                                {
                                    match r.flow {
                                        Flow::Broke => {
                                            r.flow = Flow::Normal;
                                            done.push(r);
                                        }
                                        Flow::Returned => done.push(r),
                                        Flow::Continued => {
                                            r.flow = Flow::Normal;
                                            next.push(r);
                                        }
                                        Flow::Normal => next.push(r),
                                    }
                                }
                            }
                            Val::Unk { rank_dep } => {
                                let rd = ctrl_rd || rank_dep;
                                if !self.has_effect(body, ni) {
                                    let mut env = std::mem::take(&mut th.env);
                                    self.havoc(body, &mut env, rd);
                                    th.env = env;
                                    done.push(th);
                                    continue;
                                }
                                let occ = Self::decide(&mut th, *line, 0, !rd);
                                th.occ.insert(*line, occ + 1);
                                for k in 0..=MAX_UNROLL {
                                    let mut fork = if k == MAX_UNROLL {
                                        std::mem::take(&mut th)
                                    } else {
                                        th.clone()
                                    };
                                    if let Some(d) = fork.decs.last_mut() {
                                        d.choice = k;
                                    }
                                    done.extend(self.run_repeat(
                                        body,
                                        vec![fork],
                                        k,
                                        ni,
                                        stack,
                                        rd,
                                    ));
                                }
                            }
                        }
                    }
                    active = next;
                    self.cap_threads(&mut active);
                    self.cap_threads(&mut done);
                }
                done
            }
            Skel::Loop { body, .. } => {
                // Bounded: a loop that survives MAX_UNROLL full iterations
                // without breaking is beyond the model.
                let mut done = Vec::new();
                let mut active = vec![th];
                for _ in 0..MAX_UNROLL {
                    let mut next = Vec::new();
                    for th in active {
                        for mut r in self.exec_node(body, th, ni, stack, ctrl_rd) {
                            match r.flow {
                                Flow::Broke => {
                                    r.flow = Flow::Normal;
                                    done.push(r);
                                }
                                Flow::Returned => done.push(r),
                                Flow::Continued => {
                                    r.flow = Flow::Normal;
                                    next.push(r);
                                }
                                Flow::Normal => next.push(r),
                            }
                        }
                    }
                    active = next;
                    self.cap_threads(&mut active);
                }
                if !active.is_empty() && self.has_effect(body, ni) {
                    self.capped = true;
                }
                done.extend(active);
                done
            }
            Skel::For {
                var,
                range,
                body,
                line,
            } => {
                // Concrete range: iterate it.
                if let ForRange::Range { lo, hi, inclusive } = range {
                    if let (
                        Val::Int {
                            v: lo_v,
                            rank_dep: lrd,
                        },
                        Val::Int {
                            v: hi_v,
                            rank_dep: hrd,
                        },
                    ) = (self.eval(lo, &th.env), self.eval(hi, &th.env))
                    {
                        let hi_v = if *inclusive { hi_v + 1 } else { hi_v };
                        let iter_rd = lrd || hrd || ctrl_rd;
                        let count = (hi_v - lo_v).max(0) as usize;
                        if count > MAX_ITERS {
                            self.capped = true;
                        }
                        let mut ths = vec![th];
                        for (step, v) in (lo_v..hi_v).take(MAX_ITERS).enumerate() {
                            let _ = step;
                            for t in &mut ths {
                                if t.flow == Flow::Normal {
                                    if let Some(name) = var {
                                        t.env.insert(
                                            name.clone(),
                                            Val::Int {
                                                v,
                                                rank_dep: iter_rd,
                                            },
                                        );
                                    }
                                }
                            }
                            ths = self.run_repeat(body, ths, 1, ni, stack, iter_rd);
                            self.cap_threads(&mut ths);
                        }
                        return ths;
                    }
                }
                // Unknown bound / opaque iterable: bounded unroll decision.
                let iter_rd = match range {
                    ForRange::Range { lo, hi, .. } => {
                        self.eval(lo, &th.env).rank_dep() || self.eval(hi, &th.env).rank_dep()
                    }
                    ForRange::Iter(e) => self.eval(e, &th.env).rank_dep(),
                };
                let rd = ctrl_rd || iter_rd;
                if !self.has_effect(body, ni) {
                    let mut env = std::mem::take(&mut th.env);
                    if let Some(name) = var {
                        env.insert(name.clone(), Val::Unk { rank_dep: rd });
                    }
                    self.havoc(body, &mut env, rd);
                    th.env = env;
                    return vec![th];
                }
                if let Some(name) = var {
                    th.env.insert(name.clone(), Val::Unk { rank_dep: rd });
                }
                let occ = Self::decide(&mut th, *line, 0, !rd);
                th.occ.insert(*line, occ + 1);
                let mut out = Vec::new();
                for k in 0..=MAX_UNROLL {
                    let mut fork = if k == MAX_UNROLL {
                        std::mem::take(&mut th)
                    } else {
                        th.clone()
                    };
                    if let Some(d) = fork.decs.last_mut() {
                        d.choice = k;
                    }
                    out.extend(self.run_repeat(body, vec![fork], k, ni, stack, rd));
                }
                out
            }
        }
    }
}

/// Generates the bounded trace set of entry node `ni` at concrete
/// `(rank, p)`. Returns the traces and whether any budget cap was hit.
pub fn gen_traces(
    g: &CallGraph,
    facts: &Facts,
    ni: usize,
    p: usize,
    rank: usize,
) -> (Vec<Trace>, bool) {
    let mut gen = Gen {
        g,
        facts,
        p: p as i64,
        rank: rank as i64,
        capped: false,
        steps: 0,
        skel_cache: BTreeMap::new(),
        effect_memo: BTreeMap::new(),
        target_memo: BTreeMap::new(),
    };
    let skel = g.summary(ni).skeleton.clone();
    let th0 = Th::default();
    let mut stack = vec![ni];
    let ths = gen.exec_node(&skel, th0, ni, &mut stack, false);
    let mut traces: Vec<Trace> = Vec::new();
    for th in ths {
        let t = Trace {
            ops: th.ops,
            decs: th.decs,
        };
        if !traces.contains(&t) {
            traces.push(t);
        }
    }
    (traces, gen.capped)
}

// ---------------------------------------------------------------------------
// Combination enumeration and bounded interleaving simulation
// ---------------------------------------------------------------------------

/// True when two traces agree on every shared decision site they have in
/// common. Shared sites resolve rank-independent state, so a valid SPMD
/// execution must pick the same branch on every rank.
fn compat(a: &Trace, b: &Trace) -> bool {
    for da in a.decs.iter().filter(|d| d.shared) {
        for db in b.decs.iter().filter(|d| d.shared) {
            if da.line == db.line && da.occ == db.occ && da.choice != db.choice {
                return false;
            }
        }
    }
    true
}

/// Enumerates cross-rank trace combinations (one trace per rank) whose
/// shared decisions agree, up to `MAX_COMBOS`. Returns the index tuples and
/// whether the cap truncated the enumeration.
fn combos(per_rank: &[Vec<Trace>]) -> (Vec<Vec<usize>>, bool) {
    let mut out: Vec<Vec<usize>> = Vec::new();
    let mut cur: Vec<usize> = Vec::new();
    let mut truncated = false;
    fn rec(
        per_rank: &[Vec<Trace>],
        cur: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
        truncated: &mut bool,
    ) {
        if out.len() >= MAX_COMBOS {
            *truncated = true;
            return;
        }
        let r = cur.len();
        if r == per_rank.len() {
            out.push(cur.clone());
            return;
        }
        'next: for (i, t) in per_rank[r].iter().enumerate() {
            for (pr, &pi) in cur.iter().enumerate() {
                if !compat(&per_rank[pr][pi], t) {
                    continue 'next;
                }
            }
            cur.push(i);
            rec(per_rank, cur, out, truncated);
            cur.pop();
            if *truncated {
                return;
            }
        }
    }
    rec(per_rank, &mut cur, &mut out, &mut truncated);
    (out, truncated)
}

/// Outcome of simulating one trace combination.
#[derive(Debug, Clone, PartialEq, Eq)]
enum SimOut {
    /// Every rank finished and no buffered message was left unreceived.
    Clean,
    /// Every rank finished but sent messages were never received.
    Leftover(String),
    /// Some interleaving reached a state where no rank can make progress.
    Stuck(String),
    /// State budget exhausted before the space was covered.
    Capped,
}

fn peer_key(p: PeerVal) -> i64 {
    match p {
        PeerVal::Known(v) => v,
        PeerVal::Any => -1,
    }
}

/// Renders a human-readable description of a blocked global state.
fn describe_state(traces: &[&Trace], pcs: &[usize], msgs: &[(usize, i64)]) -> String {
    let mut parts = Vec::new();
    for (r, t) in traces.iter().enumerate() {
        let what = match t.ops.get(pcs[r]) {
            None => "finished".to_string(),
            Some(Op::Coll { kind, line, .. }) => {
                format!("waiting at {kind} collective (line {line})")
            }
            Some(Op::Send { peer, line }) => match peer {
                PeerVal::Known(v) => format!("at send to rank {v} (line {line})"),
                PeerVal::Any => format!("at send to unknown rank (line {line})"),
            },
            Some(Op::Recv { peer, line }) => match peer {
                PeerVal::Known(v) => format!("blocked on recv from rank {v} (line {line})"),
                PeerVal::Any => format!("blocked on recv from unknown rank (line {line})"),
            },
        };
        parts.push(format!("rank {r} {what}"));
    }
    if !msgs.is_empty() {
        let pending: Vec<String> = msgs
            .iter()
            .map(|(from, to)| {
                if *to < 0 {
                    format!("{from}->?")
                } else {
                    format!("{from}->{to}")
                }
            })
            .collect();
        parts.push(format!("undelivered: {}", pending.join(", ")));
    }
    parts.join("; ")
}

/// Exhaustive bounded interleaving of one trace combination under the
/// abstract comm model: eager buffered sends, blocking recvs that branch
/// over every matching buffered message, collectives as global
/// rendezvous requiring kind (and any known tags) to agree across ranks.
fn simulate(traces: &[&Trace], p: usize) -> SimOut {
    // Canonical state: (pcs, sorted message multiset).
    type State = (Vec<usize>, Vec<(usize, i64)>);
    let init: State = (vec![0; p], Vec::new());
    let mut seen: BTreeSet<State> = BTreeSet::new();
    seen.insert(init.clone());
    let mut stack = vec![init];
    let mut budget = SIM_BUDGET;
    let mut stuck: Option<String> = None;
    let mut leftover: Option<String> = None;

    while let Some((mut pcs, mut msgs)) = stack.pop() {
        if budget == 0 {
            return SimOut::Capped;
        }
        budget -= 1;

        // Deterministic closure: drain sends eagerly, complete collective
        // rendezvous when every rank is ready. These commute with
        // everything (sends are non-blocking; a collective can only
        // complete one way), so applying them first is a sound
        // partial-order reduction.
        loop {
            let mut progress = false;
            for r in 0..p {
                while let Some(Op::Send { peer, .. }) = traces[r].ops.get(pcs[r]) {
                    msgs.push((r, peer_key(*peer)));
                    pcs[r] += 1;
                    progress = true;
                }
            }
            let all_at_coll =
                (0..p).all(|r| matches!(traces[r].ops.get(pcs[r]), Some(Op::Coll { .. })));
            if all_at_coll {
                let mut kinds: Vec<&str> = Vec::new();
                let mut known_tag: Option<i64> = None;
                let mut ok = true;
                for r in 0..p {
                    if let Some(Op::Coll { kind, tag, .. }) = traces[r].ops.get(pcs[r]) {
                        kinds.push(kind);
                        if let TagVal::Known(v) = tag {
                            match known_tag {
                                None => known_tag = Some(*v),
                                Some(u) if u != *v => ok = false,
                                _ => {}
                            }
                        }
                    }
                }
                ok = ok && kinds.windows(2).all(|w| w[0] == w[1]);
                if ok {
                    for pc in pcs.iter_mut() {
                        *pc += 1;
                    }
                    progress = true;
                } else {
                    // Mismatched rendezvous: nothing else can move either
                    // (everyone is parked at a collective).
                    stuck.get_or_insert_with(|| {
                        format!(
                            "collective mismatch: {}",
                            describe_state(traces, &pcs, &msgs)
                        )
                    });
                    progress = false;
                }
            }
            if !progress {
                break;
            }
        }

        if (0..p).all(|r| pcs[r] >= traces[r].ops.len()) {
            if msgs.is_empty() {
                return SimOut::Clean;
            }
            leftover.get_or_insert_with(|| describe_state(traces, &pcs, &msgs));
            continue;
        }

        // Branch over receives: each rank blocked on a recv may consume any
        // matching buffered message.
        let mut branched = false;
        for r in 0..p {
            let Some(Op::Recv { peer, .. }) = traces[r].ops.get(pcs[r]) else {
                continue;
            };
            for (mi, (from, dest)) in msgs.iter().enumerate() {
                let dest_ok = *dest == r as i64 || *dest == -1;
                let from_ok = match peer {
                    PeerVal::Known(v) => *v == *from as i64,
                    PeerVal::Any => true,
                };
                if !dest_ok || !from_ok {
                    continue;
                }
                let mut npcs = pcs.clone();
                npcs[r] += 1;
                let mut nmsgs = msgs.clone();
                nmsgs.remove(mi);
                nmsgs.sort_unstable();
                let st = (npcs, nmsgs);
                if seen.insert(st.clone()) {
                    stack.push(st);
                }
                branched = true;
            }
        }
        if !branched {
            // Someone is unfinished, nothing can move: deadlock witness.
            stuck.get_or_insert_with(|| describe_state(traces, &pcs, &msgs));
        }
    }

    if let Some(d) = stuck {
        SimOut::Stuck(d)
    } else if let Some(d) = leftover {
        SimOut::Leftover(d)
    } else {
        // No terminal state at all (empty combo space can't happen: the
        // initial state always terminates somewhere). Defensive.
        SimOut::Capped
    }
}

// ---------------------------------------------------------------------------
// Entry-point verdicts
// ---------------------------------------------------------------------------

/// Result of model-checking one `_dist` entry point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Some explored execution completes cleanly at every checked `p`.
    Clean,
    /// A budget cap or modeling gap prevented a definitive answer: stay
    /// silent (angelic reporting — only provable divergence is flagged).
    Inconclusive,
    /// Every explored execution at this `p` gets stuck.
    Deadlock { p: usize, detail: String },
    /// Executions finish but leave unreceived messages at this `p`.
    Unmatched { p: usize, detail: String },
}

/// True when `name` is a distributed entry point by naming convention.
pub fn is_dist_entry(name: &str) -> bool {
    name.ends_with("_dist") || name.contains("_dist_")
}

/// Model-checks entry node `ni` at each `p` in [`CHECK_PS`].
///
/// Angelic semantics: a finding is reported only when the trace space was
/// explored without hitting any budget cap AND no interleaving of any
/// compatible trace combination completes cleanly. Any cap anywhere
/// downgrades the whole entry to [`Verdict::Inconclusive`].
pub fn check_entry(g: &CallGraph, facts: &Facts, ni: usize) -> Verdict {
    let mut inconclusive = false;
    for &p in CHECK_PS {
        let mut per_rank: Vec<Vec<Trace>> = Vec::new();
        let mut capped = false;
        for rank in 0..p {
            let (traces, c) = gen_traces(g, facts, ni, p, rank);
            capped |= c;
            per_rank.push(traces);
        }
        if per_rank.iter().any(Vec::is_empty) {
            inconclusive = true;
            continue;
        }
        let (cs, truncated) = combos(&per_rank);
        capped |= truncated;
        if cs.is_empty() {
            // No compatible combination: the shared-decision model is too
            // coarse here, not evidence of a bug.
            inconclusive = true;
            continue;
        }
        let mut clean = false;
        let mut stuck: Option<String> = None;
        let mut leftover: Option<String> = None;
        for combo in &cs {
            let sel: Vec<&Trace> = combo
                .iter()
                .enumerate()
                .map(|(r, &i)| &per_rank[r][i])
                .collect();
            match simulate(&sel, p) {
                SimOut::Clean => {
                    clean = true;
                    break;
                }
                SimOut::Leftover(d) => {
                    leftover.get_or_insert(d);
                }
                SimOut::Stuck(d) => {
                    stuck.get_or_insert(d);
                }
                SimOut::Capped => capped = true,
            }
        }
        if clean {
            continue;
        }
        if capped {
            inconclusive = true;
            continue;
        }
        if let Some(detail) = stuck {
            return Verdict::Deadlock { p, detail };
        }
        if let Some(detail) = leftover {
            return Verdict::Unmatched { p, detail };
        }
        inconclusive = true;
    }
    if inconclusive {
        Verdict::Inconclusive
    } else {
        Verdict::Clean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::{propagate, FileSummary};
    use crate::scanner::CodeModel;

    /// Parses the source fragment as an expression (wrapped in a let).
    fn expr_of(src: &str) -> Expr {
        let full = format!("fn f() {{ let x = {src}; }}");
        let m = CodeModel::build(&full);
        let eq = m
            .tokens
            .iter()
            .position(|t| t.is_punct("="))
            .expect("= token");
        let semi = m
            .tokens
            .iter()
            .rposition(|t| t.is_punct(";"))
            .expect("; token");
        parse_expr(&m.tokens, eq + 1, semi)
    }

    fn skel_of(src: &str) -> Skel {
        let m = CodeModel::build(src);
        let (open, close) = m.fns[0].body.expect("fn body");
        extract_fn(&m, open, close)
    }

    /// Flattens a skeleton to its comm-op kinds, ignoring structure.
    fn op_kinds(s: &Skel, out: &mut Vec<String>) {
        match s {
            Skel::Seq(xs) => xs.iter().for_each(|x| op_kinds(x, out)),
            Skel::Coll { kind, .. } => out.push(kind.clone()),
            Skel::Send { .. } => out.push("send".into()),
            Skel::Recv { .. } => out.push("recv".into()),
            Skel::Post { kind, .. } => out.push(format!("post:{kind}")),
            Skel::Wait { .. } => out.push("wait".into()),
            Skel::If { then, els, .. } => {
                op_kinds(then, out);
                op_kinds(els, out);
            }
            Skel::Match { arms, .. } => arms.iter().for_each(|a| op_kinds(a, out)),
            Skel::While { body, .. } | Skel::Loop { body, .. } | Skel::For { body, .. } => {
                op_kinds(body, out)
            }
            _ => {}
        }
    }

    fn kinds(s: &Skel) -> Vec<String> {
        let mut v = Vec::new();
        op_kinds(s, &mut v);
        v
    }

    fn graph_of(files: &[(&str, &str)]) -> (CallGraph, Facts) {
        let summaries = files
            .iter()
            .map(|(p, s)| FileSummary::extract(p, &CodeModel::build(s)))
            .collect();
        let g = CallGraph::build(summaries);
        let f = propagate(&g);
        (g, f)
    }

    fn node(g: &CallGraph, name: &str) -> usize {
        g.nodes
            .iter()
            .position(|n| n.name == name)
            .unwrap_or_else(|| panic!("node {name}"))
    }

    #[test]
    fn expr_parser_handles_precedence_and_ints() {
        let e = expr_of("1 + 2 * 3");
        assert_eq!(
            eval(&e, &BTreeMap::new(), 0, 4),
            Val::Int {
                v: 7,
                rank_dep: false
            }
        );
        let e = expr_of("(1 + 2) * 3");
        assert_eq!(
            eval(&e, &BTreeMap::new(), 0, 4),
            Val::Int {
                v: 9,
                rank_dep: false
            }
        );
        let e = expr_of("0x10 | 0b1");
        assert_eq!(
            eval(&e, &BTreeMap::new(), 0, 4),
            Val::Int {
                v: 17,
                rank_dep: false
            }
        );
        let e = expr_of("1_000usize");
        assert_eq!(
            eval(&e, &BTreeMap::new(), 0, 4),
            Val::Int {
                v: 1000,
                rank_dep: false
            }
        );
    }

    #[test]
    fn eval_tracks_rank_dependence() {
        let mut env = BTreeMap::new();
        env.insert(
            "rank".to_string(),
            Val::Int {
                v: 2,
                rank_dep: true,
            },
        );
        env.insert(
            "k".to_string(),
            Val::Int {
                v: 5,
                rank_dep: false,
            },
        );
        let e = expr_of("rank + k");
        assert_eq!(
            eval(&e, &env, 0, 4),
            Val::Int {
                v: 7,
                rank_dep: true
            }
        );
        // Unbound rank-named vars are unknown but rank-dependent.
        let e = expr_of("my_rank ^ 1");
        assert!(matches!(
            eval(&e, &BTreeMap::new(), 0, 4),
            Val::Unk { rank_dep: true }
        ));
        // Division by zero degrades to unknown, not a panic.
        let e = expr_of("1 / (k - 5)");
        assert!(matches!(eval(&e, &env, 0, 4), Val::Unk { .. }));
    }

    #[test]
    fn method_rank_and_size_evaluate_concretely() {
        let e = expr_of("comm.rank() & mask");
        let mut env = BTreeMap::new();
        env.insert(
            "mask".to_string(),
            Val::Int {
                v: 1,
                rank_dep: false,
            },
        );
        assert_eq!(
            eval(&e, &env, 3, 4),
            Val::Int {
                v: 1,
                rank_dep: true
            }
        );
        let e = expr_of("comm.size() - 1");
        assert_eq!(
            eval(&e, &env, 3, 4),
            Val::Int {
                v: 3,
                rank_dep: false
            }
        );
    }

    #[test]
    fn extraction_captures_comm_ops_in_order() {
        let s = skel_of(
            "fn f(comm: &C) {\n    comm.barrier();\n    comm.send(1, buf);\n    let q = comm.recv(0);\n    comm.allreduce_sum(&mut x);\n}\n",
        );
        assert_eq!(kinds(&s), vec!["barrier", "send", "recv", "allreduce_sum"]);
    }

    #[test]
    fn extraction_marks_rank_conditionals() {
        let s = skel_of(
            "fn f(comm: &C) {\n    let rank = comm.rank();\n    if rank == 0 {\n        comm.send(1, b);\n    } else {\n        let q = comm.recv(0);\n    }\n}\n",
        );
        let Skel::Seq(stmts) = &s else { panic!("seq") };
        let iff = stmts
            .iter()
            .find(|n| matches!(n, Skel::If { .. }))
            .expect("if node");
        let Skel::If {
            rank_cond,
            then,
            els,
            ..
        } = iff
        else {
            unreachable!()
        };
        assert!(rank_cond);
        assert_eq!(kinds(then), vec!["send"]);
        assert_eq!(kinds(els), vec!["recv"]);
    }

    #[test]
    fn extraction_handles_let_if_and_loops() {
        let s = skel_of(
            "fn f(comm: &C) {\n    let rank = comm.rank();\n    let t = if rank == 0 { x } else { comm.recv(0) };\n    let mut m = 1;\n    while m < p {\n        m <<= 1;\n    }\n    for i in 0..3 {\n        comm.broadcast(0, b);\n    }\n}\n",
        );
        // The if-rhs recv is still recorded (rhs is re-scanned).
        assert_eq!(kinds(&s), vec!["recv", "broadcast"]);
        let Skel::Seq(stmts) = &s else { panic!("seq") };
        assert!(stmts.iter().any(|n| matches!(n, Skel::While { .. })));
        assert!(stmts
            .iter()
            .any(|n| matches!(n, Skel::For { var: Some(v), .. } if v == "i")));
    }

    #[test]
    fn tuple_for_pattern_havocs_bound_names() {
        let s = skel_of(
            "fn f(comm: &C) {\n    for (mask, qc) in combines {\n        comm.send(rank + mask, qc);\n    }\n}\n",
        );
        let Skel::Seq(stmts) = &s else { panic!("seq") };
        let Some(Skel::For { var, body, .. }) =
            stmts.iter().find(|n| matches!(n, Skel::For { .. }))
        else {
            panic!("for node")
        };
        assert!(var.is_none());
        let Skel::Seq(b) = body.as_ref() else {
            panic!()
        };
        assert!(
            matches!(&b[0], Skel::Mut { var, .. } if var == "mask"),
            "pattern idents havocked first: {b:?}"
        );
    }

    #[test]
    fn clean_collective_chain_verifies_clean() {
        let (g, f) = graph_of(&[(
            "a.rs",
            "pub fn round_dist(comm: &C) {\n    comm.allreduce_sum(&mut x);\n    comm.broadcast(0, b);\n    comm.barrier();\n}\n",
        )]);
        let v = check_entry(&g, &f, node(&g, "round_dist"));
        assert_eq!(v, Verdict::Clean);
    }

    #[test]
    fn tsqr_shaped_tree_verifies_clean() {
        // The real TSQR shape: binomial upsweep (send up, break / recv and
        // remember), rank-0-rooted downsweep, closing broadcast. The model
        // must find the completing interleaving at every p in {2, 3, 4}.
        let (g, f) = graph_of(&[(
            "a.rs",
            r#"pub fn tsqr_dist(comm: &C) {
    let rank = comm.rank();
    let p = comm.size();
    let mut mask = 1;
    let mut sent_at = 0;
    let mut sent = 0;
    let mut ups = 0;
    while mask < p {
        if rank & mask != 0 {
            comm.send(rank - mask, buf);
            sent_at = mask;
            sent = 1;
            break;
        } else if rank + mask < p {
            let q = comm.recv(rank + mask);
            ups = ups + 1;
        }
        mask <<= 1;
    }
    if rank != 0 {
        let t = comm.recv(rank - sent_at);
    }
    let mut m = mask;
    while m > 0 {
        if rank & m == 0 && rank + m < p {
            if sent == 0 || m < sent_at {
                comm.send(rank + m, buf);
            }
        }
        m = m / 2;
    }
    comm.broadcast(0, buf);
}
"#,
        )]);
        let v = check_entry(&g, &f, node(&g, "tsqr_dist"));
        assert_eq!(v, Verdict::Clean);
    }

    #[test]
    fn extraction_captures_posts_and_waits() {
        let s = skel_of(
            "fn f(comm: &C) {\n    let req = comm.iallreduce_sum(buf);\n    comm.isend(1, b).wait();\n    let r = comm.irecv(0);\n    let g = req.wait();\n    let q = r.wait();\n    let done = req.test();\n}\n",
        );
        assert_eq!(
            kinds(&s),
            vec![
                "post:iallreduce_sum",
                "post:isend",
                "wait",
                "post:irecv",
                "wait",
                "wait",
                "wait"
            ]
        );
    }

    #[test]
    fn argful_wait_is_not_a_request_wait() {
        // `Condvar::wait(guard)` takes an argument: generic call, not Wait.
        let s = skel_of("fn f(c: &C) {\n    cv.wait(guard);\n}\n");
        assert_eq!(kinds(&s), Vec::<String>::new());
    }

    #[test]
    fn pipelined_allreduce_chain_verifies_clean() {
        // Two posts in flight, waits in post order, closing broadcast: the
        // deferred rendezvous must line up across ranks at every checked p.
        let (g, f) = graph_of(&[(
            "a.rs",
            "pub fn pipeline_dist(comm: &C) {\n    let first = comm.iallreduce_sum(buf);\n    let second = comm.iallreduce_sum(buf);\n    let g0 = first.wait();\n    let g1 = second.wait();\n    comm.broadcast(0, b);\n}\n",
        )]);
        let v = check_entry(&g, &f, node(&g, "pipeline_dist"));
        assert_eq!(v, Verdict::Clean);
    }

    #[test]
    fn preposted_irecv_ring_is_clean() {
        // The blocking version of this ring (recv posted first on every
        // rank) is the canonical deadlock; pre-posting the receive as an
        // irecv and waiting it *after* the eager isend must verify clean —
        // the whole point of modeling post/wait as deferred rendezvous.
        let (g, f) = graph_of(&[(
            "a.rs",
            "pub fn ring_dist(comm: &C) {\n    let rank = comm.rank();\n    let p = comm.size();\n    let inbound = comm.irecv((rank + p - 1) % p);\n    comm.isend((rank + 1) % p, buf).wait();\n    let got = inbound.wait();\n}\n",
        )]);
        let v = check_entry(&g, &f, node(&g, "ring_dist"));
        assert_eq!(v, Verdict::Clean);
    }

    #[test]
    fn waited_irecv_before_isend_is_deadlock() {
        // Waiting the irecv before anyone isends reconstructs the blocking
        // recv-recv cycle: the deferred Recv is emitted at the early wait
        // site, before any Send exists.
        let (g, f) = graph_of(&[(
            "a.rs",
            "pub fn eager_wait_dist(comm: &C) {\n    let rank = comm.rank();\n    let req = comm.irecv(rank ^ 1);\n    let got = req.wait();\n    comm.isend(rank ^ 1, got).wait();\n}\n",
        )]);
        let v = check_entry(&g, &f, node(&g, "eager_wait_dist"));
        assert!(
            matches!(v, Verdict::Deadlock { p: 2, .. }),
            "irecv waited before the matching isend must deadlock: {v:?}"
        );
    }

    #[test]
    fn blocking_vs_nonblocking_allreduce_mismatch_is_flagged() {
        // The runtime routes i-collectives over a separate channel from the
        // blocking tree, so rank 0 posting `iallreduce_sum` against rank 1's
        // blocking `allreduce_sum` hangs — the model must agree (distinct
        // rendezvous kinds never match).
        let (g, f) = graph_of(&[(
            "a.rs",
            "pub fn mixed_dist(comm: &C) {\n    let rank = comm.rank();\n    if rank == 0 {\n        let r = comm.iallreduce_sum(buf);\n        let g = r.wait();\n    } else {\n        comm.allreduce_sum(buf);\n    }\n}\n",
        )]);
        let v = check_entry(&g, &f, node(&g, "mixed_dist"));
        assert!(
            matches!(v, Verdict::Deadlock { .. }),
            "kind mismatch across the rendezvous must be flagged: {v:?}"
        );
    }

    #[test]
    fn recv_recv_cycle_is_deadlock() {
        let (g, f) = graph_of(&[(
            "a.rs",
            "pub fn exchange_dist(comm: &C) {\n    let rank = comm.rank();\n    let peer = rank ^ 1;\n    let q = comm.recv(peer);\n    comm.send(peer, q);\n}\n",
        )]);
        let v = check_entry(&g, &f, node(&g, "exchange_dist"));
        assert!(
            matches!(v, Verdict::Deadlock { p: 2, .. }),
            "recv-before-send on both ranks must deadlock at p=2: {v:?}"
        );
    }

    #[test]
    fn cross_file_recv_recv_cycle_is_deadlock() {
        // The cycle only exists interprocedurally: the entry receives via a
        // helper in another file, then sends. Requires call inlining.
        let (g, f) = graph_of(&[
            (
                "a.rs",
                "pub fn pull_dist(comm: &C) {\n    let rank = comm.rank();\n    let q = fetch_from(comm, rank ^ 1);\n    comm.send(rank ^ 1, q);\n}\n",
            ),
            (
                "b.rs",
                "pub fn fetch_from(comm: &C, peer: usize) -> Vec<f64> {\n    comm.recv(peer)\n}\n",
            ),
        ]);
        let v = check_entry(&g, &f, node(&g, "pull_dist"));
        assert!(
            matches!(v, Verdict::Deadlock { p: 2, .. }),
            "cross-file recv-recv cycle must deadlock: {v:?}"
        );
    }

    #[test]
    fn collective_count_mismatch_is_flagged() {
        let (g, f) = graph_of(&[(
            "a.rs",
            "pub fn reduce_dist(comm: &C) {\n    let rank = comm.rank();\n    if rank == 0 {\n        comm.allreduce_sum(&mut x);\n        comm.allreduce_sum(&mut x);\n    } else {\n        comm.allreduce_sum(&mut x);\n    }\n}\n",
        )]);
        let v = check_entry(&g, &f, node(&g, "reduce_dist"));
        assert!(
            matches!(v, Verdict::Deadlock { .. }),
            "collective count mismatch strands rank 0: {v:?}"
        );
    }

    #[test]
    fn unreceived_send_is_unmatched() {
        let (g, f) = graph_of(&[(
            "a.rs",
            "pub fn push_dist(comm: &C) {\n    let rank = comm.rank();\n    if rank == 0 {\n        comm.send(1, buf);\n    }\n    comm.barrier();\n}\n",
        )]);
        let v = check_entry(&g, &f, node(&g, "push_dist"));
        assert!(
            matches!(v, Verdict::Unmatched { .. }),
            "send with no matching recv completes but leaves a message: {v:?}"
        );
    }

    #[test]
    fn unknown_branches_stay_inconclusive_not_flagged() {
        // Opaque condition guarding a recv with no visible sender: the
        // model can't prove divergence, so it must stay silent.
        let (g, f) = graph_of(&[(
            "a.rs",
            "pub fn maybe_dist(comm: &C) {\n    let rank = comm.rank();\n    if weather_is_nice() {\n        let q = comm.recv(rank ^ 1);\n        comm.send(rank ^ 1, q);\n    }\n}\n",
        )]);
        let v = check_entry(&g, &f, node(&g, "maybe_dist"));
        // Either clean (both-skip resolution completes) — the angelic
        // reading — but never a reported deadlock.
        assert!(
            matches!(v, Verdict::Clean | Verdict::Inconclusive),
            "unknown branch must not fire: {v:?}"
        );
    }

    #[test]
    fn is_dist_entry_naming() {
        assert!(is_dist_entry("round_dist"));
        assert!(is_dist_entry("tt_dist_gmres"));
        assert!(!is_dist_entry("distance"));
        assert!(!is_dist_entry("round"));
    }
}
