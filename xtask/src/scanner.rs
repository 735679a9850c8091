//! The Rust token scanner behind `cargo xtask analyze` (DESIGN.md §8).
//!
//! A line-by-line sanitizer (`strip_comments_and_strings`) once did this
//! job and mis-handled exactly the constructs a lexical analyzer must get
//! right: multi-line `/* */` block comments, raw string literals
//! (`r#"..."#`), and strings spanning lines. This module is a small real
//! scanner instead:
//!
//! * [`scan`] tokenizes source text into [`Token`]s — identifiers, numeric
//!   literals (with float classification), string/raw-string/char literals,
//!   lifetimes, punctuation (compound operators like `==`/`!=` kept as one
//!   token), and comments;
//! * [`CodeModel`] layers structure over the token stream: brace-nesting
//!   depth per token, `#[cfg(test)]` item regions, and `fn` item boundaries.
//!
//! The scanner is a *lexer*, not a parser: it is deliberately permissive
//! (arbitrary byte soup must scan without panicking — there is a property
//! test asserting exactly that) and every analysis built on it is a
//! heuristic over token patterns, not a type-aware proof. That trade-off is
//! the point: the analysis runs in milliseconds on every push and catches
//! the bug class that matters *before* any rank executes (the runtime
//! counterpart is `tt_comm::ThreadComm`, which checks every message it
//! delivers).

/// Lexical class of a [`Token`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `rank`, `allreduce_sum`, ...).
    Ident,
    /// Numeric literal; `float` is true for literals with a fractional
    /// part, a decimal exponent, or an `f32`/`f64` suffix.
    Num {
        /// Whether the literal lexes as floating-point.
        float: bool,
    },
    /// String literal (`"..."`, `b"..."`, `c"..."`), escapes handled.
    Str,
    /// Raw string literal (`r"..."`, `r#"..."#`, `br#"..."#`), no escapes.
    RawStr,
    /// Character or byte literal (`'x'`, `b'\n'`).
    Char,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
    /// Punctuation; compound operators (`==`, `!=`, `->`, `::`, ...) are a
    /// single token.
    Punct,
    /// Comment (`// ...` or `/* ... */`, nesting handled); [`CodeModel`]
    /// drops these.
    Comment {
        /// True for `/* */` block comments (which may span lines).
        block: bool,
    },
}

/// One lexical token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// Lexical class.
    pub kind: TokenKind,
    /// Source text of the token (for comments: the full comment body).
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: usize,
}

impl Token {
    /// True if this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// True if this token is the punctuation `s`.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == s
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Tokenizes `src`. Total: every input produces a token vector (unterminated
/// literals and comments extend to end-of-input), and the scanner always
/// advances, so it terminates on arbitrary input without panicking.
pub fn scan(src: &str) -> Vec<Token> {
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1usize;

    // Counts newlines in chars[from..to] (for multi-line tokens).
    let count_lines = |from: usize, to: usize| -> usize {
        chars[from..to.min(n)]
            .iter()
            .filter(|&&c| c == '\n')
            .count()
    };
    let text_of = |from: usize, to: usize| -> String { chars[from..to.min(n)].iter().collect() };

    while i < n {
        let c = chars[i];
        let start = i;
        let start_line = line;

        // Whitespace.
        if c.is_whitespace() {
            if c == '\n' {
                line += 1;
            }
            i += 1;
            continue;
        }

        // Comments.
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            while i < n && chars[i] != '\n' {
                i += 1;
            }
            out.push(Token {
                kind: TokenKind::Comment { block: false },
                text: text_of(start, i),
                line: start_line,
            });
            continue;
        }
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            let mut depth = 1usize;
            i += 2;
            while i < n && depth > 0 {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            line += count_lines(start, i);
            out.push(Token {
                kind: TokenKind::Comment { block: true },
                text: text_of(start, i),
                line: start_line,
            });
            continue;
        }

        // Raw / byte / C string literals: r"", r#""#, b"", br#""#, c"", cr#""#.
        if matches!(c, 'r' | 'b' | 'c') {
            if let Some((end, raw)) = try_scan_prefixed_string(&chars, i) {
                line += count_lines(start, end);
                out.push(Token {
                    kind: if raw {
                        TokenKind::RawStr
                    } else {
                        TokenKind::Str
                    },
                    text: text_of(start, end),
                    line: start_line,
                });
                i = end;
                continue;
            }
            // Byte char literal b'x'.
            if c == 'b' && chars.get(i + 1) == Some(&'\'') {
                let end = scan_char_body(&chars, i + 2);
                line += count_lines(start, end);
                out.push(Token {
                    kind: TokenKind::Char,
                    text: text_of(start, end),
                    line: start_line,
                });
                i = end;
                continue;
            }
        }

        // Identifiers / keywords.
        if is_ident_start(c) {
            let mut j = i + 1;
            while j < n && is_ident_continue(chars[j]) {
                j += 1;
            }
            out.push(Token {
                kind: TokenKind::Ident,
                text: text_of(i, j),
                line: start_line,
            });
            i = j;
            continue;
        }

        // Ordinary string literal.
        if c == '"' {
            let end = scan_string_body(&chars, i + 1);
            line += count_lines(start, end);
            out.push(Token {
                kind: TokenKind::Str,
                text: text_of(start, end),
                line: start_line,
            });
            i = end;
            continue;
        }

        // Char literal vs lifetime.
        if c == '\'' {
            match chars.get(i + 1) {
                Some(&d) if is_ident_start(d) && chars.get(i + 2) != Some(&'\'') => {
                    // Lifetime: 'a, 'static (no closing quote after one char).
                    let mut j = i + 1;
                    while j < n && is_ident_continue(chars[j]) {
                        j += 1;
                    }
                    out.push(Token {
                        kind: TokenKind::Lifetime,
                        text: text_of(i, j),
                        line: start_line,
                    });
                    i = j;
                    continue;
                }
                Some(_) => {
                    let end = scan_char_body(&chars, i + 1);
                    line += count_lines(start, end);
                    out.push(Token {
                        kind: TokenKind::Char,
                        text: text_of(start, end),
                        line: start_line,
                    });
                    i = end;
                    continue;
                }
                None => {
                    out.push(Token {
                        kind: TokenKind::Punct,
                        text: "'".to_string(),
                        line: start_line,
                    });
                    i += 1;
                    continue;
                }
            }
        }

        // Numeric literals.
        if c.is_ascii_digit() {
            let (end, float) = scan_number(&chars, i);
            out.push(Token {
                kind: TokenKind::Num { float },
                text: text_of(i, end),
                line: start_line,
            });
            i = end;
            continue;
        }

        // Punctuation; keep the compound operators the analysis cares about
        // as single tokens.
        const COMPOUND: &[&str] = &[
            "==", "!=", "<=", ">=", "->", "=>", "::", "..", "&&", "||", "+=", "-=", "*=", "/=",
            "<<", ">>",
        ];
        let two: String = chars[i..n.min(i + 2)].iter().collect();
        if COMPOUND.contains(&two.as_str()) {
            out.push(Token {
                kind: TokenKind::Punct,
                text: two,
                line: start_line,
            });
            i += 2;
            continue;
        }
        out.push(Token {
            kind: TokenKind::Punct,
            text: c.to_string(),
            line: start_line,
        });
        i += 1;
    }
    out
}

/// Scans a possibly-prefixed raw/byte/C string starting at `i` (which points
/// at the first prefix char). Returns `(end, raw)` — the index past the
/// closing quote and whether the literal is raw (escape-free) — or `None`
/// if the chars at `i` do not start such a literal.
fn try_scan_prefixed_string(chars: &[char], i: usize) -> Option<(usize, bool)> {
    let n = chars.len();
    let mut j = i;
    let mut saw_r = false;
    // Up to two prefix letters from {b, c, r}; `r` may be alone.
    for _ in 0..2 {
        match chars.get(j) {
            Some('r') => {
                saw_r = true;
                j += 1;
            }
            Some('b') | Some('c') if !saw_r => {
                j += 1;
            }
            _ => break,
        }
    }
    if j == i {
        return None;
    }
    // Optional hashes (raw strings only).
    let mut hashes = 0usize;
    if saw_r {
        while chars.get(j) == Some(&'#') {
            hashes += 1;
            j += 1;
        }
    }
    if chars.get(j) != Some(&'"') {
        return None;
    }
    j += 1;
    if saw_r {
        // Raw: scan to `"` followed by `hashes` hashes, no escapes.
        while j < n {
            if chars[j] == '"' {
                let mut h = 0usize;
                while h < hashes && chars.get(j + 1 + h) == Some(&'#') {
                    h += 1;
                }
                if h == hashes {
                    return Some((j + 1 + hashes, true));
                }
            }
            j += 1;
        }
        Some((n, true))
    } else {
        // b"..." / c"...": ordinary escape rules.
        Some((scan_string_body(chars, j), false))
    }
}

/// Scans an escaped string body starting just after the opening quote;
/// returns the index past the closing quote (or end of input).
fn scan_string_body(chars: &[char], mut j: usize) -> usize {
    let n = chars.len();
    while j < n {
        match chars[j] {
            '\\' => j += 2,
            '"' => return j + 1,
            _ => j += 1,
        }
    }
    n
}

/// Scans a char-literal body starting just after the opening quote; returns
/// the index past the closing quote. Bails at end-of-line for unterminated
/// literals so a stray `'` cannot swallow the rest of the file.
fn scan_char_body(chars: &[char], mut j: usize) -> usize {
    let n = chars.len();
    while j < n {
        match chars[j] {
            '\\' => j += 2,
            '\'' => return j + 1,
            '\n' => return j,
            _ => j += 1,
        }
    }
    n
}

/// Scans a numeric literal starting at digit `i`; returns (end, is_float).
fn scan_number(chars: &[char], i: usize) -> (usize, bool) {
    let n = chars.len();
    let mut j = i;
    let mut float = false;
    let radix_prefix = chars[i] == '0'
        && matches!(
            chars.get(i + 1),
            Some('x') | Some('o') | Some('b') | Some('X')
        );
    if radix_prefix {
        j += 2;
        while j < n && (chars[j].is_ascii_alphanumeric() || chars[j] == '_') {
            j += 1;
        }
        return (j, false);
    }
    while j < n && (chars[j].is_ascii_digit() || chars[j] == '_') {
        j += 1;
    }
    // Fractional part: a `.` not starting a range (`..`) or a method call
    // (`1.max(2)`).
    if chars.get(j) == Some(&'.') {
        let after = chars.get(j + 1).copied();
        let is_range = after == Some('.');
        let is_method = after.is_some_and(is_ident_start);
        if !is_range && !is_method {
            float = true;
            j += 1;
            while j < n && (chars[j].is_ascii_digit() || chars[j] == '_') {
                j += 1;
            }
        }
    }
    // Exponent.
    if matches!(chars.get(j), Some('e') | Some('E')) {
        let mut k = j + 1;
        if matches!(chars.get(k), Some('+') | Some('-')) {
            k += 1;
        }
        if chars.get(k).is_some_and(|c| c.is_ascii_digit()) {
            float = true;
            j = k;
            while j < n && (chars[j].is_ascii_digit() || chars[j] == '_') {
                j += 1;
            }
        }
    }
    // Type suffix (f64, u32, usize, ...).
    if chars.get(j).copied().is_some_and(is_ident_start) {
        let suffix_start = j;
        while j < n && is_ident_continue(chars[j]) {
            j += 1;
        }
        if chars.get(suffix_start) == Some(&'f') {
            float = true;
        }
    }
    (j, float)
}

/// One `fn` item found in the token stream.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// The function's name (`<anon>` for malformed input).
    pub name: String,
    /// Token index of the `fn` keyword.
    pub fn_idx: usize,
    /// Token index range `[open_brace, close_brace]` of the body, if the
    /// item has one (trait method declarations do not).
    pub body: Option<(usize, usize)>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
}

impl FnInfo {
    /// True if token index `idx` lies strictly inside this fn's body.
    pub fn contains(&self, idx: usize) -> bool {
        match self.body {
            Some((a, b)) => idx > a && idx < b,
            None => false,
        }
    }
}

/// Structured view over a scanned file: comment-free code tokens plus
/// brace-depth, `#[cfg(test)]`-region, and `fn`-boundary classification.
#[derive(Debug)]
pub struct CodeModel {
    /// Code tokens (comments stripped).
    pub tokens: Vec<Token>,
    /// Brace-nesting depth of each code token (the `{`/`}` tokens
    /// themselves carry the depth of the region they delimit).
    pub depth: Vec<usize>,
    /// Whether each code token lies inside a `#[cfg(test)]`-gated item.
    pub in_test: Vec<bool>,
    /// All `fn` items, in source order (nested fns included).
    pub fns: Vec<FnInfo>,
}

impl CodeModel {
    /// Scans `src` and builds the structured view.
    pub fn build(src: &str) -> CodeModel {
        let tokens: Vec<Token> = scan(src)
            .into_iter()
            .filter(|t| !matches!(t.kind, TokenKind::Comment { .. }))
            .collect();

        // Brace depth.
        let mut depth = Vec::with_capacity(tokens.len());
        let mut d = 0usize;
        for t in &tokens {
            if t.is_punct("{") {
                depth.push(d);
                d += 1;
            } else if t.is_punct("}") {
                d = d.saturating_sub(1);
                depth.push(d);
            } else {
                depth.push(d);
            }
        }

        let in_test = test_regions(&tokens);
        let fns = find_fns(&tokens);
        CodeModel {
            tokens,
            depth,
            in_test,
            fns,
        }
    }

    /// The innermost `fn` whose body contains token `idx`.
    pub fn enclosing_fn(&self, idx: usize) -> Option<&FnInfo> {
        self.fns
            .iter()
            .filter(|f| f.contains(idx))
            .min_by_key(|f| match f.body {
                Some((a, b)) => b - a,
                None => usize::MAX,
            })
    }

    /// Index of the matching `)` for the `(` at token index `open`, or the
    /// last token if unbalanced (same contract as [`Self::matching_brace`]).
    pub fn matching_paren(&self, open: usize) -> usize {
        let mut d = 0i64;
        for (i, t) in self.tokens.iter().enumerate().skip(open) {
            if t.is_punct("(") {
                d += 1;
            } else if t.is_punct(")") {
                d -= 1;
                if d == 0 {
                    return i;
                }
            }
        }
        self.tokens.len().saturating_sub(1)
    }

    /// Index of the matching `}` for the `{` at token index `open`, or the
    /// last token if unbalanced.
    pub fn matching_brace(&self, open: usize) -> usize {
        let mut d = 0usize;
        for (i, t) in self.tokens.iter().enumerate().skip(open) {
            if t.is_punct("{") {
                d += 1;
            } else if t.is_punct("}") {
                d -= 1;
                if d == 0 {
                    return i;
                }
            }
        }
        self.tokens.len().saturating_sub(1)
    }
}

/// Marks tokens inside `#[cfg(test)]`-gated items (the `#[cfg(test)] mod
/// tests { ... }` idiom, single gated items, and `;`-terminated gated
/// declarations).
fn test_regions(tokens: &[Token]) -> Vec<bool> {
    let n = tokens.len();
    let mut mask = vec![false; n];
    let mut i = 0usize;
    while i < n {
        // Match `#[...]` and inspect its content for `cfg ( test`.
        if tokens[i].is_punct("#") && tokens.get(i + 1).is_some_and(|t| t.is_punct("[")) {
            // Find the closing `]` (attributes nest brackets).
            let mut j = i + 1;
            let mut bd = 0i64;
            let mut is_cfg_test = false;
            let mut prev_idents: Vec<&str> = Vec::new();
            while j < n {
                let t = &tokens[j];
                if t.is_punct("[") {
                    bd += 1;
                } else if t.is_punct("]") {
                    bd -= 1;
                    if bd == 0 {
                        break;
                    }
                } else if t.kind == TokenKind::Ident {
                    prev_idents.push(&t.text);
                }
                j += 1;
            }
            if prev_idents.first() == Some(&"cfg") && prev_idents.contains(&"test") {
                is_cfg_test = true;
            }
            if is_cfg_test {
                // The attribute applies to the next item: skip any further
                // attributes, then the region runs to the item's closing
                // brace (or its `;` for brace-less items).
                let mut k = j + 1;
                while k < n
                    && tokens[k].is_punct("#")
                    && tokens.get(k + 1).is_some_and(|t| t.is_punct("["))
                {
                    let mut bd2 = 0i64;
                    while k < n {
                        if tokens[k].is_punct("[") {
                            bd2 += 1;
                        } else if tokens[k].is_punct("]") {
                            bd2 -= 1;
                            if bd2 == 0 {
                                k += 1;
                                break;
                            }
                        }
                        k += 1;
                    }
                }
                // Scan for the item's first `{` at paren depth 0, or a `;`.
                let mut pd = 0i64;
                let mut m = k;
                let mut end = None;
                while m < n {
                    let t = &tokens[m];
                    if t.is_punct("(") {
                        pd += 1;
                    } else if t.is_punct(")") {
                        pd -= 1;
                    } else if t.is_punct(";") && pd <= 0 {
                        end = Some(m);
                        break;
                    } else if t.is_punct("{") && pd <= 0 {
                        // Match braces forward.
                        let mut bd3 = 0i64;
                        let mut q = m;
                        while q < n {
                            if tokens[q].is_punct("{") {
                                bd3 += 1;
                            } else if tokens[q].is_punct("}") {
                                bd3 -= 1;
                                if bd3 == 0 {
                                    break;
                                }
                            }
                            q += 1;
                        }
                        end = Some(q.min(n - 1));
                        break;
                    }
                    m += 1;
                }
                let end = end.unwrap_or(n - 1);
                for flag in mask.iter_mut().take(end + 1).skip(i) {
                    *flag = true;
                }
                i = end + 1;
                continue;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// Finds every `fn` item and its body's brace span.
fn find_fns(tokens: &[Token]) -> Vec<FnInfo> {
    let n = tokens.len();
    let mut fns = Vec::new();
    for i in 0..n {
        if !tokens[i].is_ident("fn") {
            continue;
        }
        // `fn` in `Fn()` trait bounds is `Fn` (capitalized) — distinct
        // ident. A `fn` pointer type (`fn(usize) -> T`) has no name ident.
        let name = match tokens.get(i + 1) {
            Some(t) if t.kind == TokenKind::Ident => t.text.clone(),
            _ => continue,
        };
        // Find the body `{` at paren/bracket depth 0, stopping at `;`.
        let mut pd = 0i64;
        let mut body = None;
        let mut j = i + 2;
        while j < n {
            let t = &tokens[j];
            if t.is_punct("(") || t.is_punct("[") {
                pd += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                pd -= 1;
            } else if t.is_punct(";") && pd <= 0 {
                break;
            } else if t.is_punct("{") && pd <= 0 {
                // Match braces.
                let mut bd = 0i64;
                let mut q = j;
                while q < n {
                    if tokens[q].is_punct("{") {
                        bd += 1;
                    } else if tokens[q].is_punct("}") {
                        bd -= 1;
                        if bd == 0 {
                            break;
                        }
                    }
                    q += 1;
                }
                body = Some((j, q.min(n - 1)));
                break;
            }
            j += 1;
        }
        fns.push(FnInfo {
            name,
            fn_idx: i,
            body,
            line: tokens[i].line,
        });
    }
    fns
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        scan(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn strings_and_comments_are_classified() {
        let toks = kinds("let s = \"x.unwrap()\"; // .unwrap()\n");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Str && t.contains("unwrap")));
        assert!(
            toks.iter()
                .any(|(k, t)| matches!(k, TokenKind::Comment { block: false })
                    && t.contains("unwrap"))
        );
        // No Ident token named `unwrap` leaks out of the literal/comment.
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "unwrap"));
    }

    #[test]
    fn multi_line_block_comments_scan_as_one_token() {
        let src = "fn a() {}\n/* spans\n   .unwrap()\n   lines */\nfn b() {}\n";
        let toks = scan(src);
        let comment = toks
            .iter()
            .find(|t| matches!(t.kind, TokenKind::Comment { block: true }))
            .expect("block comment token");
        assert_eq!(comment.line, 2);
        assert!(comment.text.contains(".unwrap()"));
        // Line numbers resume correctly after the multi-line comment.
        let b = toks.iter().find(|t| t.is_ident("b")).expect("fn b ident");
        assert_eq!(b.line, 5);
    }

    #[test]
    fn nested_block_comments_terminate_correctly() {
        let toks = kinds("/* outer /* inner */ still comment */ fn x() {}");
        assert!(toks.iter().any(|(k, _)| *k == TokenKind::Ident));
        let comment = &toks[0];
        assert!(comment.1.contains("inner"));
        assert!(comment.1.ends_with("*/"));
    }

    #[test]
    fn raw_strings_with_hashes_scan_as_one_token() {
        let src = "let s = r#\"multi\nline \".unwrap()\" body\"#; fn after() {}";
        let toks = scan(src);
        let raw = toks
            .iter()
            .find(|t| t.kind == TokenKind::RawStr)
            .expect("raw string token");
        assert!(raw.text.contains(".unwrap()"));
        assert!(toks.iter().any(|t| t.is_ident("after")));
        assert!(!toks.iter().any(|t| t.is_ident("unwrap")));
    }

    #[test]
    fn byte_and_c_strings_are_strings() {
        let toks = kinds("b\"bytes\" c\"cstr\" br#\"raw bytes\"#");
        assert_eq!(toks[0].0, TokenKind::Str);
        assert_eq!(toks[1].0, TokenKind::Str);
        assert_eq!(toks[2].0, TokenKind::RawStr);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds("&'a str; 'x'; '\\n'; b'z'");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Lifetime && t == "'a"));
        assert_eq!(
            toks.iter().filter(|(k, _)| *k == TokenKind::Char).count(),
            3
        );
    }

    #[test]
    fn numbers_classify_floatness() {
        let toks = kinds("1 1.0 1e3 0.5e-2 2f64 3usize 0x1F 0..5 1.max(2)");
        let floats: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| matches!(k, TokenKind::Num { float: true }))
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(floats, vec!["1.0", "1e3", "0.5e-2", "2f64"]);
        // Range and method-call dots are not absorbed into the number.
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Punct && t == ".."));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "max"));
    }

    #[test]
    fn compound_operators_are_single_tokens() {
        let toks = kinds("a == b != c -> d => e :: f");
        let puncts: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Punct)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(puncts, vec!["==", "!=", "->", "=>", "::"]);
    }

    #[test]
    fn cfg_test_mod_region_is_marked() {
        let src = "fn a() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn b() { y.unwrap(); }\n}\nfn c() {}\n";
        let m = CodeModel::build(src);
        let unwraps: Vec<bool> = m
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("unwrap"))
            .map(|(i, _)| m.in_test[i])
            .collect();
        assert_eq!(unwraps, vec![false, true]);
        // fn c after the region is back outside.
        let c_idx = m.tokens.iter().position(|t| t.is_ident("c")).expect("fn c");
        assert!(!m.in_test[c_idx]);
    }

    #[test]
    fn cfg_test_on_single_item_ends_region() {
        let src = "#[cfg(test)]\nfn helper() {\n    z.unwrap();\n}\nfn real() { w.unwrap(); }\n";
        let m = CodeModel::build(src);
        let flags: Vec<bool> = m
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("unwrap"))
            .map(|(i, _)| m.in_test[i])
            .collect();
        assert_eq!(flags, vec![true, false]);
    }

    #[test]
    fn cfg_test_with_stacked_attributes() {
        let src =
            "#[cfg(test)]\n#[allow(dead_code)]\nmod t { fn x() { a.unwrap(); } }\nfn y() {}\n";
        let m = CodeModel::build(src);
        let i = m
            .tokens
            .iter()
            .position(|t| t.is_ident("unwrap"))
            .expect("unwrap");
        assert!(m.in_test[i]);
        let y = m.tokens.iter().position(|t| t.is_ident("y")).expect("y");
        assert!(!m.in_test[y]);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        // Only cfg attributes that mention `test` gate a region.
        let src = "#[cfg(feature = \"paranoid\")]\nfn p() { q.unwrap(); }\n";
        let m = CodeModel::build(src);
        let i = m
            .tokens
            .iter()
            .position(|t| t.is_ident("unwrap"))
            .expect("unwrap");
        assert!(!m.in_test[i]);
    }

    #[test]
    fn fn_boundaries_and_enclosing_fn() {
        let src = "fn outer(a: usize) -> usize {\n    fn inner() {}\n    a\n}\nfn other() {}\n";
        let m = CodeModel::build(src);
        let names: Vec<&str> = m.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner", "other"]);
        let a_use = m
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("a"))
            .map(|(i, _)| i)
            .next_back()
            .expect("a use");
        assert_eq!(
            m.enclosing_fn(a_use).map(|f| f.name.as_str()),
            Some("outer")
        );
    }

    #[test]
    fn trait_method_declarations_have_no_body() {
        let src = "trait T { fn decl(&self) -> usize; fn with_default(&self) { () } }";
        let m = CodeModel::build(src);
        assert_eq!(m.fns.len(), 2);
        assert!(m.fns[0].body.is_none());
        assert!(m.fns[1].body.is_some());
    }

    #[test]
    fn depth_tracks_brace_nesting() {
        let src = "fn f() { if x { y(); } }";
        let m = CodeModel::build(src);
        let y = m.tokens.iter().position(|t| t.is_ident("y")).expect("y");
        assert_eq!(m.depth[y], 2);
    }

    #[test]
    fn unterminated_constructs_do_not_loop_or_panic() {
        for src in [
            "/* never closed",
            "\"never closed",
            "r#\"never closed",
            "'",
            "b\"",
            "r###\"abc\"##",
            "1.",
            "0x",
        ] {
            let _ = scan(src);
            let _ = CodeModel::build(src);
        }
    }
}
