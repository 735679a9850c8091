//! Property tests: the scanner, the call-graph extraction and
//! `collective_order` must be total — no panic and no unbounded loop — on
//! arbitrary input, because `cargo xtask analyze` runs over whatever source
//! text the repo contains, including files that do not parse.

use proptest::prelude::*;
use xtask::callgraph::{propagate, CallGraph, FileSummary};
use xtask::collective_order::collective_order;
use xtask::scanner::CodeModel;

/// Syntax fragments whose concatenations hit the scanner's hard cases:
/// unterminated strings and comments, stray quotes and hashes, lifetimes
/// next to char literals, dangling attributes, unbalanced braces.
const FRAGMENTS: &[&str] = &[
    "fn f",
    "fn",
    "{",
    "}",
    "(",
    ")",
    "#[cfg(test)]",
    "#[cfg(test)",
    "mod t",
    "r#\"",
    "\"#",
    "r\"",
    "\"",
    "'",
    "'a",
    "'a'",
    "b\"x\"",
    "br#\"y\"#",
    "c\"z\"",
    "/*",
    "*/",
    "//",
    "///!",
    "if rank == 0",
    "while my_rank != 1",
    "else",
    "match x",
    ".recv(",
    ".send(",
    ".unwrap()",
    ".expect(",
    "panic!",
    "todo!",
    "return",
    "0.5",
    "1e",
    "1e3",
    "2f64",
    "0..5",
    "==",
    "!=",
    "::",
    "=>",
    "as u32",
    "as f32",
    "as usize",
    "let x =",
    ";",
    "#",
    "\\",
    "r#fn",
    "analyze::allow(p2p_pairing): soup",
    "// analyze::allow(collective_order): soup",
    "// analyze::allow(bogus)",
    "\u{7f}",
    "é",
    "𝕊",
    // Call-site / summary-extraction shapes for the interprocedural layer.
    "use a::b::{c, d as e};",
    "use crate::round::*;",
    "comm.allreduce_sum(",
    "deep_reduce(comm, x)",
    "for i in 0..n {",
    "loop {",
    "Vec::new()",
    "Vec::with_capacity(",
    "impl<T> Foo<T> {",
    "impl fmt::Display for Bar {",
    "trait Baz: Clone {",
    "-> impl Iterator<Item = f64>",
    "Self::new(",
    "vec![0.0; 4]",
    ".collect::<Vec<_>>()",
    ".to_vec()",
    "HashMap::new()",
    "Instant::now()",
    "std::env::var(",
    "pool.take(",
    "if rank == 0 { return; }",
    // Communication shapes: peer expressions, loop structure, and the
    // p2p/collective ops the analysis reads.
    "comm.rank()",
    "comm.size()",
    "comm.send(rank + 1, buf)",
    "comm.recv((rank + p - 1) % p)",
    "comm.barrier()",
    "comm.broadcast(0, y)",
    "mask <<= 1",
    "rank ^ 1",
    "rank & mask != 0",
    "for (i, c) in cores.iter().enumerate() {",
    "while mask < p {",
    "break",
    "continue",
    "%",
    "<<",
    "let mut sent = 0;",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn scanner_is_total_on_byte_soup(bytes in proptest::collection::vec(0u8..=255u8, 0usize..512)) {
        let src = String::from_utf8_lossy(&bytes);
        let model = CodeModel::build(&src);
        // Structural invariants hold whatever the input was.
        prop_assert_eq!(model.tokens.len(), model.depth.len());
        prop_assert_eq!(model.tokens.len(), model.in_test.len());
        for f in &model.fns {
            if let Some((open, close)) = f.body {
                prop_assert!(open < close);
                prop_assert!(close < model.tokens.len());
            }
        }
    }

    #[test]
    fn scanner_and_passes_are_total_on_fragment_soup(
        picks in proptest::collection::vec(0usize..FRAGMENTS.len(), 0usize..64),
    ) {
        let src = picks
            .iter()
            .map(|&i| FRAGMENTS[i])
            .collect::<Vec<_>>()
            .join(" ");
        let model = CodeModel::build(&src);
        prop_assert_eq!(model.tokens.len(), model.in_test.len());
        // The check must also survive the malformed token stream.
        let graph = CallGraph::build(vec![FileSummary::extract("soup.rs", &model)]);
        for d in &collective_order(&graph, &propagate(&graph)) {
            prop_assert!(d.line >= 1);
        }
    }

    #[test]
    fn summary_extraction_is_total_on_byte_soup(
        bytes in proptest::collection::vec(0u8..=255u8, 0usize..512),
    ) {
        let src = String::from_utf8_lossy(&bytes);
        let model = CodeModel::build(&src);
        let summary = FileSummary::extract("soup.rs", &model);
        // Every recorded call site carries a line inside the input, and a
        // second extraction is bit-identical (no hidden state).
        let max_line = src.lines().count().max(1);
        for f in &summary.fns {
            for c in &f.calls {
                prop_assert!(c.line >= 1 && c.line <= max_line);
                prop_assert!(!c.callee.is_empty());
            }
        }
        prop_assert_eq!(summary.clone(), FileSummary::extract("soup.rs", &model));
    }

    #[test]
    fn summary_extraction_is_total_on_fragment_soup(
        picks in proptest::collection::vec(0usize..FRAGMENTS.len(), 0usize..64),
    ) {
        let src = picks
            .iter()
            .map(|&i| FRAGMENTS[i])
            .collect::<Vec<_>>()
            .join(" ");
        let model = CodeModel::build(&src);
        let summary = FileSummary::extract("soup.rs", &model);
        prop_assert_eq!(summary.clone(), FileSummary::extract("soup.rs", &model));
    }

    #[test]
    fn line_numbers_are_monotone_and_in_range(
        bytes in proptest::collection::vec(0u8..=255u8, 0usize..256),
    ) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let model = CodeModel::build(&src);
        let max_line = src.lines().count().max(1);
        let mut prev = 1usize;
        for t in &model.tokens {
            prop_assert!(t.line >= prev, "token lines must be non-decreasing");
            prop_assert!(t.line <= max_line, "token line past end of input");
            prev = t.line;
        }
    }
}
