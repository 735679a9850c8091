//! SARIF 2.1.0 output for `cargo xtask analyze --format sarif`.
//!
//! GitHub code scanning ingests SARIF, so the CI lint job uploads this
//! rendering of the analysis report and findings annotate the PR diff at
//! the exact file/line — the reviewer sees "collective `broadcast` inside a
//! rank-dependent conditional" on the line that introduced it, without
//! opening the job log.
//!
//! The writer is hand-rolled JSON over `json_str` (no serde in-tree) and
//! emits the minimal conforming document: one run, the tool driver with the
//! one reporting rule, `collective_order`, and one `result` per diagnostic.

use std::fmt::Write as _;

use crate::collective_order::{Diagnostic, DESCRIPTION, RULE};

/// Schema the document declares (code scanning validates against it).
const SARIF_SCHEMA: &str = "https://json.schemastore.org/sarif-2.1.0.json";

/// Renders `diagnostics` as one SARIF 2.1.0 document.
pub fn to_sarif(diagnostics: &[Diagnostic]) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"$schema\":{},\"version\":\"2.1.0\",\"runs\":[{{",
        json_str(SARIF_SCHEMA)
    );

    // Tool driver + rule metadata.
    let _ = write!(
        s,
        "\"tool\":{{\"driver\":{{\"name\":\"xtask-analyze\",\
         \"informationUri\":\"DESIGN.md\",\"rules\":[{{\"id\":{},\
         \"shortDescription\":{{\"text\":{}}},\
         \"defaultConfiguration\":{{\"level\":\"error\"}}}}]}}}},",
        json_str(RULE),
        json_str(DESCRIPTION)
    );

    // One result per diagnostic.
    s.push_str("\"results\":[");
    for (i, d) in diagnostics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"ruleId\":{},\"level\":\"error\",\"message\":{{\"text\":{}}},\
             \"locations\":[{{\"physicalLocation\":{{\
             \"artifactLocation\":{{\"uri\":{}}},\
             \"region\":{{\"startLine\":{}}}}}}}]}}",
            json_str(RULE),
            json_str(&d.message),
            json_str(&d.file),
            d.line.max(1)
        );
    }
    let _ = write!(
        s,
        "],\"invocations\":[{{\"executionSuccessful\":{}}}]}}]}}",
        diagnostics.is_empty()
    );
    s
}

/// Minimal JSON string escaping (the escape set covers everything
/// `Diagnostic` messages can contain).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_is_valid() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn sarif_document_has_required_shape() {
        let s = to_sarif(&[Diagnostic {
            file: "crates/tt-core/src/round/gram.rs".to_string(),
            line: 42,
            message: "call to `helper` with \"quotes\"".to_string(),
        }]);
        assert!(s.contains("\"version\":\"2.1.0\""));
        assert!(s.contains("\"name\":\"xtask-analyze\""));
        assert!(s.contains("\"ruleId\":\"collective_order\""));
        assert!(s.contains("\"startLine\":42"));
        assert!(s.contains("\"uri\":\"crates/tt-core/src/round/gram.rs\""));
        assert!(s.contains("\"executionSuccessful\":false"));
    }

    #[test]
    fn clean_report_is_successful_and_valid() {
        let s = to_sarif(&[]);
        assert!(s.contains("\"id\":\"collective_order\""));
        assert!(s.contains("\"executionSuccessful\":true"));
        assert!(s.contains("\"results\":[]"));
        assert!(s.ends_with("]}"));
    }
}
