//! SARIF 2.1.0 output for `cargo xtask analyze --format sarif`.
//!
//! GitHub code scanning ingests SARIF, so the CI lint job uploads this
//! rendering of the analysis report and findings annotate the PR diff at
//! the exact file/line — the reviewer sees "collective `broadcast` inside a
//! rank-dependent conditional" on the line that introduced it, without
//! opening the job log.
//!
//! The writer is hand-rolled JSON over [`json_str`] (no serde in-tree) and
//! emits the minimal conforming document: one run, the tool driver with one reporting rule
//! per registered pass (per-file and interprocedural), one `result` per
//! unsuppressed diagnostic, and suppression errors / unused suppressions as
//! tool-execution notifications so they surface in the code-scanning UI
//! rather than vanishing.

use std::fmt::Write as _;

use crate::analyze::Report;
use crate::passes::{all_graph_passes, all_passes};

/// Schema the document declares (code scanning validates against it).
const SARIF_SCHEMA: &str = "https://json.schemastore.org/sarif-2.1.0.json";

/// Renders `report` as one SARIF 2.1.0 document.
pub fn report_to_sarif(report: &Report, check_suppressions: bool) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"$schema\":{},\"version\":\"2.1.0\",\"runs\":[{{",
        json_str(SARIF_SCHEMA)
    );

    // Tool driver + rule metadata (one rule per pass, stable order).
    s.push_str("\"tool\":{\"driver\":{\"name\":\"xtask-analyze\",");
    s.push_str("\"informationUri\":\"DESIGN.md\",\"rules\":[");
    let mut first = true;
    for (name, desc) in rule_table() {
        if !first {
            s.push(',');
        }
        first = false;
        let _ = write!(
            s,
            "{{\"id\":{},\"shortDescription\":{{\"text\":{}}},\
             \"defaultConfiguration\":{{\"level\":\"error\"}}}}",
            json_str(name),
            json_str(desc)
        );
    }
    s.push_str("]}},");

    // One result per unsuppressed diagnostic.
    s.push_str("\"results\":[");
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"ruleId\":{},\"level\":\"error\",\"message\":{{\"text\":{}}},\
             \"locations\":[{{\"physicalLocation\":{{\
             \"artifactLocation\":{{\"uri\":{}}},\
             \"region\":{{\"startLine\":{}}}}}}}]}}",
            json_str(d.pass),
            json_str(&d.message),
            json_str(&d.file),
            d.line.max(1)
        );
    }
    s.push_str("],");

    // Suppression problems travel as invocation notifications: they are
    // run-level defects (annotations, not code lines the diff UI can pin).
    let mut notes: Vec<String> = report.errors.clone();
    if check_suppressions {
        notes.extend(
            report
                .unused
                .iter()
                .map(|u| format!("{u}: suppression matches no diagnostic — remove it")),
        );
    }
    let _ = write!(
        s,
        "\"invocations\":[{{\"executionSuccessful\":{},\"toolExecutionNotifications\":[",
        report.is_clean(check_suppressions)
    );
    for (i, e) in notes.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"level\":\"error\",\"message\":{{\"text\":{}}}}}",
            json_str(e)
        );
    }
    s.push_str("]}]}]}");
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

/// `(id, description)` for every registered pass.
fn rule_table() -> Vec<(&'static str, &'static str)> {
    let mut out: Vec<(&'static str, &'static str)> = all_passes()
        .iter()
        .map(|p| (p.name(), p.description()))
        .collect();
    out.extend(
        all_graph_passes()
            .iter()
            .map(|p| (p.name(), p.description())),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::Diagnostic;

    fn sample_report() -> Report {
        Report {
            diagnostics: vec![Diagnostic {
                pass: "collective_order",
                file: "crates/tt-core/src/round/gram.rs".to_string(),
                line: 42,
                message: "call to `helper` with \"quotes\"".to_string(),
            }],
            suppressed: 1,
            errors: vec!["x.rs:1: malformed suppression".to_string()],
            unused: vec!["y.rs:2: analyze::allow(collective_order)".to_string()],
            files: 3,
        }
    }

    #[test]
    fn json_escaping_is_valid() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn sarif_document_has_required_shape() {
        let s = report_to_sarif(&sample_report(), true);
        assert!(s.contains("\"version\":\"2.1.0\""));
        assert!(s.contains("\"name\":\"xtask-analyze\""));
        assert!(s.contains("\"ruleId\":\"collective_order\""));
        assert!(s.contains("\"startLine\":42"));
        assert!(s.contains("\"uri\":\"crates/tt-core/src/round/gram.rs\""));
        assert!(s.contains("\"executionSuccessful\":false"));
        // Both notification channels present.
        assert!(s.contains("malformed suppression"));
        assert!(s.contains("matches no diagnostic"));
    }

    #[test]
    fn every_pass_has_a_rule_entry() {
        let s = report_to_sarif(&Report::default(), true);
        for name in crate::passes::all_pass_names() {
            assert!(
                s.contains(&format!("\"id\":\"{name}\"")),
                "missing rule for pass {name}"
            );
        }
    }

    #[test]
    fn clean_report_is_successful_and_valid() {
        let s = report_to_sarif(&Report::default(), true);
        assert!(s.contains("\"executionSuccessful\":true"));
        assert!(s.contains("\"results\":[]"));
        assert!(s.ends_with("]}"));
    }
}
