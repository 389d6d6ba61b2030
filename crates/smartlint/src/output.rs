//! Machine-readable report rendering: the versioned JSON report and
//! SARIF 2.1.0 for GitHub code scanning.
//!
//! Both renderers are deliberately deterministic: the JSON report
//! serializes a struct whose field order is fixed, the SARIF document
//! is assembled as an ordered [`serde::Value`] tree (insertion order
//! preserved), findings arrive already sorted by the analysis pass,
//! and nothing here consults clocks, hashes or environment — CI
//! asserts the bytes are identical across reruns.

use serde::{Serialize, Value};

use crate::rules::{Finding, RULES};

/// The versioned JSON report (`--format json`). Version 2 added the
/// derived-scope roots and per-finding call paths; version 3 dropped
/// the baseline fields.
#[derive(Debug, Serialize)]
pub struct Report {
    /// Report schema version.
    pub version: u32,
    /// Number of files analyzed.
    pub files_scanned: usize,
    /// The derived simulation roots (`path:line [Type::]fn`), sorted.
    pub roots: Vec<String>,
    /// Every finding.
    pub findings: Vec<Finding>,
}

/// Current JSON report schema version.
pub const REPORT_VERSION: u32 = 3;

/// Renders the JSON report (pretty, trailing newline).
pub fn render_json(report: &Report) -> String {
    let mut s = serde_json::to_string_pretty(report).unwrap_or_else(|_| "{}".to_string());
    s.push('\n');
    s
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Map(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn s(text: &str) -> Value {
    Value::Str(text.to_string())
}

/// Renders the findings as SARIF 2.1.0 (pretty, trailing newline),
/// every result at `error` level.
pub fn render_sarif(report: &Report) -> String {
    let rules: Vec<Value> = RULES
        .iter()
        .map(|r| {
            obj(vec![
                ("id", s(r.id)),
                ("shortDescription", obj(vec![("text", s(r.summary))])),
            ])
        })
        .collect();
    let results: Vec<Value> = report
        .findings
        .iter()
        .map(|f| {
            let mut text = f.message.clone();
            if !f.trace.is_empty() {
                text.push_str("; call path: ");
                text.push_str(&f.trace.join(" -> "));
            }
            obj(vec![
                ("ruleId", s(&f.rule)),
                ("level", s("error")),
                ("message", obj(vec![("text", s(&text))])),
                (
                    "locations",
                    Value::Array(vec![obj(vec![(
                        "physicalLocation",
                        obj(vec![
                            ("artifactLocation", obj(vec![("uri", s(&f.file))])),
                            (
                                "region",
                                obj(vec![("startLine", Value::UInt(u64::from(f.line)))]),
                            ),
                        ]),
                    )])]),
                ),
            ])
        })
        .collect();
    let sarif = obj(vec![
        (
            "$schema",
            s("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"),
        ),
        ("version", s("2.1.0")),
        (
            "runs",
            Value::Array(vec![obj(vec![
                (
                    "tool",
                    obj(vec![(
                        "driver",
                        obj(vec![
                            ("name", s("smartlint")),
                            ("rules", Value::Array(rules)),
                        ]),
                    )]),
                ),
                ("results", Value::Array(results)),
            ])]),
        ),
    ]);
    let mut out = serde_json::to_string_pretty(&sarif).unwrap_or_else(|_| "{}".to_string());
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            version: REPORT_VERSION,
            files_scanned: 2,
            roots: vec!["crates/kernelsim/src/system.rs:448 System::run_epoch".to_string()],
            findings: vec![Finding {
                rule: "D2".to_string(),
                file: "crates/core/src/sense.rs".to_string(),
                line: 7,
                message: "`Instant` introduces wall-clock time".to_string(),
                excerpt: "let t = Instant::now();".to_string(),
                trace: vec![
                    "crates/kernelsim/src/system.rs:448 System::run_epoch".to_string(),
                    "crates/core/src/sense.rs:7 stamp".to_string(),
                ],
            }],
        }
    }

    #[test]
    fn sarif_has_schema_rules_and_locations() {
        let text = render_sarif(&sample());
        let v: Value = serde_json::from_str(&text).expect("sarif parses back");
        assert_eq!(v.map_get("version"), &s("2.1.0"));
        let run = v.map_get("runs").seq_get(0).expect("one run");
        assert_eq!(
            run.map_get("tool").map_get("driver").map_get("name"),
            &s("smartlint")
        );
        let result = run.map_get("results").seq_get(0).expect("one result");
        assert_eq!(result.map_get("ruleId"), &s("D2"));
        assert_eq!(result.map_get("level"), &s("error"));
        let region = result
            .map_get("locations")
            .seq_get(0)
            .expect("one location")
            .map_get("physicalLocation")
            .map_get("region");
        assert_eq!(region.map_get("startLine"), &Value::UInt(7));
        let msg = result.map_get("message").map_get("text");
        assert!(
            matches!(msg, Value::Str(t) if t.contains("call path")),
            "call paths surface in the SARIF message: {msg:?}"
        );
        let declared = run.map_get("tool").map_get("driver").map_get("rules");
        assert!(
            matches!(declared, Value::Array(rs) if rs.len() == RULES.len()),
            "every rule is declared"
        );
    }

    #[test]
    fn rendering_is_deterministic() {
        let a = render_sarif(&sample());
        let b = render_sarif(&sample());
        assert_eq!(a, b);
        assert_eq!(render_json(&sample()), render_json(&sample()));
    }
}
