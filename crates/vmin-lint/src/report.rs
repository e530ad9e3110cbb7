//! Human diagnostics and the machine-readable JSON report.
//!
//! The JSON report is hand-rolled like the `vmin-trace/v1` export
//! (2-space indent, one record per line) and is written to the path named
//! by `VMIN_LINT_JSON` or `--json`. Schema:
//!
//! ```json
//! {
//!   "schema": "vmin-lint/v2",
//!   "deny": true,
//!   "files_scanned": 103,
//!   "suppressed": 12,
//!   "rules": ["det-wall-clock", "..."],
//!   "contracts": {"enforced": true, "registered_envs": 9, "registered_metrics": 14,
//!                 "observed_envs": 9, "observed_metrics": 14},
//!   "violations": [
//!     {"rule": "...", "crate": "...", "file": "...", "line": 3, "message": "..."}
//!   ],
//!   "dead_pub": [
//!     {"crate": "...", "file": "...", "line": 40, "message": "..."}
//!   ],
//!   "ratchet": [
//!     {"rule": "...", "crate": "...", "count": 2, "baseline": 2, "status": "ok"}
//!   ],
//!   "status": "clean"
//! }
//! ```
//!
//! `status` is `"clean"` exactly when there are no deny violations and no
//! ratchet regressions — `ci.sh` greps for it after validating the schema
//! tag. `contracts.enforced` is false when no `contracts.toml` registry
//! was loaded (the `contract-*` rules then stay silent); the v2 schema
//! bump covers the new `contracts` and `dead_pub` members and the ten
//! rules added by the semantic analyzer.

use crate::baseline::RatchetEntry;
use crate::contracts::ContractRegistry;
use crate::engine::{Diagnostic, ScanReport};
use crate::rules::RULES;

/// Schema tag of the JSON report.
pub const REPORT_SCHEMA: &str = "vmin-lint/v2";

/// Escapes the characters JSON forbids in strings.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Splits a `"<rule>/<crate>"` ratchet key into its two halves.
fn split_key(key: &str) -> (&str, &str) {
    key.split_once('/').unwrap_or((key, ""))
}

/// True when the run is clean: nothing denied, nothing regressed.
pub fn is_clean(report: &ScanReport, ratchet: &[RatchetEntry]) -> bool {
    report.deny.is_empty() && ratchet.iter().all(|e| e.current <= e.baseline)
}

/// Renders the JSON report. `contracts` is the registry the scan enforced,
/// if one was loaded.
pub fn render_json(
    report: &ScanReport,
    ratchet: &[RatchetEntry],
    deny: bool,
    contracts: Option<&ContractRegistry>,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    // Positional arg (not `{REPORT_SCHEMA}` inline) so the item graph sees
    // the identifier — format-string interpolations live inside string
    // literals, which the dead-pub accounting cannot read.
    s.push_str(&format!("  \"schema\": \"{}\",\n", REPORT_SCHEMA));
    s.push_str(&format!("  \"deny\": {deny},\n"));
    s.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    s.push_str(&format!("  \"suppressed\": {},\n", report.suppressed));
    let rule_names: Vec<String> = RULES.iter().map(|r| format!("\"{}\"", r.name)).collect();
    s.push_str(&format!("  \"rules\": [{}],\n", rule_names.join(", ")));
    s.push_str(&format!(
        "  \"contracts\": {{\"enforced\": {}, \"registered_envs\": {}, \
         \"registered_metrics\": {}, \"observed_envs\": {}, \"observed_metrics\": {}}},\n",
        contracts.is_some(),
        contracts.map_or(0, |c| c.envs.len()),
        contracts.map_or(0, |c| c.metrics.len()),
        report.observations.envs.len(),
        report.observations.metrics.len(),
    ));
    s.push_str("  \"violations\": [\n");
    for (i, d) in report.deny.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"rule\": \"{}\", \"crate\": \"{}\", \"file\": \"{}\", \"line\": {}, \
             \"message\": \"{}\"}}{}\n",
            json_escape(d.finding.rule),
            json_escape(&d.crate_name),
            json_escape(&d.file),
            d.finding.line,
            json_escape(&d.finding.message),
            if i + 1 < report.deny.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"dead_pub\": [\n");
    for (i, d) in report.dead_pub.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"crate\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}{}\n",
            json_escape(&d.crate_name),
            json_escape(&d.file),
            d.finding.line,
            json_escape(&d.finding.message),
            if i + 1 < report.dead_pub.len() {
                ","
            } else {
                ""
            }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"ratchet\": [\n");
    for (i, e) in ratchet.iter().enumerate() {
        let (rule, krate) = split_key(&e.key);
        s.push_str(&format!(
            "    {{\"rule\": \"{}\", \"crate\": \"{}\", \"count\": {}, \"baseline\": {}, \
             \"status\": \"{}\"}}{}\n",
            json_escape(rule),
            json_escape(krate),
            e.current,
            e.baseline,
            e.status(),
            if i + 1 < ratchet.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"status\": \"{}\"\n",
        if is_clean(report, ratchet) {
            "clean"
        } else {
            "violations"
        }
    ));
    s.push_str("}\n");
    s
}

/// Renders one deny violation as a compiler-style diagnostic line.
pub fn render_diagnostic(d: &Diagnostic) -> String {
    format!(
        "{}:{}: [{}] {}",
        d.file, d.finding.line, d.finding.rule, d.finding.message
    )
}

/// Renders the `--list-rules` table.
pub fn render_rule_table() -> String {
    let mut s = String::new();
    s.push_str("vmin-lint rules:\n\n");
    let name_w = RULES.iter().map(|r| r.name.len()).max().unwrap_or(0);
    for r in RULES {
        s.push_str(&format!(
            "  {:name_w$}  {:7}  [{}]\n",
            r.name,
            r.severity.label(),
            r.scope,
        ));
        s.push_str(&format!("  {:name_w$}  {}\n\n", "", r.summary));
    }
    s.push_str(
        "Suppress a finding in place with `// vmin-lint: allow(<rule>)` on the same\n\
         line or the line directly above. Ratchet counts live in lint-baseline.json\n\
         and may only decrease; tighten after improvements with --update-baseline.\n",
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Finding;

    fn one_violation_report() -> ScanReport {
        ScanReport {
            files_scanned: 2,
            deny: vec![Diagnostic {
                file: "crates/vmin-linalg/src/qr.rs".to_string(),
                crate_name: "vmin-linalg".to_string(),
                finding: Finding {
                    rule: "det-wall-clock",
                    line: 7,
                    message: "a \"quoted\" message".to_string(),
                },
            }],
            ratchet_counts: Default::default(),
            suppressed: 1,
            observations: Default::default(),
            dead_pub: Vec::new(),
        }
    }

    #[test]
    fn json_has_schema_status_and_escaped_fields() {
        let report = one_violation_report();
        let ratchet = vec![RatchetEntry {
            key: "panic-unwrap/vmin-core".to_string(),
            current: 2,
            baseline: 2,
        }];
        let json = render_json(&report, &ratchet, true, None);
        assert!(json.contains("\"schema\": \"vmin-lint/v2\""));
        assert!(json.contains("\"status\": \"violations\""));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"rule\": \"panic-unwrap\", \"crate\": \"vmin-core\""));
        assert!(json.contains("\"status\": \"ok\"}"));
        assert!(json.contains("\"enforced\": false"));
    }

    #[test]
    fn clean_report_status_is_clean() {
        let report = ScanReport::default();
        let ratchet = vec![RatchetEntry {
            key: "panic-unwrap/vmin-core".to_string(),
            current: 1,
            baseline: 2,
        }];
        assert!(is_clean(&report, &ratchet));
        let json = render_json(&report, &ratchet, true, None);
        assert!(json.contains("\"status\": \"clean\""));
        assert!(json.contains("\"status\": \"improved\"}"));
    }

    #[test]
    fn contracts_summary_reflects_registry_and_observations() {
        let mut report = ScanReport::default();
        report.observations.envs.insert("VMIN_TRACE".to_string());
        report
            .observations
            .metrics
            .insert(("models.gbt.fit".to_string(), "counter".to_string()));
        let reg = crate::contracts::parse(
            "schema = \"vmin-contracts/v1\"\n\n[[env]]\nname = \"VMIN_TRACE\"\n\
             doc = \"d\"\n\n[[metric]]\nname = \"models.gbt.fit\"\nkind = \"counter\"\n\
             doc = \"d\"\n",
        )
        .expect("registry parses");
        let json = render_json(&report, &[], true, Some(&reg));
        assert!(json.contains(
            "\"contracts\": {\"enforced\": true, \"registered_envs\": 1, \
             \"registered_metrics\": 1, \"observed_envs\": 1, \"observed_metrics\": 1}"
        ));
    }

    #[test]
    fn dead_pub_items_are_listed() {
        let mut report = ScanReport::default();
        report.dead_pub.push(Diagnostic {
            file: "crates/vmin-core/src/lib.rs".to_string(),
            crate_name: "vmin-core".to_string(),
            finding: Finding {
                rule: "dead-pub-item",
                line: 40,
                message: "pub item `orphan` is never referenced".to_string(),
            },
        });
        let json = render_json(&report, &[], false, None);
        assert!(json.contains("\"dead_pub\": [\n    {\"crate\": \"vmin-core\""));
        assert!(json.contains("`orphan`"));
    }

    #[test]
    fn regression_is_not_clean() {
        let report = ScanReport::default();
        let ratchet = vec![RatchetEntry {
            key: "panic-unwrap/vmin-core".to_string(),
            current: 3,
            baseline: 2,
        }];
        assert!(!is_clean(&report, &ratchet));
    }

    #[test]
    fn rule_table_lists_every_rule() {
        let table = render_rule_table();
        for r in RULES {
            assert!(table.contains(r.name), "missing {}", r.name);
        }
        assert!(table.contains("allow(<rule>)"));
    }

    #[test]
    fn diagnostic_line_is_compiler_style() {
        let report = one_violation_report();
        let line = render_diagnostic(&report.deny[0]);
        assert!(line.starts_with("crates/vmin-linalg/src/qr.rs:7: [det-wall-clock]"));
    }
}
