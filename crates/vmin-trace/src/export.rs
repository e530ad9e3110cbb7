//! The `vmin-trace/v1` JSON report.
//!
//! Hand-rolled rendering (the workspace is dependency-free — no serde),
//! one metric per line so shell CI can slice sections with `grep`:
//!
//! ```json
//! {
//!   "schema": "vmin-trace/v1",
//!   "threads": 8,
//!   "enabled": true,
//!   "metrics": [
//!     {"kind": "counter", "name": "linalg.matmul.calls", "value": 42},
//!     {"kind": "gauge", "name": "conformal.cqr.qhat.max", "value": 12.5},
//!     {"kind": "histogram", "name": "core.cell.coverage", "count": 18,
//!      "min": 0.875, "max": 1.0, "buckets": [[0.9, 3], [0.95, 9], [1.0, 6]]},
//!     {"kind": "topology", "name": "par.tasks.spawned", "value": 64},
//!     {"kind": "timer", "name": "silicon.campaign.run", "count": 1,
//!      "total_ns": 123456}
//!   ]
//! }
//! ```
//!
//! Metrics are ordered by kind (counter, gauge, histogram, topology,
//! timer) and name-sorted within a kind, so two reports from deterministic
//! runs are line-identical over the counter/gauge/histogram sections —
//! `ci.sh` diffs exactly those lines across `VMIN_THREADS` values.
//! Histogram buckets are rendered sparsely as `[upper_edge, count]` pairs
//! (the overflow bucket's edge renders as the string `"inf"`).

use crate::metrics::{HistogramState, Snapshot, TimerState, HISTOGRAM_EDGES};
use std::fmt::Write as _;

/// Renders a snapshot as a `vmin-trace/v1` document. `threads` is the
/// caller-supplied `vmin-par` thread count (this crate owns no threading).
pub fn render_json(snap: &Snapshot, threads: usize, enabled: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"vmin-trace/v1\",");
    let _ = writeln!(out, "  \"threads\": {threads},");
    let _ = writeln!(out, "  \"enabled\": {enabled},");
    out.push_str("  \"metrics\": [\n");
    let mut lines: Vec<String> = Vec::new();
    for (name, v) in &snap.counters {
        lines.push(format!(
            "    {{\"kind\": \"counter\", \"name\": \"{}\", \"value\": {v}}}",
            escape(name)
        ));
    }
    for (name, v) in &snap.gauges {
        lines.push(format!(
            "    {{\"kind\": \"gauge\", \"name\": \"{}\", \"value\": {}}}",
            escape(name),
            fmt_f64(*v)
        ));
    }
    for (name, h) in &snap.histograms {
        lines.push(render_histogram(name, h));
    }
    for (name, v) in &snap.topology {
        lines.push(format!(
            "    {{\"kind\": \"topology\", \"name\": \"{}\", \"value\": {v}}}",
            escape(name)
        ));
    }
    for (name, t) in &snap.timers {
        lines.push(render_timer(name, t));
    }
    out.push_str(&lines.join(",\n"));
    if !lines.is_empty() {
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

fn render_histogram(name: &str, h: &HistogramState) -> String {
    let mut buckets = String::new();
    let mut first = true;
    for (i, &count) in h.buckets.iter().enumerate() {
        if count == 0 {
            continue;
        }
        if !first {
            buckets.push_str(", ");
        }
        first = false;
        match HISTOGRAM_EDGES.get(i) {
            Some(edge) => {
                let _ = write!(buckets, "[{}, {count}]", fmt_f64(*edge));
            }
            None => {
                let _ = write!(buckets, "[\"inf\", {count}]");
            }
        }
    }
    format!(
        "    {{\"kind\": \"histogram\", \"name\": \"{}\", \"count\": {}, \
         \"min\": {}, \"max\": {}, \"buckets\": [{buckets}]}}",
        escape(name),
        h.count,
        fmt_f64(h.min),
        fmt_f64(h.max),
    )
}

fn render_timer(name: &str, t: &TimerState) -> String {
    format!(
        "    {{\"kind\": \"timer\", \"name\": \"{}\", \"count\": {}, \"total_ns\": {}}}",
        escape(name),
        t.count,
        t.total_ns
    )
}

/// Finite floats render via Rust's shortest-roundtrip `{:?}`, which is
/// valid JSON for every finite value; non-finite values (only reachable
/// through an empty histogram, which cannot exist) fall back to null.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Escapes the characters JSON forbids in strings. Metric names are plain
/// dotted identifiers, so this only matters for defensive completeness.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// When `VMIN_TRACE_JSON` names a path, renders the **global** snapshot
/// (flushing the current thread first) and writes it there. Returns the
/// path written to, or `None` when the variable is unset. Write failures
/// are reported on stderr, never panicked on.
pub fn write_json_if_configured(threads: usize) -> Option<std::path::PathBuf> {
    let path = std::path::PathBuf::from(std::env::var_os("VMIN_TRACE_JSON")?);
    let report = render_json(&crate::snapshot(), threads, crate::enabled());
    // A relative path like `target/trace.json` may name a directory that
    // doesn't exist yet (a fresh checkout, or a binary started from another
    // working directory) — create it instead of failing the export.
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    match std::fs::write(&path, report) {
        Ok(()) => {
            eprintln!("vmin-trace report written to {}", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("vmin-trace: failed to write {}: {e}", path.display());
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Snapshot;

    #[test]
    fn empty_snapshot_renders_valid_shell() {
        let json = render_json(&Snapshot::default(), 4, true);
        assert!(json.contains("\"schema\": \"vmin-trace/v1\""));
        assert!(json.contains("\"threads\": 4"));
        assert!(json.contains("\"enabled\": true"));
        assert!(json.contains("\"metrics\": [\n  ]"));
    }

    #[test]
    fn sections_render_in_kind_order_one_line_each() {
        let mut snap = Snapshot::default();
        snap.counters.insert("b.count".into(), 7);
        snap.counters.insert("a.count".into(), 3);
        snap.gauges.insert("g.level".into(), 0.5);
        snap.topology.insert("par.tasks".into(), 9);
        snap.timers.insert(
            "t.span".into(),
            TimerState {
                count: 2,
                total_ns: 100,
            },
        );
        let json = render_json(&snap, 1, false);
        let a = json.find("\"a.count\"").unwrap();
        let b = json.find("\"b.count\"").unwrap();
        let g = json.find("\"g.level\"").unwrap();
        let p = json.find("\"par.tasks\"").unwrap();
        let t = json.find("\"t.span\"").unwrap();
        assert!(a < b && b < g && g < p && p < t, "kind/name ordering");
        assert_eq!(json.matches("\"kind\": \"counter\"").count(), 2);
        // One metric per line: every metric line ends with `}` or `},`.
        for line in json.lines().filter(|l| l.contains("\"kind\"")) {
            assert!(line.trim_end().ends_with('}') || line.trim_end().ends_with("},"));
        }
    }

    #[test]
    fn histogram_buckets_render_sparsely() {
        let mut snap = Snapshot::default();
        let mut h = HistogramState {
            buckets: vec![0; crate::metrics::HISTOGRAM_BUCKETS],
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        };
        h.buckets[8] = 3; // le 0.9
        h.buckets[crate::metrics::HISTOGRAM_BUCKETS - 1] = 1; // overflow
        h.count = 4;
        h.min = 0.875;
        h.max = 5000.0;
        snap.histograms.insert("cov".into(), h);
        let json = render_json(&snap, 2, true);
        assert!(json.contains("[0.9, 3]"), "{json}");
        assert!(json.contains("[\"inf\", 1]"), "{json}");
        assert!(json.contains("\"min\": 0.875"));
    }

    #[test]
    fn float_formatting_is_json_safe() {
        assert_eq!(fmt_f64(0.5), "0.5");
        assert_eq!(fmt_f64(3.0), "3.0");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }
}
