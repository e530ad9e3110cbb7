//! The `lint-baseline.json` ratchet.
//!
//! Ratchet-severity rules ([`crate::rules::Severity::Ratchet`]) are not
//! required to be at zero — the workspace has a known stock of `.unwrap()`
//! and exact-zero float guards — but their per-crate counts may **only
//! decrease**. The counts live in a checked-in `lint-baseline.json`,
//! keyed `"<rule>/<crate>"`:
//!
//! ```json
//! {
//!   "schema": "vmin-lint-baseline/v1",
//!   "counts": {
//!     "float-eq/vmin-linalg": 5,
//!     "panic-unwrap/vmin-core": 2
//!   }
//! }
//! ```
//!
//! - count **above** baseline → regression, fails `--deny`;
//! - count **below** baseline → improvement; `--update-baseline` rewrites
//!   the file at the new, lower counts (CI then requires the rewrite to be
//!   a no-op, so improvements must be committed — the ratchet only
//!   tightens);
//! - `--update-baseline` refuses to *raise* a count: the escape hatch for
//!   a deliberate new panic site is an inline suppression, never a looser
//!   baseline.
//!
//! The file is parsed by the minimal hand-rolled reader below — the
//! workspace is dependency-free, so no serde (same policy as the
//! `vmin-trace/v1` JSON writer).

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// Schema tag written into and required from the baseline file.
pub const BASELINE_SCHEMA: &str = "vmin-lint-baseline/v1";

/// Per-`"<rule>/<crate>"` finding counts.
pub type Counts = BTreeMap<String, usize>;

/// Comparison of one key between the current scan and the baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RatchetEntry {
    /// `"<rule>/<crate>"` key.
    pub key: String,
    /// Count in the current scan.
    pub current: usize,
    /// Count recorded in the baseline.
    pub baseline: usize,
}

impl RatchetEntry {
    /// `"regressed"`, `"improved"` or `"ok"`.
    pub fn status(&self) -> &'static str {
        match self.current.cmp(&self.baseline) {
            std::cmp::Ordering::Greater => "regressed",
            std::cmp::Ordering::Less => "improved",
            std::cmp::Ordering::Equal => "ok",
        }
    }
}

/// Joins current counts against a baseline over the union of keys; keys
/// absent on either side count as 0 there.
pub fn compare(current: &Counts, baseline: &Counts) -> Vec<RatchetEntry> {
    let mut keys: Vec<&String> = current.keys().chain(baseline.keys()).collect();
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .map(|k| RatchetEntry {
            key: k.clone(),
            current: current.get(k).copied().unwrap_or(0),
            baseline: baseline.get(k).copied().unwrap_or(0),
        })
        .collect()
}

/// Renders a baseline document for `counts` (trailing newline included).
pub fn render(counts: &Counts) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"schema\": \"{BASELINE_SCHEMA}\",\n"));
    s.push_str("  \"counts\": {\n");
    for (i, (k, v)) in counts.iter().enumerate() {
        s.push_str(&format!(
            "    \"{k}\": {v}{}\n",
            if i + 1 < counts.len() { "," } else { "" }
        ));
    }
    s.push_str("  }\n}\n");
    s
}

/// Parses a baseline document, validating the schema tag.
pub fn parse(text: &str) -> Result<Counts, String> {
    let mut p = Parser {
        chars: text.chars().collect(),
        i: 0,
    };
    p.skip_ws();
    p.expect_char('{')?;
    let mut schema: Option<String> = None;
    let mut counts: Option<Counts> = None;
    loop {
        p.skip_ws();
        if p.peek() == Some('}') {
            p.i += 1;
            break;
        }
        let key = p.parse_string()?;
        p.skip_ws();
        p.expect_char(':')?;
        p.skip_ws();
        match key.as_str() {
            "schema" => schema = Some(p.parse_string()?),
            "counts" => counts = Some(p.parse_count_object()?),
            _ => p.skip_value()?,
        }
        p.skip_ws();
        if p.peek() == Some(',') {
            p.i += 1;
        }
    }
    match schema.as_deref() {
        Some(BASELINE_SCHEMA) => {}
        Some(other) => return Err(format!("unsupported baseline schema {other:?}")),
        None => return Err("baseline is missing the \"schema\" field".to_string()),
    }
    counts.ok_or_else(|| "baseline is missing the \"counts\" object".to_string())
}

/// Loads the baseline at `path`; `Ok(None)` when the file does not exist.
pub fn load(path: &Path) -> Result<Option<Counts>, String> {
    match fs::read_to_string(path) {
        Ok(text) => parse(&text).map(Some).map_err(|e| {
            format!(
                "{}: {e} (regenerate with --update-baseline)",
                path.display()
            )
        }),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(format!("read {}: {e}", path.display())),
    }
}

/// Computes the updated baseline from the current counts, enforcing the
/// only-decrease contract against `previous`. Returns the rendered JSON or
/// the list of keys whose counts would have had to rise.
pub fn tighten(current: &Counts, previous: Option<&Counts>) -> Result<String, String> {
    if let Some(prev) = previous {
        let raised: Vec<String> = compare(current, prev)
            .into_iter()
            .filter(|e| e.current > e.baseline)
            .map(|e| format!("{} ({} -> {})", e.key, e.baseline, e.current))
            .collect();
        if !raised.is_empty() {
            return Err(format!(
                "refusing to raise ratchet counts: {}; fix the findings or add inline \
                 `// vmin-lint: allow(..)` suppressions",
                raised.join(", ")
            ));
        }
    }
    // Zero-count keys are dropped: a fully fixed rule/crate disappears
    // from the file instead of lingering as "x: 0".
    let kept: Counts = current
        .iter()
        .filter(|(_, &v)| v > 0)
        .map(|(k, &v)| (k.clone(), v))
        .collect();
    Ok(render(&kept))
}

/// Minimal JSON reader for the baseline subset: one object of string keys
/// whose values are strings, integers, or one nested object of
/// string-to-integer pairs.
struct Parser {
    chars: Vec<char>,
    i: usize,
}

impl Parser {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|c| c.is_whitespace()) {
            self.i += 1;
        }
    }

    fn expect_char(&mut self, c: char) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {c:?} at offset {}, found {:?}",
                self.i,
                self.peek()
            ))
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect_char('"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                Some('"') => {
                    self.i += 1;
                    return Ok(s);
                }
                Some('\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(c) => {
                            s.push(c);
                            self.i += 1;
                        }
                        None => return Err("unterminated escape in string".to_string()),
                    }
                }
                Some(c) => {
                    s.push(c);
                    self.i += 1;
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn parse_usize(&mut self) -> Result<usize, String> {
        let start = self.i;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
        }
        if self.i == start {
            return Err(format!("expected a number at offset {start}"));
        }
        let text: String = self.chars[start..self.i].iter().collect();
        text.parse().map_err(|e| format!("bad count {text:?}: {e}"))
    }

    fn parse_count_object(&mut self) -> Result<Counts, String> {
        self.expect_char('{')?;
        let mut counts = Counts::new();
        loop {
            self.skip_ws();
            if self.peek() == Some('}') {
                self.i += 1;
                return Ok(counts);
            }
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect_char(':')?;
            self.skip_ws();
            let value = self.parse_usize()?;
            counts.insert(key, value);
            self.skip_ws();
            if self.peek() == Some(',') {
                self.i += 1;
            }
        }
    }

    fn skip_value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some('"') => {
                self.parse_string()?;
                Ok(())
            }
            Some('{') => {
                self.parse_count_object()?;
                Ok(())
            }
            Some(c) if c.is_ascii_digit() => {
                self.parse_usize()?;
                Ok(())
            }
            other => Err(format!("cannot skip value starting with {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(pairs: &[(&str, usize)]) -> Counts {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn render_parse_roundtrip() {
        let c = counts(&[("float-eq/vmin-linalg", 5), ("panic-unwrap/vmin-core", 2)]);
        let text = render(&c);
        assert_eq!(parse(&text).expect("roundtrip"), c);
    }

    #[test]
    fn parse_rejects_wrong_schema() {
        let text = "{\"schema\": \"other/v9\", \"counts\": {}}";
        assert!(parse(text).is_err());
    }

    #[test]
    fn parse_rejects_missing_counts() {
        let text = format!("{{\"schema\": \"{BASELINE_SCHEMA}\"}}");
        assert!(parse(&text).is_err());
    }

    #[test]
    fn parse_tolerates_unknown_scalar_fields() {
        let text = format!(
            "{{\"schema\": \"{BASELINE_SCHEMA}\", \"note\": \"hi\", \"counts\": {{\"a/b\": 1}}}}"
        );
        assert_eq!(parse(&text).expect("parse"), counts(&[("a/b", 1)]));
    }

    #[test]
    fn increase_is_a_regression_decrease_is_not() {
        let base = counts(&[("panic-unwrap/vmin-core", 2)]);
        let up = counts(&[("panic-unwrap/vmin-core", 3)]);
        let down = counts(&[("panic-unwrap/vmin-core", 1)]);
        assert_eq!(compare(&up, &base)[0].status(), "regressed");
        assert_eq!(compare(&down, &base)[0].status(), "improved");
        assert_eq!(compare(&base, &base)[0].status(), "ok");
    }

    #[test]
    fn new_key_counts_against_zero_baseline() {
        let base = Counts::new();
        let current = counts(&[("panic-unwrap/vmin-lint", 1)]);
        let entries = compare(&current, &base);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].baseline, 0);
        assert_eq!(entries[0].status(), "regressed");
    }

    #[test]
    fn tighten_refuses_to_raise_counts() {
        let base = counts(&[("panic-unwrap/vmin-core", 2)]);
        let up = counts(&[("panic-unwrap/vmin-core", 3)]);
        assert!(tighten(&up, Some(&base)).is_err());
    }

    #[test]
    fn tighten_drops_zero_counts_and_keeps_lower_ones() {
        let base = counts(&[("a/x", 2), ("b/y", 4)]);
        let current = counts(&[("a/x", 0), ("b/y", 3)]);
        let text = tighten(&current, Some(&base)).expect("tighten");
        let reparsed = parse(&text).expect("parse");
        assert_eq!(reparsed, counts(&[("b/y", 3)]));
    }

    #[test]
    fn update_baseline_rewrites_file_on_disk() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "vmin-lint-baseline-test-{}.json",
            std::process::id()
        ));
        let base = counts(&[("panic-unwrap/vmin-core", 5)]);
        fs::write(&path, render(&base)).expect("seed baseline");
        let improved = counts(&[("panic-unwrap/vmin-core", 3)]);
        let prev = load(&path).expect("load").expect("present");
        let text = tighten(&improved, Some(&prev)).expect("tighten");
        fs::write(&path, &text).expect("rewrite");
        let reread = load(&path).expect("reload").expect("present");
        assert_eq!(reread, improved);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_is_none() {
        let path = std::env::temp_dir().join("vmin-lint-definitely-absent.json");
        assert_eq!(load(&path).expect("load"), None);
    }
}
