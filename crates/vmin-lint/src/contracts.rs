//! The workspace contract registries: `contracts.toml`.
//!
//! Two contracts are registered in one checked-in file at the workspace
//! root:
//!
//! - **env**: every `VMIN_*` environment variable the workspace reads,
//!   together with its programmatic override (`with_*`/`set_*` function
//!   or CLI flag) and one line of documentation. The `contract-env` deny
//!   rule rejects any `VMIN_*` read whose name is not literal or not
//!   registered, and the engine verifies that a function-style override
//!   actually exists in the item graph.
//! - **metric**: every `vmin_trace` counter/topology/gauge/histogram/span
//!   name, with its kind. The `contract-metric` deny rule rejects
//!   unregistered or non-literal names, and a name must be registered
//!   *per kind* (the registry can hold one name under two kinds, although
//!   the `vmin-trace` collector drops the second kind it sees at runtime).
//!
//! Like the ratchet baseline, the registry only tightens:
//! `--update-contracts` drops entries no longer observed in the source
//! and re-renders canonically (so CI can `git diff --exit-code` the
//! round-trip), but **refuses to invent registrations** — a new env var
//! or metric name must be added to `contracts.toml` by hand, with
//! documentation, which is exactly the review speed bump the contract
//! exists to create. With no previous registry the whole file is
//! bootstrapped from observations (docs left empty for the author).
//!
//! The file is a small TOML subset (line-based `key = "value"` pairs
//! under `[[env]]` / `[[metric]]` array-of-table headers) parsed and
//! rendered by hand — the workspace is dependency-free by design.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Schema tag of the registry file.
pub const CONTRACTS_SCHEMA: &str = "vmin-contracts/v1";

/// File name of the registry, at the workspace root.
pub const CONTRACTS_FILE: &str = "contracts.toml";

/// The metric kinds `vmin_trace` exposes, in render order.
pub const METRIC_KINDS: &[&str] = &["counter", "topology", "gauge", "histogram", "span"];

/// One registered environment variable.
#[derive(Debug, Clone, Default)]
pub struct EnvContract {
    /// Variable name (`VMIN_*`).
    pub name: String,
    /// Programmatic override: a workspace function name (verified against
    /// the item graph) or a `--flag` (taken on faith). Empty when the
    /// variable has no override.
    pub override_fn: String,
    /// One-line description.
    pub doc: String,
}

/// One registered metric name (per kind).
#[derive(Debug, Clone, Default)]
pub struct MetricContract {
    /// Metric name as passed to `vmin_trace`.
    pub name: String,
    /// One of [`METRIC_KINDS`].
    pub kind: String,
    /// One-line description.
    pub doc: String,
}

/// The parsed registry.
#[derive(Debug, Clone, Default)]
pub struct ContractRegistry {
    /// Env contracts by variable name.
    pub envs: BTreeMap<String, EnvContract>,
    /// Metric contracts by `(name, kind)`.
    pub metrics: BTreeMap<(String, String), MetricContract>,
}

impl ContractRegistry {
    /// True when `name` is a registered env var.
    pub fn env_registered(&self, name: &str) -> bool {
        self.envs.contains_key(name)
    }

    /// True when `name` is registered for `kind`.
    pub fn metric_registered(&self, name: &str, kind: &str) -> bool {
        self.metrics
            .contains_key(&(name.to_string(), kind.to_string()))
    }

    /// The kinds `name` is registered under (for diagnostics).
    pub fn metric_kinds_of(&self, name: &str) -> Vec<&str> {
        self.metrics
            .keys()
            .filter(|(n, _)| n == name)
            .map(|(_, k)| k.as_str())
            .collect()
    }
}

/// Everything the engine observed that the registries govern.
#[derive(Debug, Clone, Default)]
pub struct Observations {
    /// Literal `VMIN_*` names read from the environment (non-test code).
    pub envs: BTreeSet<String>,
    /// Literal metric `(name, kind)` pairs passed to `vmin_trace`
    /// (non-test code).
    pub metrics: BTreeSet<(String, String)>,
}

/// Escapes a value for rendering inside TOML double quotes.
fn toml_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Unescapes a parsed TOML basic-string body.
fn toml_unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Parses one `key = "value"` line; returns `(key, value)`.
fn parse_kv(line: &str) -> Option<(&str, String)> {
    let (key, rest) = line.split_once('=')?;
    let rest = rest.trim();
    let body = rest.strip_prefix('"')?.strip_suffix('"')?;
    Some((key.trim(), toml_unescape(body)))
}

/// Parses the registry text. Unknown keys and kinds are errors so typos
/// cannot silently widen the contract.
pub fn parse(text: &str) -> Result<ContractRegistry, String> {
    #[derive(PartialEq)]
    enum Section {
        None,
        Env,
        Metric,
    }
    let mut reg = ContractRegistry::default();
    let mut section = Section::None;
    let mut env: Option<EnvContract> = None;
    let mut metric: Option<MetricContract> = None;
    let mut saw_schema = false;

    fn flush(
        reg: &mut ContractRegistry,
        env: &mut Option<EnvContract>,
        metric: &mut Option<MetricContract>,
    ) -> Result<(), String> {
        if let Some(e) = env.take() {
            if e.name.is_empty() {
                return Err("[[env]] entry without a name".into());
            }
            if reg.envs.insert(e.name.clone(), e.clone()).is_some() {
                return Err(format!("duplicate [[env]] entry for {}", e.name));
            }
        }
        if let Some(m) = metric.take() {
            if m.name.is_empty() || m.kind.is_empty() {
                return Err("[[metric]] entry without name/kind".into());
            }
            if !METRIC_KINDS.contains(&m.kind.as_str()) {
                return Err(format!("unknown metric kind {:?} for {}", m.kind, m.name));
            }
            let key = (m.name.clone(), m.kind.clone());
            if reg.metrics.insert(key, m.clone()).is_some() {
                return Err(format!(
                    "duplicate [[metric]] entry for {} ({})",
                    m.name, m.kind
                ));
            }
        }
        Ok(())
    }

    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let err = |msg: String| format!("contracts.toml:{}: {msg}", idx + 1);
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[env]]" {
            flush(&mut reg, &mut env, &mut metric).map_err(err)?;
            section = Section::Env;
            env = Some(EnvContract::default());
            continue;
        }
        if line == "[[metric]]" {
            flush(&mut reg, &mut env, &mut metric).map_err(err)?;
            section = Section::Metric;
            metric = Some(MetricContract::default());
            continue;
        }
        let Some((key, value)) = parse_kv(line) else {
            return Err(err(format!("unparseable line {raw:?}")));
        };
        match (&section, key) {
            (Section::None, "schema") => {
                if value != CONTRACTS_SCHEMA {
                    return Err(err(format!(
                        "schema {value:?} (this binary expects {CONTRACTS_SCHEMA:?})"
                    )));
                }
                saw_schema = true;
            }
            (Section::Env, _) => {
                let Some(e) = env.as_mut() else {
                    return Err(err("key outside an [[env]] entry".into()));
                };
                match key {
                    "name" => e.name = value,
                    "override" => e.override_fn = value,
                    "doc" => e.doc = value,
                    _ => return Err(err(format!("unknown env key {key:?}"))),
                }
            }
            (Section::Metric, _) => {
                let Some(m) = metric.as_mut() else {
                    return Err(err("key outside a [[metric]] entry".into()));
                };
                match key {
                    "name" => m.name = value,
                    "kind" => m.kind = value,
                    "doc" => m.doc = value,
                    _ => return Err(err(format!("unknown metric key {key:?}"))),
                }
            }
            _ => return Err(err(format!("unknown key {key:?} in this section"))),
        }
    }
    flush(&mut reg, &mut env, &mut metric).map_err(|m| format!("contracts.toml: {m}"))?;
    if !saw_schema {
        return Err("contracts.toml: missing schema line".into());
    }
    Ok(reg)
}

/// Renders the registry canonically (sorted, stable formatting) so a
/// round-trip through `--update-contracts` is byte-identical.
pub fn render(reg: &ContractRegistry) -> String {
    let mut s = String::new();
    s.push_str(
        "# Workspace contract registries (vmin-lint v2). Every VMIN_* env var and\n\
         # every vmin_trace metric name must be registered here; unregistered or\n\
         # non-literal uses are deny-level lint violations. The file only tightens:\n\
         # `cargo run -p vmin-lint -- --update-contracts` drops stale entries and\n\
         # normalizes formatting, but new entries are added by hand, with docs.\n\
         # See DESIGN.md \u{a7}13.\n\n",
    );
    s.push_str(&format!("schema = \"{CONTRACTS_SCHEMA}\"\n"));
    for e in reg.envs.values() {
        s.push_str("\n[[env]]\n");
        s.push_str(&format!("name = \"{}\"\n", toml_escape(&e.name)));
        if !e.override_fn.is_empty() {
            s.push_str(&format!("override = \"{}\"\n", toml_escape(&e.override_fn)));
        }
        s.push_str(&format!("doc = \"{}\"\n", toml_escape(&e.doc)));
    }
    for m in reg.metrics.values() {
        s.push_str("\n[[metric]]\n");
        s.push_str(&format!("name = \"{}\"\n", toml_escape(&m.name)));
        s.push_str(&format!("kind = \"{}\"\n", toml_escape(&m.kind)));
        s.push_str(&format!("doc = \"{}\"\n", toml_escape(&m.doc)));
    }
    s
}

/// Loads the registry if the file exists.
pub fn load(path: &Path) -> Result<Option<ContractRegistry>, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => parse(&text).map(Some),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(format!("read {}: {e}", path.display())),
    }
}

/// Produces the tightened registry text for `--update-contracts`.
///
/// - Entries no longer observed are dropped (with a note on stderr left
///   to the caller via the returned `dropped` list).
/// - Observations missing from the previous registry are an **error** —
///   registrations are added by hand.
/// - With no previous registry, bootstraps every observation (empty
///   docs; env overrides left empty for the author to fill in).
///
/// Returns `(text, dropped_entry_names)`.
pub fn tighten(
    obs: &Observations,
    prev: Option<&ContractRegistry>,
) -> Result<(String, Vec<String>), String> {
    let mut next = ContractRegistry::default();
    let mut dropped = Vec::new();
    match prev {
        None => {
            for name in &obs.envs {
                next.envs.insert(
                    name.clone(),
                    EnvContract {
                        name: name.clone(),
                        override_fn: String::new(),
                        doc: String::new(),
                    },
                );
            }
            for (name, kind) in &obs.metrics {
                next.metrics.insert(
                    (name.clone(), kind.clone()),
                    MetricContract {
                        name: name.clone(),
                        kind: kind.clone(),
                        doc: String::new(),
                    },
                );
            }
        }
        Some(prev) => {
            let mut missing = Vec::new();
            for name in &obs.envs {
                match prev.envs.get(name) {
                    Some(e) => {
                        next.envs.insert(name.clone(), e.clone());
                    }
                    None => missing.push(format!("env {name}")),
                }
            }
            for key in &obs.metrics {
                match prev.metrics.get(key) {
                    Some(m) => {
                        next.metrics.insert(key.clone(), m.clone());
                    }
                    None => missing.push(format!("metric {} ({})", key.0, key.1)),
                }
            }
            if !missing.is_empty() {
                return Err(format!(
                    "refusing to auto-register {} new contract(s): {}; add them to \
                     contracts.toml by hand, with documentation — the registry only tightens",
                    missing.len(),
                    missing.join(", ")
                ));
            }
            for name in prev.envs.keys() {
                if !obs.envs.contains(name) {
                    dropped.push(format!("env {name}"));
                }
            }
            for (name, kind) in prev.metrics.keys() {
                if !obs.metrics.contains(&(name.clone(), kind.clone())) {
                    dropped.push(format!("metric {name} ({kind})"));
                }
            }
        }
    }
    Ok((render(&next), dropped))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(envs: &[&str], metrics: &[(&str, &str)]) -> Observations {
        Observations {
            envs: envs.iter().map(|s| s.to_string()).collect(),
            metrics: metrics
                .iter()
                .map(|(n, k)| (n.to_string(), k.to_string()))
                .collect(),
        }
    }

    #[test]
    fn render_parse_round_trip_is_identity() {
        let o = obs(
            &["VMIN_TRACE", "VMIN_THREADS"],
            &[("par.calls.par_map", "counter"), ("models.gbt.fit", "span")],
        );
        let (text, dropped) = tighten(&o, None).expect("bootstrap");
        assert!(dropped.is_empty());
        let reg = parse(&text).expect("parse");
        assert_eq!(render(&reg), text);
        assert!(reg.env_registered("VMIN_TRACE"));
        assert!(reg.metric_registered("par.calls.par_map", "counter"));
        assert!(!reg.metric_registered("par.calls.par_map", "span"));
    }

    #[test]
    fn tighten_drops_stale_and_refuses_new() {
        let o1 = obs(&["VMIN_A", "VMIN_B"], &[]);
        let (text, _) = tighten(&o1, None).expect("bootstrap");
        let prev = parse(&text).expect("parse");

        let fewer = obs(&["VMIN_A"], &[]);
        let (tight, dropped) = tighten(&fewer, Some(&prev)).expect("tighten");
        assert_eq!(dropped, vec!["env VMIN_B".to_string()]);
        assert!(!parse(&tight).expect("parse").env_registered("VMIN_B"));

        let more = obs(&["VMIN_A", "VMIN_C"], &[]);
        let err = tighten(&more, Some(&prev)).expect_err("must refuse");
        assert!(err.contains("VMIN_C"), "{err}");
    }

    #[test]
    fn same_name_may_carry_two_kinds() {
        let o = obs(
            &[],
            &[
                ("models.fitplan.build", "counter"),
                ("models.fitplan.build", "span"),
            ],
        );
        let (text, _) = tighten(&o, None).expect("bootstrap");
        let reg = parse(&text).expect("parse");
        assert!(reg.metric_registered("models.fitplan.build", "counter"));
        assert!(reg.metric_registered("models.fitplan.build", "span"));
        let mut kinds = reg.metric_kinds_of("models.fitplan.build");
        kinds.sort();
        assert_eq!(kinds, vec!["counter", "span"]);
    }

    #[test]
    fn parse_rejects_typos() {
        assert!(parse("schema = \"vmin-contracts/v1\"\n[[env]]\nnmae = \"X\"\n").is_err());
        assert!(parse("schema = \"vmin-contracts/v1\"\n[[metric]]\nname = \"m\"\nkind = \"timer\"\ndoc = \"\"\n").is_err());
        assert!(
            parse("[[env]]\nname = \"X\"\ndoc = \"\"\n").is_err(),
            "missing schema"
        );
        assert!(
            parse("schema = \"vmin-contracts/v0\"\n").is_err(),
            "wrong schema"
        );
    }

    #[test]
    fn docs_with_quotes_round_trip() {
        let mut reg = ContractRegistry::default();
        reg.envs.insert(
            "VMIN_X".into(),
            EnvContract {
                name: "VMIN_X".into(),
                override_fn: "with_x".into(),
                doc: "says \"hello\" and uses a \\ backslash".into(),
            },
        );
        let text = render(&reg);
        let back = parse(&text).expect("parse");
        assert_eq!(
            back.envs["VMIN_X"].doc,
            "says \"hello\" and uses a \\ backslash"
        );
        assert_eq!(back.envs["VMIN_X"].override_fn, "with_x");
    }
}
