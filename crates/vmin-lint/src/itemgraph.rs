//! Whole-workspace item graph: name-level definition/use accounting.
//!
//! The graph is deliberately coarse — it keys on bare identifiers, not
//! resolved paths — which makes it *conservative* for the `dead-pub-item`
//! ratchet: a `pub` item is reported dead only when **every** occurrence
//! of its name outside `use` declarations is itself a definition's name
//! token. Any call, path mention, field access or even a same-named local
//! counts as a use and clears the item. An import or re-export (`use`,
//! `pub use`) does not: it only names the item for code that may never
//! call it. False positives need an item reached solely through a renamed
//! import (`use a::B as C;`) or a trait imported for its methods and never
//! named elsewhere; waive such an item with the allow comment. False
//! negatives are accepted — this is a ratchet, not a proof.
//!
//! The corpus is wider than the lint scan proper: `tests/`, `benches/`
//! and `examples/` trees are lexed usage-only so an item exercised only
//! by integration tests is not reported dead.

use crate::lexer::{TokKind, Token};
use crate::parser::{Item, ItemKind};
use std::collections::{BTreeMap, BTreeSet};

/// Item kinds eligible for dead-`pub` reporting. `Mod`/`Use`/`MacroDef`
/// are structural and excluded.
const DEAD_PUB_KINDS: &[ItemKind] = &[
    ItemKind::Fn,
    ItemKind::Struct,
    ItemKind::Enum,
    ItemKind::Trait,
    ItemKind::Const,
    ItemKind::Static,
    ItemKind::TypeAlias,
];

/// One `pub` item that is a candidate for the dead-pub ratchet.
#[derive(Debug, Clone)]
pub struct DefRecord {
    /// Crate the definition lives in.
    pub crate_name: String,
    /// Workspace-relative file path, `/`-separated.
    pub file: String,
    /// 1-based line of the item keyword.
    pub line: u32,
    /// The item's name.
    pub name: String,
}

/// Definition/use accounting across every scanned file.
#[derive(Debug, Default)]
pub struct ItemGraph {
    /// Every identifier occurrence in the corpus, by name.
    uses: BTreeMap<String, usize>,
    /// How many of those occurrences are some item definition's name
    /// token (any item, including impl members and test code).
    def_tokens: BTreeMap<String, usize>,
    /// Names of all `fn` items anywhere in the workspace (used to verify
    /// that contract-registry `override` entries point at real code).
    fn_names: BTreeSet<String>,
    /// Dead-pub candidates, in scan order.
    candidates: Vec<DefRecord>,
}

impl ItemGraph {
    /// Folds one linted file's tokens and parsed items into the graph.
    pub fn add_file(&mut self, crate_name: &str, file: &str, toks: &[Token], items: &[Item]) {
        self.add_usage_only(toks);
        for item in items {
            let Some(name) = item.name.as_deref() else {
                continue;
            };
            *self.def_tokens.entry(name.to_string()).or_insert(0) += 1;
            if item.kind == ItemKind::Fn {
                self.fn_names.insert(name.to_string());
            }
            let candidate = item.is_pub
                && !item.in_impl
                && !item.in_test
                && DEAD_PUB_KINDS.contains(&item.kind)
                && name != "main"
                && !name.starts_with('_')
                && !item.attrs.iter().any(|a| a == "allow");
            if candidate {
                self.candidates.push(DefRecord {
                    crate_name: crate_name.to_string(),
                    file: file.to_string(),
                    line: item.line,
                    name: name.to_string(),
                });
            }
        }
    }

    /// Folds a usage-only file (integration tests, benches, examples)
    /// into the use counts without parsing items. Identifiers inside a
    /// `use` declaration, from the keyword to its `;`, are not counted.
    pub fn add_usage_only(&mut self, toks: &[Token]) {
        let mut in_use = false;
        for t in toks {
            match t.kind {
                TokKind::Ident if t.text == "use" => in_use = true,
                TokKind::Punct if t.text == ";" => in_use = false,
                TokKind::Ident if !in_use => {
                    *self.uses.entry(t.text.clone()).or_insert(0) += 1;
                }
                _ => {}
            }
        }
    }

    /// True when a `fn` named `name` is defined anywhere in the corpus.
    pub fn has_fn(&self, name: &str) -> bool {
        self.fn_names.contains(name)
    }

    /// The dead `pub` items: candidates whose every name occurrence outside
    /// `use` declarations is a definition token. Sorted by (crate, file,
    /// line) for determinism.
    pub fn dead_pub(&self) -> Vec<&DefRecord> {
        let mut dead: Vec<&DefRecord> = self
            .candidates
            .iter()
            .filter(|c| {
                let total = self.uses.get(&c.name).copied().unwrap_or(0);
                let defs = self.def_tokens.get(&c.name).copied().unwrap_or(0);
                total <= defs
            })
            .collect();
        dead.sort_by(|a, b| {
            (&a.crate_name, &a.file, a.line).cmp(&(&b.crate_name, &b.file, b.line))
        });
        dead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, mark_test_regions};
    use crate::parser::parse_items;

    fn graph_of(files: &[(&str, &str, &str)]) -> ItemGraph {
        let mut g = ItemGraph::default();
        for (krate, file, src) in files {
            let mut toks = lex(src);
            mark_test_regions(&mut toks);
            let items = parse_items(&toks);
            g.add_file(krate, file, &toks, &items);
        }
        g
    }

    #[test]
    fn unused_pub_fn_is_dead_and_called_one_is_not() {
        let g = graph_of(&[
            (
                "a",
                "crates/a/src/lib.rs",
                "pub fn used() {}\npub fn unused() {}\n",
            ),
            ("b", "crates/b/src/lib.rs", "fn caller() { used(); }\n"),
        ]);
        let dead: Vec<&str> = g.dead_pub().iter().map(|d| d.name.as_str()).collect();
        assert_eq!(dead, vec!["unused"]);
    }

    #[test]
    fn a_re_export_alone_is_not_a_use() {
        let g = graph_of(&[
            (
                "a",
                "crates/a/src/lib.rs",
                "mod report;\npub use report::{format_called, format_exported};\n",
            ),
            (
                "a",
                "crates/a/src/report.rs",
                "pub fn format_called() {}\npub fn format_exported() {}\n",
            ),
            (
                "b",
                "crates/b/src/lib.rs",
                "use a::format_called;\nfn caller() { format_called(); }\n",
            ),
        ]);
        let dead: Vec<&str> = g.dead_pub().iter().map(|d| d.name.as_str()).collect();
        assert_eq!(dead, vec!["format_exported"]);
    }

    #[test]
    fn test_only_use_via_usage_corpus_clears_the_item() {
        let mut g = graph_of(&[(
            "a",
            "crates/a/src/lib.rs",
            "pub fn exercised_by_integration_tests() {}\n",
        )]);
        g.add_usage_only(&lex("fn t() { exercised_by_integration_tests(); }"));
        assert!(g.dead_pub().is_empty());
    }

    #[test]
    fn impl_members_main_and_allow_attrs_are_not_candidates() {
        let g = graph_of(&[(
            "a",
            "crates/a/src/main.rs",
            "pub struct S;\nimpl S { pub fn method(&self) {} }\nfn main() {}\n\
             #[allow(dead_code)]\npub fn waived() {}\n",
        )]);
        let dead: Vec<&str> = g.dead_pub().iter().map(|d| d.name.as_str()).collect();
        // `S` is used by its own impl block mention; method/main/waived
        // are excluded by the candidate filter.
        assert_eq!(dead, Vec::<&str>::new());
    }

    #[test]
    fn fn_registry_sees_all_functions() {
        let g = graph_of(&[(
            "a",
            "crates/a/src/lib.rs",
            "pub fn with_threads() {}\nimpl X { fn inner(&self) {} }\n",
        )]);
        assert!(g.has_fn("with_threads"));
        assert!(g.has_fn("inner"));
        assert!(!g.has_fn("missing"));
    }
}
