//! Item-level parsing on top of the token [`crate::lexer`].
//!
//! This is deliberately *not* a grammar-complete Rust parser: it is a
//! recursive item skimmer that recovers just enough structure for the v2
//! rule families — which items exist (name, kind, visibility, outer
//! attributes, test-ness), which of them live inside `impl`/`trait`
//! blocks, and bracket-matching / call-argument helpers the dataflow
//! rules reuse. Function bodies are *skipped* during item discovery (the
//! token rules walk them separately), so the skimmer stays linear and a
//! malformed body can never desynchronize item extents.

use crate::lexer::{punct_is, TokKind, Token};

/// Kind of a recovered item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `fn` (free or associated).
    Fn,
    /// `struct`.
    Struct,
    /// `enum`.
    Enum,
    /// `trait`.
    Trait,
    /// `const` item (not `const fn`, which parses as [`ItemKind::Fn`]).
    Const,
    /// `static` item.
    Static,
    /// `type` alias (free or associated).
    TypeAlias,
    /// `mod` (inline or out-of-line).
    Mod,
    /// `use` declaration.
    Use,
    /// `macro_rules!` definition.
    MacroDef,
}

/// One item recovered from a file's token stream.
#[derive(Debug, Clone)]
pub struct Item {
    /// What kind of item this is.
    pub kind: ItemKind,
    /// The item's name, when it has one (`use` items do not).
    pub name: Option<String>,
    /// True when the item carries a `pub` qualifier (any form, including
    /// `pub(crate)` — restricted visibility still counts as declared API).
    pub is_pub: bool,
    /// 1-based line of the introducing keyword.
    pub line: u32,
    /// True when the item sits in `#[test]`/`#[cfg(test)]` code.
    pub in_test: bool,
    /// First path segment of each outer attribute (`#[allow(...)]` →
    /// `"allow"`, `#[cfg(test)]` → `"cfg"`).
    pub attrs: Vec<String>,
}

/// Parses every item in `toks` (recursing into `mod`/`impl`/`trait`
/// bodies). Call after [`crate::lexer::mark_test_regions`] so `in_test`
/// is meaningful.
pub fn parse_items(toks: &[Token]) -> Vec<Item> {
    let mut out = Vec::new();
    parse_block(toks, 0, toks.len(), &mut out);
    out
}

/// Index of the delimiter matching the opener at `open` (`(`, `[` or
/// `{`), or `end` when unbalanced. Only punctuation tokens count, so
/// delimiter characters inside string literals never desynchronize the
/// match.
pub fn matching_close(toks: &[Token], open: usize, end: usize) -> usize {
    let (o, c) = match toks.get(open).map(|t| t.text.as_str()) {
        Some("(") => ("(", ")"),
        Some("[") => ("[", "]"),
        Some("{") => ("{", "}"),
        _ => return end,
    };
    let mut depth = 0i32;
    let mut k = open;
    while k < end {
        if punct_is(toks, k, o) {
            depth += 1;
        } else if punct_is(toks, k, c) {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
        k += 1;
    }
    end
}

/// Splits the argument tokens of a call whose `(` is at `open` into
/// depth-1 comma-separated slices (as index ranges into `toks`). Returns
/// an empty vec when the call has no arguments or the paren is unmatched.
pub fn call_args(toks: &[Token], open: usize, end: usize) -> Vec<(usize, usize)> {
    if !punct_is(toks, open, "(") {
        return Vec::new();
    }
    let close = matching_close(toks, open, end);
    if close >= end || close == open + 1 {
        return Vec::new();
    }
    let mut args = Vec::new();
    let mut start = open + 1;
    let mut k = open + 1;
    while k < close {
        match toks[k].text.as_str() {
            "(" | "[" | "{" if toks[k].kind == TokKind::Punct => {
                k = matching_close(toks, k, close) + 1;
                continue;
            }
            "," if toks[k].kind == TokKind::Punct => {
                if k > start {
                    args.push((start, k));
                }
                start = k + 1;
            }
            _ => {}
        }
        k += 1;
    }
    if close > start {
        args.push((start, close));
    }
    args
}

/// Walks tokens in `[start, end)` collecting items; recurses into
/// `mod`/`impl`/`trait` bodies.
fn parse_block(toks: &[Token], start: usize, end: usize, out: &mut Vec<Item>) {
    let mut attrs: Vec<String> = Vec::new();
    let mut is_pub = false;
    let mut i = start;
    while i < end {
        let t = &toks[i];
        // Outer attribute: record its first path segment.
        if punct_is(toks, i, "#") && punct_is(toks, i + 1, "[") {
            let close = matching_close(toks, i + 1, end);
            if let Some(first) = toks[i + 2..close.min(end)]
                .iter()
                .find(|a| a.kind == TokKind::Ident)
            {
                attrs.push(first.text.clone());
            }
            i = close + 1;
            continue;
        }
        // Inner attribute `#![...]`: skip.
        if punct_is(toks, i, "#") && punct_is(toks, i + 1, "!") && punct_is(toks, i + 2, "[") {
            i = matching_close(toks, i + 2, end) + 1;
            continue;
        }
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "pub" => {
                is_pub = true;
                i += 1;
                // `pub(crate)` / `pub(in path)`.
                if punct_is(toks, i, "(") {
                    i = matching_close(toks, i, end) + 1;
                }
                continue;
            }
            // Qualifiers that may precede `fn` without ending the item.
            "unsafe" | "async" | "default" | "extern" => {
                i += 1;
                // `extern "C" fn` carries an ABI string; `extern crate x;`
                // terminates at the `;` below via the Use arm proxy.
                if t.text == "extern" && toks.get(i).is_some_and(|n| n.kind == TokKind::Str) {
                    i += 1;
                }
                if t.text == "extern" && toks.get(i).is_some_and(|n| n.text == "crate") {
                    let semi = seek_semi(toks, i, end);
                    record(out, toks, ItemKind::Use, None, is_pub, t, &mut attrs);
                    is_pub = false;
                    i = semi;
                }
                continue;
            }
            "fn" => {
                let name = ident_after(toks, i + 1);
                record_named(out, toks, ItemKind::Fn, name, is_pub, t, &mut attrs);
                is_pub = false;
                i = seek_body_or_semi(toks, i + 1, end);
            }
            "struct" => {
                let name = ident_after(toks, i + 1);
                record_named(out, toks, ItemKind::Struct, name, is_pub, t, &mut attrs);
                is_pub = false;
                i = seek_body_or_semi(toks, i + 1, end);
            }
            "enum" => {
                let name = ident_after(toks, i + 1);
                record_named(out, toks, ItemKind::Enum, name, is_pub, t, &mut attrs);
                is_pub = false;
                i = seek_body_or_semi(toks, i + 1, end);
            }
            "trait" => {
                let name = ident_after(toks, i + 1);
                record_named(out, toks, ItemKind::Trait, name, is_pub, t, &mut attrs);
                is_pub = false;
                if let Some(open) = seek_open_brace(toks, i + 1, end) {
                    let close = matching_close(toks, open, end);
                    parse_block(toks, open + 1, close, out);
                    i = close + 1;
                } else {
                    i = seek_semi(toks, i + 1, end);
                }
            }
            "const" | "static" => {
                // `const fn` is a function; let the next iteration see `fn`.
                if toks.get(i + 1).is_some_and(|n| n.text == "fn") {
                    i += 1;
                    continue;
                }
                let kind = if t.text == "const" {
                    ItemKind::Const
                } else {
                    ItemKind::Static
                };
                // `static mut X` / `const _: () = ...`.
                let mut j = i + 1;
                if toks.get(j).is_some_and(|n| n.text == "mut") {
                    j += 1;
                }
                let name = ident_after(toks, j);
                record_named(out, toks, kind, name, is_pub, t, &mut attrs);
                is_pub = false;
                i = seek_semi(toks, i + 1, end);
            }
            "type" => {
                let name = ident_after(toks, i + 1);
                record_named(out, toks, ItemKind::TypeAlias, name, is_pub, t, &mut attrs);
                is_pub = false;
                i = seek_semi(toks, i + 1, end);
            }
            "mod" => {
                let name = ident_after(toks, i + 1);
                record_named(out, toks, ItemKind::Mod, name, is_pub, t, &mut attrs);
                is_pub = false;
                if let Some(open) = seek_open_brace_before_semi(toks, i + 1, end) {
                    let close = matching_close(toks, open, end);
                    parse_block(toks, open + 1, close, out);
                    i = close + 1;
                } else {
                    i = seek_semi(toks, i + 1, end);
                }
            }
            "impl" => {
                attrs.clear();
                is_pub = false;
                if let Some(open) = seek_open_brace(toks, i + 1, end) {
                    let close = matching_close(toks, open, end);
                    parse_block(toks, open + 1, close, out);
                    i = close + 1;
                } else {
                    i = seek_semi(toks, i + 1, end);
                }
            }
            "use" => {
                record(out, toks, ItemKind::Use, None, is_pub, t, &mut attrs);
                is_pub = false;
                i = seek_semi(toks, i + 1, end);
            }
            "macro_rules" => {
                let name = if punct_is(toks, i + 1, "!") {
                    ident_after(toks, i + 2)
                } else {
                    None
                };
                record_named(out, toks, ItemKind::MacroDef, name, is_pub, t, &mut attrs);
                is_pub = false;
                i = seek_body_or_semi(toks, i + 1, end);
            }
            _ => {
                // Unknown token at item level (stray doc macro, etc.):
                // drop any pending qualifiers and move on.
                attrs.clear();
                is_pub = false;
                i += 1;
            }
        }
    }
}

/// The identifier token right at `i`, if any.
fn ident_after(toks: &[Token], i: usize) -> Option<(usize, String)> {
    toks.get(i)
        .and_then(|t| (t.kind == TokKind::Ident).then(|| (i, t.text.clone())))
}

/// Pushes an unnamed item, draining `attrs`.
fn record(
    out: &mut Vec<Item>,
    _toks: &[Token],
    kind: ItemKind,
    name: Option<String>,
    is_pub: bool,
    kw: &Token,
    attrs: &mut Vec<String>,
) {
    out.push(Item {
        kind,
        name,
        is_pub,
        line: kw.line,
        in_test: kw.in_test,
        attrs: std::mem::take(attrs),
    });
}

/// Pushes a named item, draining `attrs`.
fn record_named(
    out: &mut Vec<Item>,
    toks: &[Token],
    kind: ItemKind,
    name: Option<(usize, String)>,
    is_pub: bool,
    kw: &Token,
    attrs: &mut Vec<String>,
) {
    let (name_idx, name) = match name {
        Some((idx, n)) => (Some(idx), Some(n)),
        None => (None, None),
    };
    let in_test = kw.in_test || name_idx.is_some_and(|idx| toks[idx].in_test);
    out.push(Item {
        kind,
        name,
        is_pub,
        line: kw.line,
        in_test,
        attrs: std::mem::take(attrs),
    });
}

/// Scans forward for the item terminator: the matching `}` of the first
/// depth-0 `{` (the body), or a depth-0 `;`. Returns the index just past
/// it. Parenthesized/bracketed stretches (params, tuple-struct fields,
/// array types) are skipped whole.
fn seek_body_or_semi(toks: &[Token], from: usize, end: usize) -> usize {
    let mut k = from;
    while k < end {
        if punct_is(toks, k, "(") || punct_is(toks, k, "[") {
            k = matching_close(toks, k, end) + 1;
            continue;
        }
        if punct_is(toks, k, "{") {
            return matching_close(toks, k, end) + 1;
        }
        if punct_is(toks, k, ";") {
            return k + 1;
        }
        k += 1;
    }
    end
}

/// Scans forward for a depth-0 `;`, skipping over matched `(`/`[`/`{`
/// groups (covers `const X: [f64; 3] = { ... };`). Returns the index just
/// past it.
fn seek_semi(toks: &[Token], from: usize, end: usize) -> usize {
    let mut k = from;
    while k < end {
        if punct_is(toks, k, "(") || punct_is(toks, k, "[") || punct_is(toks, k, "{") {
            k = matching_close(toks, k, end) + 1;
            continue;
        }
        if punct_is(toks, k, ";") {
            return k + 1;
        }
        k += 1;
    }
    end
}

/// First depth-0 `{` from `from`, skipping `(`/`[` groups.
fn seek_open_brace(toks: &[Token], from: usize, end: usize) -> Option<usize> {
    let mut k = from;
    while k < end {
        if punct_is(toks, k, "(") || punct_is(toks, k, "[") {
            k = matching_close(toks, k, end) + 1;
            continue;
        }
        if punct_is(toks, k, "{") {
            return Some(k);
        }
        if punct_is(toks, k, ";") {
            return None;
        }
        k += 1;
    }
    None
}

/// Like [`seek_open_brace`] but for `mod`, where `mod name;` is common.
fn seek_open_brace_before_semi(toks: &[Token], from: usize, end: usize) -> Option<usize> {
    seek_open_brace(toks, from, end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, mark_test_regions};

    fn items_of(src: &str) -> Vec<Item> {
        let mut toks = lex(src);
        mark_test_regions(&mut toks);
        parse_items(&toks)
    }

    #[test]
    fn finds_free_items_with_visibility() {
        let items = items_of(
            "pub fn alpha() {}\nfn beta() {}\npub struct Gamma { x: f64 }\n\
             pub(crate) const DELTA: usize = 3;\npub type Eps = f64;\nuse std::fmt;\n",
        );
        let named: Vec<(&str, ItemKind, bool)> = items
            .iter()
            .filter_map(|i| i.name.as_deref().map(|n| (n, i.kind, i.is_pub)))
            .collect();
        assert_eq!(
            named,
            vec![
                ("alpha", ItemKind::Fn, true),
                ("beta", ItemKind::Fn, false),
                ("Gamma", ItemKind::Struct, true),
                ("DELTA", ItemKind::Const, true),
                ("Eps", ItemKind::TypeAlias, true),
            ]
        );
        assert!(items.iter().any(|i| i.kind == ItemKind::Use));
    }

    #[test]
    fn impl_members_are_items_and_fn_bodies_are_skipped() {
        let items = items_of(
            "pub struct S;\nimpl S {\n    pub fn method(&self) { let x = 1; }\n}\n\
             pub trait T {\n    fn decl(&self) -> f64;\n}\n\
             impl T for S {\n    fn decl(&self) -> f64 { 0.0 }\n}\n",
        );
        let method = items
            .iter()
            .find(|i| i.name.as_deref() == Some("method"))
            .expect("method");
        assert!(method.is_pub);
        let decls: Vec<_> = items
            .iter()
            .filter(|i| i.name.as_deref() == Some("decl"))
            .collect();
        assert_eq!(decls.len(), 2);
        // Trait and trait-impl members carry no visibility of their own.
        assert!(decls.iter().all(|i| !i.is_pub));
        // No phantom items from inside the skipped fn body.
        assert!(!items.iter().any(|i| i.name.as_deref() == Some("x")));
    }

    #[test]
    fn const_fn_is_a_fn_and_static_mut_keeps_its_name() {
        let items = items_of("pub const fn f() -> usize { 1 }\nstatic mut G: u8 = 0;\n");
        assert_eq!(items[0].kind, ItemKind::Fn);
        assert_eq!(items[0].name.as_deref(), Some("f"));
        assert_eq!(items[1].kind, ItemKind::Static);
        assert_eq!(items[1].name.as_deref(), Some("G"));
    }

    #[test]
    fn attrs_and_test_marking_are_recorded() {
        let items = items_of(
            "#[allow(dead_code)]\npub fn waived() {}\n\
             #[cfg(test)]\nmod tests {\n    pub fn helper() {}\n}\n",
        );
        let waived = items
            .iter()
            .find(|i| i.name.as_deref() == Some("waived"))
            .expect("waived");
        assert_eq!(waived.attrs, vec!["allow".to_string()]);
        let helper = items
            .iter()
            .find(|i| i.name.as_deref() == Some("helper"))
            .expect("helper");
        assert!(helper.in_test);
    }

    #[test]
    fn nested_mod_items_are_found() {
        let items =
            items_of("mod outer {\n    pub mod inner {\n        pub fn leaf() {}\n    }\n}\n");
        assert!(items.iter().any(|i| i.name.as_deref() == Some("leaf")));
    }

    #[test]
    fn call_args_split_at_depth_one_commas() {
        let toks = lex("f(a, g(b, c), [d, e], \"s\")");
        let open = toks
            .iter()
            .position(|t| t.text == "(" && t.kind == TokKind::Punct)
            .expect("open");
        let args = call_args(&toks, open, toks.len());
        assert_eq!(args.len(), 4);
        let first: Vec<&str> = toks[args[0].0..args[0].1]
            .iter()
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(first, vec!["a"]);
        let second: Vec<&str> = toks[args[1].0..args[1].1]
            .iter()
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(second, vec!["g", "(", "b", ",", "c", ")"]);
        assert_eq!(toks[args[3].0].kind, TokKind::Str);
    }

    #[test]
    fn string_braces_do_not_desynchronize_matching() {
        let items = items_of("pub fn f() { let s = \"{\"; }\npub fn g() {}\n");
        let names: Vec<_> = items.iter().filter_map(|i| i.name.as_deref()).collect();
        assert_eq!(names, vec!["f", "g"]);
    }
}
