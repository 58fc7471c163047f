//! Unreachable-pub: a workspace-level dead-code check for public items.
//!
//! `rustc`'s `dead_code` lint never fires on a `pub` item, because a
//! library's public surface may have callers outside the crate. In a
//! closed workspace every caller is in the tree, so this pass asks the
//! question rustc cannot: does any binary, test, example or benchmark
//! reach this item? It is name-based and conservative — without type
//! information a miss is acceptable, a false finding is not.
//!
//! *Declared items* are top-level, bare-`pub` `fn` / `struct` / `enum` /
//! `trait` / `const` / `static` / `type` / `union` items and the `pub fn`s
//! of top-level inherent `impl` blocks in the rule's matched files.
//! Modules, re-exports, fields, trait-impl methods, macro-generated items
//! and anything under `#[cfg(test)]` are not declared.
//!
//! A *use* is an identifier token with the item's name in any collected
//! file, except a token inside the item itself, inside its own file's
//! test code, inside a `pub use`, inside an `impl` block of the item's
//! own type, or inside an item already found unreached. A method is used
//! by `::name` or a call `.name(` in any file (a call needs no import; a
//! bare `.name` is a field read). Any other item of crate `C`
//! (directory `crates/C`) is used from a file outside `C` only if that
//! file names `coic_C`, `C`'s umbrella alias (`pub use coic_C as alias`,
//! next to the token `coic`), or a crate that `pub use`s the name out of
//! `coic_C`. That is what keeps two same-named types in different crates
//! apart.
//!
//! Findings feed back: the body of an unreached item (and every `impl`
//! of an unreached type) stops counting as a use, and the pass repeats
//! to a fixed point, so a dead chain is reported whole in one run. A
//! method of an unreached type is reported with its type, not alone.

use std::collections::{BTreeMap, BTreeSet};

use crate::checks::{is_ident, test_spans};
use crate::lexer::Token;
use crate::rules::Rule;
use crate::{allowed, FileRec, Finding};

type Span = (usize, usize);

fn inside(spans: &[Span], at: usize) -> bool {
    spans.iter().any(|&(s, e)| at >= s && at < e)
}

/// A declared `pub` item.
struct Item {
    file: usize,
    /// The `pub` token through the end of the item.
    span: Span,
    name: String,
    /// `Some(type)` for a method of an inherent impl.
    owner: Option<String>,
    /// A struct / enum / union / type alias, whose own impls do not count.
    is_type: bool,
    line: u32,
}

/// One file's structure as far as the pass needs it.
struct Layout {
    /// `crates/<dir>/...` → `dir`.
    krate: Option<String>,
    tests: Vec<Span>,
    pub_uses: Vec<Span>,
    /// Every top-level impl: self-type name and span.
    impls: Vec<(String, Span)>,
    /// Every identifier the file names.
    names: BTreeSet<String>,
}

fn crate_of(rel: &str) -> Option<String> {
    let rest = rel.strip_prefix("crates/")?;
    rest.split_once('/').map(|(dir, _)| dir.to_string())
}

fn text(tokens: &[Token], at: usize) -> &str {
    tokens.get(at).map_or("", |t| t.text.as_str())
}

/// Index one past the bracket that closes the one opened at `open`.
fn close_of(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (at, tok) in tokens.iter().enumerate().skip(open) {
        match tok.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return at + 1;
                }
            }
            _ => {}
        }
    }
    tokens.len()
}

/// One past the end of the item whose keyword sits at `kw`: the `;` at
/// bracket depth zero, or (except for `const` / `static` / `type`, whose
/// initialisers may hold braces) the `}` closing a top-level block.
fn item_end(tokens: &[Token], kw: usize) -> usize {
    let braces_end = !matches!(text(tokens, kw), "const" | "static" | "type");
    let mut depth = 0i32;
    for (at, tok) in tokens.iter().enumerate().skip(kw) {
        match tok.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" => depth -= 1,
            "}" => {
                depth -= 1;
                if depth == 0 && braces_end {
                    return at + 1;
                }
            }
            ";" if depth == 0 => return at + 1,
            _ => {}
        }
    }
    tokens.len()
}

/// After a `pub` at `at`: `Some(keyword index)` for bare `pub`, skipping
/// the `const` / `async` / `unsafe` qualifiers of a `fn`.
fn bare_pub_keyword(tokens: &[Token], at: usize) -> Option<usize> {
    let mut k = at + 1;
    while matches!(text(tokens, k), "async" | "unsafe")
        || (text(tokens, k) == "const" && matches!(text(tokens, k + 1), "fn" | "async" | "unsafe"))
    {
        k += 1;
    }
    (text(tokens, at + 1) != "(").then_some(k)
}

/// The self type of the impl header `tokens[from..to]`: the last path
/// segment before its generics, after `for` in a trait impl.
fn impl_self_type(tokens: &[Token], from: usize, to: usize) -> (String, bool) {
    let mut at = from;
    // `impl<T: Fn() -> u8>`: skip the impl's own generics (`->` is no closer).
    if text(tokens, at) == "<" {
        let mut depth = 0i32;
        while at < to {
            match text(tokens, at) {
                "<" => depth += 1,
                ">" if text(tokens, at - 1) != "-" => depth -= 1,
                _ => {}
            }
            at += 1;
            if depth == 0 {
                break;
            }
        }
    }
    let trait_for = (at..to).find(|&i| text(tokens, i) == "for" && text(tokens, i + 1) != "<");
    if let Some(f) = trait_for {
        at = f + 1;
    }
    let mut name = String::new();
    while at < to {
        match text(tokens, at) {
            "<" | "where" | "{" => break,
            "&" | "'" | "mut" | "dyn" | "::" => {}
            _ if is_ident(&tokens[at]) && text(tokens, at.wrapping_sub(1)) != "'" => {
                name = tokens[at].text.clone();
            }
            _ => {}
        }
        at += 1;
    }
    (name, trait_for.is_some())
}

/// A method is used as `path::name` or called as `.name(` /
/// `.name::<..>(`; a bare `.name` is a field.
fn is_method_use(tokens: &[Token], at: usize) -> bool {
    match text(tokens, at.wrapping_sub(1)) {
        "::" => true,
        "." => matches!(text(tokens, at + 1), "(" | "::"),
        _ => false,
    }
}

/// Scan one file's top level: its declared items (when `declare`), its
/// `pub use` statements and its impl blocks.
fn scan(fi: usize, rel: &str, tokens: &[Token], declare: bool, items: &mut Vec<Item>) -> Layout {
    let tests = test_spans(tokens);
    let mut pub_uses = Vec::new();
    let mut impls = Vec::new();
    let mut declared = |span: Span, name: &str, owner: Option<&str>, is_type: bool| {
        if declare && !inside(&tests, span.0) {
            items.push(Item {
                file: fi,
                span,
                name: name.to_string(),
                owner: owner.map(str::to_string),
                is_type,
                line: tokens[span.0].line,
            });
        }
    };
    let mut at = 0;
    let mut depth = 0i32;
    while at < tokens.len() {
        let tok = tokens[at].text.as_str();
        match tok {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            _ => {}
        }
        if depth != 0 {
            at += 1;
            continue;
        }
        if tok == "pub" {
            let mut k = at + 1;
            if text(tokens, k) == "(" {
                k = close_of(tokens, k);
            }
            if text(tokens, k) == "use" {
                let end = item_end(tokens, k);
                pub_uses.push((at, end));
                at = end;
                continue;
            }
            if let Some(kw) = bare_pub_keyword(tokens, at) {
                let kind = text(tokens, kw);
                if matches!(
                    kind,
                    "fn" | "struct" | "enum" | "trait" | "const" | "static" | "type" | "union"
                ) {
                    let end = item_end(tokens, kw);
                    let name = text(tokens, kw + 1);
                    let is_type = matches!(kind, "struct" | "enum" | "union" | "type");
                    declared((at, end), name, None, is_type);
                    at = end;
                    continue;
                }
            }
        }
        let item_start = at == 0
            || matches!(text(tokens, at - 1), "}" | ";" | "]")
            || (text(tokens, at - 1) == "unsafe"
                && (at == 1 || matches!(text(tokens, at - 2), "}" | ";" | "]")));
        if tok == "impl" && item_start {
            let Some(open) = (at..tokens.len()).find(|&i| text(tokens, i) == "{") else {
                break;
            };
            let end = close_of(tokens, open);
            let (self_ty, is_trait) = impl_self_type(tokens, at + 1, open);
            if !is_trait {
                let mut inner = 0i32;
                for m in open..end {
                    match text(tokens, m) {
                        "(" | "[" | "{" => inner += 1,
                        ")" | "]" | "}" => inner -= 1,
                        "pub" if inner == 1 => {
                            if let Some(kw) = bare_pub_keyword(tokens, m) {
                                if text(tokens, kw) == "fn" {
                                    let fn_end = item_end(tokens, kw);
                                    let name = text(tokens, kw + 1);
                                    declared((m, fn_end), name, Some(&self_ty), false);
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }
            impls.push((self_ty, (at, end)));
            at = end;
            continue;
        }
        at += 1;
    }
    Layout {
        krate: crate_of(rel),
        tests,
        pub_uses,
        impls,
        names: tokens
            .iter()
            .filter(|t| is_ident(t))
            .map(|t| t.text.clone())
            .collect(),
    }
}

/// Run the pass over every collected file; `rule`'s scope selects the
/// files whose items are declared, uses come from all of them.
pub(crate) fn run(rule: &Rule, files: &[FileRec], out: &mut Vec<Finding>) {
    let mut items = Vec::new();
    let layouts: Vec<Layout> = files
        .iter()
        .enumerate()
        .map(|(fi, rec)| {
            let declare = rule.applies_to(&rec.rel);
            scan(fi, &rec.rel, &rec.lexed.tokens, declare, &mut items)
        })
        .collect();

    // Umbrella aliases (`pub use coic_C as alias`) and cross-crate
    // re-exports (crate D's `pub use coic_C::{..}` names).
    let mut alias: BTreeMap<String, String> = BTreeMap::new();
    let mut reexports: BTreeMap<(String, String), BTreeSet<String>> = BTreeMap::new();
    for (rec, layout) in files.iter().zip(&layouts) {
        let tokens = &rec.lexed.tokens;
        for &(s, e) in &layout.pub_uses {
            for at in s..e {
                let Some(dir) = tokens[at].text.strip_prefix("coic_") else {
                    continue;
                };
                if text(tokens, at + 1) == "as" {
                    alias.insert(dir.to_string(), text(tokens, at + 2).to_string());
                }
                if let Some(from) = &layout.krate {
                    reexports
                        .entry((from.clone(), dir.to_string()))
                        .or_default()
                        .extend(tokens[s..e].iter().map(|t| t.text.clone()));
                }
            }
        }
    }
    let names_crate = |layout: &Layout, krate: &str| {
        layout.krate.as_deref() == Some(krate)
            || layout.names.contains(&format!("coic_{krate}"))
            || alias
                .get(krate)
                .is_some_and(|a| layout.names.contains("coic") && layout.names.contains(a))
    };
    let sees = |layout: &Layout, krate: &str, name: &str| {
        names_crate(layout, krate)
            || reexports.iter().any(|((via, from), names)| {
                from == krate && names.contains(name) && names_crate(layout, via)
            })
    };

    let wanted: BTreeSet<&str> = items.iter().map(|i| i.name.as_str()).collect();
    let mut occurrences: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
    for (fi, rec) in files.iter().enumerate() {
        for (at, tok) in rec.lexed.tokens.iter().enumerate() {
            if let Some(name) = wanted.get(tok.text.as_str()) {
                occurrences.entry(name).or_default().push((fi, at));
            }
        }
    }

    let finding = |item: &Item| Finding {
        file: files[item.file].rel.clone(),
        line: item.line,
        rule: rule.id.clone(),
        message: format!(
            "pub `{}` is reached by no binary, test, example or benchmark: \
             delete it, or allow it with the reason it stays",
            match &item.owner {
                Some(owner) => format!("{owner}::{}", item.name),
                None => item.name.clone(),
            }
        ),
    };
    let kept: Vec<bool> = items
        .iter()
        .map(|item| allowed(&finding(item), &files[item.file].allows))
        .collect();

    // Every impl of a type in the type's own crate.
    let impls_of: Vec<Vec<(usize, Span)>> = items
        .iter()
        .map(|item| {
            let krate = &layouts[item.file].krate;
            let impls = layouts
                .iter()
                .enumerate()
                .filter(|(_, l)| item.is_type && &l.krate == krate);
            impls
                .flat_map(|(fi, l)| {
                    l.impls
                        .iter()
                        .filter(|(ty, _)| *ty == item.name)
                        .map(move |&(_, span)| (fi, span))
                })
                .collect()
        })
        .collect();

    let mut dead = vec![false; items.len()];
    loop {
        let mut dead_spans: Vec<Vec<Span>> = vec![Vec::new(); files.len()];
        for (i, item) in items.iter().enumerate().filter(|&(i, _)| dead[i]) {
            dead_spans[item.file].push(item.span);
            for &(fi, span) in &impls_of[i] {
                dead_spans[fi].push(span);
            }
        }
        let reached = |i: usize| {
            let item = &items[i];
            let krate = layouts[item.file].krate.as_deref().unwrap_or("");
            let sites = occurrences
                .get(item.name.as_str())
                .map_or(&[][..], Vec::as_slice);
            sites.iter().any(|&(fi, at)| {
                let layout = &layouts[fi];
                let tokens = &files[fi].lexed.tokens;
                !(fi == item.file && (inside(&[item.span], at) || inside(&layout.tests, at)))
                    && !inside(&layout.pub_uses, at)
                    && !impls_of[i]
                        .iter()
                        .any(|&(f, span)| f == fi && inside(&[span], at))
                    && !inside(&dead_spans[fi], at)
                    && match item.owner {
                        Some(_) => is_method_use(tokens, at),
                        None => sees(layout, krate, &item.name),
                    }
            })
        };
        let newly: Vec<usize> = (0..items.len())
            .filter(|&i| !dead[i] && !kept[i] && !reached(i))
            .collect();
        if newly.is_empty() {
            break;
        }
        for i in newly {
            dead[i] = true;
        }
    }

    // A method of an unreached type goes with its type's finding.
    for (item, _) in items.iter().zip(&dead).filter(|(_, d)| **d) {
        let with_type = (0..items.len()).any(|t| {
            dead[t]
                && impls_of[t]
                    .iter()
                    .any(|&(fi, span)| fi == item.file && inside(&[span], item.span.0))
        });
        if !with_type {
            out.push(finding(item));
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::tests::lint_tree;
    use crate::Finding;

    const RULES: &str = r#"
[[rule]]
id = "unreachable-pub"
kind = "unreachable-pub"
reason = "r"
paths = ["crates/*/src/**"]
"#;

    /// `(file:line, item)` of every finding, or `(file:line, rule)` for
    /// findings of other rules.
    fn found(files: &[(&str, &str)]) -> Vec<(String, String)> {
        let name = |f: &Finding| match f.message.split('`').nth(1) {
            Some(item) if f.rule == "unreachable-pub" => item.to_string(),
            _ => f.rule.clone(),
        };
        lint_tree(RULES, files)
            .iter()
            .map(|f| (format!("{}:{}", f.file, f.line), name(f)))
            .collect()
    }

    fn at(place: &str, item: &str) -> (String, String) {
        (place.to_string(), item.to_string())
    }

    #[test]
    fn a_use_in_the_items_own_tests_is_no_use() {
        let lib = "pub fn live() {}\n\
                   pub fn only_tested() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       #[test]\n\
                       fn t() { super::only_tested(); }\n\
                   }\n";
        let got = found(&[
            ("crates/a/src/lib.rs", lib),
            ("tests/t.rs", "fn main() { coic_a::live(); }\n"),
        ]);
        assert_eq!(got, [at("crates/a/src/lib.rs:2", "only_tested")]);
    }

    #[test]
    fn a_name_in_a_pub_use_is_no_use() {
        let got = found(&[
            ("crates/a/src/lib.rs", "mod m;\npub use m::Hidden;\n"),
            ("crates/a/src/m.rs", "pub struct Hidden;\n"),
        ]);
        assert_eq!(got, [at("crates/a/src/m.rs:1", "Hidden")]);
    }

    #[test]
    fn binaries_tests_examples_benchmarks_and_naming_crates_are_roots() {
        let lib = "pub fn from_crate() {}\n\
                   pub fn from_test() {}\n\
                   pub fn from_bin() {}\n\
                   pub fn from_example() {}\n\
                   pub fn from_bench() {}\n";
        let got = found(&[
            ("crates/a/src/lib.rs", lib),
            (
                "crates/b/src/lib.rs",
                "pub fn g() { coic_a::from_crate(); }\n",
            ),
            (
                "crates/b/src/bin/tool.rs",
                "fn main() { coic_a::from_bin(); }\n",
            ),
            ("src/lib.rs", "pub use coic_a as a;\npub use coic_b as b;\n"),
            (
                "tests/t.rs",
                "#[test]\nfn t() { coic_a::from_test(); coic::b::g(); }\n",
            ),
            ("examples/e.rs", "fn main() { coic::a::from_example(); }\n"),
            (
                "benchmark/src/main.rs",
                "use coic_a::from_bench;\nfn main() { from_bench(); }\n",
            ),
        ]);
        assert_eq!(got, []);
    }

    #[test]
    fn a_same_named_item_of_another_crate_does_not_keep_one_alive() {
        let b = "pub struct Histogram;\npub fn make() -> Histogram { Histogram }\n";
        let got = found(&[
            ("crates/a/src/lib.rs", "pub struct Histogram;\n"),
            ("crates/b/src/lib.rs", b),
            ("tests/t.rs", "fn main() { let _ = coic_b::make(); }\n"),
        ]);
        assert_eq!(got, [at("crates/a/src/lib.rs:1", "Histogram")]);
    }

    #[test]
    fn a_method_call_needs_no_import_but_a_field_read_is_no_call() {
        let a = "pub struct Widget { pub count: u32 }\n\
                 impl Widget {\n\
                     pub fn new() -> Widget { Widget { count: 0 } }\n\
                     pub fn spin(&self) {}\n\
                     pub fn count(&self) -> u32 { self.count }\n\
                 }\n";
        let b = "pub fn make() -> coic_a::Widget { coic_a::Widget::new() }\n";
        let t = "fn main() { let w = coic_b::make(); w.spin(); let _ = w.count; }\n";
        let got = found(&[
            ("crates/a/src/lib.rs", a),
            ("crates/b/src/lib.rs", b),
            ("tests/t.rs", t),
        ]);
        assert_eq!(got, [at("crates/a/src/lib.rs:5", "Widget::count")]);
    }

    #[test]
    fn a_dead_chain_is_reported_whole_in_one_run() {
        let lib = "pub fn top() { mid(); }\n\
                   pub fn mid() {}\n\
                   pub struct Common { pub n: u32 }\n\
                   impl Common { pub fn new() -> Common { Common { n: 1 } } }\n\
                   pub struct Builder;\n\
                   impl Builder {\n\
                       pub fn build(self) {}\n\
                       pub fn common(self, _c: Common) -> Builder { self }\n\
                   }\n";
        let got = found(&[
            ("crates/a/src/lib.rs", lib),
            ("tests/t.rs", "fn main() { coic_a::Builder.build(); }\n"),
        ]);
        assert_eq!(
            got,
            [
                at("crates/a/src/lib.rs:1", "top"),
                at("crates/a/src/lib.rs:2", "mid"),
                at("crates/a/src/lib.rs:3", "Common"),
                at("crates/a/src/lib.rs:8", "Builder::common"),
            ]
        );
    }

    #[test]
    fn a_restored_module_is_reported_once_for_its_type() {
        // The shape of a deleted clustering module coming back: a type,
        // its methods, a helper only they call, and the `pub mod` line.
        let kmeans = "pub struct KMeans { k: usize }\n\
                      impl KMeans {\n\
                          pub fn fit(k: usize) -> KMeans { KMeans { k: spread(k) } }\n\
                          pub fn k(&self) -> usize { self.k }\n\
                      }\n\
                      pub fn spread(k: usize) -> usize { k }\n";
        let got = found(&[
            ("crates/vision/src/lib.rs", "pub mod kmeans;\n"),
            ("crates/vision/src/kmeans.rs", kmeans),
        ]);
        assert_eq!(
            got,
            [
                at("crates/vision/src/kmeans.rs:1", "KMeans"),
                at("crates/vision/src/kmeans.rs:6", "spread"),
            ]
        );
    }

    #[test]
    fn trait_impl_methods_macro_fns_and_test_items_are_not_declared() {
        let lib = "pub struct S;\n\
                   pub trait Named { fn name(&self) -> u8; }\n\
                   impl Named for S { fn name(&self) -> u8 { 1 } }\n\
                   macro_rules! getter { ($n:ident) => { pub fn $n(&self) -> u8 { 0 } }; }\n\
                   impl S { getter!(made); }\n\
                   #[cfg(test)]\n\
                   pub fn fixture() {}\n";
        let got = found(&[
            ("crates/a/src/lib.rs", lib),
            (
                "tests/t.rs",
                "use coic_a::{Named, S};\nfn main() { S.name(); }\n",
            ),
        ]);
        assert_eq!(got, []);
    }

    #[test]
    fn an_allow_needs_a_reason_and_keeps_what_the_item_uses() {
        let lib = "// lint: allow(unreachable-pub, the next experiment calls it)\n\
                   pub fn kept() { helper(); }\n\
                   pub fn helper() {}\n\
                   // lint: allow(unreachable-pub)\n\
                   pub fn unexplained() {}\n";
        let got = found(&[("crates/a/src/lib.rs", lib)]);
        assert_eq!(
            got,
            [
                at("crates/a/src/lib.rs:4", "malformed-allow-directive"),
                at("crates/a/src/lib.rs:5", "unexplained"),
            ]
        );
    }
}
