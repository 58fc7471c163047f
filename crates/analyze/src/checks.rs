//! The per-file rule implementations, operating on lexed token streams.
//! Workspace-level passes (lock graph, telemetry registry) live in their
//! own modules; this file hosts the checks that need only one file.

use crate::lexer::{Lexed, Token};
use crate::rules::{Rule, RuleKind};
use crate::Finding;

/// Run `rule` over one lexed file, appending findings. Workspace-level
/// kinds are no-ops here; `lint_root` runs them across all files.
pub fn run_rule(rule: &Rule, rel_path: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    let tokens = &lexed.tokens;
    match &rule.kind {
        RuleKind::ForbiddenPath {
            patterns,
            include_tests,
        } => forbidden_path(rule, rel_path, tokens, patterns, *include_tests, out),
        RuleKind::NoUnwrap { methods } => no_unwrap(rule, rel_path, tokens, methods, out),
        RuleKind::CrateAttr {
            attr_tokens,
            attr_text,
        } => crate_attr(rule, rel_path, tokens, attr_tokens, attr_text, out),
        RuleKind::NoIndexHotPath => no_index_hot_path(rule, rel_path, tokens, out),
        RuleKind::PairedCall { acquire, releases } => {
            paired_call(rule, rel_path, tokens, acquire, releases, out);
        }
        RuleKind::ProtocolConformance {
            enum_name,
            tag_fn,
            decode_fn,
            require_in,
        } => crate::semantic::protocol_conformance(
            rule, rel_path, tokens, enum_name, tag_fn, decode_fn, require_in, out,
        ),
        RuleKind::LockOrderGraph { .. }
        | RuleKind::TelemetryRegistry { .. }
        | RuleKind::UnreachablePub => {}
    }
}

fn texts_match(tokens: &[Token], at: usize, pattern: &[String]) -> bool {
    tokens.len() >= at + pattern.len()
        && pattern
            .iter()
            .zip(&tokens[at..])
            .all(|(want, tok)| *want == tok.text)
}

/// Is this token a plain identifier (not punctuation, not a literal)?
pub(crate) fn is_ident(tok: &Token) -> bool {
    tok.literal.is_none()
        && tok
            .text
            .chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_')
}

// ----------------------------------------------------------- forbidden-path

fn forbidden_path(
    rule: &Rule,
    rel_path: &str,
    tokens: &[Token],
    patterns: &[Vec<String>],
    include_tests: bool,
    out: &mut Vec<Finding>,
) {
    let spans = if include_tests {
        Vec::new()
    } else {
        test_spans(tokens)
    };
    let in_test = |idx: usize| spans.iter().any(|&(s, e)| idx >= s && idx < e);
    for pattern in patterns {
        for at in 0..tokens.len() {
            if !texts_match(tokens, at, pattern) {
                continue;
            }
            // Boundary: `my::std::net` is not `std::net`. Patterns that
            // deliberately start mid-path (e.g. `Instant::now`) still
            // match fully qualified uses via a companion absolute
            // pattern in the same rule.
            if at > 0 && tokens[at - 1].text == "::" {
                continue;
            }
            if in_test(at) {
                continue;
            }
            out.push(Finding {
                file: rel_path.to_string(),
                line: tokens[at].line,
                rule: rule.id.clone(),
                message: format!("forbidden path `{}`: {}", pattern.concat(), rule.reason),
            });
        }
    }
}

// ---------------------------------------------------------------- no-unwrap

/// Token index ranges covered by `#[cfg(test)]` / `#[test]` items
/// (attribute through the end of the following brace block or statement).
pub(crate) fn test_spans(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].text != "#" || tokens.get(i + 1).map(|t| t.text.as_str()) != Some("[") {
            i += 1;
            continue;
        }
        // Collect the attribute tokens up to the matching `]`.
        let mut j = i + 2;
        let mut depth = 1usize;
        let mut attr = Vec::new();
        while j < tokens.len() && depth > 0 {
            match tokens[j].text.as_str() {
                "[" => depth += 1,
                "]" => depth -= 1,
                _ => {}
            }
            if depth > 0 {
                attr.push(tokens[j].text.as_str());
            }
            j += 1;
        }
        let is_test_attr = matches!(attr.first().copied(), Some("test"))
            || (matches!(attr.first().copied(), Some("cfg")) && attr.contains(&"test"));
        if !is_test_attr {
            i = j;
            continue;
        }
        // Skip any further attributes, then cover the item: through the
        // matching `}` of its first brace block, or to a `;` for
        // brace-less items.
        let mut k = j;
        loop {
            match tokens.get(k).map(|t| t.text.as_str()) {
                Some("#") if tokens.get(k + 1).map(|t| t.text.as_str()) == Some("[") => {
                    let mut d = 1usize;
                    k += 2;
                    while k < tokens.len() && d > 0 {
                        match tokens[k].text.as_str() {
                            "[" => d += 1,
                            "]" => d -= 1,
                            _ => {}
                        }
                        k += 1;
                    }
                }
                Some(";") => {
                    spans.push((i, k));
                    break;
                }
                Some("{") => {
                    let mut d = 1usize;
                    k += 1;
                    while k < tokens.len() && d > 0 {
                        match tokens[k].text.as_str() {
                            "{" => d += 1,
                            "}" => d -= 1,
                            _ => {}
                        }
                        k += 1;
                    }
                    spans.push((i, k));
                    break;
                }
                Some(_) => k += 1,
                None => {
                    spans.push((i, tokens.len()));
                    break;
                }
            }
        }
        i = j;
    }
    spans
}

fn no_unwrap(
    rule: &Rule,
    rel_path: &str,
    tokens: &[Token],
    methods: &[String],
    out: &mut Vec<Finding>,
) {
    let spans = test_spans(tokens);
    let in_test = |idx: usize| spans.iter().any(|&(s, e)| idx >= s && idx < e);
    for at in 0..tokens.len() {
        if tokens[at].text != "." {
            continue;
        }
        let Some(method) = tokens.get(at + 1) else {
            continue;
        };
        if !methods.contains(&method.text) {
            continue;
        }
        if tokens.get(at + 2).map(|t| t.text.as_str()) != Some("(") {
            continue;
        }
        if in_test(at) {
            continue;
        }
        out.push(Finding {
            file: rel_path.to_string(),
            line: method.line,
            rule: rule.id.clone(),
            message: format!(".{}() outside test code: {}", method.text, rule.reason),
        });
    }
}

// --------------------------------------------------------------- crate-attr

fn crate_attr(
    rule: &Rule,
    rel_path: &str,
    tokens: &[Token],
    attr_tokens: &[String],
    attr_text: &str,
    out: &mut Vec<Finding>,
) {
    // Expected shape: `#` `!` `[` <attr tokens> `]`.
    let mut expected: Vec<String> = vec!["#".into(), "!".into(), "[".into()];
    expected.extend(attr_tokens.iter().cloned());
    expected.push("]".into());
    let found = (0..tokens.len()).any(|at| texts_match(tokens, at, &expected));
    if !found {
        out.push(Finding {
            file: rel_path.to_string(),
            line: 1,
            rule: rule.id.clone(),
            message: format!("missing `#![{attr_text}]`: {}", rule.reason),
        });
    }
}

// -------------------------------------------------------- no-index-hot-path

/// Keywords that may directly precede a `[` without it being an index
/// expression (`for x in [..]`, `return [..]`, …).
const NON_INDEX_KEYWORDS: [&str; 22] = [
    "as", "async", "await", "box", "break", "const", "continue", "dyn", "else", "for", "if", "in",
    "let", "loop", "match", "move", "mut", "ref", "return", "static", "while", "yield",
];

/// Flag `expr[...]` indexing outside test code: on hot paths an
/// out-of-bounds index is a process-killing panic (the `breakers[peer]`
/// class). A `[` is an index when it directly follows an identifier, a
/// `)`, or a `]` — array literals, types, attributes, and macros all
/// follow punctuation or a `!` instead.
fn no_index_hot_path(rule: &Rule, rel_path: &str, tokens: &[Token], out: &mut Vec<Finding>) {
    let spans = test_spans(tokens);
    let in_test = |idx: usize| spans.iter().any(|&(s, e)| idx >= s && idx < e);
    for at in 1..tokens.len() {
        if tokens[at].text != "[" {
            continue;
        }
        let prev = &tokens[at - 1];
        let indexable = (is_ident(prev) && !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()))
            || prev.text == ")"
            || prev.text == "]";
        if !indexable || in_test(at) {
            continue;
        }
        out.push(Finding {
            file: rel_path.to_string(),
            line: tokens[at].line,
            rule: rule.id.clone(),
            message: format!(
                "`{}[..]` indexing can panic out-of-bounds: {}",
                prev.text, rule.reason
            ),
        });
    }
}

// -------------------------------------------------------------- paired-call

/// A function item: its name and the token span of its body.
#[derive(Debug)]
pub(crate) struct FnSpan {
    pub name: String,
    /// Index of the `fn` keyword.
    pub start: usize,
    /// Index of the body `{`.
    pub body: usize,
    /// Index one past the matching `}`.
    pub end: usize,
}

/// All `fn` items with bodies, in source order. Nested functions produce
/// nested (overlapping) spans; callers pick the innermost for a site.
pub(crate) fn fn_spans(tokens: &[Token]) -> Vec<FnSpan> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].text != "fn" {
            i += 1;
            continue;
        }
        let Some(name_tok) = tokens.get(i + 1) else {
            break;
        };
        if !is_ident(name_tok) {
            // `fn(u32) -> u32` pointer type, not an item.
            i += 2;
            continue;
        }
        // Find the body `{`; a `;` first means a bodiless trait method.
        let mut j = i + 2;
        let mut body = None;
        while j < tokens.len() {
            match tokens[j].text.as_str() {
                ";" => break,
                "{" => {
                    body = Some(j);
                    break;
                }
                _ => j += 1,
            }
        }
        let Some(body) = body else {
            i = j + 1;
            continue;
        };
        let mut depth = 1usize;
        let mut k = body + 1;
        while k < tokens.len() && depth > 0 {
            match tokens[k].text.as_str() {
                "{" => depth += 1,
                "}" => depth -= 1,
                _ => {}
            }
            k += 1;
        }
        spans.push(FnSpan {
            name: name_tok.text.clone(),
            start: i,
            body,
            end: k,
        });
        i += 2; // nested fns are found by continuing the scan
    }
    spans
}

/// The innermost function span containing token index `at`.
pub(crate) fn innermost_fn(spans: &[FnSpan], at: usize) -> Option<&FnSpan> {
    spans
        .iter()
        .filter(|s| at > s.start && at < s.end)
        .min_by_key(|s| s.end - s.start)
}

/// Every `.acquire(` call site must be settled by one of the release
/// calls somewhere in the same function — an acquire whose result leaves
/// the function unsettled is how the probe-grant leak happened. The
/// functions *defining* the pair (named like the acquire or a release)
/// are exempt, as are test items. Cross-function settlement protocols
/// carry a justified `// lint: allow` at the acquire site.
fn paired_call(
    rule: &Rule,
    rel_path: &str,
    tokens: &[Token],
    acquire: &str,
    releases: &[String],
    out: &mut Vec<Finding>,
) {
    let tests = test_spans(tokens);
    let in_test = |idx: usize| tests.iter().any(|&(s, e)| idx >= s && idx < e);
    let fns = fn_spans(tokens);
    for at in 1..tokens.len() {
        if tokens[at].text != acquire
            || tokens[at - 1].text != "."
            || tokens.get(at + 1).map(|t| t.text.as_str()) != Some("(")
        {
            continue;
        }
        if in_test(at) {
            continue;
        }
        let Some(span) = innermost_fn(&fns, at) else {
            continue;
        };
        if span.name == acquire || releases.contains(&span.name) {
            continue;
        }
        let settled = (span.body..span.end).any(|k| {
            releases.iter().any(|r| *r == tokens[k].text)
                && tokens.get(k + 1).map(|t| t.text.as_str()) == Some("(")
                && tokens[k - 1].text != "fn"
        });
        if !settled {
            out.push(Finding {
                file: rel_path.to_string(),
                line: tokens[at].line,
                rule: rule.id.clone(),
                message: format!(
                    "`.{acquire}(...)` in fn `{}` is never settled by {}: {}",
                    span.name,
                    releases
                        .iter()
                        .map(|r| format!("`{r}()`"))
                        .collect::<Vec<_>>()
                        .join("/"),
                    rule.reason
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::parse_rules;

    fn findings(rules_src: &str, code: &str) -> Vec<(u32, String)> {
        let rules = parse_rules(rules_src).unwrap();
        let lexed = lex(code);
        let mut out = Vec::new();
        for rule in &rules {
            run_rule(rule, "f.rs", &lexed, &mut out);
        }
        out.into_iter().map(|f| (f.line, f.rule)).collect()
    }

    const NET: &str = r#"
[[rule]]
id = "no-std-net"
kind = "forbidden-path"
patterns = ["std::net"]
reason = "r"
paths = ["**"]
"#;

    #[test]
    fn forbidden_path_matches_code_not_prose() {
        let got = findings(
            NET,
            "use std::net::TcpStream;\n// std::net in a comment\nlet s = \"std::net\";\nmy::std::net::x();",
        );
        assert_eq!(got, [(1, "no-std-net".to_string())]);
    }

    #[test]
    fn forbidden_path_test_spans_depend_on_include_tests() {
        let code = "\
#[cfg(test)]
mod tests {
    fn t() { let s = std::net::TcpStream::connect(\"x\"); }
}
";
        // Default: test items are excluded (timing tests may read clocks).
        assert_eq!(findings(NET, code), []);
        // Opt in: the ban reaches into tests too.
        let strict = NET.replace("reason", "include-tests = true\nreason");
        assert_eq!(findings(&strict, code), [(3, "no-std-net".to_string())]);
    }

    const UNWRAP: &str = r#"
[[rule]]
id = "no-unwrap"
kind = "no-unwrap"
reason = "r"
paths = ["**"]
"#;

    #[test]
    fn unwrap_flagged_outside_tests_only() {
        let code = "\
fn live() { x.unwrap(); y.expect(\"m\"); }
#[cfg(test)]
mod tests {
    fn t() { z.unwrap(); }
}
#[test]
fn one() { q.unwrap(); }
fn live2() { r.unwrap(); }
";
        let got = findings(UNWRAP, code);
        assert_eq!(
            got,
            [
                (1, "no-unwrap".to_string()),
                (1, "no-unwrap".to_string()),
                (8, "no-unwrap".to_string()),
            ]
        );
    }

    const ATTR: &str = r#"
[[rule]]
id = "forbid-unsafe"
kind = "crate-attr"
attr = "forbid(unsafe_code)"
reason = "r"
paths = ["**"]
"#;

    #[test]
    fn crate_attr_required() {
        assert_eq!(findings(ATTR, "#![forbid(unsafe_code)]\nfn x() {}"), []);
        assert_eq!(
            findings(ATTR, "//! docs only\nfn x() {}"),
            [(1, "forbid-unsafe".to_string())]
        );
    }

    const INDEX: &str = r#"
[[rule]]
id = "no-index"
kind = "no-index-hot-path"
reason = "r"
paths = ["**"]
"#;

    #[test]
    fn indexing_flagged_but_literals_types_macros_are_not() {
        let code = "\
fn hot(xs: &[u32], i: usize) -> u32 {
    let a = [1u32, 2, 3];
    let v = vec![0u8; 4];
    #[allow(dead_code)]
    let t: [u8; 2] = [0, 1];
    for x in [1, 2] { let _ = x; }
    xs[i] + a[0]
}
#[test]
fn t() { assert_eq!(xs[0], 1); }
";
        let got = findings(INDEX, code);
        assert_eq!(
            got,
            [(7, "no-index".to_string()), (7, "no-index".to_string())]
        );
    }

    #[test]
    fn chained_and_call_result_indexing_flagged() {
        let code = "fn f() { m[0][1]; g()[2]; }";
        assert_eq!(findings(INDEX, code).len(), 3);
    }

    const PAIRED: &str = r#"
[[rule]]
id = "grant-leak"
kind = "paired-call"
acquire = "allow_probe"
release = ["record_probe", "cancel_probe"]
reason = "r"
paths = ["**"]
"#;

    #[test]
    fn paired_call_requires_settlement_in_same_fn() {
        let ok = "\
fn probe(&mut self) {
    if self.m.allow_probe(p, now) {
        let r = send(p);
        self.m.record_probe(p, r.is_ok(), now);
    }
}
";
        assert_eq!(findings(PAIRED, ok), []);
        let leak = "\
fn probe(&mut self) -> bool {
    self.m.allow_probe(p, now)
}
";
        assert_eq!(findings(PAIRED, leak), [(2, "grant-leak".to_string())]);
        // The defining/settling functions themselves are exempt.
        let defs = "\
fn allow_probe(&mut self) -> bool { self.b.allow_probe(now) }
fn cancel_probe(&mut self) { self.inner.allow_probe(p, now); }
";
        assert_eq!(findings(PAIRED, defs), []);
        // Test code is exempt.
        let test = "#[test]\nfn t() { m.allow_probe(p, now); }";
        assert_eq!(findings(PAIRED, test), []);
    }

    #[test]
    fn fn_spans_find_nested_functions() {
        let lexed = lex("fn outer() { fn inner() { a(); } b(); }");
        let spans = fn_spans(&lexed.tokens);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].name, "inner");
        let a_at = lexed.tokens.iter().position(|t| t.text == "a").unwrap();
        assert_eq!(innermost_fn(&spans, a_at).unwrap().name, "inner");
        let b_at = lexed.tokens.iter().position(|t| t.text == "b").unwrap();
        assert_eq!(innermost_fn(&spans, b_at).unwrap().name, "outer");
    }
}
