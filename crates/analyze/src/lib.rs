//! `coic-analyze`: the in-tree static analysis pass that enforces the
//! workspace's sans-IO and concurrency invariants.
//!
//! The architecture keeps every decision — scheduling, caching,
//! admission — inside pure, deterministic crates and pushes I/O and real
//! time to the edges (`netrun`, `cli`). Nothing in the language enforces
//! that split, so this crate does: it lexes every `.rs` file in the
//! workspace (no rustc, no external deps) and runs rules from a
//! checked-in `analyze/rules.toml`.
//!
//! Per-file, token-level rules:
//!
//! * `forbidden-path` — e.g. `std::net` or `Instant::now` in sans-IO
//!   crates;
//! * `no-unwrap` — `.unwrap()` / `.expect()` outside `#[cfg(test)]`;
//! * `crate-attr` — required inner attributes such as
//!   `#![forbid(unsafe_code)]`;
//! * `no-index-hot-path` — bracket indexing on hot paths (the
//!   `members[peer]` panic class);
//! * `paired-call` — an acquire call must be settled by a matching
//!   release in the same function (slot/grant leak class);
//! * `protocol-conformance` — the `Msg` wire enum's tags stay unique and
//!   dense and every variant has encode and decode arms.
//!
//! Workspace-level rules (need every matched file at once; run only
//! under [`lint_root`]):
//!
//! * `lock-order-graph` — a global lock-acquisition graph; any cycle is
//!   a finding with the witnessing `file:line` chain;
//! * `telemetry-registry` — every counter/event name literal must be
//!   declared in `analyze/telemetry.toml`, declarations must be live,
//!   and paired counter↔event names must move together;
//! * `unreachable-pub` — a `pub` item that no binary, test, example or
//!   benchmark reaches (rustc's `dead_code` cannot see `pub` items; the
//!   `reach` module documents what counts as a use).
//!
//! Always on: a rule whose `paths` or `exempt` glob matches no workspace
//! file is itself a finding (`dead-exemption`) — a stale carve-out
//! silently widens a rule's blind spot, and a mistyped scope makes the
//! rule check nothing.
//!
//! The crate also ships a runtime companion: `run_trace_check` (the
//! `coic analyze trace` subcommand) verifies declarative invariants
//! from `analyze/trace_invariants.toml` against a seeded run's
//! decision-trace JSONL and metrics dump — see [`trace`].
//!
//! Violations report file, line, rule id, and reason. A finding can be
//! suppressed in place with a justified escape hatch on the same line or
//! the line above:
//!
//! ```text
//! // lint: allow(no-wall-clock, the wall-clock adapter is the one place real time enters)
//! ```
//!
//! A malformed or reason-less directive is itself a finding
//! (`malformed-allow-directive`) — silent rot of suppressions is worse
//! than noise.

#![forbid(unsafe_code)]

mod checks;
mod glob;
mod json;
mod lexer;
mod lockgraph;
mod reach;
mod rules;
mod semantic;
mod telemetry;
mod toml;
pub mod trace;

pub use rules::{parse_rules, Rule, RuleKind};
pub use trace::run_trace_check;

use std::fmt;
use std::path::{Path, PathBuf};

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative, `/`-separated path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// The rule id (citable in `// lint: allow(id, reason)`).
    pub rule: String,
    /// What went wrong and why the rule exists.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Rule id attached to broken `lint: allow` comments.
pub const MALFORMED_ALLOW: &str = "malformed-allow-directive";

/// A parsed `// lint: allow(rule-id, reason)` directive.
struct AllowDirective {
    rule: String,
    line: u32,
}

/// Extract allow directives from comments; malformed ones (missing id,
/// missing reason, bad syntax) become findings instead of suppressions.
fn parse_allows(
    rel_path: &str,
    comments: &[lexer::Comment],
    out: &mut Vec<Finding>,
) -> Vec<AllowDirective> {
    let mut allows = Vec::new();
    for comment in comments {
        let text = comment.text.trim();
        let Some(rest) = text.strip_prefix("lint:") else {
            continue;
        };
        let rest = rest.trim();
        let body = rest
            .strip_prefix("allow")
            .map(str::trim_start)
            .and_then(|r| r.strip_prefix('('))
            .and_then(|r| r.strip_suffix(')'));
        let parsed = body
            .and_then(|b| b.split_once(','))
            .and_then(|(id, reason)| {
                let id = id.trim();
                let reason = reason.trim();
                let id_ok = !id.is_empty()
                    && id
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_');
                (id_ok && !reason.is_empty()).then(|| (id.to_string(), reason))
            });
        match parsed {
            Some((rule, _reason)) => allows.push(AllowDirective {
                rule,
                line: comment.line,
            }),
            None => out.push(Finding {
                file: rel_path.to_string(),
                line: comment.line,
                rule: MALFORMED_ALLOW.to_string(),
                message: format!(
                    "expected `lint: allow(rule-id, reason)`, got `lint:{rest}` \
                     (a reason is required)",
                    rest = if rest.is_empty() { "" } else { " " }.to_string() + rest,
                ),
            }),
        }
    }
    allows
}

/// Does an allow directive cover a finding? Same line, or the line
/// directly above (a comment on its own line).
fn allowed(finding: &Finding, allows: &[AllowDirective]) -> bool {
    allows
        .iter()
        .any(|a| a.rule == finding.rule && (a.line == finding.line || a.line + 1 == finding.line))
}

/// Recursively collect `.rs` files under `root`, skipping build output
/// and VCS internals. Paths come back workspace-relative, `/`-separated,
/// sorted — the scan order never depends on directory enumeration order.
pub fn collect_rust_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    // `fixtures` trees hold deliberately-violating lint test inputs.
    const SKIP_DIRS: [&str; 4] = ["target", ".git", "node_modules", "fixtures"];
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Workspace-relative `/`-separated form of `path` under `root`.
fn relative(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Rule id of the built-in dead-exemption config check.
pub const DEAD_EXEMPTION: &str = "dead-exemption";

/// One lexed workspace file, ready for per-file and workspace passes.
struct FileRec {
    rel: String,
    lexed: lexer::Lexed,
    allows: Vec<AllowDirective>,
}

/// Lint every `.rs` file under `root` against the rules file at
/// `rules_path`: per-file rules, then workspace-level passes
/// (lock-order graph, telemetry registry, unreachable pub items), then
/// the built-in dead-glob config audit. Findings are sorted (file, line,
/// rule).
pub fn lint_root(root: &Path, rules_path: &Path) -> Result<Vec<Finding>, String> {
    let rules_src = std::fs::read_to_string(rules_path)
        .map_err(|e| format!("{}: {e}", rules_path.display()))?;
    let rules = parse_rules(&rules_src).map_err(|e| format!("{}: {e}", rules_path.display()))?;
    let rules_rel = relative(root, rules_path);

    // Lex every file once; workspace passes and per-file rules share the
    // token streams.
    let mut findings = Vec::new(); // malformed-allow: never suppressible
    let mut files = Vec::new();
    for path in collect_rust_files(root)? {
        let source =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let rel = relative(root, &path);
        let lexed = lexer::lex(&source);
        let allows = parse_allows(&rel, &lexed.comments, &mut findings);
        files.push(FileRec { rel, lexed, allows });
    }

    let mut raw = Vec::new();
    for rec in &files {
        for rule in rules
            .iter()
            .filter(|r| !r.kind.is_workspace() && r.applies_to(&rec.rel))
        {
            checks::run_rule(rule, &rec.rel, &rec.lexed, &mut raw);
        }
    }

    for rule in rules.iter().filter(|r| r.kind.is_workspace()) {
        match &rule.kind {
            RuleKind::LockOrderGraph {
                declared,
                receivers,
            } => {
                let mut edges = lockgraph::Edges::new();
                for rec in files.iter().filter(|rec| rule.applies_to(&rec.rel)) {
                    lockgraph::collect_edges(&rec.rel, &rec.lexed.tokens, receivers, &mut edges);
                }
                lockgraph::declared_edges(declared, &rules_rel, rule.line, &mut edges);
                lockgraph::report_cycles(rule, &mut edges, &mut raw);
            }
            RuleKind::TelemetryRegistry { registry } => {
                let reg_path = root.join(registry);
                let reg_src = std::fs::read_to_string(&reg_path)
                    .map_err(|e| format!("{}: {e}", reg_path.display()))?;
                let reg = telemetry::parse_registry(&reg_src)
                    .map_err(|e| format!("{}: {e}", reg_path.display()))?;
                let matched: Vec<(&str, &lexer::Lexed)> = files
                    .iter()
                    .filter(|rec| rule.applies_to(&rec.rel))
                    .map(|rec| (rec.rel.as_str(), &rec.lexed))
                    .collect();
                telemetry::run(rule, &reg, registry, &matched, &mut raw);
            }
            RuleKind::UnreachablePub => reach::run(rule, &files, &mut raw),
            _ => unreachable!("is_workspace() covers exactly these kinds"),
        }
    }

    // Config audit: a `paths` or `exempt` glob no collected file matches
    // is dead — it either outlived a rename or never matched at all. A
    // dead exemption hides what the author thought was covered; a dead
    // scope (a typo in `paths`) makes the rule pass while checking nothing.
    for rule in &rules {
        let globs = rule
            .paths
            .iter()
            .map(|g| (g, "scopes", "fix or remove the glob"));
        let globs = globs.chain(
            rule.exempt
                .iter()
                .map(|g| (g, "exempts", "remove the stale carve-out")),
        );
        for (g, verb, fix) in globs {
            if !files.iter().any(|rec| glob::glob_match(g, &rec.rel)) {
                raw.push(Finding {
                    file: rules_rel.clone(),
                    line: rule.line,
                    rule: DEAD_EXEMPTION.to_string(),
                    message: format!(
                        "rule `{}` {verb} `{g}` but no workspace file matches it ({fix})",
                        rule.id
                    ),
                });
            }
        }
    }

    // In-place allows suppress workspace findings too: lookup is by the
    // finding's file, so a justified escape hatch works the same whether
    // the rule ran per-file or globally.
    for f in raw {
        let allows = files
            .iter()
            .find(|rec| rec.rel == f.file)
            .map(|rec| rec.allows.as_slice())
            .unwrap_or(&[]);
        if !allowed(&f, allows) {
            findings.push(f);
        }
    }
    findings.sort();
    findings.dedup();
    Ok(findings)
}

/// Entry point shared by the standalone binary and the `coic lint`
/// subcommand: lint, print findings to `out`, return whether the tree is
/// clean.
pub fn run_lint(root: &Path, rules_path: &Path, out: &mut dyn fmt::Write) -> Result<bool, String> {
    let findings = lint_root(root, rules_path)?;
    for finding in &findings {
        writeln!(out, "{finding}").map_err(|e| e.to_string())?;
    }
    if findings.is_empty() {
        writeln!(out, "lint clean").map_err(|e| e.to_string())?;
    } else {
        writeln!(out, "{} finding(s)", findings.len()).map_err(|e| e.to_string())?;
    }
    Ok(findings.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lint a temporary tree of `files` (workspace-relative path, source)
    /// against `rules` with [`lint_root`], then remove the tree.
    pub(crate) fn lint_tree(rules: &str, files: &[(&str, &str)]) -> Vec<Finding> {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let root = std::env::temp_dir().join(format!(
            "coic-analyze-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        for (rel, source) in files {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().expect("file under root")).expect("mkdir");
            std::fs::write(&path, source).expect("write source");
        }
        std::fs::write(root.join("rules.toml"), rules).expect("write rules");
        let findings = lint_root(&root, &root.join("rules.toml")).expect("lint");
        std::fs::remove_dir_all(&root).expect("remove tree");
        findings
    }

    /// Lint one file's source text against `rules`' per-file kinds, the
    /// way [`lint_root`] lints each collected file.
    fn lint_source(rel_path: &str, source: &str, rules: &[Rule]) -> Vec<Finding> {
        let lexed = lexer::lex(source);
        let mut out = Vec::new();
        let allows = parse_allows(rel_path, &lexed.comments, &mut out);
        let mut raw = Vec::new();
        for rule in rules.iter().filter(|r| r.applies_to(rel_path)) {
            checks::run_rule(rule, rel_path, &lexed, &mut raw);
        }
        out.extend(raw.into_iter().filter(|f| !allowed(f, &allows)));
        out.sort();
        out
    }

    const RULES: &str = r#"
[[rule]]
id = "no-std-net"
kind = "forbidden-path"
patterns = ["std::net"]
reason = "sans-IO"
paths = ["src/**"]
exempt = ["src/io/**"]
"#;

    #[test]
    fn scoping_and_suppression() {
        let rules = parse_rules(RULES).unwrap();
        let code = "use std::net::TcpStream;\n";
        assert_eq!(lint_source("src/core.rs", code, &rules).len(), 1);
        // Exempt path: no finding.
        assert_eq!(lint_source("src/io/listener.rs", code, &rules), []);
        // Out of scope entirely.
        assert_eq!(lint_source("tests/net.rs", code, &rules), []);
        // Same-line allow.
        let same = "use std::net::TcpStream; // lint: allow(no-std-net, test fixture)\n";
        assert_eq!(lint_source("src/core.rs", same, &rules), []);
        // Line-above allow.
        let above = "// lint: allow(no-std-net, test fixture)\nuse std::net::TcpStream;\n";
        assert_eq!(lint_source("src/core.rs", above, &rules), []);
        // Wrong rule id does not suppress.
        let wrong = "// lint: allow(other-rule, nope)\nuse std::net::TcpStream;\n";
        assert_eq!(lint_source("src/core.rs", wrong, &rules).len(), 1);
        // Two lines above does not suppress.
        let far = "// lint: allow(no-std-net, too far)\n\nuse std::net::TcpStream;\n";
        assert_eq!(lint_source("src/core.rs", far, &rules).len(), 1);
    }

    #[test]
    fn malformed_allow_is_a_finding() {
        let rules = parse_rules(RULES).unwrap();
        for bad in [
            "// lint: allow(no-std-net)\n",      // no reason
            "// lint: allow()\n",                // nothing
            "// lint: allow no-std-net, x\n",    // no parens
            "// lint: allow(bad id!, reason)\n", // bad id chars
        ] {
            let got = lint_source("src/core.rs", bad, &rules);
            assert_eq!(got.len(), 1, "{bad:?} -> {got:?}");
            assert_eq!(got[0].rule, MALFORMED_ALLOW, "{bad:?}");
        }
        // Ordinary comments mentioning lint are left alone.
        assert_eq!(
            lint_source("src/core.rs", "// the lint pass checks this\n", &rules),
            []
        );
    }

    #[test]
    fn a_scope_glob_matching_no_file_is_a_dead_exemption() {
        let got = lint_tree(RULES, &[("src/core.rs", "fn f() {}\n")]);
        // `src/**` matches; `src/io/**` (the exempt glob) does not.
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("exempts `src/io/**`"), "{got:?}");
        let typo = RULES.replace("paths = [\"src/**\"]", "paths = [\"scr/**\"]");
        let got = lint_tree(
            &typo,
            &[("src/core.rs", "fn f() {}\n"), ("src/io/a.rs", "")],
        );
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(
            (got[0].file.as_str(), got[0].line, got[0].rule.as_str()),
            ("rules.toml", 2, DEAD_EXEMPTION)
        );
        assert!(got[0].message.contains("scopes `scr/**`"), "{got:?}");
    }

    #[test]
    fn findings_are_sorted_and_printable() {
        let rules = parse_rules(RULES).unwrap();
        let code = "fn b() { std::net::x(); }\nfn a() { std::net::y(); }\n";
        let got = lint_source("src/core.rs", code, &rules);
        assert_eq!(got.len(), 2);
        assert!(got[0].line < got[1].line);
        let shown = got[0].to_string();
        assert!(shown.starts_with("src/core.rs:1: [no-std-net]"), "{shown}");
    }
}
