//! Rule configuration: the checked-in `rules.toml` schema.
//!
//! ```toml
//! version = 1
//!
//! [[rule]]
//! id = "no-std-net"              # cited in findings and allow() comments
//! kind = "forbidden-path"        # see RuleKind
//! patterns = ["std::net"]        # token sequences (forbidden-path)
//! reason = "sans-IO: ..."        # human explanation shown per finding
//! paths = ["crates/*/src/**"]    # globs the rule applies to
//! exempt = ["crates/cli/**"]     # globs carved out again
//! ```
//!
//! Kinds and their extra keys:
//! * `forbidden-path` — `patterns`: token sequences that must not appear.
//! * `no-unwrap` — `methods` (optional, default `["unwrap", "expect"]`):
//!   method calls banned outside `#[cfg(test)]` / `#[test]` items.
//! * `crate-attr` — `attr`: an inner attribute (e.g. `forbid(unsafe_code)`)
//!   every matched file must carry.
//! * `no-index-hot-path` — bracket indexing (`xs[i]`, `&buf[..n]`) banned
//!   outside test code; provably-bounded sites carry `// lint: allow`.
//! * `paired-call` — `acquire`/`release`: a method call whose result must
//!   be settled by one of the release calls in the same function.
//! * `protocol-conformance` — `enum` (default `Msg`), `tag-fn` (default
//!   `tag`), `decode-fn` (default `decode`), `require-in` (default
//!   `["encode", "encoded_len"]`): wire-tag/arm consistency for the
//!   protocol enum.
//! * `lock-order-graph` — `declared` (optional `"a -> b"` edges),
//!   `receivers` (optional allowlist): a global acquisition graph over
//!   all matched files; any cycle is a finding. Workspace-level.
//! * `telemetry-registry` — `registry`: path (from the workspace root) to
//!   the telemetry name registry every metric/event literal must be
//!   declared in. Workspace-level.
//! * `unreachable-pub` — no extra keys: a `pub` item in a matched file
//!   that no binary, test, example or benchmark reaches. Workspace-level.

use crate::lexer;
use crate::toml::{self, Table};

/// What a rule checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleKind {
    /// Token sequences that must not appear in code.
    ForbiddenPath {
        /// Each pattern, pre-lexed into its token texts.
        patterns: Vec<Vec<String>>,
        /// Whether matches inside `#[cfg(test)]` / `#[test]` items count.
        /// Defaults to false: timing tests may read real clocks, but e.g.
        /// socket bans set it to true — tests of sans-IO crates must stay
        /// sans-IO as well.
        include_tests: bool,
    },
    /// `.unwrap()` / `.expect()` (configurable) outside test code.
    NoUnwrap {
        /// Banned method names.
        methods: Vec<String>,
    },
    /// A required inner attribute, e.g. `forbid(unsafe_code)`.
    CrateAttr {
        /// The attribute body, pre-lexed into token texts.
        attr_tokens: Vec<String>,
        /// Human-readable form for messages.
        attr_text: String,
    },
    /// Bracket indexing outside test code: the `breakers[peer]` panic
    /// class. Bounded sites are suppressed in place with an allow.
    NoIndexHotPath,
    /// An acquire call whose result must be settled by a release call in
    /// the same function (the probe-grant / admission-slot leak class).
    PairedCall {
        /// Method name whose call sites start an obligation.
        acquire: String,
        /// Method names that settle it.
        releases: Vec<String>,
    },
    /// Wire-protocol conformance for a tagged enum: tags unique and
    /// dense, decode arms match `tag()`, every variant present in the
    /// required functions.
    ProtocolConformance {
        /// The enum name (`Msg`).
        enum_name: String,
        /// The tag-assignment method name.
        tag_fn: String,
        /// The decode function name.
        decode_fn: String,
        /// Functions whose bodies must mention every variant.
        require_in: Vec<String>,
    },
    /// Workspace-level: a global lock-acquisition graph built from every
    /// matched file; cycles (including against `declared` edges) are
    /// findings with the witnessing file:line chain.
    LockOrderGraph {
        /// Extra `(first, then)` edges declared in config.
        declared: Vec<(String, String)>,
        /// If non-empty, only these receiver names are tracked.
        receivers: Vec<String>,
    },
    /// Workspace-level: every telemetry name literal must be declared in
    /// the registry file, declarations must be live, and counter↔event
    /// pairs must be bumped/emitted from the same sites.
    TelemetryRegistry {
        /// Registry path, relative to the lint root.
        registry: String,
    },
    /// Workspace-level: a `pub` item in a matched file that no file
    /// outside its own span, test code and re-exports names — see
    /// `reach`.
    UnreachablePub,
}

impl RuleKind {
    /// Workspace-level kinds need every matched file at once; `lint_root`
    /// runs them once over the whole tree, not file by file.
    pub fn is_workspace(&self) -> bool {
        matches!(
            self,
            RuleKind::LockOrderGraph { .. }
                | RuleKind::TelemetryRegistry { .. }
                | RuleKind::UnreachablePub
        )
    }
}

/// One configured rule.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Identifier cited in findings and `// lint: allow(id, why)`.
    pub id: String,
    /// Human explanation attached to findings.
    pub reason: String,
    /// Globs selecting the files this rule applies to.
    pub paths: Vec<String>,
    /// Globs carved back out of `paths`.
    pub exempt: Vec<String>,
    /// 1-based line of this rule's `[[rule]]` header in the rules file
    /// (anchors findings about the config itself, e.g. dead exemptions).
    pub line: u32,
    /// The check itself.
    pub kind: RuleKind,
}

impl Rule {
    /// Does this rule apply to `rel_path`?
    pub fn applies_to(&self, rel_path: &str) -> bool {
        self.paths
            .iter()
            .any(|p| crate::glob::glob_match(p, rel_path))
            && !self
                .exempt
                .iter()
                .any(|p| crate::glob::glob_match(p, rel_path))
    }
}

/// Parse a rules file. Unknown kinds, missing ids, and schema errors all
/// fail parsing — a broken config must not silently lint nothing.
pub fn parse_rules(source: &str) -> Result<Vec<Rule>, String> {
    let doc = toml::parse(source)?;
    let tables = doc.tables.get("rule").map(Vec::as_slice).unwrap_or(&[]);
    let lines = doc
        .table_lines
        .get("rule")
        .map(Vec::as_slice)
        .unwrap_or(&[]);
    if tables.is_empty() {
        return Err("rules file defines no [[rule]] tables".into());
    }
    let mut rules = Vec::new();
    for (i, (table, line)) in tables.iter().zip(lines).enumerate() {
        rules.push(parse_rule(table, *line).map_err(|e| format!("[[rule]] #{}: {e}", i + 1))?);
    }
    let mut ids: Vec<&str> = rules.iter().map(|r| r.id.as_str()).collect();
    ids.sort_unstable();
    ids.dedup();
    if ids.len() != rules.len() {
        return Err("duplicate rule ids".into());
    }
    Ok(rules)
}

fn get_str(table: &Table, key: &str) -> Result<String, String> {
    table
        .get(key)
        .ok_or_else(|| format!("missing key `{key}`"))?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("key `{key}` must be a string"))
}

fn opt_str(table: &Table, key: &str, default: &str) -> Result<String, String> {
    match table.get(key) {
        None => Ok(default.to_string()),
        Some(v) => v
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("key `{key}` must be a string")),
    }
}

fn get_str_array(table: &Table, key: &str) -> Result<Vec<String>, String> {
    table
        .get(key)
        .ok_or_else(|| format!("missing key `{key}`"))?
        .as_str_array()
        .map(<[String]>::to_vec)
        .ok_or_else(|| format!("key `{key}` must be an array of strings"))
}

fn opt_str_array(table: &Table, key: &str) -> Result<Vec<String>, String> {
    match table.get(key) {
        None => Ok(Vec::new()),
        Some(v) => v
            .as_str_array()
            .map(<[String]>::to_vec)
            .ok_or_else(|| format!("key `{key}` must be an array of strings")),
    }
}

/// Parse an `"a -> b"` edge declaration.
fn parse_edge(text: &str) -> Result<(String, String), String> {
    let (a, b) = text
        .split_once("->")
        .ok_or_else(|| format!("edge `{text}` must look like \"first -> then\""))?;
    let (a, b) = (a.trim(), b.trim());
    if a.is_empty() || b.is_empty() {
        return Err(format!("edge `{text}` must name both locks"));
    }
    Ok((a.to_string(), b.to_string()))
}

/// Lex a pattern/attribute string into its token texts.
fn lex_tokens(text: &str) -> Result<Vec<String>, String> {
    let lexed = lexer::lex(text);
    if lexed.tokens.is_empty() {
        return Err(format!("`{text}` contains no tokens"));
    }
    Ok(lexed.tokens.into_iter().map(|t| t.text).collect())
}

fn parse_rule(table: &Table, line: usize) -> Result<Rule, String> {
    let id = get_str(table, "id")?;
    let reason = get_str(table, "reason")?;
    let paths = get_str_array(table, "paths")?;
    let exempt = opt_str_array(table, "exempt")?;
    let kind = match get_str(table, "kind")?.as_str() {
        "forbidden-path" => {
            let patterns = get_str_array(table, "patterns")?
                .iter()
                .map(|p| lex_tokens(p))
                .collect::<Result<Vec<_>, _>>()?;
            let include_tests = match table.get("include-tests") {
                None => false,
                Some(toml::Value::Bool(b)) => *b,
                Some(_) => return Err("key `include-tests` must be a boolean".into()),
            };
            RuleKind::ForbiddenPath {
                patterns,
                include_tests,
            }
        }
        "no-unwrap" => {
            let methods = if table.get("methods").is_some() {
                get_str_array(table, "methods")?
            } else {
                vec!["unwrap".into(), "expect".into()]
            };
            RuleKind::NoUnwrap { methods }
        }
        "crate-attr" => {
            let attr_text = get_str(table, "attr")?;
            RuleKind::CrateAttr {
                attr_tokens: lex_tokens(&attr_text)?,
                attr_text,
            }
        }
        "no-index-hot-path" => RuleKind::NoIndexHotPath,
        "paired-call" => {
            let releases = get_str_array(table, "release")?;
            if releases.is_empty() {
                return Err("key `release` must name at least one call".into());
            }
            RuleKind::PairedCall {
                acquire: get_str(table, "acquire")?,
                releases,
            }
        }
        "protocol-conformance" => RuleKind::ProtocolConformance {
            enum_name: opt_str(table, "enum", "Msg")?,
            tag_fn: opt_str(table, "tag-fn", "tag")?,
            decode_fn: opt_str(table, "decode-fn", "decode")?,
            require_in: if table.get("require-in").is_some() {
                get_str_array(table, "require-in")?
            } else {
                vec!["encode".into(), "encoded_len".into()]
            },
        },
        "lock-order-graph" => RuleKind::LockOrderGraph {
            declared: opt_str_array(table, "declared")?
                .iter()
                .map(|e| parse_edge(e))
                .collect::<Result<Vec<_>, _>>()?,
            receivers: opt_str_array(table, "receivers")?,
        },
        "telemetry-registry" => RuleKind::TelemetryRegistry {
            registry: get_str(table, "registry")?,
        },
        "unreachable-pub" => RuleKind::UnreachablePub,
        other => return Err(format!("unknown rule kind `{other}`")),
    };
    Ok(Rule {
        id,
        reason,
        paths,
        exempt,
        line: line as u32,
        kind,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_kind() {
        let rules = parse_rules(
            r#"
[[rule]]
id = "a"
kind = "forbidden-path"
patterns = ["std::net", "Instant::now"]
reason = "r"
paths = ["**"]

[[rule]]
id = "b"
kind = "no-unwrap"
reason = "r"
paths = ["src/**"]
exempt = ["src/gen/**"]

[[rule]]
id = "c"
kind = "crate-attr"
attr = "forbid(unsafe_code)"
reason = "r"
paths = ["*/src/lib.rs"]

[[rule]]
id = "d"
kind = "lock-order-graph"
declared = ["cache -> touches"]
reason = "r"
paths = ["**"]

[[rule]]
id = "e"
kind = "no-index-hot-path"
reason = "r"
paths = ["**"]

[[rule]]
id = "f"
kind = "paired-call"
acquire = "offer"
release = ["release", "note_shed"]
reason = "r"
paths = ["**"]

[[rule]]
id = "g"
kind = "protocol-conformance"
reason = "r"
paths = ["src/protocol.rs"]

[[rule]]
id = "h"
kind = "telemetry-registry"
registry = "analyze/telemetry.toml"
reason = "r"
paths = ["**"]
"#,
        )
        .unwrap();
        assert_eq!(rules.len(), 8);
        assert_eq!(
            rules[0].kind,
            RuleKind::ForbiddenPath {
                patterns: vec![
                    vec!["std".into(), "::".into(), "net".into()],
                    vec!["Instant".into(), "::".into(), "now".into()],
                ],
                include_tests: false,
            }
        );
        assert!(rules[1].applies_to("src/a.rs"));
        assert!(!rules[1].applies_to("src/gen/a.rs"));
        assert!(
            matches!(&rules[2].kind, RuleKind::CrateAttr { attr_tokens, .. }
            if attr_tokens == &["forbid", "(", "unsafe_code", ")"])
        );
        assert!(
            matches!(&rules[3].kind, RuleKind::LockOrderGraph { declared, .. }
            if declared == &[("cache".to_string(), "touches".to_string())])
        );
        assert!(rules[3].kind.is_workspace());
        assert!(!rules[4].kind.is_workspace());
        assert!(
            matches!(&rules[5].kind, RuleKind::PairedCall { acquire, releases }
            if acquire == "offer" && releases.len() == 2)
        );
        assert!(
            matches!(&rules[6].kind, RuleKind::ProtocolConformance { enum_name, tag_fn, decode_fn, require_in }
            if enum_name == "Msg" && tag_fn == "tag" && decode_fn == "decode"
                && require_in == &["encode", "encoded_len"])
        );
        assert!(rules[7].kind.is_workspace());
        // Header lines anchor config-level findings.
        assert_eq!(rules[0].line, 2);
        assert!(rules[1].line > rules[0].line);
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(parse_rules("").is_err());
        let err = parse_rules(
            "[[rule]]\nid = \"x\"\nkind = \"mystery\"\nreason = \"r\"\npaths = [\"**\"]",
        )
        .unwrap_err();
        assert!(err.contains("unknown rule kind"), "{err}");
        let err = parse_rules(
            "[[rule]]\nid = \"x\"\nkind = \"no-unwrap\"\nreason = \"r\"\npaths = [\"**\"]\n\
             [[rule]]\nid = \"x\"\nkind = \"no-unwrap\"\nreason = \"r\"\npaths = [\"**\"]",
        )
        .unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
        let err = parse_rules(
            "[[rule]]\nid = \"x\"\nkind = \"lock-order-graph\"\ndeclared = [\"oops\"]\n\
             reason = \"r\"\npaths = [\"**\"]",
        )
        .unwrap_err();
        assert!(err.contains("first -> then"), "{err}");
        let err = parse_rules(
            "[[rule]]\nid = \"x\"\nkind = \"paired-call\"\nacquire = \"a\"\nrelease = []\n\
             reason = \"r\"\npaths = [\"**\"]",
        )
        .unwrap_err();
        assert!(err.contains("at least one"), "{err}");
    }
}
