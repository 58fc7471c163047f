//! The workspace itself must satisfy its own rules: `coic lint` over the
//! repository root with the checked-in `analyze/rules.toml` finds
//! nothing. Every deliberate exception in the tree carries a justified
//! `// lint: allow(rule, reason)` or a path-level exempt in the rules
//! file — this test is what keeps that closed.

use std::path::Path;

#[test]
fn the_workspace_lints_clean_under_its_own_rules() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/analyze sits two levels below the workspace root");
    let rules = root.join("analyze").join("rules.toml");
    assert!(rules.is_file(), "missing {}", rules.display());
    let findings = coic_analyze::lint_root(root, &rules).expect("lint run");
    assert!(
        findings.is_empty(),
        "workspace lint violations:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn the_workspace_rules_cover_every_rule_kind() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let src = std::fs::read_to_string(root.join("analyze/rules.toml")).expect("read rules");
    let rules = coic_analyze::parse_rules(&src).expect("parse rules");
    let mut kinds: Vec<&str> = rules
        .iter()
        .map(|r| match r.kind {
            coic_analyze::RuleKind::ForbiddenPath { .. } => "forbidden-path",
            coic_analyze::RuleKind::NoUnwrap { .. } => "no-unwrap",
            coic_analyze::RuleKind::CrateAttr { .. } => "crate-attr",
            coic_analyze::RuleKind::NoIndexHotPath => "no-index-hot-path",
            coic_analyze::RuleKind::PairedCall { .. } => "paired-call",
            coic_analyze::RuleKind::ProtocolConformance { .. } => "protocol-conformance",
            coic_analyze::RuleKind::LockOrderGraph { .. } => "lock-order-graph",
            coic_analyze::RuleKind::TelemetryRegistry { .. } => "telemetry-registry",
            coic_analyze::RuleKind::UnreachablePub => "unreachable-pub",
        })
        .collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert_eq!(
        kinds,
        [
            "crate-attr",
            "forbidden-path",
            "lock-order-graph",
            "no-index-hot-path",
            "no-unwrap",
            "paired-call",
            "protocol-conformance",
            "telemetry-registry",
            "unreachable-pub"
        ],
        "the checked-in rules should exercise every rule kind"
    );
}
