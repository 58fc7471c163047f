//! The API-surface rule: later changes to the repository may not edit this
//! directory, so the harness may not name what the roadmap is about to
//! merge or delete (see README, "API-surface rule").

use std::path::Path;

/// Names the harness sources must not contain, written in two halves so
/// that this file does not contain them either.
const REMOVED: [(&str, &str); 11] = [
    ("SharedEdge", "Service"),
    ("Edge", "Service"),
    ("Driver", "Kind"),
    ("Evloop", "Config"),
    ("Driver", "Server"),
    ("cache::", "concurrent"),
    ("cache::", "coop"),
    ("cache::", "stats"),
    ("Lsh", "Index"),
    ("core::", "robust"),
    ("coic_core::", "robust"),
];

#[test]
fn harness_sources_name_nothing_the_roadmap_removes() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut checked = 0;
    for entry in std::fs::read_dir(&src).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).unwrap();
            for (a, b) in REMOVED {
                let name = format!("{a}{b}");
                assert!(!text.contains(&name), "{} names {name}", path.display());
            }
            checked += 1;
        }
    }
    assert!(checked >= 10, "only {checked} source files found");
}
