//! Fixture tests for the cross-file (phase 2) rules and the
//! suppression audit: each rule fires on its violation fixture with
//! exactly the snapshotted diagnostics, and stays silent on the clean
//! twin.
//!
//! Snapshots live in `tests/expected/*.txt`; refresh after an
//! intentional diagnostic change with
//! `FARO_UPDATE_EXPECT=1 cargo test -p faro-lint --test semantic`.

use faro_lint::{golden_guard_indexed, index_sources, lint_sources, Diagnostic};
use std::path::Path;

/// A `GOLDEN_SENSITIVE` seed: fixtures linted under this path are in
/// the float-order rule's golden-sensitive scope.
const GOLDEN_PATH: &str = "crates/sim/src/report.rs";

/// Scope of the control-plane rules.
const CONTROL_SCOPE: &str = "crates/control/src/fixture.rs";

fn render(diags: &[Diagnostic]) -> String {
    diags
        .iter()
        .map(Diagnostic::to_string)
        .collect::<Vec<_>>()
        .join("\n\n")
}

fn check_snapshot(name: &str, got: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/expected/{name}.txt"));
    if std::env::var("FARO_UPDATE_EXPECT").is_ok() {
        std::fs::write(&path, got).expect("write snapshot");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing snapshot {name}; generate with FARO_UPDATE_EXPECT=1"));
    assert_eq!(
        got,
        want.trim_end_matches('\n'),
        "diagnostics for {name} diverged from the snapshot; if intentional, \
         refresh with FARO_UPDATE_EXPECT=1"
    );
}

#[test]
fn float_order_fires_with_exact_diagnostics() {
    let src = include_str!("fixtures/float_order_violation.rs");
    let diags = lint_sources(&[(GOLDEN_PATH, src)]);
    assert!(
        diags.iter().all(|d| d.rule == "float-order-determinism"),
        "{diags:?}"
    );
    // The merged sum, the worker fold, the `acc +=` in the shard loop.
    assert_eq!(diags.len(), 3, "{diags:?}");
    check_snapshot("float_order", &render(&diags));
}

#[test]
fn float_order_clean_is_silent() {
    let src = include_str!("fixtures/float_order_clean.rs");
    assert_eq!(lint_sources(&[(GOLDEN_PATH, src)]), Vec::new());
}

#[test]
fn float_order_needs_golden_sensitivity() {
    // The same reductions in a file outside the golden closure are not
    // the linter's business: nothing downstream snapshots their bytes.
    let src = include_str!("fixtures/float_order_violation.rs");
    assert_eq!(
        lint_sources(&[("crates/sim/src/fixture.rs", src)]),
        Vec::new()
    );
}

#[test]
fn unused_allow_fires_with_exact_diagnostics() {
    let src = include_str!("fixtures/unused_allow_violation.rs");
    let diags = lint_sources(&[(CONTROL_SCOPE, src)]);
    assert!(diags.iter().all(|d| d.rule == "unused-allow"), "{diags:?}");
    // A dead allow, an unknown rule id, a dead allow-file.
    assert_eq!(diags.len(), 3, "{diags:?}");
    check_snapshot("unused_allow", &render(&diags));
}

#[test]
fn unused_allow_clean_is_silent() {
    let src = include_str!("fixtures/unused_allow_clean.rs");
    assert_eq!(lint_sources(&[(CONTROL_SCOPE, src)]), Vec::new());
}

#[test]
fn golden_propagation_fires_with_the_import_chain() {
    // A stub for the seed module is enough: propagation follows the
    // `use crate::sharded::…` edge, not the module's contents.
    let seed_stub = "pub struct ShardPlan {\n    pub width: usize,\n}\n";
    let src = include_str!("fixtures/golden_propagation_violation.rs");
    let index = index_sources(&[
        ("crates/core/src/sharded.rs", seed_stub),
        ("crates/core/src/fixture.rs", src),
    ]);

    let changed = vec!["crates/core/src/fixture.rs".to_owned()];
    let diags = golden_guard_indexed(&changed, &index);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "golden-sensitivity-propagation");
    assert!(diags[0].message.contains("crates/core/src/sharded.rs"));
    check_snapshot("golden_propagation", &render(&diags));

    // A golden test in the same change set satisfies the guard.
    let mut with_golden = changed;
    with_golden.push("crates/sim/tests/golden/report_small.json".to_owned());
    assert_eq!(golden_guard_indexed(&with_golden, &index), Vec::new());
}

#[test]
fn golden_propagation_clean_twin_is_outside_the_closure() {
    let seed_stub = "pub struct ShardPlan {\n    pub width: usize,\n}\n";
    let src = include_str!("fixtures/golden_propagation_clean.rs");
    let index = index_sources(&[
        ("crates/core/src/sharded.rs", seed_stub),
        ("crates/core/src/fixture.rs", src),
    ]);
    let changed = vec!["crates/core/src/fixture.rs".to_owned()];
    assert_eq!(golden_guard_indexed(&changed, &index), Vec::new());
}
