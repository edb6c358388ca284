//! Fixture tests: the check, the audit of its annotations included,
//! fires on its violation fixtures with exactly the snapshotted
//! diagnostics, and stays silent on the clean twins.
//!
//! Snapshots live in `tests/expected/*.txt`; refresh after an
//! intentional diagnostic change with
//! `FARO_UPDATE_EXPECT=1 cargo test -p xtask --test rules`.

use std::path::Path;
use xtask::{lint_file, Diagnostic};

/// The logical path fixtures are linted under: inside `crates/sim/src/`
/// puts them in scope of both the declaration and the literal checks.
const SCOPE: &str = "crates/sim/src/fixture.rs";

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
fn raw_time_arith_fires_with_exact_diagnostics() {
    let src = include_str!("fixtures/raw_time_arith_violation.rs");
    let diags = lint_file(SCOPE, src);
    // start_secs field, width_ms field, rates_per_minute field,
    // start_secs param, 1e6, 60e6, 60e6_f64, 60e6f64, 60_000_000u64.
    assert_eq!(diags.len(), 9, "{diags:?}");
    check_snapshot("raw_time_arith", &render(&diags));
}

#[test]
fn raw_time_arith_clean_is_silent() {
    let src = include_str!("fixtures/raw_time_arith_clean.rs");
    assert_eq!(lint_file(SCOPE, src), Vec::new());
}

#[test]
fn raw_time_arith_is_silent_in_unit_home_modules() {
    let src = include_str!("fixtures/raw_time_arith_violation.rs");
    assert_eq!(lint_file("crates/core/src/units.rs", src), Vec::new());
    assert_eq!(lint_file("crates/sim/src/events.rs", src), Vec::new());
}

#[test]
fn rules_stay_out_of_unscoped_crates() {
    // The metrics crate is outside the literal check's scope: only the
    // four declarations, which every crate's `src/` is held to, fire.
    let src = include_str!("fixtures/raw_time_arith_violation.rs");
    let diags = lint_file("crates/metrics/src/fixture.rs", src);
    assert_eq!(diags.len(), 4, "{diags:?}");
    assert!(
        diags.iter().all(|d| d.message.contains("declaration")),
        "{diags:?}"
    );
}

#[test]
fn unused_allow_fires_with_exact_diagnostics() {
    let src = include_str!("fixtures/unused_allow_violation.rs");
    let diags = lint_file(SCOPE, src);
    // A dead allow, a retired rule id, an unknown rule id, an allow-file.
    assert_eq!(diags.len(), 4, "{diags:?}");
    check_snapshot("unused_allow", &render(&diags));
}

#[test]
fn unused_allow_clean_is_silent() {
    let src = include_str!("fixtures/unused_allow_clean.rs");
    assert_eq!(lint_file(SCOPE, src), Vec::new());
}
