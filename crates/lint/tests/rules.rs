//! Fixture tests: each rule, the suppression audit included, fires on
//! its violation fixture with exactly the snapshotted diagnostics, and
//! stays silent on the clean twin.
//!
//! Snapshots live in `tests/expected/*.txt`; refresh after an
//! intentional diagnostic change with
//! `FARO_UPDATE_EXPECT=1 cargo test -p faro-lint --test rules`.

use faro_lint::{lint_source, Diagnostic};
use std::path::Path;

/// The logical path fixtures are linted under: inside `crates/sim/src/`
/// puts them in scope of all per-file rules except `no-unbounded-retry`.
const SCOPE: &str = "crates/sim/src/fixture.rs";

/// Scope for the retry rule, which only patrols the control crate.
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
fn raw_time_arith_fires_with_exact_diagnostics() {
    let src = include_str!("fixtures/raw_time_arith_violation.rs");
    let diags = lint_source(SCOPE, src);
    assert!(
        diags.iter().all(|d| d.rule == "raw-time-arith"),
        "{diags:?}"
    );
    // start_secs field, width_ms field, rates_per_minute field,
    // start_secs param, 1e6, 60e6.
    assert_eq!(diags.len(), 6, "{diags:?}");
    check_snapshot("raw_time_arith", &render(&diags));
}

#[test]
fn raw_time_arith_clean_is_silent() {
    let src = include_str!("fixtures/raw_time_arith_clean.rs");
    assert_eq!(lint_source(SCOPE, src), Vec::new());
}

#[test]
fn raw_time_arith_is_silent_in_unit_home_modules() {
    let src = include_str!("fixtures/raw_time_arith_violation.rs");
    assert_eq!(lint_source("crates/core/src/units.rs", src), Vec::new());
    assert_eq!(lint_source("crates/sim/src/events.rs", src), Vec::new());
}

#[test]
fn no_panic_fires_with_exact_diagnostics() {
    let src = include_str!("fixtures/no_panic_violation.rs");
    let diags = lint_source(SCOPE, src);
    assert!(
        diags.iter().all(|d| d.rule == "no-panic-in-lib"),
        "{diags:?}"
    );
    // unwrap, xs[0], expect without invariant, todo!, panic!.
    assert_eq!(diags.len(), 5, "{diags:?}");
    check_snapshot("no_panic", &render(&diags));
}

#[test]
fn no_panic_clean_is_silent() {
    let src = include_str!("fixtures/no_panic_clean.rs");
    assert_eq!(lint_source(SCOPE, src), Vec::new());
}

#[test]
fn no_unbounded_retry_fires_with_exact_diagnostics() {
    let src = include_str!("fixtures/no_unbounded_retry_violation.rs");
    let diags = lint_source(CONTROL_SCOPE, src);
    assert!(
        diags.iter().all(|d| d.rule == "no-unbounded-retry"),
        "{diags:?}"
    );
    // The bare `loop` around observe, the `while` around apply.
    assert_eq!(diags.len(), 2, "{diags:?}");
    check_snapshot("no_unbounded_retry", &render(&diags));
}

#[test]
fn no_unbounded_retry_clean_is_silent() {
    let src = include_str!("fixtures/no_unbounded_retry_clean.rs");
    assert_eq!(lint_source(CONTROL_SCOPE, src), Vec::new());
}

#[test]
fn no_unbounded_retry_stays_in_the_control_crate() {
    let src = include_str!("fixtures/no_unbounded_retry_violation.rs");
    assert_eq!(lint_source(SCOPE, src), Vec::new());
}

#[test]
fn no_unbounded_retry_allow_silences_one_loop() {
    let src = "pub fn f(b: &mut dyn ClusterBackend) {\n\
               \x20   // faro-lint: allow(no-unbounded-retry): bounded by caller timeout\n\
               \x20   loop {\n\
               \x20       if b.observe().is_ok() { return; }\n\
               \x20   }\n\
               }\n";
    assert_eq!(lint_source(CONTROL_SCOPE, src), Vec::new());
}

#[test]
fn rules_stay_out_of_unscoped_crates() {
    // The metrics crate is outside every per-file scope except the
    // field check; the panic fixture should not fire there.
    let panics = include_str!("fixtures/no_panic_violation.rs");
    assert_eq!(
        lint_source("crates/metrics/src/fixture.rs", panics),
        Vec::new()
    );
}

#[test]
fn unused_allow_fires_with_exact_diagnostics() {
    let src = include_str!("fixtures/unused_allow_violation.rs");
    let diags = lint_source(CONTROL_SCOPE, src);
    assert!(diags.iter().all(|d| d.rule == "unused-allow"), "{diags:?}");
    // A dead allow, an unknown rule id, a dead allow-file.
    assert_eq!(diags.len(), 3, "{diags:?}");
    check_snapshot("unused_allow", &render(&diags));
}

#[test]
fn unused_allow_clean_is_silent() {
    let src = include_str!("fixtures/unused_allow_clean.rs");
    assert_eq!(lint_source(CONTROL_SCOPE, src), Vec::new());
}
