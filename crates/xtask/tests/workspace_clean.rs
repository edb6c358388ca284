//! The raw-time check's verdict: every raw time or rate the workspace
//! keeps is in `xtask::ALLOWLIST` with its reason, and every entry
//! there still names one. The tree is taken from the
//! `CARGO_MANIFEST_DIR` cargo exports at run time: a test binary copied
//! with its checkout's `target/` is not rebuilt, so a compile-time path
//! would check the tree it was built in.

use std::path::Path;
use xtask::{raw_time_findings, read_workspace, ALLOWLIST};

#[test]
fn workspace_is_lint_clean() {
    let manifest_dir = std::env::var_os("CARGO_MANIFEST_DIR").expect("run under cargo test");
    let root = Path::new(&manifest_dir).join("../..");
    let findings = raw_time_findings(&read_workspace(&root), ALLOWLIST);
    assert!(
        findings.is_empty(),
        "raw f64 times, rates or unit-conversion constants:\n{}\n\
         type them (SimTimeMs, DurationMs, RatePerMin, sim::events) or argue \
         each in xtask::ALLOWLIST",
        findings.join("\n")
    );
}
