//! The check's verdict is part of `cargo test`: a tree `cargo xtask
//! lint` would reject fails here too. Both read file contents only, so
//! the two verdicts are one. Both also take the tree from the
//! `CARGO_MANIFEST_DIR` cargo exports at run time: a test binary copied
//! with its checkout's `target/` is not rebuilt, so a compile-time path
//! would check the tree it was built in.

use std::path::Path;
use xtask::{lint_workspace, Diagnostic};

#[test]
fn workspace_is_lint_clean() {
    let manifest_dir = std::env::var_os("CARGO_MANIFEST_DIR").expect("run under cargo test");
    let root = Path::new(&manifest_dir).join("../..");
    let rendered: Vec<String> = lint_workspace(&root)
        .iter()
        .map(Diagnostic::to_string)
        .collect();
    assert!(rendered.is_empty(), "\n{}", rendered.join("\n\n"));
}
