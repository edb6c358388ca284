//! The lint verdict is part of `cargo test`: a tree `cargo xtask lint`
//! would reject on its contents fails here too. The diff-level golden
//! guard is left out — it reads `git status`, so it would fail on any
//! uncommitted edit to a golden-sensitive file.

use faro_lint::{lint_workspace, Diagnostic};
use std::path::Path;

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let rendered: Vec<String> = lint_workspace(&root)
        .iter()
        .map(Diagnostic::to_string)
        .collect();
    assert!(rendered.is_empty(), "\n{}", rendered.join("\n\n"));
}
