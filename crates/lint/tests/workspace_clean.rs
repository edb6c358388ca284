//! The lint verdict is part of `cargo test`: a tree `cargo xtask lint`
//! would reject fails here too. Both read file contents only, so the
//! two verdicts are one.

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
