//! The one check `cargo xtask lint` runs, `raw-time-arith`, and the
//! workspace reader it shares with `cargo xtask ledger`.
//!
//! Every other invariant the golden reports depend on has an owner
//! that sees resolved code (DESIGN.md, "Static analysis & invariants",
//! has the table): rustc for the unit newtypes and the audit of
//! `#[expect]`, clippy for determinism (`crates/*/clippy.toml`), for
//! wildcard arms over control-plane enums and for panics in `sim`,
//! `control` and `cluster` library code, and a control-plane test for
//! the retry bound. `raw-time-arith` is a naming convention no compiler
//! lint can state: it forbids new raw-`f64` time/rate fields and
//! parameters (suffixes `_secs`, `_ms`, `_micros`, `_per_min`,
//! `_per_minute`) and bare cross-unit conversion constants (`60e6`,
//! `1_000_000`, …) outside the unit home modules (`units.rs`,
//! `count.rs`, `events.rs`).
//!
//! The check reads one file's contents at a time, with comments and
//! strings blanked and test code skipped, so its verdict depends on
//! nothing else. Its escape hatch is a plain comment
//! `faro-lint: allow(raw-time-arith): reason` on the offending line or
//! the line above. The check audits its annotations: one that
//! suppresses no finding, and any other text after the `faro-lint:`
//! marker, is itself a finding, so suppressions cannot rot. Doc
//! comments and string literals are never read for annotations.

mod diagnostics;
mod rules;
mod sanitize;

pub use diagnostics::Diagnostic;
pub use rules::lint_file;

use std::fs;
use std::path::{Path, PathBuf};

/// Checks every source file [`read_workspace`] finds under `root`
/// through [`lint_file`]. Output is sorted by location, compiler style.
pub fn lint_workspace(root: &Path) -> Vec<Diagnostic> {
    let mut out: Vec<Diagnostic> = read_workspace(root)
        .iter()
        .flat_map(|(rel, content)| lint_file(rel, content))
        .collect();
    out.sort();
    out
}

/// Every `.rs` file under `src/` and `crates/*/src/`, as
/// (workspace-relative path, content), sorted by path.
pub fn read_workspace(root: &Path) -> Vec<(String, String)> {
    let mut files: Vec<PathBuf> = Vec::new();
    collect_rs(&root.join("src"), &mut files);
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        let mut dirs: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for dir in dirs {
            collect_rs(&dir.join("src"), &mut files);
        }
    }
    files.sort();
    let mut out = Vec::new();
    for file in files {
        let Ok(content) = fs::read_to_string(&file) else {
            continue;
        };
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        out.push((rel, content));
    }
    out
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
}
