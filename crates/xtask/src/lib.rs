//! Workspace tasks: the raw-time check ([`raw_time_findings`] under
//! [`ALLOWLIST`], whose verdict is a Tier-1 test) and the workspace
//! reader it shares with `cargo xtask ledger`.

use std::fs;
use std::path::{Path, PathBuf};

mod rules;
pub use rules::{raw_time_findings, ALLOWLIST};

/// A file's lines before its `#[cfg(test)] mod tests`: the library
/// code the raw-time check and the ledger read.
pub fn library_lines(text: &str) -> Vec<&str> {
    let mut lines: Vec<&str> = text.lines().collect();
    let end = lines
        .windows(2)
        .position(|w| w[0].trim() == "#[cfg(test)]" && w[1].trim().starts_with("mod tests"))
        .unwrap_or(lines.len());
    lines.truncate(end);
    lines
}

/// Every `.rs` file under `src/` and `crates/*/src/`, as
/// (workspace-relative path, content), sorted by path.
pub fn read_workspace(root: &Path) -> Vec<(String, String)> {
    let mut files: Vec<PathBuf> = Vec::new();
    collect_rs(&root.join("src"), &mut files);
    for krate in fs::read_dir(root.join("crates"))
        .into_iter()
        .flatten()
        .flatten()
    {
        collect_rs(&krate.path().join("src"), &mut files);
    }
    files.sort();
    files
        .into_iter()
        .filter_map(|file| {
            let content = fs::read_to_string(&file).ok()?;
            let rel = file.strip_prefix(root).unwrap_or(&file).to_string_lossy();
            Some((rel.replace('\\', "/"), content))
        })
        .collect()
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    for path in fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
    {
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}
