//! Workspace walking and the workspace-wide lint pass.

use crate::diagnostics::Diagnostic;
use crate::rules::lint_sources;
use std::fs;
use std::path::{Path, PathBuf};

/// Lints the whole workspace rooted at `root`: every source file
/// [`read_workspace`] finds, through [`lint_sources`]. The verdict
/// depends on file contents alone. Output is sorted by location,
/// compiler style.
pub fn lint_workspace(root: &Path) -> Vec<Diagnostic> {
    let sources = read_workspace(root);
    let borrowed: Vec<(&str, &str)> = sources
        .iter()
        .map(|(rel, content)| (rel.as_str(), content.as_str()))
        .collect();
    lint_sources(&borrowed)
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
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "target" || name == "vendor" || name == "fixtures" {
                continue;
            }
            collect_rs(&path, out);
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
}
