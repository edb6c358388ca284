//! Workspace walking, the diff-level golden rules, and the two-phase
//! driver.

use crate::diagnostics::Diagnostic;
use crate::index::WorkspaceIndex;
use crate::rules::{index_sources, lint_and_index};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Seed files whose edits can change event ordering — and therefore
/// the golden report bytes — without failing a single unit test. The
/// index *propagates* this set through module-specific imports
/// ([`WorkspaceIndex::golden_sensitive`]); the hand-written list is
/// only the root of that closure, and a unit test in
/// `tests/semantic_golden.rs` proves the closure covers it.
pub const GOLDEN_SENSITIVE: &[&str] = &[
    "crates/core/src/evaluate.rs",
    "crates/core/src/hetero.rs",
    "crates/core/src/opt.rs",
    "crates/core/src/sharded.rs",
    "crates/queueing/src/mixed.rs",
    "crates/sim/src/backend.rs",
    "crates/sim/src/events.rs",
    "crates/sim/src/report.rs",
    "crates/sim/src/runtime.rs",
];

/// Rule `golden-guard`, as a pure function over the changed-file list
/// so tests need no git repository: if an event-ordering-sensitive
/// file changed and nothing golden changed with it, every such file is
/// flagged. "Golden" means any changed path containing `golden` — the
/// committed snapshots live under `crates/sim/tests/` with `golden` in
/// the path precisely so this check stays a string match.
///
/// This seed-only variant is kept for callers without an index; the
/// workspace driver uses [`golden_guard_indexed`], which also covers
/// the propagated closure.
pub fn golden_guard(changed: &[String]) -> Vec<Diagnostic> {
    let touched: Vec<&String> = changed
        .iter()
        .filter(|c| {
            let c = c.replace('\\', "/");
            GOLDEN_SENSITIVE.iter().any(|s| c.ends_with(s))
        })
        .collect();
    if touched.is_empty() || changed.iter().any(|c| c.contains("golden")) {
        return Vec::new();
    }
    touched.into_iter().map(|f| seed_diag(f.clone())).collect()
}

/// Index-aware golden guard: flags every changed file in the golden
/// sensitivity *closure* — seeds under rule `golden-guard`, propagated
/// files under `golden-sensitivity-propagation` with the import chain
/// that pulled them in. One golden-named path in the change set
/// satisfies the whole guard, exactly like the seed variant.
pub fn golden_guard_indexed(changed: &[String], index: &WorkspaceIndex) -> Vec<Diagnostic> {
    if changed.iter().any(|c| c.contains("golden")) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for c in changed {
        let c = c.replace('\\', "/");
        let Some(hit) = index
            .golden_sensitive
            .iter()
            .find(|s| c == **s || c.ends_with(&format!("/{s}")))
        else {
            continue;
        };
        if GOLDEN_SENSITIVE.iter().any(|s| s == hit) {
            out.push(seed_diag(hit.clone()));
        } else {
            let via = index
                .golden_via
                .get(hit)
                .map(String::as_str)
                .unwrap_or("a golden-sensitive module");
            out.push(Diagnostic {
                file: hit.clone(),
                line: 1,
                col: 1,
                rule: "golden-sensitivity-propagation",
                message: format!(
                    "file inherits golden sensitivity (imports `{via}`) and changed \
                     without a golden test update"
                ),
                help: "this file transitively feeds the golden report bytes; run the \
                       golden tests and commit the refreshed snapshot in the same \
                       change, or break the import if the dependency is accidental"
                    .to_owned(),
            });
        }
    }
    out
}

fn seed_diag(file: String) -> Diagnostic {
    Diagnostic {
        file,
        line: 1,
        col: 1,
        rule: "golden-guard",
        message: "event-ordering-sensitive file changed without a golden test update".to_owned(),
        help: "run the golden tests and commit the refreshed snapshot in the same \
               change (see crates/sim/tests/golden_report.rs); byte-identical \
               reports are the project's determinism contract"
            .to_owned(),
    }
}

/// The files this working tree changes, for the golden guard.
///
/// With `FARO_LINT_DIFF_BASE` set (e.g. `origin/main`), asks
/// `git diff --name-only <base>` — the CI mode, comparing the whole
/// branch. Otherwise parses `git status --porcelain` — the local mode,
/// looking at uncommitted work. Returns `None` when git is missing or
/// this is not a repository; the rule is then skipped rather than
/// failing the lint run.
pub fn changed_files(root: &Path) -> Option<Vec<String>> {
    let output = match std::env::var("FARO_LINT_DIFF_BASE") {
        Ok(base) => Command::new("git")
            .args(["diff", "--name-only", &base])
            .current_dir(root)
            .output()
            .ok()?,
        Err(_) => Command::new("git")
            .args(["status", "--porcelain"])
            .current_dir(root)
            .output()
            .ok()?,
    };
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let diff_mode = std::env::var("FARO_LINT_DIFF_BASE").is_ok();
    let mut files = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        let path = if diff_mode {
            line.trim()
        } else {
            // Porcelain: `XY path` or `XY old -> new`.
            let rest = line.get(3..).unwrap_or("");
            match rest.split_once(" -> ") {
                Some((_, new)) => new,
                None => rest,
            }
        };
        if !path.is_empty() {
            files.push(path.trim().to_owned());
        }
    }
    Some(files)
}

/// Builds the phase-1 index for the workspace at `root` without
/// running any rules — for tests and tooling that want the module
/// graph or the golden closure.
pub fn index_workspace(root: &Path) -> WorkspaceIndex {
    index_sources(&borrowed(&read_workspace(root)))
}

/// The verdict that depends on file contents alone: every source file
/// under `root` linted as one workspace ([`crate::lint_sources`]: scan,
/// index, per-file and cross-file rules), without the diff-level golden
/// guard — so it does not move with `git status`.
pub fn lint_workspace(root: &Path) -> Vec<Diagnostic> {
    lint_and_index(&borrowed(&read_workspace(root))).0
}

/// Lints the whole workspace rooted at `root`: [`lint_workspace`] plus
/// the diff-level golden guard. Output is sorted by location, compiler
/// style.
pub fn run(root: &Path) -> Vec<Diagnostic> {
    let (mut diagnostics, index) = lint_and_index(&borrowed(&read_workspace(root)));
    if let Some(changed) = changed_files(root) {
        diagnostics.extend(golden_guard_indexed(&changed, &index));
    }
    diagnostics.sort();
    diagnostics
}

fn borrowed(sources: &[(String, String)]) -> Vec<(&str, &str)> {
    sources
        .iter()
        .map(|(rel, content)| (rel.as_str(), content.as_str()))
        .collect()
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_guard_fires_on_sensitive_edit_without_golden() {
        let changed = vec![
            "crates/sim/src/backend.rs".to_owned(),
            "README.md".to_owned(),
        ];
        let diags = golden_guard(&changed);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "golden-guard");
        assert_eq!(diags[0].file, "crates/sim/src/backend.rs");
    }

    #[test]
    fn golden_guard_passes_when_golden_tests_move_too() {
        let changed = vec![
            "crates/sim/src/backend.rs".to_owned(),
            "crates/sim/tests/golden_report.rs".to_owned(),
        ];
        assert!(golden_guard(&changed).is_empty());
    }

    #[test]
    fn golden_guard_ignores_non_sensitive_changes() {
        let changed = vec!["crates/metrics/src/rank.rs".to_owned()];
        assert!(golden_guard(&changed).is_empty());
    }

    #[test]
    fn golden_guard_flags_every_sensitive_file() {
        let changed = vec![
            "crates/sim/src/events.rs".to_owned(),
            "crates/core/src/opt.rs".to_owned(),
            "crates/core/src/evaluate.rs".to_owned(),
        ];
        assert_eq!(golden_guard(&changed).len(), 3);
    }

    #[test]
    fn indexed_guard_flags_propagated_files_with_the_import_chain() {
        use crate::index::{build_index, extract_facts, FileFacts};
        use crate::sanitize;
        let mut facts = std::collections::BTreeMap::new();
        facts.insert(
            "crates/core/src/sharded.rs".to_owned(),
            FileFacts::default(),
        );
        facts.insert(
            "crates/core/src/policy.rs".to_owned(),
            extract_facts(
                "crates/core/src/policy.rs",
                &sanitize::scan("use crate::sharded::ShardSpan;\n"),
            ),
        );
        let index = build_index(facts, &["crates/core/src/sharded.rs"]);

        let changed = vec!["crates/core/src/policy.rs".to_owned()];
        let diags = golden_guard_indexed(&changed, &index);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "golden-sensitivity-propagation");
        assert!(diags[0].message.contains("crates/core/src/sharded.rs"));

        // A golden test in the change set satisfies the guard.
        let with_golden = vec![
            "crates/core/src/policy.rs".to_owned(),
            "crates/sim/tests/golden_report.rs".to_owned(),
        ];
        assert!(golden_guard_indexed(&with_golden, &index).is_empty());

        // Seeds keep the seed rule id.
        let seed_changed = vec!["crates/core/src/sharded.rs".to_owned()];
        let seed_diags = golden_guard_indexed(&seed_changed, &index);
        assert_eq!(seed_diags.len(), 1);
        assert_eq!(seed_diags[0].rule, "golden-guard");
    }
}
