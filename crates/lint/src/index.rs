//! Phase 1: the workspace index.
//!
//! A lightweight pass over every sanitized file that extracts the
//! module graph (which file imports which) and, from it, the
//! golden-sensitivity set — the [`crate::GOLDEN_SENSITIVE`] seeds plus
//! every file that transitively imports from one of them.
//!
//! This is deliberately not name resolution: an import edge exists
//! only when a `use` path's module segment maps to a real file
//! (`use crate::backend::…` in `crates/control/src/x.rs` edges to
//! `crates/control/src/backend.rs`). Blanket re-export imports
//! (`use faro_core::SplitMix64`) resolve to no file and create no
//! edge, which is what keeps the sensitivity closure meaningful:
//! facade crates re-export everything, but only module-specific
//! imports say "this file consumes that module's behavior".

use crate::sanitize::FileScan;
use std::collections::{BTreeMap, BTreeSet};

/// Crates whose files participate in golden-sensitivity propagation.
/// Everything else (bench, metrics, telemetry, …) consumes reports; it
/// cannot change their bytes.
const PROPAGATION_SCOPE: &[&str] = &[
    "crates/core/src/",
    "crates/sim/src/",
    "crates/solver/src/",
    "crates/control/src/",
    "crates/queueing/src/",
];

/// Per-file facts the index is built from. Extraction is pure over the
/// sanitized scan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileFacts {
    /// Candidate workspace-relative paths this file imports from
    /// (`use crate::m::…` / `use faro_x::m::…`), unresolved — the
    /// builder keeps only those that exist in the file set.
    pub imports: Vec<String>,
}

/// The assembled workspace index.
#[derive(Debug, Default)]
pub struct WorkspaceIndex {
    /// Resolved import edges: file → files it imports from.
    pub edges: BTreeMap<String, Vec<String>>,
    /// Golden-sensitivity closure: seeds + transitive importers.
    pub golden_sensitive: BTreeSet<String>,
    /// Why a propagated file is sensitive: file → the sensitive file
    /// it imports. Seeds are absent from this map.
    pub golden_via: BTreeMap<String, String>,
}

impl WorkspaceIndex {
    /// Is `path` golden-sensitive (seed or propagated)?
    pub fn is_golden_sensitive(&self, path: &str) -> bool {
        self.golden_sensitive.contains(path)
    }
}

/// Builds the index from per-file facts, seeding golden sensitivity
/// from `seeds` (the hand-written [`crate::GOLDEN_SENSITIVE`] list).
pub fn build_index(files: BTreeMap<String, FileFacts>, seeds: &[&str]) -> WorkspaceIndex {
    let mut edges: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (path, facts) in &files {
        let mut targets: Vec<String> = facts
            .imports
            .iter()
            .filter(|t| files.contains_key(*t) && *t != path)
            .cloned()
            .collect();
        targets.sort();
        targets.dedup();
        edges.insert(path.clone(), targets);
    }

    // Golden closure: a fixpoint over "imports a sensitive module".
    // Crate roots (lib.rs) are facades — they re-export, they don't
    // consume — so they neither join nor relay the closure.
    let mut golden_sensitive: BTreeSet<String> = seeds.iter().map(|s| (*s).to_owned()).collect();
    let mut golden_via: BTreeMap<String, String> = BTreeMap::new();
    loop {
        let mut grew = false;
        for (path, targets) in &edges {
            if golden_sensitive.contains(path)
                || path.ends_with("/lib.rs")
                || !PROPAGATION_SCOPE.iter().any(|s| path.starts_with(s))
            {
                continue;
            }
            if let Some(hit) = targets.iter().find(|t| golden_sensitive.contains(*t)) {
                golden_sensitive.insert(path.clone());
                golden_via.insert(path.clone(), hit.clone());
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }

    WorkspaceIndex {
        edges,
        golden_sensitive,
        golden_via,
    }
}

/// Extracts the per-file facts from a sanitized scan. `path` is
/// workspace-relative with forward slashes.
pub fn extract_facts(path: &str, scan: &FileScan) -> FileFacts {
    let mut facts = FileFacts::default();
    let crate_dir = crate_dir_of(path);
    for line in &scan.clean {
        let t = line.trim_start();
        let use_path = t
            .strip_prefix("pub use ")
            .or_else(|| t.strip_prefix("use "));
        if let Some(rest) = use_path {
            if let Some(target) = import_candidate(rest, crate_dir.as_deref()) {
                facts.imports.push(target);
            }
        }
    }
    facts
}

/// `crates/<dir>/src/...` → `<dir>`; other layouts have no crate dir.
fn crate_dir_of(path: &str) -> Option<String> {
    let rest = path.strip_prefix("crates/")?;
    let (dir, tail) = rest.split_once('/')?;
    tail.starts_with("src/").then(|| dir.to_owned())
}

/// Maps a `use` path body (after `use `) to a candidate file. Only the
/// first module segment is resolved; deeper paths stay within that
/// module's file in this codebase (no directory modules).
fn import_candidate(rest: &str, crate_dir: Option<&str>) -> Option<String> {
    let rest = rest.trim();
    let (head, tail) = rest.split_once("::")?;
    let module: String = tail.chars().take_while(|c| is_ident(*c)).collect();
    if module.is_empty() {
        return None;
    }
    if head == "crate" {
        let dir = crate_dir?;
        return Some(format!("crates/{dir}/src/{module}.rs"));
    }
    // `faro_core::units::…` → crates/core/src/units.rs. The workspace
    // convention is crate `faro-x` (lib `faro_x`) in `crates/x`.
    let dir = head.strip_prefix("faro_")?;
    Some(format!("crates/{dir}/src/{module}.rs"))
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sanitize;

    fn facts(path: &str, src: &str) -> FileFacts {
        extract_facts(path, &sanitize::scan(src))
    }

    #[test]
    fn import_edges_resolve_module_specific_paths_only() {
        let f = facts(
            "crates/control/src/resilient.rs",
            "use crate::backend::{ActuationReport, BackendError};\n\
             use crate::reconciler::Reconciler;\n\
             use faro_core::units::{DurationMs, SimTimeMs};\n\
             use faro_core::SplitMix64;\n\
             use std::collections::BTreeMap;\n",
        );
        assert_eq!(
            f.imports,
            vec![
                "crates/control/src/backend.rs",
                "crates/control/src/reconciler.rs",
                "crates/core/src/units.rs",
                // Blanket re-export: candidate emitted, but no such
                // file will exist, so the builder drops it.
                "crates/core/src/SplitMix64.rs",
            ]
        );
    }

    #[test]
    fn golden_propagation_reaches_transitive_importers_but_not_facades() {
        let mut files = BTreeMap::new();
        files.insert(
            "crates/core/src/sharded.rs".to_owned(),
            FileFacts::default(),
        );
        files.insert(
            "crates/core/src/policy.rs".to_owned(),
            facts(
                "crates/core/src/policy.rs",
                "use crate::sharded::ShardSpan;\n",
            ),
        );
        files.insert(
            "crates/core/src/baselines.rs".to_owned(),
            facts(
                "crates/core/src/baselines.rs",
                "use crate::policy::Policy;\n",
            ),
        );
        files.insert(
            "crates/core/src/lib.rs".to_owned(),
            facts(
                "crates/core/src/lib.rs",
                "pub use crate::sharded::ShardedSolver;\n",
            ),
        );
        files.insert(
            "crates/metrics/src/rank.rs".to_owned(),
            facts(
                "crates/metrics/src/rank.rs",
                "use faro_core::policy::Policy;\n",
            ),
        );
        let idx = build_index(files, &["crates/core/src/sharded.rs"]);
        assert!(idx.is_golden_sensitive("crates/core/src/policy.rs"));
        assert!(idx.is_golden_sensitive("crates/core/src/baselines.rs"));
        assert_eq!(
            idx.golden_via["crates/core/src/baselines.rs"],
            "crates/core/src/policy.rs"
        );
        // lib.rs re-exports but is a facade; metrics is out of scope.
        assert!(!idx.is_golden_sensitive("crates/core/src/lib.rs"));
        assert!(!idx.is_golden_sensitive("crates/metrics/src/rank.rs"));
    }

    #[test]
    fn un_marking_an_import_drops_the_file_from_the_closure() {
        let with_import = "use crate::sharded::ShardSpan;\npub fn f() {}\n";
        let without = "pub fn f() {}\n";
        for (src, expect) in [(with_import, true), (without, false)] {
            let mut files = BTreeMap::new();
            files.insert(
                "crates/core/src/sharded.rs".to_owned(),
                FileFacts::default(),
            );
            files.insert(
                "crates/core/src/policy.rs".to_owned(),
                facts("crates/core/src/policy.rs", src),
            );
            let idx = build_index(files, &["crates/core/src/sharded.rs"]);
            assert_eq!(idx.is_golden_sensitive("crates/core/src/policy.rs"), expect);
        }
    }
}
