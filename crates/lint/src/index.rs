//! Phase 1: the workspace semantic index.
//!
//! A lightweight pass over every sanitized file that extracts just
//! enough structure for the cross-file rules in [`crate::semantic`]:
//! the module graph (which file imports which), a symbol table of
//! `pub fn` signatures / `pub enum` variants / newtype and alias
//! definitions, and the golden-sensitivity set — the
//! [`crate::GOLDEN_SENSITIVE`] seeds plus every file that transitively
//! imports from one of them.
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

/// Unit newtypes the `unit-flow` rule protects. Bare numeric literals
/// must not flow into parameters declared with these types; the
/// blessed constructors live in the unit home modules.
pub const UNIT_TYPES: &[&str] = &[
    "SimTimeMs",
    "DurationMs",
    "RatePerMin",
    "ReplicaCount",
    "WallTimeMs",
];

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

/// One `pub fn` signature: the name and the normalized last path
/// segment of each non-`self` parameter type (`SimTimeMs`, `f64`, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnSig {
    pub name: String,
    pub params: Vec<String>,
}

/// One `pub enum` definition with its variant names in source order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnumDef {
    pub name: String,
    pub variants: Vec<String>,
}

/// Per-file facts the index is built from. Extraction is pure over the
/// sanitized scan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileFacts {
    /// Candidate workspace-relative paths this file imports from
    /// (`use crate::m::…` / `use faro_x::m::…`), unresolved — the
    /// builder keeps only those that exist in the file set.
    pub imports: Vec<String>,
    /// Child modules declared with `mod name;`.
    pub mods: Vec<String>,
    pub pub_fns: Vec<FnSig>,
    pub pub_enums: Vec<EnumDef>,
    /// `pub struct Name(…);` tuple newtypes: (name, inner type).
    pub newtypes: Vec<(String, String)>,
    /// `pub type A = B;` aliases: (alias, target last segment).
    pub aliases: Vec<(String, String)>,
}

/// The assembled workspace index.
#[derive(Debug, Default)]
pub struct WorkspaceIndex {
    /// Facts per workspace-relative file path.
    pub files: BTreeMap<String, FileFacts>,
    /// Resolved import edges: file → files it imports from.
    pub edges: BTreeMap<String, Vec<String>>,
    /// `pub fn` signature registry: name → every signature seen.
    pub fns: BTreeMap<String, Vec<FnSig>>,
    /// `pub enum` registry: name → (defining file, variants) per def.
    pub enums: BTreeMap<String, Vec<(String, EnumDef)>>,
    /// Type aliases: alias → target name.
    pub aliases: BTreeMap<String, String>,
    /// Golden-sensitivity closure: seeds + transitive importers.
    pub golden_sensitive: BTreeSet<String>,
    /// Why a propagated file is sensitive: file → the sensitive file
    /// it imports. Seeds are absent from this map.
    pub golden_via: BTreeMap<String, String>,
}

impl WorkspaceIndex {
    /// Resolves `name` through one alias hop to an enum definition;
    /// when several enums share the name, the one whose variants
    /// contain all of `named` wins (ambiguity returns `None`).
    pub fn resolve_enum(&self, name: &str, named: &[String]) -> Option<&EnumDef> {
        let target = self.aliases.get(name).map(String::as_str).unwrap_or(name);
        let defs = self.enums.get(target)?;
        let matching: Vec<&EnumDef> = defs
            .iter()
            .map(|(_, def)| def)
            .filter(|def| named.iter().all(|v| def.variants.contains(v)))
            .collect();
        match matching.as_slice() {
            [one] => Some(one),
            // Same name in several crates but identical variant sets
            // (re-exported defs) still resolves.
            [first, rest @ ..] if rest.iter().all(|d| d.variants == first.variants) => Some(first),
            _ => None,
        }
    }

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

    let mut fns: BTreeMap<String, Vec<FnSig>> = BTreeMap::new();
    let mut enums: BTreeMap<String, Vec<(String, EnumDef)>> = BTreeMap::new();
    let mut aliases: BTreeMap<String, String> = BTreeMap::new();
    for (path, facts) in &files {
        for sig in &facts.pub_fns {
            fns.entry(sig.name.clone()).or_default().push(sig.clone());
        }
        for def in &facts.pub_enums {
            enums
                .entry(def.name.clone())
                .or_default()
                .push((path.clone(), def.clone()));
        }
        for (alias, target) in &facts.aliases {
            aliases.insert(alias.clone(), target.clone());
        }
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
        files,
        edges,
        fns,
        enums,
        aliases,
        golden_sensitive,
        golden_via,
    }
}

/// Extracts the per-file facts from a sanitized scan. `path` is
/// workspace-relative with forward slashes.
pub fn extract_facts(path: &str, scan: &FileScan) -> FileFacts {
    let mut facts = FileFacts::default();
    let crate_dir = crate_dir_of(path);
    let joined = Joined::new(&scan.clean);

    for line in &scan.clean {
        let t = line.trim_start();
        let use_path = t
            .strip_prefix("pub use ")
            .or_else(|| t.strip_prefix("use "));
        if let Some(rest) = use_path {
            if let Some(target) = import_candidate(rest, crate_dir.as_deref()) {
                facts.imports.push(target);
            }
            continue;
        }
        for prefix in ["pub mod ", "mod ", "pub(crate) mod "] {
            if let Some(rest) = t.strip_prefix(prefix) {
                let name: String = rest.chars().take_while(|c| is_ident(*c)).collect();
                if !name.is_empty() && rest[name.len()..].trim_start().starts_with(';') {
                    facts.mods.push(name);
                }
                break;
            }
        }
        if let Some(rest) = t.strip_prefix("pub type ") {
            if let Some((alias, target)) = rest.split_once('=') {
                let alias = alias.trim();
                let target = target.trim().trim_end_matches(';');
                if alias.chars().all(is_ident) && !alias.is_empty() {
                    facts
                        .aliases
                        .push((alias.to_owned(), last_segment(target).to_owned()));
                }
            }
        }
    }

    extract_fns(&joined, &mut facts);
    extract_enums(&joined, &mut facts);
    extract_newtypes(scan, &mut facts);
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

/// Sanitized lines joined with `\n`, with a position↔line map, so the
/// extractors can match multi-line items (signatures, enum bodies).
pub(crate) struct Joined {
    pub chars: Vec<char>,
    line_starts: Vec<usize>,
}

impl Joined {
    pub fn new(clean: &[String]) -> Self {
        let mut chars = Vec::new();
        let mut line_starts = Vec::new();
        for line in clean {
            line_starts.push(chars.len());
            chars.extend(line.chars());
            chars.push('\n');
        }
        Joined { chars, line_starts }
    }

    /// 0-based (line, col) of a char position.
    pub fn line_col(&self, pos: usize) -> (usize, usize) {
        let line = match self.line_starts.binary_search(&pos) {
            Ok(l) => l,
            Err(ins) => ins - 1,
        };
        (line, pos - self.line_starts[line])
    }

    /// Position of the matching close for the opener at `open`
    /// (`(`/`)` or `{`/`}`), or `None` if unbalanced.
    pub fn matching(&self, open: usize) -> Option<usize> {
        let (o, c) = match self.chars.get(open)? {
            '(' => ('(', ')'),
            '{' => ('{', '}'),
            _ => return None,
        };
        let mut depth = 0i64;
        for (i, &ch) in self.chars.iter().enumerate().skip(open) {
            if ch == o {
                depth += 1;
            } else if ch == c {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
        }
        None
    }

    /// Word-boundary occurrences of `word`.
    pub fn find_words(&self, word: &str) -> Vec<usize> {
        let needle: Vec<char> = word.chars().collect();
        let mut hits = Vec::new();
        if needle.is_empty() || self.chars.len() < needle.len() {
            return hits;
        }
        for p in 0..=self.chars.len() - needle.len() {
            if self.chars[p..p + needle.len()] != needle[..] {
                continue;
            }
            let before_ok = p == 0 || !is_ident(self.chars[p - 1]);
            let after = p + needle.len();
            let after_ok = after >= self.chars.len() || !is_ident(self.chars[after]);
            if before_ok && after_ok {
                hits.push(p);
            }
        }
        hits
    }
}

/// Splits `text` on commas at zero bracket depth.
pub(crate) fn split_top_level(text: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut depth = 0i64;
    let mut cur = String::new();
    for c in text.chars() {
        match c {
            '(' | '[' | '{' | '<' => depth += 1,
            ')' | ']' | '}' | '>' => depth -= 1,
            ',' if depth == 0 => {
                parts.push(std::mem::take(&mut cur));
                continue;
            }
            _ => {}
        }
        cur.push(c);
    }
    if !cur.trim().is_empty() {
        parts.push(cur);
    }
    parts
}

/// Last `::` segment of a path, generics and refs stripped from the
/// front but kept anywhere else (so `Vec<f64>` stays un-matchable).
fn last_segment(ty: &str) -> &str {
    let ty = ty.trim();
    let ty = ty
        .strip_prefix("&mut ")
        .or_else(|| ty.strip_prefix('&'))
        .unwrap_or(ty)
        .trim();
    ty.rsplit("::").next().unwrap_or(ty).trim()
}

fn extract_fns(joined: &Joined, facts: &mut FileFacts) {
    for pos in joined.find_words("fn") {
        // Require a `pub` shortly before: `pub fn`, `pub(crate) fn`,
        // `pub const fn`, … — a window keeps this cheap and honest.
        let window_start = pos.saturating_sub(24);
        let window: String = joined.chars[window_start..pos].iter().collect();
        let is_pub = window.contains("pub ") || window.contains("pub(");
        if !is_pub {
            continue;
        }
        let mut i = pos + 2;
        while i < joined.chars.len() && joined.chars[i].is_whitespace() {
            i += 1;
        }
        let name_start = i;
        while i < joined.chars.len() && is_ident(joined.chars[i]) {
            i += 1;
        }
        if i == name_start {
            continue;
        }
        let name: String = joined.chars[name_start..i].iter().collect();
        // Skip generics to the parameter list.
        if joined.chars.get(i) == Some(&'<') {
            let mut depth = 0i64;
            while i < joined.chars.len() {
                match joined.chars[i] {
                    '<' => depth += 1,
                    '>' => {
                        depth -= 1;
                        if depth == 0 {
                            i += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
        }
        while i < joined.chars.len() && joined.chars[i].is_whitespace() {
            i += 1;
        }
        if joined.chars.get(i) != Some(&'(') {
            continue;
        }
        let Some(close) = joined.matching(i) else {
            continue;
        };
        let body: String = joined.chars[i + 1..close].iter().collect();
        let mut params = Vec::new();
        for part in split_top_level(&body) {
            let part = part.trim();
            if part.is_empty() || is_self_param(part) {
                continue;
            }
            let ty = match find_top_level_colon(part) {
                Some(colon) => last_segment(&part[colon + 1..]).to_owned(),
                None => continue,
            };
            params.push(ty);
        }
        facts.pub_fns.push(FnSig { name, params });
    }
}

fn is_self_param(part: &str) -> bool {
    let p = part
        .trim()
        .trim_start_matches('&')
        .trim_start_matches("mut ")
        .trim_start();
    // `&'a self` keeps a lifetime in front.
    let p = if let Some(stripped) = p.strip_prefix('\'') {
        stripped
            .trim_start_matches(is_ident)
            .trim_start()
            .trim_start_matches("mut ")
            .trim_start()
    } else {
        p
    };
    p == "self" || p.starts_with("self:") || p.starts_with("self ")
}

/// Byte offset of the first colon at zero bracket depth (skipping
/// `::`), or `None`.
fn find_top_level_colon(part: &str) -> Option<usize> {
    let bytes = part.as_bytes();
    let mut depth = 0i64;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'(' | b'[' | b'{' | b'<' => depth += 1,
            b')' | b']' | b'}' | b'>' => depth -= 1,
            b':' if depth == 0 => {
                if bytes.get(i + 1) == Some(&b':') {
                    i += 2;
                    continue;
                }
                return Some(i);
            }
            _ => {}
        }
        i += 1;
    }
    None
}

fn extract_enums(joined: &Joined, facts: &mut FileFacts) {
    for pos in joined.find_words("enum") {
        let window_start = pos.saturating_sub(24);
        let window: String = joined.chars[window_start..pos].iter().collect();
        if !(window.contains("pub ") || window.contains("pub(")) {
            continue;
        }
        let mut i = pos + 4;
        while i < joined.chars.len() && joined.chars[i].is_whitespace() {
            i += 1;
        }
        let name_start = i;
        while i < joined.chars.len() && is_ident(joined.chars[i]) {
            i += 1;
        }
        if i == name_start {
            continue;
        }
        let name: String = joined.chars[name_start..i].iter().collect();
        while i < joined.chars.len() && joined.chars[i] != '{' {
            // A `;` first means this was something else entirely.
            if joined.chars[i] == ';' {
                break;
            }
            i += 1;
        }
        if joined.chars.get(i) != Some(&'{') {
            continue;
        }
        let Some(close) = joined.matching(i) else {
            continue;
        };
        let body: String = joined.chars[i + 1..close].iter().collect();
        let mut variants = Vec::new();
        for part in split_top_level(&body) {
            let part = part.trim();
            // Strip attributes like `#[default]` in front of a variant.
            let part = strip_leading_attrs(part);
            let ident: String = part.chars().take_while(|c| is_ident(*c)).collect();
            if !ident.is_empty() && ident.chars().next().is_some_and(char::is_uppercase) {
                variants.push(ident);
            }
        }
        if !variants.is_empty() {
            facts.pub_enums.push(EnumDef { name, variants });
        }
    }
}

fn strip_leading_attrs(mut part: &str) -> &str {
    loop {
        part = part.trim_start();
        if !part.starts_with("#[") {
            return part;
        }
        match part.find(']') {
            Some(end) => part = &part[end + 1..],
            None => return part,
        }
    }
}

fn extract_newtypes(scan: &FileScan, facts: &mut FileFacts) {
    for line in &scan.clean {
        let t = line.trim_start();
        let Some(rest) = t.strip_prefix("pub struct ") else {
            continue;
        };
        let name: String = rest.chars().take_while(|c| is_ident(*c)).collect();
        let after = &rest[name.len()..];
        let Some(tuple) = after.trim_start().strip_prefix('(') else {
            continue;
        };
        let Some(close) = tuple.find(')') else {
            continue;
        };
        let inner = tuple[..close]
            .trim()
            .trim_start_matches("pub ")
            .trim()
            .to_owned();
        // A newtype wraps exactly one field.
        if !name.is_empty() && !inner.is_empty() && !inner.contains(',') {
            facts.newtypes.push((name, inner));
        }
    }
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
    fn pub_fn_signatures_capture_param_types() {
        let f = facts(
            "crates/core/src/x.rs",
            "pub fn with_deadline(t: SimTimeMs, budget: DurationMs) -> Self { t }\n\
             pub(crate) fn helper(n: usize) {}\n\
             fn private(t: SimTimeMs) {}\n\
             impl Foo {\n    pub fn tick(&mut self, now: SimTimeMs) {}\n}\n",
        );
        let names: Vec<&str> = f.pub_fns.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["with_deadline", "helper", "tick"]);
        assert_eq!(f.pub_fns[0].params, vec!["SimTimeMs", "DurationMs"]);
        assert_eq!(f.pub_fns[2].params, vec!["SimTimeMs"]);
    }

    #[test]
    fn multi_line_signature_and_qualified_types() {
        let f = facts(
            "crates/core/src/x.rs",
            "pub fn spawn(\n    start: units::SimTimeMs,\n    rate: faro_core::units::RatePerMin,\n    tags: Vec<f64>,\n) {}\n",
        );
        assert_eq!(
            f.pub_fns[0].params,
            vec!["SimTimeMs", "RatePerMin", "Vec<f64>"]
        );
    }

    #[test]
    fn enum_variants_extracted_with_payloads_and_attrs() {
        let f = facts(
            "crates/core/src/error.rs",
            "pub enum BackendError {\n    Timeout { elapsed: DurationMs },\n    Unavailable { reason: String },\n    PartialApply { applied: usize },\n    #[allow(dead_code)]\n    StaleSnapshot { age: DurationMs },\n}\n",
        );
        assert_eq!(f.pub_enums.len(), 1);
        assert_eq!(
            f.pub_enums[0].variants,
            vec!["Timeout", "Unavailable", "PartialApply", "StaleSnapshot"]
        );
    }

    #[test]
    fn aliases_and_newtypes_recorded() {
        let f = facts(
            "crates/core/src/error.rs",
            "pub type FaroError = Error;\npub struct SimTimeMs(pub i64);\n",
        );
        assert_eq!(
            f.aliases,
            vec![("FaroError".to_owned(), "Error".to_owned())]
        );
        assert_eq!(f.newtypes, vec![("SimTimeMs".to_owned(), "i64".to_owned())]);
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

    #[test]
    fn resolve_enum_follows_alias_and_disambiguates_by_variants() {
        let mut files = BTreeMap::new();
        files.insert(
            "crates/core/src/error.rs".to_owned(),
            facts(
                "crates/core/src/error.rs",
                "pub type FaroError = Error;\npub enum Error { InvalidConfig, Solver(String) }\n",
            ),
        );
        files.insert(
            "crates/sim/src/lib.rs".to_owned(),
            facts("crates/sim/src/lib.rs", "pub enum Error { Sim(String) }\n"),
        );
        let idx = build_index(files, &[]);
        let named = vec!["Solver".to_owned()];
        let def = idx.resolve_enum("FaroError", &named).unwrap();
        assert_eq!(def.variants, vec!["InvalidConfig", "Solver"]);
        // Ambiguous without a distinguishing variant.
        assert!(idx.resolve_enum("Error", &[]).is_none());
    }
}
