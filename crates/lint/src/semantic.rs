//! Phase 2: the cross-file rule over the [`WorkspaceIndex`].
//!
//! `float-order-determinism` needs a fact no single file contains: the
//! golden sensitivity closure that scopes it. Like the per-file rules
//! it is a heuristic token matcher over sanitized text — wrong in the
//! rare case, loud in the common one, and suppressible with a
//! justified `faro-lint: allow`.

use crate::diagnostics::Diagnostic;
use crate::index::WorkspaceIndex;
use crate::sanitize::FileScan;
use std::collections::BTreeSet;

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Crates whose golden-sensitive files get the float-order rule; the
/// queueing formulas are scalar math, not reductions over collections.
const FLOAT_ORDER_SCOPE: &[&str] = &["crates/core/src/", "crates/sim/src/", "crates/solver/src/"];

/// Tokens that mark a line (or its enclosing loop header) as touching
/// merged or parallel state, where reduction order is not obviously
/// the deterministic source order.
const PARALLEL_MARKERS: &[&str] = &["merge", "shard", "parallel", "thread", "worker", "handle"];

fn has_marker(line: &str) -> bool {
    PARALLEL_MARKERS.iter().any(|m| line.contains(m))
}

/// Rule `float-order-determinism`: order-sensitive `f64` reductions
/// (`sum()`, `fold` with `+`, `+=` in a loop) over merged/parallel
/// collections, in golden-sensitive core/sim/solver files. Float
/// addition is not associative; summing shard results in thread
/// completion order (or any order that can vary) changes the golden
/// bytes. The sharded merge's whole contract is "slot-indexed, thread
/// count invariant" — this rule guards the reductions downstream of
/// it.
pub fn float_order_determinism(
    path: &str,
    scan: &FileScan,
    index: &WorkspaceIndex,
    out: &mut Vec<Diagnostic>,
) {
    const RULE: &str = "float-order-determinism";
    let in_scope = FLOAT_ORDER_SCOPE.iter().any(|s| path.starts_with(s));
    if !in_scope || !index.is_golden_sensitive(path) {
        return;
    }
    const HELP: &str = "reduce in a fixed order (slot-indexed results, sorted keys) so the \
                        sum is bit-identical for any thread count; if the iteration order \
                        is already deterministic, say why with \
                        `// faro-lint: allow(float-order-determinism): reason`";
    let float_accs = float_accumulators(scan);
    for (idx, line) in scan.clean.iter().enumerate() {
        if scan.in_test[idx] {
            continue;
        }
        let marked = has_marker(line);
        for col in substr_all(line, ".sum::<f64>()") {
            if marked {
                out.push(diag(
                    path,
                    idx,
                    col,
                    RULE,
                    "order-sensitive f64 sum over merged/parallel data".to_owned(),
                    HELP,
                ));
            }
        }
        for col in substr_all(line, ".sum()") {
            if marked && line.contains("f64") {
                out.push(diag(
                    path,
                    idx,
                    col,
                    RULE,
                    "order-sensitive f64 sum over merged/parallel data".to_owned(),
                    HELP,
                ));
            }
        }
        for pat in [".fold(0.0", ".fold(0f64"] {
            for col in substr_all(line, pat) {
                let rest: String = line.chars().skip(col + pat.len()).collect();
                if marked && rest.contains('+') {
                    out.push(diag(
                        path,
                        idx,
                        col,
                        RULE,
                        "order-sensitive f64 fold over merged/parallel data".to_owned(),
                        HELP,
                    ));
                }
            }
        }
        for col in substr_all(line, "+=") {
            let Some(acc) = lhs_ident(line, col) else {
                continue;
            };
            if !float_accs.contains(&acc) {
                continue;
            }
            if marked || enclosing_loop_is_marked(scan, idx) {
                out.push(diag(
                    path,
                    idx,
                    col,
                    RULE,
                    format!("f64 accumulation `{acc} +=` in a merged/parallel loop"),
                    HELP,
                ));
            }
        }
    }
}

/// Identifiers a file uses as float accumulators: `let mut x = 0.0`,
/// `let mut x: f64`, `x: f64` / `x: Vec<f64>` declarations, and
/// `let mut x = vec![0.0; …]` buffers.
fn float_accumulators(scan: &FileScan) -> BTreeSet<String> {
    let mut accs = BTreeSet::new();
    for line in &scan.clean {
        let t = line.trim_start();
        if let Some(rest) = t.strip_prefix("let mut ") {
            let id: String = rest.chars().take_while(|c| is_ident(*c)).collect();
            let after = rest[id.len()..].trim_start();
            let floaty = after.starts_with(": f64")
                || after.starts_with(": Vec<f64>")
                || after.starts_with("= 0.0")
                || after.starts_with("= 0f64")
                || after.starts_with("= vec![0.0");
            if !id.is_empty() && floaty {
                accs.insert(id);
            }
            continue;
        }
        // Field / parameter declarations: `rate: f64,`.
        for pat in [": f64", ": Vec<f64>"] {
            for col in substr_all(line, pat) {
                let chars: Vec<char> = line.chars().collect();
                let mut start = col;
                while start > 0 && is_ident(chars[start - 1]) {
                    start -= 1;
                }
                if start < col {
                    accs.insert(chars[start..col].iter().collect());
                }
            }
        }
    }
    accs
}

/// Base identifier of the expression left of a `+=` at `col`:
/// `cluster_utility[m] +=` → `cluster_utility`, `rec.evals +=` →
/// `rec` — the *declared* name is what the accumulator set knows.
fn lhs_ident(line: &str, col: usize) -> Option<String> {
    let chars: Vec<char> = line.chars().collect();
    let lhs: String = chars[..col].iter().collect();
    let lhs = lhs.trim_end();
    // Walk back over one trailing index/field chain.
    let mut end = lhs.len();
    let bytes = lhs.as_bytes();
    if end > 0 && bytes[end - 1] == b']' {
        let mut depth = 0i64;
        while end > 0 {
            match bytes[end - 1] {
                b']' => depth += 1,
                b'[' => {
                    depth -= 1;
                    if depth == 0 {
                        end -= 1;
                        break;
                    }
                }
                _ => {}
            }
            end -= 1;
        }
    }
    let head = &lhs[..end];
    // First identifier of the dotted chain.
    let start = head
        .rfind(|c: char| !(is_ident(c) || c == '.'))
        .map_or(0, |p| p + 1);
    let base = head[start..].split('.').next().unwrap_or("");
    (!base.is_empty()
        && base
            .chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_'))
    .then(|| base.to_owned())
}

/// Looks upward for the nearest less-indented `for`/`while` header and
/// reports whether it mentions a parallel/merge marker. Indentation is
/// a fair proxy in a rustfmt'd tree.
fn enclosing_loop_is_marked(scan: &FileScan, idx: usize) -> bool {
    let indent = |l: &str| l.chars().take_while(|c| *c == ' ').count();
    let my = indent(&scan.clean[idx]);
    for back in (idx.saturating_sub(40)..idx).rev() {
        let line = &scan.clean[back];
        let t = line.trim_start();
        if t.is_empty() {
            continue;
        }
        if indent(line) < my && (t.starts_with("for ") || t.starts_with("while ")) {
            return has_marker(line);
        }
    }
    false
}

fn substr_all(line: &str, needle: &str) -> Vec<usize> {
    let chars: Vec<char> = line.chars().collect();
    let n: Vec<char> = needle.chars().collect();
    let mut hits = Vec::new();
    if chars.len() < n.len() || n.is_empty() {
        return hits;
    }
    for p in 0..=chars.len() - n.len() {
        if chars[p..p + n.len()] == n[..] {
            hits.push(p);
        }
    }
    hits
}

fn diag(
    path: &str,
    idx: usize,
    col: usize,
    rule: &'static str,
    message: String,
    help: &str,
) -> Diagnostic {
    Diagnostic {
        file: path.to_owned(),
        line: idx + 1,
        col: col + 1,
        rule,
        message,
        help: help.to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{build_index, extract_facts};
    use crate::sanitize;
    use std::collections::BTreeMap;

    fn index_of(files: &[(&str, &str)], seeds: &[&str]) -> WorkspaceIndex {
        let mut facts = BTreeMap::new();
        for (path, src) in files {
            facts.insert(
                (*path).to_owned(),
                extract_facts(path, &sanitize::scan(src)),
            );
        }
        build_index(facts, seeds)
    }

    fn run_rule(
        rule: fn(&str, &FileScan, &WorkspaceIndex, &mut Vec<Diagnostic>),
        path: &str,
        src: &str,
        index: &WorkspaceIndex,
    ) -> Vec<Diagnostic> {
        let scan = sanitize::scan(src);
        let mut out = Vec::new();
        rule(path, &scan, index, &mut out);
        out
    }

    #[test]
    fn float_sum_on_merged_data_in_sensitive_file_is_flagged() {
        let src = "let total: f64 = shard_load.iter().sum();\n";
        let path = "crates/core/src/sharded.rs";
        let idx = index_of(&[(path, src)], &[path]);
        let diags = run_rule(float_order_determinism, path, src, &idx);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "float-order-determinism");
        // Same file outside the golden set: silent.
        let cold = index_of(&[(path, src)], &[]);
        assert!(run_rule(float_order_determinism, path, src, &cold).is_empty());
    }

    #[test]
    fn float_accumulation_in_marked_loop_is_flagged() {
        let src = "let mut acc = 0.0;\nfor r in merged_results.iter() {\n    acc += r.value;\n}\n";
        let path = "crates/sim/src/report.rs";
        let idx = index_of(&[(path, src)], &[path]);
        let diags = run_rule(float_order_determinism, path, src, &idx);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("acc"));
    }

    #[test]
    fn integer_accumulation_and_unmarked_sums_pass() {
        let src = "let mut evals = 0u64;\nfor r in merged.iter() { evals += r.evals; }\n\
                   let mean: f64 = jobs.iter().map(|j| j.rate).sum();\n";
        let path = "crates/core/src/sharded.rs";
        let idx = index_of(&[(path, src)], &[path]);
        assert!(run_rule(float_order_determinism, path, src, &idx).is_empty());
    }
}
