//! The lint rules and the suppression/audit pass.
//!
//! Every rule works on a [`FileScan`]: sanitized lines (comments and
//! strings blanked) for matching, raw lines for the one check that
//! needs literal text (`expect` messages), per-line allowlists, and
//! test spans. Scoping is by path prefix so fixture tests can claim
//! any scope by passing a logical path.
//!
//! Rules emit *raw* diagnostics — they do not consult allow
//! annotations. [`finish`] then splits raw findings into kept and
//! suppressed, and turns every annotation that suppressed nothing into
//! an `unused-allow` finding of its own. Suppressions therefore cannot
//! rot: deleting the code a `faro-lint: allow` was written for makes
//! the annotation itself the error.

use crate::diagnostics::Diagnostic;
use crate::sanitize::{self, FileScan};

/// Every rule id the linter can emit. Allow annotations naming
/// anything else are flagged.
pub const KNOWN_RULES: &[&str] = &[
    "raw-time-arith",
    "no-panic-in-lib",
    "no-unbounded-retry",
    "unused-allow",
];

/// Lints one in-memory file. Equivalent to [`lint_sources`] with a
/// single entry.
pub fn lint_source(path: &str, content: &str) -> Vec<Diagnostic> {
    lint_sources(&[(path, content)])
}

/// Lints a set of in-memory files: the per-file rules, then the
/// suppression/unused-allow pass, on each. Output is sorted by
/// location.
pub fn lint_sources(files: &[(&str, &str)]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (path, content) in files {
        let scan = sanitize::scan(content);
        let mut raw = Vec::new();
        per_file_rules(path, &scan, &mut raw);
        out.extend(finish(path, &scan, raw));
    }
    out.sort();
    out
}

/// Runs the three per-file rules, emitting raw (unsuppressed)
/// diagnostics.
pub fn per_file_rules(path: &str, scan: &FileScan, out: &mut Vec<Diagnostic>) {
    raw_time_arith(path, scan, out);
    no_panic_in_lib(path, scan, out);
    no_unbounded_retry(path, scan, out);
}

/// Applies allow annotations to `raw` and audits them: returns the
/// kept diagnostics plus one `unused-allow` finding per annotation
/// that suppressed nothing (or names no known rule). `unused-allow`
/// findings are themselves unsuppressible — an allow for an allow
/// would defeat the audit.
pub fn finish(path: &str, scan: &FileScan, raw: Vec<Diagnostic>) -> Vec<Diagnostic> {
    let mut kept = Vec::new();
    let mut suppressed: Vec<Diagnostic> = Vec::new();
    for d in raw {
        if scan.allows(d.line - 1, d.rule) {
            suppressed.push(d);
        } else {
            kept.push(d);
        }
    }
    for site in &scan.allow_sites {
        if scan.in_test.get(site.line).copied().unwrap_or(false) {
            continue; // test code is exempt from the rules, and so
                      // from the audit of their annotations
        }
        if !KNOWN_RULES.contains(&site.rule.as_str()) {
            kept.push(Diagnostic {
                file: path.to_owned(),
                line: site.line + 1,
                col: site.col + 1,
                rule: "unused-allow",
                message: format!("allow annotation names unknown rule `{}`", site.rule),
                help: "check the rule id against the list in crates/lint/src/lib.rs; \
                       a typo here silently disables nothing"
                    .to_owned(),
            });
            continue;
        }
        let used = match site.covers {
            Some(line) => suppressed
                .iter()
                .any(|d| d.line == line + 1 && d.rule == site.rule),
            None => suppressed.iter().any(|d| d.rule == site.rule),
        };
        if !used {
            kept.push(Diagnostic {
                file: path.to_owned(),
                line: site.line + 1,
                col: site.col + 1,
                rule: "unused-allow",
                message: format!(
                    "allow annotation for `{}` suppresses no diagnostic",
                    site.rule
                ),
                help: "the code this suppression was written for is gone or clean — \
                       delete the annotation so the rule is live again"
                    .to_owned(),
            });
        }
    }
    kept
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// All word-boundary occurrences of `word` in `line` (char offsets).
fn find_words(line: &str, word: &str) -> Vec<usize> {
    let chars: Vec<char> = line.chars().collect();
    let needle: Vec<char> = word.chars().collect();
    let mut hits = Vec::new();
    if needle.is_empty() || chars.len() < needle.len() {
        return hits;
    }
    for p in 0..=chars.len() - needle.len() {
        if chars[p..p + needle.len()] != needle[..] {
            continue;
        }
        let before_ok = p == 0 || !is_ident(chars[p - 1]);
        let after = p + needle.len();
        let after_ok = after >= chars.len() || !is_ident(chars[after]);
        if before_ok && after_ok {
            hits.push(p);
        }
    }
    hits
}

fn scoped(path: &str, prefixes: &[&str]) -> bool {
    let p = path.replace('\\', "/");
    prefixes.iter().any(|s| p.contains(s))
}

/// Files that *define* the unit boundary and therefore may do raw
/// conversion arithmetic.
const UNIT_HOME_SUFFIXES: &[&str] = &["/units.rs", "/count.rs", "/events.rs"];

/// Suffixes that mark a field as carrying a time or a rate.
const UNIT_SUFFIXES: &[&str] = &["_secs", "_ms", "_micros", "_per_min", "_per_minute"];

/// Conversion constants that mix units (seconds↔micros, min↔micros).
const CROSS_UNIT_LITERALS: &[&str] = &["60e6", "60_000_000", "1e6", "1_000_000"];

/// Crates where bare conversion constants are flagged (the hot paths
/// where a stray `* 60e6` once meant a silent unit bug).
const CROSS_UNIT_SCOPE: &[&str] = &[
    "crates/core/src/",
    "crates/sim/src/",
    "crates/solver/src/",
    "crates/control/src/",
    "crates/queueing/src/",
];

/// Rule `raw-time-arith`: new time/rate state must use the typed
/// newtypes. Flags (a) field/param declarations whose name ends in a
/// unit suffix but whose type is a bare `f64` (or container of one),
/// and (b) bare cross-unit conversion constants outside the unit home
/// modules. Legacy wire-format fields carry explicit
/// `faro-lint: allow(raw-time-arith)` annotations.
pub fn raw_time_arith(path: &str, scan: &FileScan, out: &mut Vec<Diagnostic>) {
    const RULE: &str = "raw-time-arith";
    let p = path.replace('\\', "/");
    if !p.contains("/src/") || UNIT_HOME_SUFFIXES.iter().any(|s| p.ends_with(s)) {
        return;
    }
    let flag_literals = scoped(path, CROSS_UNIT_SCOPE);
    for (idx, line) in scan.clean.iter().enumerate() {
        if scan.in_test[idx] {
            continue;
        }
        let chars: Vec<char> = line.chars().collect();
        for suffix in UNIT_SUFFIXES {
            for pos in find_words_suffix(&chars, suffix) {
                // `pos` is the start of the suffix; the identifier may
                // begin earlier (`cold_start_secs`).
                let mut start = pos;
                while start > 0 && is_ident(chars[start - 1]) {
                    start -= 1;
                }
                let end = pos + suffix.len();
                // A declaration: identifier followed by `:` and a raw
                // float type.
                let rest: String = chars[end..].iter().collect();
                let rest = rest.trim_start();
                let Some(ty) = rest.strip_prefix(':') else {
                    continue;
                };
                let ty = ty.trim_start();
                let bare = ty.strip_prefix("f64").is_some_and(|after| {
                    !after.starts_with(':') && !after.chars().next().is_some_and(is_ident)
                });
                let wrapped = ty.starts_with("Vec<f64>")
                    || ty.starts_with("Option<f64>")
                    || ty.starts_with("&[f64]");
                if !(bare || wrapped) {
                    continue;
                }
                let ident: String = chars[start..end].iter().collect();
                out.push(Diagnostic {
                    file: path.to_owned(),
                    line: idx + 1,
                    col: start + 1,
                    rule: RULE,
                    message: format!("raw f64 time/rate declaration `{ident}`"),
                    help: "use SimTimeMs/DurationMs/RatePerMin from faro_core::units; \
                           a legacy wire-format field may carry \
                           `// faro-lint: allow(raw-time-arith): reason`"
                        .to_owned(),
                });
            }
        }
        if !flag_literals {
            continue;
        }
        for lit in CROSS_UNIT_LITERALS {
            for col in find_literals(&chars, lit) {
                out.push(Diagnostic {
                    file: path.to_owned(),
                    line: idx + 1,
                    col: col + 1,
                    rule: RULE,
                    message: format!("bare cross-unit conversion constant `{lit}`"),
                    help: "do the conversion inside faro_core::units / sim::events, \
                           or annotate a micros-domain site with \
                           `// faro-lint: allow(raw-time-arith): reason`"
                        .to_owned(),
                });
            }
        }
    }
}

/// Occurrences of `suffix` that end an identifier (char before may be
/// part of the ident; char after must not be).
fn find_words_suffix(chars: &[char], suffix: &str) -> Vec<usize> {
    let needle: Vec<char> = suffix.chars().collect();
    let mut hits = Vec::new();
    if chars.len() < needle.len() {
        return hits;
    }
    for p in 0..=chars.len() - needle.len() {
        if chars[p..p + needle.len()] != needle[..] {
            continue;
        }
        let after = p + needle.len();
        if after < chars.len() && is_ident(chars[after]) {
            continue; // `_per_min` inside `_per_minute`
        }
        hits.push(p);
    }
    hits
}

/// Occurrences of numeric literal `lit` with numeric-token boundaries.
fn find_literals(chars: &[char], lit: &str) -> Vec<usize> {
    let needle: Vec<char> = lit.chars().collect();
    let mut hits = Vec::new();
    if chars.len() < needle.len() {
        return hits;
    }
    for p in 0..=chars.len() - needle.len() {
        if chars[p..p + needle.len()] != needle[..] {
            continue;
        }
        let before_ok = p == 0 || !(is_ident(chars[p - 1]) || chars[p - 1] == '.');
        let after = p + needle.len();
        let after_ok = after >= chars.len() || !is_ident(chars[after]);
        if before_ok && after_ok {
            hits.push(p);
        }
    }
    hits
}

/// Crates whose library code must not panic: the simulator and the
/// control plane run unattended inside long sweeps and (eventually)
/// against live clusters.
const NO_PANIC_SCOPE: &[&str] = &["crates/sim/src/", "crates/control/src/"];

/// Rule `no-panic-in-lib`: non-test library code in `sim` and
/// `control` must not `unwrap()`, `panic!`, or index with a literal.
/// `expect` is allowed only when the message starts with
/// `"invariant: "` — i.e. the author states *why* it cannot fire.
pub fn no_panic_in_lib(path: &str, scan: &FileScan, out: &mut Vec<Diagnostic>) {
    const RULE: &str = "no-panic-in-lib";
    if !scoped(path, NO_PANIC_SCOPE) {
        return;
    }
    for (idx, line) in scan.clean.iter().enumerate() {
        if scan.in_test[idx] {
            continue;
        }
        for col in substr_all(line, ".unwrap()") {
            out.push(diag(
                path,
                idx,
                col,
                RULE,
                "unwrap() in library code".to_owned(),
                "return a typed error, or use .expect(\"invariant: ...\") \
                 stating why this cannot fail",
            ));
        }
        for mac in ["panic!", "unimplemented!", "todo!"] {
            for col in find_words(line, &mac[..mac.len() - 1]) {
                // find_words matched the name; require the `!`.
                let bang = col + mac.len() - 1;
                if line.chars().nth(bang) == Some('!') {
                    out.push(diag(
                        path,
                        idx,
                        col,
                        RULE,
                        format!("{mac} in library code"),
                        "return a typed error; the simulator must survive bad \
                         inputs inside long sweeps",
                    ));
                }
            }
        }
        for col in substr_all(line, ".expect(") {
            // Columns are identical in raw and clean text, so the raw
            // line tells us what the (blanked) message literal said.
            let raw_rest: String = scan.raw[idx].chars().skip(col).collect();
            if !raw_rest.starts_with(".expect(\"invariant:") {
                out.push(diag(
                    path,
                    idx,
                    col,
                    RULE,
                    "expect() without an `invariant:` message".to_owned(),
                    "prefix the message with \"invariant: \" and state why the \
                     value is always present, or return a typed error",
                ));
            }
        }
        // Literal indexing `xs[0]`: a `.get` away from a panic.
        let chars: Vec<char> = line.chars().collect();
        for (i, &c) in chars.iter().enumerate() {
            if c != '[' || i == 0 || !is_ident(chars[i - 1]) {
                continue;
            }
            let mut j = i + 1;
            while j < chars.len() && chars[j].is_ascii_digit() {
                j += 1;
            }
            if j > i + 1 && chars.get(j) == Some(&']') {
                out.push(diag(
                    path,
                    idx,
                    i,
                    RULE,
                    format!(
                        "literal index `[{}]` in library code",
                        chars[i + 1..j].iter().collect::<String>()
                    ),
                    "use .get(i) / .first() and handle the None arm",
                ));
            }
        }
    }
}

/// Crate whose code drives fallible backend calls and therefore must
/// bound every retry loop around them.
const RETRY_SCOPE: &[&str] = &["crates/control/src/"];

/// Backend-call markers a retry loop would wrap.
const BACKEND_CALLS: &[&str] = &[".observe(", ".apply(", ".apply_with("];

/// Identifiers whose presence marks a loop as bounded: an attempt
/// counter or a backoff/timeout budget checked inside the body.
const BOUND_MARKERS: &[&str] = &["attempt", "attempts", "budget"];

/// Rule `no-unbounded-retry`: a `loop`/`while` block in `crates/control`
/// that calls `observe`/`apply` must carry a bounded attempt counter or
/// budget. A live backend that starts refusing calls turns an
/// unbounded retry loop into a spin that never returns control to the
/// round driver — exactly the failure mode the resilient driver's
/// `max_attempts`/budget pair exists to prevent. The check is
/// heuristic by design: the loop body (to its matching closing brace)
/// must mention an `attempt`/`attempts`/`budget` identifier.
pub fn no_unbounded_retry(path: &str, scan: &FileScan, out: &mut Vec<Diagnostic>) {
    const RULE: &str = "no-unbounded-retry";
    if !scoped(path, RETRY_SCOPE) {
        return;
    }
    for (idx, line) in scan.clean.iter().enumerate() {
        if scan.in_test[idx] {
            continue;
        }
        let keyword = ["loop", "while"]
            .iter()
            .find_map(|kw| find_words(line, kw).first().map(|&col| (*kw, col)));
        let Some((kw, col)) = keyword else {
            continue;
        };
        // Walk to the loop's matching closing brace, then look for a
        // backend call and a bound marker anywhere in the body.
        let mut depth = 0i32;
        let mut opened = false;
        let mut calls_backend = false;
        let mut bounded = false;
        let mut cursor = idx;
        while cursor < scan.clean.len() {
            let body = &scan.clean[cursor];
            // The loop header line itself may contain the condition;
            // only text from the keyword onward belongs to the loop.
            let text: String = if cursor == idx {
                body.chars().skip(col).collect()
            } else {
                body.clone()
            };
            calls_backend |= BACKEND_CALLS
                .iter()
                .any(|c| !substr_all(&text, c).is_empty());
            bounded |= BOUND_MARKERS
                .iter()
                .any(|m| !find_words(&text, m).is_empty());
            for c in text.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            if opened && depth <= 0 {
                break;
            }
            cursor += 1;
        }
        if calls_backend && !bounded {
            out.push(diag(
                path,
                idx,
                col,
                RULE,
                format!("`{kw}` retries backend calls without a bound"),
                "cap the loop with an attempt counter checked against \
                 max_attempts or charge a backoff budget (see \
                 ResilientDriver), or annotate with \
                 `// faro-lint: allow(no-unbounded-retry): reason`",
            ));
        }
    }
}

fn substr_all(line: &str, needle: &str) -> Vec<usize> {
    let chars: Vec<char> = line.chars().collect();
    let n: Vec<char> = needle.chars().collect();
    let mut hits = Vec::new();
    if chars.len() < n.len() {
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

    #[test]
    fn out_of_scope_paths_are_ignored() {
        let src = "let x = v.first().unwrap();\n";
        assert!(lint_source("crates/metrics/src/lib.rs", src).is_empty());
        assert_eq!(lint_source("crates/sim/src/lib.rs", src).len(), 1);
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    const MICROS: f64 = 60e6;\n}\n";
        assert!(lint_source("crates/core/src/lib.rs", src).is_empty());
    }

    #[test]
    fn allow_silences_one_line() {
        let src =
            "let t = 60e6; // faro-lint: allow(raw-time-arith): micros domain\nlet u = 60e6;\n";
        let diags = lint_source("crates/sim/src/x.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn unit_home_modules_are_exempt() {
        let src = "pub fn micros(secs: f64) -> u64 { (secs * 1e6) as u64 }\n";
        assert!(lint_source("crates/sim/src/events.rs", src).is_empty());
        assert!(!lint_source("crates/sim/src/other.rs", src).is_empty());
    }

    #[test]
    fn expect_with_invariant_message_is_fine() {
        let ok = "let x = v.first().expect(\"invariant: validated non-empty\");\n";
        let bad = "let x = v.first().expect(\"always there\");\n";
        assert!(lint_source("crates/sim/src/x.rs", ok).is_empty());
        assert_eq!(lint_source("crates/sim/src/x.rs", bad).len(), 1);
    }

    #[test]
    fn float_method_paths_do_not_trip_the_field_check() {
        // `cold_start_secs: f64::NAN` in a struct literal is a value, not a
        // declaration.
        let src = "let c = SimConfig { cold_start_secs: f64::NAN, ..Default::default() };\n";
        assert!(lint_source("crates/forecast/src/x.rs", src).is_empty());
    }

    #[test]
    fn suffix_matching_respects_identifier_ends() {
        let src = "pub window_per_minute: f64,\n";
        let diags = lint_source("crates/forecast/src/x.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("window_per_minute"));
    }
}
