//! The `raw-time-arith` check and the audit of its annotations.
//!
//! The check works on a [`FileScan`]: sanitized lines (comments and
//! strings blanked) for matching, the file's `faro-lint:` annotations,
//! and its test spans. Scoping is by path so fixture tests can claim
//! any scope by passing a logical path.
//!
//! The check emits *raw* findings without consulting annotations.
//! [`lint_file`] then drops the findings an `allow(raw-time-arith)`
//! covers and turns every annotation that suppressed nothing into a
//! finding of its own: deleting the code an allow was written for
//! makes the allow itself the error, and an annotation naming anything
//! else never suppresses a thing.

use crate::diagnostics::Diagnostic;
use crate::sanitize::{self, FileScan};

/// Checks one file: the raw findings no annotation covers, plus one
/// finding per annotation that suppresses nothing. Annotations inside
/// test code are exempt from the audit, as the code around them is
/// from the check.
pub fn lint_file(path: &str, content: &str) -> Vec<Diagnostic> {
    let scan = sanitize::scan(content);
    let raw = raw_time_arith(path, &scan);
    let (suppressed, mut kept): (Vec<Diagnostic>, Vec<Diagnostic>) =
        raw.into_iter().partition(|d| scan.allows(d.line - 1));
    for site in &scan.allow_sites {
        if scan.in_test.get(site.line).copied().unwrap_or(false) {
            continue;
        }
        let (message, help) = match site.covers {
            None => (
                format!("annotation `faro-lint: {}` suppresses nothing", site.text),
                "`// faro-lint: allow(raw-time-arith): reason` is the only annotation; \
                 clippy lints are suppressed with `#[expect(clippy::…, reason = \"…\")]`, \
                 which rustc audits",
            ),
            Some(line) if !suppressed.iter().any(|d| d.line == line + 1) => (
                "allow annotation for `raw-time-arith` suppresses no diagnostic".to_owned(),
                "the code this suppression was written for is gone or clean — \
                 delete the annotation so the check is live again",
            ),
            Some(_) => continue,
        };
        kept.push(Diagnostic {
            file: path.to_owned(),
            line: site.line + 1,
            col: site.col + 1,
            message,
            help: help.to_owned(),
        });
    }
    kept.sort();
    kept
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Files that *define* the unit boundary and therefore may do raw
/// conversion arithmetic.
const UNIT_HOME_SUFFIXES: &[&str] = &["/units.rs", "/count.rs", "/events.rs"];

/// Suffixes that mark a field as carrying a time or a rate.
const UNIT_SUFFIXES: &[&str] = &["_secs", "_ms", "_micros", "_per_min", "_per_minute"];

/// Conversion constants that mix units (seconds↔micros, min↔micros).
const CROSS_UNIT_LITERALS: &[&str] = &["60e6", "60_000_000", "1e6", "1_000_000"];

/// Type suffixes a numeric literal may end with (`60e6_f64`, `1e6f32`,
/// `60_000_000u64`).
const LITERAL_TYPES: &[&str] = &[
    "f32", "f64", "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128",
    "isize",
];

/// Crates where bare conversion constants are flagged (the hot paths
/// where a stray `* 60e6` once meant a silent unit bug).
const CROSS_UNIT_SCOPE: &[&str] = &[
    "crates/core/src/",
    "crates/sim/src/",
    "crates/solver/src/",
    "crates/control/src/",
    "crates/queueing/src/",
];

/// `raw-time-arith`: new time/rate state must use the typed newtypes.
/// Flags (a) field/param declarations whose name ends in a unit suffix
/// but whose type is a bare `f64` (or container of one), and (b) bare
/// cross-unit conversion constants outside the unit home modules.
/// Legacy wire-format fields carry explicit
/// `faro-lint: allow(raw-time-arith)` annotations.
fn raw_time_arith(path: &str, scan: &FileScan) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let p = path.replace('\\', "/");
    if !p.contains("/src/") || UNIT_HOME_SUFFIXES.iter().any(|s| p.ends_with(s)) {
        return out;
    }
    let flag_literals = CROSS_UNIT_SCOPE.iter().any(|s| p.contains(s));
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
                    message: format!("bare cross-unit conversion constant `{lit}`"),
                    help: "do the conversion inside faro_core::units / sim::events, \
                           or annotate a micros-domain site with \
                           `// faro-lint: allow(raw-time-arith): reason`"
                        .to_owned(),
                });
            }
        }
    }
    out
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

/// Occurrences of numeric literal `lit` with numeric-token boundaries:
/// nothing numeric before it, and after it either no identifier
/// character or an optional `_` and a type suffix that ends the token.
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
        let token_end = chars[after..]
            .iter()
            .position(|&c| !is_ident(c))
            .map_or(chars.len(), |len| after + len);
        let tail: String = chars[after..token_end].iter().collect();
        let suffix = tail.strip_prefix('_').unwrap_or(&tail);
        if before_ok && (tail.is_empty() || LITERAL_TYPES.contains(&suffix)) {
            hits.push(p);
        }
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_scope_paths_are_ignored() {
        let src = "let gap = 60e6 / rate;\n";
        assert!(lint_file("crates/metrics/src/lib.rs", src).is_empty());
        assert!(lint_file("crates/cluster/src/server.rs", src).is_empty());
        assert_eq!(lint_file("crates/sim/src/lib.rs", src).len(), 1);
        assert!(lint_file("crates/sim/tests/it.rs", src).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    const MICROS: f64 = 60e6;\n}\n";
        assert!(lint_file("crates/core/src/lib.rs", src).is_empty());
    }

    /// A gated statement hides only itself: the library code after it
    /// is still checked.
    #[test]
    fn code_after_a_braceless_cfg_test_item_is_checked() {
        let src = "pub fn f(r: f64) -> f64 {\n    #[cfg(test)]\n    bump();\n    r / 60e6\n}";
        let diags = lint_file("crates/core/src/lib.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 4);
    }

    #[test]
    fn allow_silences_one_line() {
        let src =
            "let t = 60e6; // faro-lint: allow(raw-time-arith): micros domain\nlet u = 60e6;\n";
        let diags = lint_file("crates/sim/src/x.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn unit_home_modules_are_exempt() {
        let src = "pub fn micros(secs: f64) -> u64 { (secs * 1e6) as u64 }\n";
        assert!(lint_file("crates/sim/src/events.rs", src).is_empty());
        assert!(!lint_file("crates/sim/src/other.rs", src).is_empty());
    }

    #[test]
    fn float_method_paths_do_not_trip_the_field_check() {
        // `cold_start_secs: f64::NAN` in a struct literal is a value, not a
        // declaration.
        let src = "let c = SimConfig { cold_start_secs: f64::NAN, ..Default::default() };\n";
        assert!(lint_file("crates/forecast/src/x.rs", src).is_empty());
    }

    #[test]
    fn suffix_matching_respects_identifier_ends() {
        let src = "pub window_per_minute: f64,\n";
        let diags = lint_file("crates/forecast/src/x.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("window_per_minute"));
    }

    #[test]
    fn literals_end_at_a_type_suffix_and_nowhere_else() {
        let hits = |line: &str, lit: &str| find_literals(&line.chars().collect::<Vec<_>>(), lit);
        for line in ["60e6", "60e6_f64", "60e6f64", "(60e6u64)", "60e6_usize;"] {
            assert_eq!(hits(line, "60e6"), [line.find('6').unwrap_or(0)], "{line}");
        }
        for line in ["60e60", "60e6_x", "60e6f6", "1.60e6", "x60e6", "60e6_f64x"] {
            assert!(hits(line, "60e6").is_empty(), "{line}");
        }
        assert!(hits("1_000_000_000", "1_000_000").is_empty());
        assert_eq!(hits("1_000_000i64", "1_000_000"), [0]);
    }
}
