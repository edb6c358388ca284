//! Rustc-style diagnostics.

use std::fmt;

/// One finding: a rule, a location, and how to fix it.
///
/// Ordered by location first (file, line, col) so sorted output reads
/// like a compiler's: top of the file downward.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column (character offset).
    pub col: usize,
    /// Rule id, e.g. `no-panic-in-lib`.
    pub rule: &'static str,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub help: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "error[{}]: {}", self.rule, self.message)?;
        writeln!(f, "  --> {}:{}:{}", self.file, self.line, self.col)?;
        write!(f, "  = help: {}", self.help)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_like_rustc() {
        let d = Diagnostic {
            file: "crates/sim/src/backend.rs".into(),
            line: 12,
            col: 5,
            rule: "no-panic-in-lib",
            message: "unwrap() in library code".into(),
            help: "return a typed error".into(),
        };
        let rendered = d.to_string();
        assert_eq!(
            rendered,
            "error[no-panic-in-lib]: unwrap() in library code\n  \
             --> crates/sim/src/backend.rs:12:5\n  \
             = help: return a typed error"
        );
    }

    #[test]
    fn sorts_by_location_then_rule() {
        let mk = |file: &str, line, rule: &'static str| Diagnostic {
            file: file.into(),
            line,
            col: 1,
            rule,
            message: String::new(),
            help: String::new(),
        };
        let mut v = [
            mk("b.rs", 1, "raw-time-arith"),
            mk("a.rs", 9, "no-panic-in-lib"),
            mk("a.rs", 2, "raw-time-arith"),
        ];
        v.sort();
        assert_eq!(v[0].file, "a.rs");
        assert_eq!(v[0].line, 2);
        assert_eq!(v[2].file, "b.rs");
    }
}
