//! Rustc-style diagnostics.

use std::fmt;

/// One finding: a location and how to fix it.
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
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub help: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "error[raw-time-arith]: {}", self.message)?;
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
            message: "bare cross-unit conversion constant `60e6`".into(),
            help: "convert in faro_core::units".into(),
        };
        let rendered = d.to_string();
        assert_eq!(
            rendered,
            "error[raw-time-arith]: bare cross-unit conversion constant `60e6`\n  \
             --> crates/sim/src/backend.rs:12:5\n  \
             = help: convert in faro_core::units"
        );
    }

    #[test]
    fn sorts_by_location() {
        let mk = |file: &str, line, col| Diagnostic {
            file: file.into(),
            line,
            col,
            message: String::new(),
            help: String::new(),
        };
        let mut v = [
            mk("b.rs", 1, 1),
            mk("a.rs", 9, 1),
            mk("a.rs", 2, 7),
            mk("a.rs", 2, 3),
        ];
        v.sort();
        assert_eq!(
            v,
            [
                mk("a.rs", 2, 3),
                mk("a.rs", 2, 7),
                mk("a.rs", 9, 1),
                mk("b.rs", 1, 1)
            ]
        );
    }
}
