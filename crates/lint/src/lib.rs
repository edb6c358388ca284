//! faro-lint: workspace-local static analysis for the invariants the
//! simulator's bit-identical golden reports depend on.
//!
//! The simulator, solver, and control plane promise byte-identical
//! output for identical inputs (ROADMAP: "determinism is load
//! bearing"). That promise is easy to break with one innocent edit,
//! and every invariant behind it has exactly one owner. What rustc or
//! a configured clippy lint can see is theirs: the unit newtypes keep
//! their field private, so a bare number in a `SimTimeMs` parameter is
//! E0308; `crates/{core,sim,solver,control}/clippy.toml` disallow
//! `HashMap` / `HashSet` / `Instant` / `SystemTime` and the OS-seeded
//! `rand` entry points; `faro-control` denies
//! `clippy::wildcard_enum_match_arm`. Byte identity itself belongs to
//! the golden tests and `repro --check all`. This linter owns the rest
//! — the patterns that are legal Rust, invisible to clippy, and still
//! violate project invariants (a stray `* 60e6` that silently mixes
//! units, a retry loop with no bound). DESIGN.md, "Static analysis &
//! invariants", has the table.
//!
//! Every rule reads one file's contents, so the verdict depends on
//! nothing else:
//!
//! - `raw-time-arith`: forbids new raw-`f64`
//!   time/rate fields (suffixes `_secs`, `_ms`, `_micros`, `_per_min`,
//!   `_per_minute`) and bare cross-unit conversion constants (`60e6`,
//!   `1_000_000`, …) outside the unit home modules (`units.rs`,
//!   `count.rs`, `events.rs`).
//! - `no-panic-in-lib`: forbids `unwrap()`,
//!   bare `panic!`, and literal indexing in non-test library code of
//!   `sim` and `control`; `expect` is allowed only with an
//!   `"invariant: …"` message that states why it cannot fire.
//! - `no-unbounded-retry`: forbids
//!   `loop`/`while` blocks in `crates/control/src/` that retry
//!   `observe()`/`apply()` without a visible attempt counter or
//!   budget.
//! - `unused-allow`: an allow annotation that suppresses zero
//!   diagnostics (or names an unknown rule) is itself an error, so
//!   suppressions cannot rot.
//!
//! Escape hatch: a plain comment `faro-lint: allow(rule-id): reason`
//! on the offending line or the line above; the `allow-file(rule-id)`
//! form anywhere in a file silences the rule for the whole file.
//! Doc comments and string literals are never parsed for annotations.
//! Allows are deliberately loud in review — grep for the marker to
//! audit them — and `unused-allow` deletes them for you when they die.
//!
//! Run it with `cargo xtask lint` (wired into CI). The entry points
//! are [`lint_workspace`] for the workspace and [`lint_source`] /
//! [`lint_sources`] for in-memory files (used by the fixture tests).

mod diagnostics;
mod rules;
mod sanitize;
mod walk;

pub use diagnostics::Diagnostic;
pub use rules::{lint_source, lint_sources, KNOWN_RULES};
pub use walk::{lint_workspace, read_workspace};
