//! Fixture: every annotation here is dead — the audit turns each one
//! into its own finding, so suppressions cannot rot.

// faro-lint: allow(raw-time-arith): the field below is typed now
pub struct Window {
    pub start: SimTimeMs,
}

// faro-lint: allow(no-unbounded-retry): a retired rule suppresses nothing
pub fn observe_once() -> bool {
    true
}

// faro-lint: allow(determinism-is-nice): not a rule id
pub fn noop() {}

// faro-lint: allow-file(raw-time-arith)
