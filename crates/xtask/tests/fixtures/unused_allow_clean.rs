//! Clean twin: one justified allow that suppresses a live diagnostic
//! — used allows are not findings.

pub struct WireReport {
    // faro-lint: allow(raw-time-arith): serialized report wire format stays raw f64
    pub elapsed_secs: f64,
}
