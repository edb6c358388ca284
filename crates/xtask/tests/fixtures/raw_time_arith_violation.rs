//! Fixture: raw f64 time/rate declarations and bare cross-unit
//! constants, suffixed ones included. Linted as
//! `crates/sim/src/fixture.rs`.

pub struct Window {
    pub start_secs: f64,
    pub width_ms: f64,
    pub rates_per_minute: Vec<f64>,
}

pub fn to_micros(start_secs: f64) -> u64 {
    (start_secs * 1e6) as u64
}

pub fn per_minute_to_per_micro(rate: f64) -> f64 {
    rate / 60e6
}

pub fn suffixed(rate: f64) -> (f64, f64, u64) {
    (rate / 60e6_f64, rate / 60e6f64, 60_000_000u64)
}
