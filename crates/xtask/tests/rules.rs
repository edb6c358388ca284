//! The raw-time check on whole files through the public API: it fires
//! with exactly the expected findings on a violating file and stays
//! silent on its typed twin, in the unit homes and, for literals,
//! outside the five scoped crates; an allowlist entry silences its site
//! and one that covers nothing is a finding.

use xtask::raw_time_findings;

/// The logical path files are checked under: inside `crates/sim/src/`
/// puts them in scope of both the declaration and the literal checks.
const SCOPE: &str = "crates/sim/src/fixture.rs";

/// Raw f64 time and rate declarations and bare cross-unit constants,
/// suffixed ones included.
const VIOLATION: &str = "\
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
";

/// The typed twin: times and rates wear their units as types and
/// conversions live behind the newtype APIs.
const CLEAN: &str = "\
pub struct Window {
    pub start: SimTimeMs,
    pub width: DurationMs,
    pub rates: Vec<RatePerMin>,
}

pub fn to_micros(start: SimTimeMs) -> i64 {
    start.as_millis() * 1000
}
";

/// A serialized report field that stays a raw f64.
const WIRE: &str = "\
pub struct WireReport {
    pub elapsed_secs: f64,
}
";

fn check(path: &str, source: &str, allow: &[&str]) -> Vec<String> {
    raw_time_findings(&[(path.to_owned(), source.to_owned())], allow)
}

#[test]
fn raw_time_arith_fires_with_exact_diagnostics() {
    assert_eq!(
        check(SCOPE, VIOLATION, &[]),
        [
            "crates/sim/src/fixture.rs:2: start_secs",
            "crates/sim/src/fixture.rs:3: width_ms",
            "crates/sim/src/fixture.rs:4: rates_per_minute",
            "crates/sim/src/fixture.rs:7: start_secs",
            "crates/sim/src/fixture.rs:8: 1e6",
            "crates/sim/src/fixture.rs:12: 60e6",
            "crates/sim/src/fixture.rs:16: 60e6_f64",
            "crates/sim/src/fixture.rs:16: 60e6f64",
            "crates/sim/src/fixture.rs:16: 60_000_000u64",
        ]
    );
}

#[test]
fn raw_time_arith_clean_is_silent() {
    assert_eq!(check(SCOPE, CLEAN, &[]), Vec::<String>::new());
}

#[test]
fn raw_time_arith_is_silent_in_unit_home_modules() {
    for home in [
        "crates/core/src/units.rs",
        "crates/sim/src/events.rs",
        "crates/queueing/src/count.rs",
    ] {
        assert_eq!(check(home, VIOLATION, &[]), Vec::<String>::new(), "{home}");
    }
}

#[test]
fn rules_stay_out_of_unscoped_crates() {
    // The metrics crate is outside the literal check's scope: only the
    // four declarations, which every crate's `src/` is held to, fire.
    assert_eq!(
        check("crates/metrics/src/fixture.rs", VIOLATION, &[]),
        [
            "crates/metrics/src/fixture.rs:2: start_secs",
            "crates/metrics/src/fixture.rs:3: width_ms",
            "crates/metrics/src/fixture.rs:4: rates_per_minute",
            "crates/metrics/src/fixture.rs:7: start_secs",
        ]
    );
}

#[test]
fn unused_allow_fires_with_exact_diagnostics() {
    // A name typed since, a name in another file and an entry without a
    // reason each cover nothing; the last leaves its site a finding.
    let allow = [
        "crates/sim/src/fixture.rs start_secs: the field is typed now",
        "crates/sim/src/other.rs elapsed_secs: another file's field",
        "crates/sim/src/fixture.rs elapsed_secs",
    ];
    assert_eq!(
        check(SCOPE, WIRE, &allow),
        [
            "crates/sim/src/fixture.rs:2: elapsed_secs".to_owned(),
            format!("allowlist entry `{}` matches nothing", allow[0]),
            format!("allowlist entry `{}` matches nothing", allow[1]),
            format!("allowlist entry `{}` matches nothing", allow[2]),
        ]
    );
}

#[test]
fn unused_allow_clean_is_silent() {
    let allow = ["crates/sim/src/fixture.rs elapsed_secs: serialized report wire format"];
    assert_eq!(check(SCOPE, WIRE, &allow), Vec::<String>::new());
}
