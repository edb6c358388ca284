//! Typed time and rate quantities shared by every Faro layer.
//!
//! The paper's inputs mix units freely — traces are requests **per
//! minute**, service times are **milliseconds**, SLOs are **seconds** —
//! and a raw `f64` cannot tell them apart. These newtypes give each
//! quantity a distinct type so unit mix-ups are compile errors, and give
//! every conversion one audited home. `raw-time-arith`, the one check
//! `cargo xtask lint` runs, rejects new raw-`f64` time/rate fields and
//! bare cross-unit conversion constants outside this module.
//!
//! All conversions are chosen to be *bit-preserving* with respect to the
//! arithmetic the simulator previously performed on raw `f64`s:
//!
//! - [`SimTimeMs`] stores whole milliseconds; the simulator's microsecond
//!   event clock only surfaces millisecond-aligned instants, and for
//!   `t = 1000 * m` microseconds the IEEE divisions `m / 1e3` and
//!   `t / 1e6` produce identical bits.
//! - [`RatePerMin::per_sec`] divides by `60.0`, replicating the
//!   `rate / 60.0` expression used throughout the policies.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};
use serde::Serialize;

pub use faro_queueing::ReplicaCount;

/// An absolute simulation instant, stored as whole milliseconds.
///
/// Serialized as `f64` seconds so snapshots and reports keep the exact
/// JSON representation they had when `now` was a raw `f64`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTimeMs(i64);

impl SimTimeMs {
    /// The epoch (`t = 0`).
    pub const ZERO: Self = Self(0);
    /// The distant past: earlier than any representable instant. Used as
    /// a "never happened" sentinel (subtraction saturates, so
    /// `now - MIN` is a huge duration, never an overflow).
    pub const MIN: Self = Self(i64::MIN);
    /// The distant future.
    pub const MAX: Self = Self(i64::MAX);

    /// An instant from whole milliseconds.
    pub const fn from_millis(ms: i64) -> Self {
        Self(ms)
    }

    /// An instant from the simulator's microsecond event clock.
    ///
    /// Rounds to the nearest millisecond; the event loop only observes
    /// policy ticks, which are millisecond-aligned.
    pub const fn from_micros(us: u64) -> Self {
        // Round half up: (us + 500) / 1000 without overflow for any
        // realistic simulation horizon.
        Self(((us + 500) / 1000) as i64)
    }

    /// An instant from `f64` seconds, rounded to the nearest millisecond.
    ///
    /// Non-finite inputs map to the matching sentinel ([`SimTimeMs::MIN`]
    /// / [`SimTimeMs::MAX`]) rather than a bogus instant.
    pub fn from_secs(secs: f64) -> Self {
        if secs.is_nan() {
            return Self::ZERO;
        }
        let ms = (secs * 1e3).round();
        if ms <= i64::MIN as f64 {
            Self::MIN
        } else if ms >= i64::MAX as f64 {
            Self::MAX
        } else {
            Self(ms as i64)
        }
    }

    /// Whole milliseconds since the epoch.
    pub const fn as_millis(self) -> i64 {
        self.0
    }

    /// Seconds since the epoch, as the policies consume time.
    ///
    /// For a millisecond count `m`, `m as f64 / 1e3` is the correctly
    /// rounded IEEE result — identical bits to the `micros / 1e6`
    /// seconds value the simulator previously exposed.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Checked duration since `earlier` (`None` on overflow).
    pub const fn checked_duration_since(self, earlier: Self) -> Option<DurationMs> {
        match self.0.checked_sub(earlier.0) {
            Some(ms) => Some(DurationMs(ms)),
            None => None,
        }
    }

    /// Saturating duration since `earlier`.
    pub const fn saturating_duration_since(self, earlier: Self) -> DurationMs {
        DurationMs(self.0.saturating_sub(earlier.0))
    }
}

impl Sub for SimTimeMs {
    type Output = DurationMs;

    fn sub(self, rhs: Self) -> DurationMs {
        self.saturating_duration_since(rhs)
    }
}

impl Add<DurationMs> for SimTimeMs {
    type Output = Self;

    fn add(self, rhs: DurationMs) -> Self {
        Self(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<DurationMs> for SimTimeMs {
    fn add_assign(&mut self, rhs: DurationMs) {
        *self = *self + rhs;
    }
}

impl Sub<DurationMs> for SimTimeMs {
    type Output = Self;

    fn sub(self, rhs: DurationMs) -> Self {
        Self(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTimeMs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}s", self.as_secs())
    }
}

impl Serialize for SimTimeMs {
    /// Writes `f64` seconds, the exact wire value `now` had as a raw
    /// `f64`.
    fn serialize_json(&self, out: &mut String) {
        self.as_secs().serialize_json(out);
    }
}

/// A span between two [`SimTimeMs`] instants, in whole milliseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DurationMs(i64);

impl DurationMs {
    /// The empty span.
    pub const ZERO: Self = Self(0);

    /// A span from whole milliseconds.
    pub const fn from_millis(ms: i64) -> Self {
        Self(ms)
    }

    /// A span from `f64` seconds, rounded to the nearest millisecond.
    pub fn from_secs(secs: f64) -> Self {
        Self(SimTimeMs::from_secs(secs).as_millis())
    }

    /// Whole milliseconds.
    pub const fn as_millis(self) -> i64 {
        self.0
    }

    /// The span in seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Whether the span is negative (the "since" instant was later).
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }
}

impl Add for DurationMs {
    type Output = Self;

    fn add(self, rhs: Self) -> Self {
        Self(self.0.saturating_add(rhs.0))
    }
}

impl Sub for DurationMs {
    type Output = Self;

    fn sub(self, rhs: Self) -> Self {
        Self(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for DurationMs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}s", self.as_secs())
    }
}

impl Serialize for DurationMs {
    /// Writes `f64` seconds, matching the wire format of every other
    /// duration the stack serializes (cold starts, intervals).
    fn serialize_json(&self, out: &mut String) {
        self.as_secs().serialize_json(out);
    }
}

/// An arrival rate in requests **per minute** — the unit of the paper's
/// traces and of every `arrival_rate_history` sample.
///
/// The wrapped value may be NaN when a fault-injection campaign corrupts
/// an observation (PR 1); [`RatePerMin::is_corrupt`] and the repair path
/// in `predictor::sanitize_history` handle that case explicitly.
///
/// Serializes transparently as the raw `f64`, so histories keep their
/// exact JSON representation.
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd)]
pub struct RatePerMin(f64);

impl Serialize for RatePerMin {
    /// Writes the raw `f64` (transparent), so histories keep their
    /// exact JSON representation.
    fn serialize_json(&self, out: &mut String) {
        self.0.serialize_json(out);
    }
}

impl RatePerMin {
    /// Zero requests per minute.
    pub const ZERO: Self = Self(0.0);
    /// The corrupt-observation marker used by fault injection.
    pub const NAN: Self = Self(f64::NAN);

    /// A rate from raw requests-per-minute.
    pub const fn new(per_min: f64) -> Self {
        Self(per_min)
    }

    /// The raw requests-per-minute value.
    pub const fn get(self) -> f64 {
        self.0
    }

    /// The rate in requests per second (`per_min / 60.0`, the exact
    /// expression the policies previously wrote inline).
    pub fn per_sec(self) -> f64 {
        self.0 / 60.0
    }

    /// Whether the sample is unusable (NaN, infinite, or negative) and
    /// must be repaired before entering a forecast.
    pub fn is_corrupt(self) -> bool {
        !(self.0.is_finite() && self.0 >= 0.0)
    }

    /// The larger of two rates (NaN-propagating like `f64::max` is not:
    /// prefers the non-NaN operand, matching `f64::max`).
    pub fn max(self, other: Self) -> Self {
        Self(self.0.max(other.0))
    }
}

impl From<f64> for RatePerMin {
    fn from(per_min: f64) -> Self {
        Self(per_min)
    }
}

impl From<RatePerMin> for f64 {
    fn from(rate: RatePerMin) -> Self {
        rate.0
    }
}

impl Add for RatePerMin {
    type Output = Self;

    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl fmt::Display for RatePerMin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/min", self.0)
    }
}

/// An absolute wall-clock instant — whole milliseconds since the Unix
/// epoch — as read from the host's physical clock.
///
/// This is deliberately a *different type* from [`SimTimeMs`]: the
/// control plane's logical timeline (`Clock::now`, snapshot stamps,
/// telemetry ordering) is `SimTimeMs`, while wall time exists only at
/// the edges — tagging live-loop telemetry, pacing a real reconcile
/// interval, gating CI wall budgets. Keeping them apart means a
/// wall-clock read can never silently enter sim-time arithmetic (and
/// vice versa): there is no conversion between the two types at all.
/// A live backend that needs a sim-timeline stamp derives it from its
/// *round counter*, never from this type.
///
/// Serialized as whole integer milliseconds: epoch-scale instants do
/// not survive the `f64`-seconds encoding [`SimTimeMs`] uses (2^53
/// microsecond precision loss), and wall stamps are diagnostics, not
/// policy inputs, so they owe no legacy wire format.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WallTimeMs(i64);

impl WallTimeMs {
    /// An instant from whole milliseconds since the Unix epoch.
    pub const fn from_millis(ms: i64) -> Self {
        Self(ms)
    }

    /// Whole milliseconds since the Unix epoch.
    pub const fn as_millis(self) -> i64 {
        self.0
    }

    /// Checked duration since `earlier` (`None` on overflow).
    pub const fn checked_duration_since(self, earlier: Self) -> Option<DurationMs> {
        match self.0.checked_sub(earlier.0) {
            Some(ms) => Some(DurationMs(ms)),
            None => None,
        }
    }

    /// Saturating duration since `earlier`.
    pub const fn saturating_duration_since(self, earlier: Self) -> DurationMs {
        DurationMs(self.0.saturating_sub(earlier.0))
    }
}

impl Sub for WallTimeMs {
    type Output = DurationMs;

    fn sub(self, rhs: Self) -> DurationMs {
        self.saturating_duration_since(rhs)
    }
}

impl Add<DurationMs> for WallTimeMs {
    type Output = Self;

    fn add(self, rhs: DurationMs) -> Self {
        Self(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<DurationMs> for WallTimeMs {
    fn add_assign(&mut self, rhs: DurationMs) {
        *self = *self + rhs;
    }
}

impl fmt::Display for WallTimeMs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ms(wall)", self.0)
    }
}

impl Serialize for WallTimeMs {
    /// Writes whole integer milliseconds (see the type docs for why
    /// this differs from the `f64`-seconds sim-time encoding).
    fn serialize_json(&self, out: &mut String) {
        self.0.serialize_json(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sim_time_conversions() {
        let t = SimTimeMs::from_micros(10_000_000);
        assert_eq!(t.as_millis(), 10_000);
        assert_eq!(t.as_secs(), 10.0);
        assert_eq!(SimTimeMs::from_secs(10.0), t);
        assert_eq!(SimTimeMs::from_secs(-10.0).as_millis(), -10_000);
        assert_eq!(SimTimeMs::from_secs(f64::NAN), SimTimeMs::ZERO);
        assert_eq!(SimTimeMs::from_secs(f64::INFINITY), SimTimeMs::MAX);
        assert_eq!(SimTimeMs::from_secs(f64::NEG_INFINITY), SimTimeMs::MIN);
    }

    #[test]
    fn sentinel_subtraction_saturates() {
        let now = SimTimeMs::from_secs(100.0);
        let d = now - SimTimeMs::MIN;
        assert_eq!(d.as_millis(), i64::MAX);
        assert!(d.as_secs() > 1e15, "distant-past gap must look enormous");
        assert!((SimTimeMs::MIN - now).is_negative());
    }

    #[test]
    fn durations_compose() {
        let tick = DurationMs::from_secs(10.0);
        let mut t = SimTimeMs::ZERO;
        t += tick;
        t += tick;
        assert_eq!(t, SimTimeMs::from_secs(20.0));
        assert_eq!(t - SimTimeMs::ZERO, DurationMs::from_millis(20_000));
        assert_eq!(tick + tick - tick, tick);
        assert_eq!(
            SimTimeMs::MAX.checked_duration_since(SimTimeMs::MIN),
            None,
            "checked subtraction must observe overflow"
        );
    }

    #[test]
    fn wall_time_stays_out_of_the_sim_timeline() {
        // Arithmetic composes within the wall domain...
        let t0 = WallTimeMs::from_millis(1_754_500_000_000);
        let t1 = t0 + DurationMs::from_millis(250);
        assert_eq!(t1 - t0, DurationMs::from_millis(250));
        assert_eq!(t1.saturating_duration_since(t0).as_millis(), 250);
        assert_eq!(
            WallTimeMs::from_millis(0).checked_duration_since(WallTimeMs::from_millis(i64::MIN)),
            None
        );
        // ...and serializes as integer millis, not f64 seconds: an
        // epoch-scale stamp must survive the wire bit-exactly.
        assert_eq!(
            serde_json::to_string(&t0).unwrap(),
            "1754500000000",
            "wall stamps are integer milliseconds on the wire"
        );
    }

    #[test]
    fn rate_corruption_detection() {
        assert!(RatePerMin::NAN.is_corrupt());
        assert!(RatePerMin::new(f64::INFINITY).is_corrupt());
        assert!(RatePerMin::new(-1.0).is_corrupt());
        assert!(!RatePerMin::ZERO.is_corrupt());
        assert!(!RatePerMin::new(1200.0).is_corrupt());
    }

    #[test]
    fn serde_wire_format_matches_raw_f64() {
        // Histories serialized as `RatePerMin` must be indistinguishable
        // from the raw-`f64` wire format golden reports were built on
        // (the vendored serde writes floats via `Display`).
        let rates = vec![RatePerMin::new(600.0), RatePerMin::new(12.5)];
        let raw = vec![600.0f64, 12.5];
        assert_eq!(
            serde_json::to_string(&rates).unwrap(),
            serde_json::to_string(&raw).unwrap()
        );
        // `now` serialized as `SimTimeMs` must look like `f64` seconds.
        let t = SimTimeMs::from_secs(120.5);
        assert_eq!(
            serde_json::to_string(&t).unwrap(),
            serde_json::to_string(&120.5f64).unwrap()
        );
        // NaN rates follow the raw-f64 `null` encoding.
        assert_eq!(serde_json::to_string(&RatePerMin::NAN).unwrap(), "null");
    }

    proptest! {
        /// Millisecond-aligned instants round-trip seconds <-> ms with no
        /// drift, and `as_secs` matches the simulator's historical
        /// `micros / 1e6` bits.
        #[test]
        fn sim_time_round_trips_without_drift(ms in -4_102_444_800_000i64..4_102_444_800_000) {
            let t = SimTimeMs::from_millis(ms);
            prop_assert_eq!(SimTimeMs::from_secs(t.as_secs()), t);
            if ms >= 0 {
                let us = ms as u64 * 1000;
                prop_assert_eq!(SimTimeMs::from_micros(us), t);
                let old_bits = (us as f64 / 1e6).to_bits();
                prop_assert_eq!(t.as_secs().to_bits(), old_bits);
            }
        }

        /// `RatePerMin::per_sec` reproduces the inline `/ 60.0` bits, and
        /// the raw value survives the wrap/unwrap round-trip untouched.
        #[test]
        fn rate_round_trips_without_drift(per_min in 0.0f64..1e9) {
            let r = RatePerMin::new(per_min);
            prop_assert_eq!(r.get().to_bits(), per_min.to_bits());
            prop_assert_eq!(r.per_sec().to_bits(), (per_min / 60.0).to_bits());
            prop_assert_eq!(f64::from(RatePerMin::from(per_min)).to_bits(), per_min.to_bits());
        }

        /// Duration arithmetic over aligned instants is exact.
        #[test]
        fn duration_round_trips(a in -1_000_000_000i64..1_000_000_000, b in -1_000_000_000i64..1_000_000_000) {
            let ta = SimTimeMs::from_millis(a);
            let tb = SimTimeMs::from_millis(b);
            let d = ta - tb;
            prop_assert_eq!(tb + d, ta);
            prop_assert_eq!(d.as_millis(), a - b);
        }
    }
}
