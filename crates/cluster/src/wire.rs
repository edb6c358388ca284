//! The versioned v1 actuation wire schema.
//!
//! Every payload is a JSON envelope carrying a `"v"` version tag next
//! to the body. The body shapes reuse the exact serializers the rest
//! of the workspace already commits to disk: `"snapshot"` is
//! [`ClusterSnapshot`]'s wire format byte-for-byte, `"desired"` is
//! [`DesiredState`]'s. That makes the protocol testable against the
//! committed sim goldens — a trace line's decision record and an
//! apply request body agree on every shared field — and keeps one
//! serializer per type.
//!
//! Compatibility rule: a payload *without* a `"v"` tag is accepted as
//! v1 (the tag was introduced together with the protocol, so legacy
//! bodies are exactly the untagged ones). A payload with an unknown
//! newer tag is rejected by [`check_version`].
//!
//! Integer range: every integer field (`v`, `seq`, counts, job
//! indices, the chaos seed) is read as a whole number in
//! `0..=2^53 − 1` ([`serde_json::MAX_EXACT_U64`]), narrowed further where
//! the field is a `u32`. The parser holds numbers as `f64`, so a larger
//! one may not be the integer that was sent; it is a malformed body, not
//! a rounded value, like a count past `u32` is malformed, not its low
//! bits. The one exception is `age_ms`, which is only compared with a
//! staleness window: a larger age saturates and reads as stale.

use faro_core::types::{ClusterSnapshot, DesiredState};
use serde_json::Value;

/// The current protocol version.
pub const WIRE_VERSION: u64 = 1;

/// Observe endpoint path.
pub const OBSERVE_PATH: &str = "/v1/observe";
/// Apply endpoint path.
pub const APPLY_PATH: &str = "/v1/apply";
/// Chaos-injection endpoint path.
pub const CHAOS_PATH: &str = "/v1/chaos";
/// The largest [`ChaosConfig::api_latency_ms`] a plan may carry: the
/// server's 10 s write timeout. The server sleeps the latency on its one
/// serving thread before every reply, so an unbounded one would stop it
/// answering anything, shutdown included.
pub const MAX_API_LATENCY_MS: u64 = 10_000;

/// Reads the envelope's version tag: absent means v1 (legacy), any
/// other value must equal [`WIRE_VERSION`].
pub fn check_version(v: &Value) -> Option<u64> {
    match v.get("v") {
        None => Some(WIRE_VERSION),
        Some(tag) => {
            let tag = tag.as_u64()?;
            (tag == WIRE_VERSION).then_some(tag)
        }
    }
}

/// `/v1/observe` success body.
#[derive(Debug, Clone, PartialEq)]
pub struct ObserveResponse {
    /// Monotone snapshot sequence number (one per fresh observation;
    /// a chaos-served stale snapshot repeats the cached `seq`).
    pub seq: u64,
    /// How far behind the server's current state this snapshot is, in
    /// milliseconds of the *logical* timeline. Zero for a fresh
    /// snapshot; positive when the server replayed a cache. The
    /// client subtracts it from its own clock so the resilient
    /// driver's staleness window applies across the process boundary.
    pub age_ms: u64,
    /// The snapshot, in the workspace's committed wire format.
    pub snapshot: ClusterSnapshot,
}

impl serde::Serialize for ObserveResponse {
    fn serialize_json(&self, out: &mut String) {
        serde::object!(out;
            v: WIRE_VERSION,
            seq: self.seq,
            age_ms: self.age_ms,
            snapshot: self.snapshot,
        );
    }
}

impl ObserveResponse {
    /// Parses the envelope; `None` on a shape or version mismatch.
    pub fn from_json(v: &Value) -> Option<Self> {
        check_version(v)?;
        Some(Self {
            seq: v.get("seq")?.as_u64()?,
            // Past the exact range an age is still older than any
            // staleness window, so it saturates instead of being refused.
            age_ms: match v.get("age_ms")?.as_f64()? {
                age if age >= 0.0 && age.fract() == 0.0 => age as u64,
                _ => return None,
            },
            snapshot: ClusterSnapshot::from_json(v.get("snapshot")?)?,
        })
    }
}

/// `/v1/apply` request body.
#[derive(Debug, Clone, PartialEq)]
pub struct ApplyRequest {
    /// The desired state to actuate, in the workspace's committed
    /// wire format (`[{"job":N,"target_replicas":..,..}, ...]`).
    pub desired: DesiredState,
}

impl serde::Serialize for ApplyRequest {
    fn serialize_json(&self, out: &mut String) {
        write_apply_request(&self.desired, out);
    }
}

/// Appends the `/v1/apply` request body for `desired` to `out`: the
/// encoder behind [`ApplyRequest`], taking the state by reference so
/// the client can send the caller's every round without owning it.
pub(crate) fn write_apply_request(desired: &DesiredState, out: &mut String) {
    serde::object!(out; v: WIRE_VERSION, desired: desired);
}

impl ApplyRequest {
    /// Parses the envelope; `None` on a shape or version mismatch, and
    /// on a body no control plane sends: a job listed twice (which of
    /// two decisions was meant is not the server's to guess), a target
    /// under one replica (every admission floors at one, as the
    /// simulator does) or a drop rate that is not a share in `[0, 1]`.
    pub fn from_json(v: &Value) -> Option<Self> {
        check_version(v)?;
        let entries = v.get("desired")?;
        let desired = DesiredState::from_json(entries)?;
        let listed = entries.as_array()?.len();
        let sane = desired
            .iter()
            .all(|(_, d)| d.target_replicas >= 1 && (0.0..=1.0).contains(&d.drop_rate));
        (desired.len() == listed && sane).then_some(Self { desired })
    }
}

/// `/v1/apply` success body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApplyResponse {
    /// Jobs whose decision was applied.
    pub applied: u32,
    /// Jobs whose decision was rejected (unknown job index).
    pub failed: u32,
    /// Replicas that entered cold start because of this apply.
    pub replicas_started: u32,
}

impl serde::Serialize for ApplyResponse {
    fn serialize_json(&self, out: &mut String) {
        serde::object!(out;
            v: WIRE_VERSION,
            applied: self.applied,
            failed: self.failed,
            replicas_started: self.replicas_started,
        );
    }
}

impl ApplyResponse {
    /// Parses the envelope; `None` on a shape or version mismatch.
    pub fn from_json(v: &Value) -> Option<Self> {
        check_version(v)?;
        // A count past `u32` is a malformed reply, not a small count.
        let count = |name: &str| u32::try_from(v.get(name)?.as_u64()?).ok();
        Some(Self {
            applied: count("applied")?,
            failed: count("failed")?,
            replicas_started: count("replicas_started")?,
        })
    }
}

/// `/v1/chaos` request body: the server's fault-injection knobs.
///
/// All rates are per-mille (0–1000) so the wire carries integers and
/// two runs with the same seed draw identically. [`ChaosConfig::none`]
/// disables every class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Seed for the server's fault streams, at most
    /// [`serde_json::MAX_EXACT_U64`] (a larger one is refused, since the
    /// server could not seed exactly the streams the client asked for).
    pub seed: u64,
    /// Artificial latency added to every API reply, wall milliseconds,
    /// at most [`MAX_API_LATENCY_MS`].
    pub api_latency_ms: u64,
    /// Per-mille of `apply` calls refused with a retryable 503 before
    /// touching cluster state.
    pub apply_fail_per_mille: u32,
    /// Per-mille of `observe` calls answered from the cached previous
    /// snapshot instead of a fresh one.
    pub stale_observe_per_mille: u32,
    /// Logical age reported for a cache-served snapshot, milliseconds.
    pub stale_age_ms: u64,
}

impl ChaosConfig {
    /// No injected faults at all.
    pub const fn none() -> Self {
        Self {
            seed: 0,
            api_latency_ms: 0,
            apply_fail_per_mille: 0,
            stale_observe_per_mille: 0,
            stale_age_ms: 0,
        }
    }

    /// Parses the envelope. Absent knobs default to off, so a legacy
    /// `{"seed":7}` body is a valid plan. A latency past
    /// [`MAX_API_LATENCY_MS`] is refused like a malformed plan.
    pub fn from_json(v: &Value) -> Option<Self> {
        check_version(v)?;
        let knob = |name: &str| v.get(name).map_or(Some(0), |k| k.as_u64());
        // A rate past `u32` is a malformed plan, not its low 32 bits.
        let rate = |name: &str| u32::try_from(knob(name)?).ok();
        Some(Self {
            seed: knob("seed")?,
            api_latency_ms: knob("api_latency_ms").filter(|&ms| ms <= MAX_API_LATENCY_MS)?,
            apply_fail_per_mille: rate("apply_fail_per_mille")?,
            stale_observe_per_mille: rate("stale_observe_per_mille")?,
            stale_age_ms: knob("stale_age_ms")?,
        })
    }
}

impl serde::Serialize for ChaosConfig {
    fn serialize_json(&self, out: &mut String) {
        serde::object!(out;
            v: WIRE_VERSION,
            seed: self.seed,
            api_latency_ms: self.api_latency_ms,
            apply_fail_per_mille: self.apply_fail_per_mille,
            stale_observe_per_mille: self.stale_observe_per_mille,
            stale_age_ms: self.stale_age_ms,
        );
    }
}

/// Error body for any non-200 reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorBody {
    /// Human-readable cause.
    pub error: String,
    /// Whether retrying the same call can possibly succeed.
    pub retryable: bool,
}

impl serde::Serialize for ErrorBody {
    fn serialize_json(&self, out: &mut String) {
        serde::object!(out; v: WIRE_VERSION, error: self.error, retryable: self.retryable);
    }
}

impl ErrorBody {
    /// Parses the envelope; unparseable bodies fall back to a
    /// non-retryable opaque error so the client never panics on a
    /// garbled reply.
    pub fn from_json(v: &Value) -> Option<Self> {
        check_version(v)?;
        Some(Self {
            error: v.get("error")?.as_str()?.to_owned(),
            retryable: v.get("retryable")?.as_bool()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_version_tag_is_accepted_as_v1() {
        let legacy = serde_json::from_str("{\"seed\":7}").expect("parse");
        assert_eq!(check_version(&legacy), Some(WIRE_VERSION));
        let plan = ChaosConfig::from_json(&legacy).expect("legacy chaos body");
        assert_eq!(
            plan,
            ChaosConfig {
                seed: 7,
                ..ChaosConfig::none()
            }
        );
    }

    #[test]
    fn future_versions_are_rejected() {
        let v2 = serde_json::from_str("{\"v\":2,\"seed\":7}").expect("parse");
        assert_eq!(check_version(&v2), None);
        assert!(ChaosConfig::from_json(&v2).is_none());
    }

    #[test]
    fn chaos_config_round_trips() {
        let plan = ChaosConfig {
            seed: 42,
            api_latency_ms: 3,
            apply_fail_per_mille: 150,
            stale_observe_per_mille: 200,
            stale_age_ms: 30_000,
        };
        let json = serde_json::to_string(&plan).expect("serializes");
        let back = ChaosConfig::from_json(&serde_json::from_str(&json).expect("parses"))
            .expect("round-trips");
        assert_eq!(back, plan);
        assert!(json.starts_with("{\"v\":1,"), "{json}");
    }

    #[test]
    fn counts_past_u32_are_a_shape_mismatch() {
        let fields = ["applied", "failed", "replicas_started"];
        let reply = |wide: &str, count: u64| {
            let body: Vec<String> = fields
                .iter()
                .map(|&f| format!("\"{f}\":{}", if f == wide { count } else { 1 }))
                .collect();
            let json = format!("{{\"v\":1,{}}}", body.join(","));
            ApplyResponse::from_json(&serde_json::from_str(&json).expect("parses"))
        };
        for field in fields {
            assert!(reply(field, u64::from(u32::MAX)).is_some(), "{field}");
            assert_eq!(reply(field, 1 << 32), None, "{field}");
            assert_eq!(
                reply(field, (1 << 32) + 1),
                None,
                "{field}: not a count of 1"
            );
        }
        assert_eq!(
            reply("applied", u64::from(u32::MAX)).map(|r| r.applied),
            Some(u32::MAX)
        );
        for knob in ["apply_fail_per_mille", "stale_observe_per_mille"] {
            let at = |rate: u64| {
                let json = format!("{{\"seed\":7,\"{knob}\":{rate}}}");
                ChaosConfig::from_json(&serde_json::from_str(&json).expect("parses"))
            };
            assert!(at(u64::from(u32::MAX)).is_some());
            assert_eq!(at((1 << 32) + 1000), None, "not 1000 per mille");
        }
    }

    #[test]
    fn a_seed_past_the_exact_integer_range_is_refused() {
        let at = |seed: &str| {
            let json = format!("{{\"v\":1,\"seed\":{seed}}}");
            ChaosConfig::from_json(&serde_json::from_str(&json).expect("parses"))
        };
        let max = ChaosConfig {
            seed: serde_json::MAX_EXACT_U64,
            ..ChaosConfig::none()
        };
        let json = serde_json::to_string(&max).expect("serializes");
        assert_eq!(
            ChaosConfig::from_json(&serde_json::from_str(&json).expect("parses")),
            Some(max)
        );
        // 2^53 + 1 parses to 2^53, so 2^53 is refused with it.
        for seed in [
            "9007199254740992",
            "9007199254740993",
            "18446744073709551616",
        ] {
            assert_eq!(at(seed), None, "{seed}");
        }
    }

    #[test]
    fn api_latency_is_capped() {
        let at = |ms: u64| {
            let json = format!("{{\"seed\":7,\"api_latency_ms\":{ms}}}");
            ChaosConfig::from_json(&serde_json::from_str(&json).expect("parses"))
        };
        assert_eq!(
            at(MAX_API_LATENCY_MS).map(|plan| plan.api_latency_ms),
            Some(MAX_API_LATENCY_MS)
        );
        assert_eq!(at(MAX_API_LATENCY_MS + 1), None);
        assert_eq!(at(u64::MAX), None);
    }

    #[test]
    fn an_apply_under_one_replica_is_refused() {
        use faro_core::types::{JobDecision, JobId};
        let parse = |target: u32| {
            let mut desired = DesiredState::new();
            desired.set(JobId::new(0), JobDecision::replicas(target));
            let json = serde_json::to_string(&ApplyRequest { desired }).expect("serializes");
            ApplyRequest::from_json(&serde_json::from_str(&json).expect("parses"))
        };
        assert_eq!(parse(0), None);
        assert!(parse(1).is_some(), "one replica is a target");
    }

    #[test]
    fn error_body_round_trips() {
        let body = ErrorBody {
            error: "injected unavailability".to_owned(),
            retryable: true,
        };
        let json = serde_json::to_string(&body).expect("serializes");
        let back =
            ErrorBody::from_json(&serde_json::from_str(&json).expect("parses")).expect("shape");
        assert_eq!(back, body);
    }
}
