//! Golden byte tests for the v1 actuation wire schema.
//!
//! The bytes pinned here are the protocol: a server upgrade that
//! changes any of them breaks clients that committed to v1, so these
//! literals only ever change together with a `WIRE_VERSION` bump.
//! Alongside the exact bytes, every envelope must survive a
//! serialize → parse → re-serialize round trip byte-identically, and
//! the `"snapshot"` / `"desired"` bodies must be byte-compatible with
//! the core serializers the rest of the workspace commits to disk.

use faro_cluster::{ApplyRequest, ApplyResponse, ChaosConfig, ErrorBody, ObserveResponse};
use faro_core::types::{
    ClassAlloc, ClusterSnapshot, DesiredState, JobDecision, JobId, JobObservation, JobSpec,
    ResourceModel,
};
use faro_core::units::{RatePerMin, ReplicaCount, SimTimeMs};
use std::sync::Arc;

/// Serializes through the workspace writer, panicking on failure.
fn json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("serializes")
}

/// A small fixed snapshot: one homogeneous job, two history samples.
fn snapshot() -> ClusterSnapshot {
    ClusterSnapshot {
        now: SimTimeMs::from_millis(10_000),
        resources: ResourceModel::replicas(ReplicaCount::new(16)),
        jobs: vec![JobObservation {
            spec: Arc::new(JobSpec::resnet18("a")),
            target_replicas: 2,
            ready_replicas: 2,
            queue_len: 0,
            arrival_rate_history: Arc::new(vec![RatePerMin::new(300.0), RatePerMin::new(420.0)]),
            recent_arrival_rate: 5.0,
            mean_processing_time: 0.1,
            recent_tail_latency: 0.2,
            drop_rate: 0.0,
            class_target: None,
            class_ready: None,
        }],
    }
}

/// A fixed desired state: one classless decision, one classed one.
fn desired() -> DesiredState {
    let mut d = DesiredState::new();
    d.set(JobId::new(0), JobDecision::replicas(5));
    d.set(
        JobId::new(1),
        JobDecision::classed(ClassAlloc::from_counts(&[2, 1]).expect("alloc")).with_drop_rate(0.25),
    );
    d
}

const OBSERVE_GOLDEN: &str = "{\"v\":1,\"seq\":3,\"age_ms\":10000,\"snapshot\":{\"now\":10,\
    \"resources\":{\"cpu_per_replica\":1,\"mem_per_replica\":1,\"cluster_cpu\":16,\"cluster_mem\":16},\
    \"jobs\":[{\"spec\":{\"name\":\"a\",\"slo\":{\"latency\":0.4,\"percentile\":0.99},\
    \"priority\":1,\"processing_time\":0.1},\"target_replicas\":2,\"ready_replicas\":2,\
    \"queue_len\":0,\"arrival_rate_history\":[300,420],\"recent_arrival_rate\":5,\
    \"mean_processing_time\":0.1,\"recent_tail_latency\":0.2,\"drop_rate\":0}]}}";

const APPLY_REQ_GOLDEN: &str = "{\"v\":1,\"desired\":[\
    {\"job\":0,\"target_replicas\":5,\"drop_rate\":0},\
    {\"job\":1,\"target_replicas\":3,\"drop_rate\":0.25,\"classes\":[2,1]}]}";

const APPLY_RESP_GOLDEN: &str = "{\"v\":1,\"applied\":2,\"failed\":0,\"replicas_started\":4}";

const CHAOS_GOLDEN: &str = "{\"v\":1,\"seed\":42,\"api_latency_ms\":3,\
    \"apply_fail_per_mille\":150,\"stale_observe_per_mille\":200,\"stale_age_ms\":30000}";

const ERROR_GOLDEN: &str =
    "{\"v\":1,\"error\":\"injected apply unavailability\",\"retryable\":true}";

fn chaos() -> ChaosConfig {
    ChaosConfig {
        seed: 42,
        api_latency_ms: 3,
        apply_fail_per_mille: 150,
        stale_observe_per_mille: 200,
        stale_age_ms: 30_000,
    }
}

#[test]
fn v1_envelopes_serialize_to_the_golden_bytes() {
    let observe = ObserveResponse {
        seq: 3,
        age_ms: 10_000,
        snapshot: snapshot(),
    };
    assert_eq!(json(&observe), OBSERVE_GOLDEN);

    let apply = ApplyRequest { desired: desired() };
    assert_eq!(json(&apply), APPLY_REQ_GOLDEN);

    let resp = ApplyResponse {
        applied: 2,
        failed: 0,
        replicas_started: 4,
    };
    assert_eq!(json(&resp), APPLY_RESP_GOLDEN);

    assert_eq!(json(&chaos()), CHAOS_GOLDEN);

    let err = ErrorBody {
        error: "injected apply unavailability".to_owned(),
        retryable: true,
    };
    assert_eq!(json(&err), ERROR_GOLDEN);
}

#[test]
fn golden_bytes_parse_and_reserialize_identically() {
    let v = serde_json::from_str(OBSERVE_GOLDEN).expect("observe golden is JSON");
    let observe = ObserveResponse::from_json(&v).expect("observe golden parses");
    assert_eq!(json(&observe), OBSERVE_GOLDEN);

    let v = serde_json::from_str(APPLY_REQ_GOLDEN).expect("apply-req golden is JSON");
    let apply = ApplyRequest::from_json(&v).expect("apply-req golden parses");
    assert_eq!(json(&apply), APPLY_REQ_GOLDEN);

    let v = serde_json::from_str(APPLY_RESP_GOLDEN).expect("apply-resp golden is JSON");
    let resp = ApplyResponse::from_json(&v).expect("apply-resp golden parses");
    assert_eq!(json(&resp), APPLY_RESP_GOLDEN);

    let v = serde_json::from_str(CHAOS_GOLDEN).expect("chaos golden is JSON");
    let plan = ChaosConfig::from_json(&v).expect("chaos golden parses");
    assert_eq!(json(&plan), CHAOS_GOLDEN);

    let v = serde_json::from_str(ERROR_GOLDEN).expect("error golden is JSON");
    let err = ErrorBody::from_json(&v).expect("error golden parses");
    assert_eq!(json(&err), ERROR_GOLDEN);
}

/// The envelope bodies are the core serializers, byte for byte: the
/// `"snapshot"` field is exactly what `ClusterSnapshot` writes, the
/// `"desired"` field exactly what `DesiredState` writes. A consumer
/// that already parses the committed sim artifacts parses the wire.
#[test]
fn envelope_bodies_reuse_the_core_serializers_byte_for_byte() {
    let observe = ObserveResponse {
        seq: 3,
        age_ms: 10_000,
        snapshot: snapshot(),
    };
    let expected = format!(
        "{{\"v\":1,\"seq\":3,\"age_ms\":10000,\"snapshot\":{}}}",
        json(&snapshot())
    );
    assert_eq!(json(&observe), expected);

    let apply = ApplyRequest { desired: desired() };
    let expected = format!("{{\"v\":1,\"desired\":{}}}", json(&desired()));
    assert_eq!(json(&apply), expected);
}

/// Untagged (pre-versioning) payloads are valid v1: a legacy client
/// that never sends `"v"` keeps working against a v1 server.
#[test]
fn legacy_untagged_payloads_are_accepted() {
    let legacy = "{\"desired\":[{\"job\":0,\"target_replicas\":5,\"drop_rate\":0}]}";
    let v = serde_json::from_str(legacy).expect("legacy body is JSON");
    let apply = ApplyRequest::from_json(&v).expect("untagged body accepted as v1");
    assert_eq!(
        apply.desired.get(JobId::new(0)),
        Some(JobDecision::replicas(5))
    );
    // Re-serializing a legacy payload upgrades it to the tagged form.
    assert!(json(&apply).starts_with("{\"v\":1,"));

    let legacy_observe = OBSERVE_GOLDEN.replacen("{\"v\":1,", "{", 1);
    let v = serde_json::from_str(&legacy_observe).expect("JSON");
    let observe = ObserveResponse::from_json(&v).expect("untagged observe accepted");
    assert_eq!(json(&observe), OBSERVE_GOLDEN);
}

/// Future versions are refused by every envelope parser, not silently
/// misread.
#[test]
fn future_versions_are_rejected_by_every_parser() {
    for golden in [
        OBSERVE_GOLDEN,
        APPLY_REQ_GOLDEN,
        APPLY_RESP_GOLDEN,
        CHAOS_GOLDEN,
        ERROR_GOLDEN,
    ] {
        let v2 = golden.replacen("{\"v\":1,", "{\"v\":2,", 1);
        let v = serde_json::from_str(&v2).expect("JSON");
        assert!(
            ObserveResponse::from_json(&v).is_none()
                && ApplyRequest::from_json(&v).is_none()
                && ApplyResponse::from_json(&v).is_none()
                && ChaosConfig::from_json(&v).is_none()
                && ErrorBody::from_json(&v).is_none(),
            "a v2 envelope must parse as nothing: {v2}"
        );
    }
}

/// A decision's `classes` sum to its `target_replicas`: an apply body
/// that breaks that is refused, not actuated with one count or the
/// other, while the golden's `[2,1]` for 3 still parses.
#[test]
fn apply_bodies_whose_classes_miss_the_target_are_refused() {
    let body = |target: &str, classes: &str| {
        format!(
            "{{\"v\":1,\"desired\":[{{\"job\":1,\"target_replicas\":{target},\
             \"drop_rate\":0,\"classes\":{classes}}}]}}"
        )
    };
    let parse = |json: &str| ApplyRequest::from_json(&serde_json::from_str(json).expect("JSON"));
    let golden = parse(&body("3", "[2,1]")).expect("classes that sum to the target");
    assert_eq!(
        golden.desired.get(JobId::new(1)).and_then(|d| d.classes),
        ClassAlloc::from_counts(&[2, 1])
    );
    // Short, over, empty for a non-zero target, and a sum that wraps
    // `u32` to the target.
    for (target, classes) in [
        ("3", "[1,1]"),
        ("3", "[2,2]"),
        ("3", "[]"),
        ("2", "[4294967295,3]"),
    ] {
        assert_eq!(parse(&body(target, classes)), None, "{target} as {classes}");
    }
}

/// Decision bodies inside the committed telemetry trace stay readable
/// through the wire parsers: every `Decision` record's per-job grants
/// can be rebuilt into a `DesiredState` and shipped as a v1 apply.
#[test]
fn committed_trace_decisions_convert_to_v1_apply_bodies() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/faro_trace.jsonl"
    );
    let trace = std::fs::read_to_string(path).expect("committed trace exists");
    let mut decisions = 0usize;
    for line in trace.lines().filter(|l| !l.trim().is_empty()) {
        let v: serde_json::Value = serde_json::from_str(line).expect("trace line is JSON");
        let Some(record) = v
            .get("event")
            .and_then(|e| e.get("Decision"))
            .and_then(|d| d.get("record"))
        else {
            continue;
        };
        let jobs = record.get("jobs").and_then(|j| j.as_array()).expect("jobs");
        let mut desired = DesiredState::new();
        for (idx, job) in jobs.iter().enumerate() {
            let granted = job
                .get("granted_replicas")
                .and_then(|g| g.as_u64())
                .expect("granted_replicas");
            desired.set(JobId::new(idx), JobDecision::replicas(granted as u32));
        }
        let req = ApplyRequest { desired };
        let json = json(&req);
        let back = ApplyRequest::from_json(&serde_json::from_str(&json).expect("JSON"))
            .expect("round-trips");
        assert_eq!(back, req);
        decisions += 1;
    }
    assert!(
        decisions > 50,
        "trace unexpectedly thin: {decisions} decisions"
    );
}
