//! Every JSON object shape the workspace writes, pinned byte for byte.
//!
//! One value of each shape goes through `serde_json::to_string` and is
//! compared with a literal: all fourteen [`TelemetryEvent`] variants, a
//! [`TraceEntry`], a [`DecisionRecord`] with a [`JobRound`], and a
//! [`ClusterSnapshot`] whose classed [`ResourceModel`] writes
//! [`ReplicaClass`]es and whose jobs write a classless and a classed
//! [`JobObservation`] (so `Slo` and [`JobSpec`]'s optional affinity
//! appear too). The committed trace holds only nine of the variants, so
//! this table is where the other five are held to their bytes.

use faro_core::types::{
    ClassAlloc, ClusterSnapshot, JobObservation, JobSpec, ReplicaClass, ResourceModel,
};
use faro_core::units::{RatePerMin, SimTimeMs};
use faro_telemetry::{DecisionRecord, JobRound, TelemetryEvent, TraceEntry};
use std::sync::Arc;

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("serializes")
}

fn record() -> DecisionRecord {
    DecisionRecord {
        round: 12,
        at: SimTimeMs::from_secs(120.0),
        quota: 32,
        requested_replicas: 35,
        granted_replicas: 32,
        clamped: true,
        unsatisfiable: false,
        replicas_started: 3,
        jobs_applied: 2,
        solver_evals: 418,
        long_term_solve: true,
        carried_forward: false,
        sanitized_samples: 1,
        jobs: vec![JobRound {
            job: 1,
            requested_replicas: 15,
            granted_replicas: 14,
            ready_replicas: 14,
            queue_depth: 7,
            tail_latency: f64::NAN,
            slo_latency: 0.4,
            slo_attained: false,
            drop_rate: 0.25,
        }],
    }
}

fn events() -> Vec<TelemetryEvent> {
    vec![
        TelemetryEvent::Decision { record: record() },
        TelemetryEvent::ReplicaReady { job: 2, replica: 7 },
        TelemetryEvent::ReplicaCrashed {
            job: 1,
            replica: 4,
            killed_request: true,
        },
        TelemetryEvent::ColdStartBegan {
            job: 3,
            replica: 9,
            delay_ms: 60_000,
        },
        TelemetryEvent::NodeOutageBegan { quota: 12 },
        TelemetryEvent::NodeOutageEnded { quota: 32 },
        TelemetryEvent::MetricOutageBegan {
            mode: "stale".into(),
            jobs: vec![0, 3],
        },
        TelemetryEvent::MetricOutageEnded {
            mode: "missing".into(),
        },
        TelemetryEvent::BackendRetry {
            phase: "apply".into(),
            attempt: 2,
            backoff_ms: 400,
            error: "http 503: \"overloaded\"\n".into(),
        },
        TelemetryEvent::BreakerTransition {
            from: "closed".into(),
            to: "half-open".into(),
        },
        TelemetryEvent::DegradedRound {
            kind: "carry-forward".into(),
        },
        TelemetryEvent::DriftDetected { jobs: vec![3] },
        TelemetryEvent::WallClockTick {
            wall_ms: 1_760_000_000_123,
            round: 41,
        },
        TelemetryEvent::ShardSolve {
            shards: 8,
            solved: 3,
            skipped: 5,
            cache_hit_jobs: 600,
            evals: 12_345,
            split_evals: 210,
        },
    ]
}

const EVENTS: [&str; 14] = [
    r#"{"Decision":{"record":{"round":12,"at":120,"quota":32,"requested_replicas":35,"granted_replicas":32,"clamped":true,"unsatisfiable":false,"replicas_started":3,"jobs_applied":2,"solver_evals":418,"long_term_solve":true,"carried_forward":false,"sanitized_samples":1,"jobs":[{"job":1,"requested_replicas":15,"granted_replicas":14,"ready_replicas":14,"queue_depth":7,"tail_latency":null,"slo_latency":0.4,"slo_attained":false,"drop_rate":0.25}]}}}"#,
    r#"{"ReplicaReady":{"job":2,"replica":7}}"#,
    r#"{"ReplicaCrashed":{"job":1,"replica":4,"killed_request":true}}"#,
    r#"{"ColdStartBegan":{"job":3,"replica":9,"delay_ms":60000}}"#,
    r#"{"NodeOutageBegan":{"quota":12}}"#,
    r#"{"NodeOutageEnded":{"quota":32}}"#,
    r#"{"MetricOutageBegan":{"mode":"stale","jobs":[0,3]}}"#,
    r#"{"MetricOutageEnded":{"mode":"missing"}}"#,
    r#"{"BackendRetry":{"phase":"apply","attempt":2,"backoff_ms":400,"error":"http 503: \"overloaded\"\n"}}"#,
    r#"{"BreakerTransition":{"from":"closed","to":"half-open"}}"#,
    r#"{"DegradedRound":{"kind":"carry-forward"}}"#,
    r#"{"DriftDetected":{"jobs":[3]}}"#,
    r#"{"WallClockTick":{"wall_ms":1760000000123,"round":41}}"#,
    r#"{"ShardSolve":{"shards":8,"solved":3,"skipped":5,"cache_hit_jobs":600,"evals":12345,"split_evals":210}}"#,
];

#[test]
fn every_event_variant_writes_its_pinned_bytes() {
    let events = events();
    assert_eq!(events.len(), EVENTS.len());
    for (event, want) in events.iter().zip(EVENTS) {
        assert_eq!(json(event), want, "{}", event.kind());
        assert!(want.starts_with(&format!("{{\"{}\":{{", event.kind())));
    }
}

#[test]
fn a_trace_entry_and_a_decision_record_write_their_pinned_bytes() {
    let entry = TraceEntry {
        at: SimTimeMs::from_secs(1210.5),
        event: TelemetryEvent::DriftDetected { jobs: vec![3, 5] },
    };
    assert_eq!(
        json(&entry),
        r#"{"at":1210.5,"event":{"DriftDetected":{"jobs":[3,5]}}}"#
    );
    let record = json(&record());
    assert_eq!(
        format!("{{\"Decision\":{{\"record\":{record}}}}}"),
        EVENTS[0]
    );
}

#[test]
fn a_classed_snapshot_writes_its_pinned_bytes() {
    let resources = ResourceModel::heterogeneous(
        vec![ReplicaClass::gpu("gpu-a100"), ReplicaClass::cpu("cpu", 3.0)],
        24.0,
        4.0,
        64.0,
    );
    let classless = JobObservation {
        spec: Arc::new(JobSpec::resnet34("resnet34-0")),
        target_replicas: 4,
        ready_replicas: 3,
        queue_len: 11,
        arrival_rate_history: Arc::new(vec![
            RatePerMin::new(120.0),
            RatePerMin::NAN,
            RatePerMin::new(97.5),
        ]),
        recent_arrival_rate: 2.25,
        mean_processing_time: 0.18,
        recent_tail_latency: f64::INFINITY,
        drop_rate: 0.0,
        class_target: None,
        class_ready: None,
    };
    let classed = JobObservation {
        spec: Arc::new(JobSpec {
            class_affinity: vec!["gpu-a100".into()],
            ..JobSpec::resnet18("resnet18-1")
        }),
        target_replicas: 3,
        ready_replicas: 2,
        queue_len: 0,
        arrival_rate_history: Arc::new(Vec::new()),
        recent_arrival_rate: 0.5,
        mean_processing_time: 0.0625,
        recent_tail_latency: 0.1,
        drop_rate: 0.125,
        class_target: ClassAlloc::from_counts(&[2, 1]),
        class_ready: ClassAlloc::from_counts(&[2, 0]),
    };
    let snapshot = ClusterSnapshot {
        now: SimTimeMs::from_secs(3600.0),
        resources,
        jobs: vec![classless, classed],
    };
    assert_eq!(
        json(&snapshot),
        concat!(
            r#"{"now":3600,"resources":{"cpu_per_replica":1,"mem_per_replica":4,"cluster_cpu":24,"cluster_mem":64,"#,
            r#""cluster_gpu":4,"classes":[{"name":"gpu-a100","speed":1,"cold_start":60,"cpu":1,"gpu":1,"mem":4},"#,
            r#"{"name":"cpu","speed":3,"cold_start":30,"cpu":1,"gpu":0,"mem":1}]},"jobs":["#,
            r#"{"spec":{"name":"resnet34-0","slo":{"latency":0.72,"percentile":0.99},"priority":1,"processing_time":0.18},"#,
            r#""target_replicas":4,"ready_replicas":3,"queue_len":11,"arrival_rate_history":[120,null,97.5],"#,
            r#""recent_arrival_rate":2.25,"mean_processing_time":0.18,"recent_tail_latency":null,"drop_rate":0},"#,
            r#"{"spec":{"name":"resnet18-1","slo":{"latency":0.4,"percentile":0.99},"priority":1,"processing_time":0.1,"#,
            r#""class_affinity":["gpu-a100"]},"target_replicas":3,"ready_replicas":2,"queue_len":0,"#,
            r#""arrival_rate_history":[],"recent_arrival_rate":0.5,"mean_processing_time":0.0625,"#,
            r#""recent_tail_latency":0.1,"drop_rate":0.125,"class_target":[2,1],"class_ready":[2,0]}]}"#,
        )
    );
}
