//! Telemetry determinism guarantees (the `faro-telemetry` contract):
//!
//! 1. Two identical seeded runs produce byte-identical JSONL traces —
//!    every event is stamped with simulated time, never wall clock,
//!    and sinks iterate only ordered containers.
//! 2. Attaching a sink never steers the run: the report from a traced
//!    run is byte-identical to the report from a [`NoopSink`] run.
//! 3. The aggregate Prometheus snapshot is equally reproducible.

use faro_control::{
    ApiErrors, ChaosBackend, ChaosPlan, Driver, InjectedLatency, PartialApplies, StaleSnapshots,
};
use faro_core::admission::OutageClamp;
use faro_core::baselines::Aiad;
use faro_core::faro::{FaroAutoscaler, FaroConfig};
use faro_core::predictor::{FlatPredictor, RatePredictor};
use faro_core::sharded::{ShardConfig, SolvePlan};
use faro_core::types::{JobId, JobSpec};
use faro_core::units::{DurationMs, SimTimeMs};
use faro_core::ClusterObjective;
use faro_sim::SimRun;
use faro_sim::{
    FaultPlan, JobSetup, MetricOutage, MetricOutageMode, NodeOutage, ReplicaCrashes, RunOutcome,
    SimConfig, Simulation,
};
use faro_telemetry::{AggregateSink, Counter, NoopSink, TelemetryEvent, TraceSink};

fn sim() -> Simulation {
    let cfg = SimConfig {
        total_replicas: 10,
        seed: 77,
        ..Default::default()
    };
    let setups = vec![
        JobSetup {
            spec: JobSpec::resnet34("trace-a"),
            rates_per_minute: vec![600.0, 1200.0, 1800.0, 1200.0, 600.0, 300.0, 600.0, 900.0],
            initial_replicas: 2,
        },
        JobSetup {
            spec: JobSpec::resnet34("trace-b"),
            rates_per_minute: vec![300.0, 300.0, 900.0, 1500.0, 900.0, 300.0, 300.0, 300.0],
            initial_replicas: 2,
        },
    ];
    Simulation::new(cfg, setups).expect("valid setup")
}

fn faults() -> FaultPlan {
    FaultPlan {
        replica_crashes: Some(ReplicaCrashes {
            mttf: DurationMs::from_secs(180.0),
        }),
        node_outage: Some(NodeOutage {
            start: SimTimeMs::from_secs(120.0),
            duration: DurationMs::from_secs(90.0),
            quota_fraction: 0.4,
        }),
        metric_outage: Some(MetricOutage {
            start: SimTimeMs::from_secs(240.0),
            duration: DurationMs::from_secs(60.0),
            jobs: vec![JobId::new(0)],
            mode: MetricOutageMode::Stale,
        }),
        ..FaultPlan::none()
    }
}

fn traced_run(plan: FaultPlan) -> (RunOutcome, TraceSink) {
    let mut sink = TraceSink::new();
    let outcome = sim()
        .with_faults(plan)
        .unwrap()
        .driver(Box::new(Aiad::default()))
        .telemetry(&mut sink)
        .run()
        .into_outcome();
    (outcome, sink)
}

#[test]
fn seeded_replays_produce_byte_identical_jsonl_traces() {
    let (_, a) = traced_run(faults());
    let (_, b) = traced_run(faults());
    let jsonl = a.to_jsonl();
    assert!(!jsonl.is_empty());
    assert_eq!(jsonl, b.to_jsonl(), "same seed, same trace bytes");
    // The trace actually exercised the fault lifecycle, not just
    // decision records.
    let kinds: Vec<&str> = a.entries().map(|e| e.event.kind()).collect();
    for expected in [
        "Decision",
        "ReplicaReady",
        "ReplicaCrashed",
        "NodeOutageBegan",
        "NodeOutageEnded",
        "MetricOutageBegan",
        "MetricOutageEnded",
        "ColdStartBegan",
    ] {
        assert!(
            kinds.contains(&expected),
            "trace never recorded a {expected} event"
        );
    }
}

#[test]
fn tracing_never_steers_the_run() {
    let (traced, sink) = traced_run(faults());
    let plain = sim()
        .with_faults(faults())
        .unwrap()
        .driver(Box::new(Aiad::default()))
        .telemetry(NoopSink)
        .run()
        .into_outcome();
    let bytes = |o: &RunOutcome| serde_json::to_string(&o.report).expect("report serializes");
    assert_eq!(
        bytes(&traced),
        bytes(&plain),
        "a trace sink must observe the run, never alter it"
    );
    assert_eq!(traced.stats, plain.stats);
    assert!(sink.counter_total(Counter::TailDrops) > 0 || !sink.is_empty());
}

#[test]
fn decision_records_agree_with_run_stats() {
    let (outcome, sink) = traced_run(FaultPlan::none());
    let decisions: Vec<_> = sink
        .entries()
        .filter_map(|e| match &e.event {
            TelemetryEvent::Decision { record } => Some(record),
            _ => None,
        })
        .collect();
    assert_eq!(decisions.len() as u64, outcome.stats.rounds);
    // Rounds are recorded in order, 1-based, at non-decreasing times.
    for (i, d) in decisions.iter().enumerate() {
        assert_eq!(d.round, i as u64 + 1);
        assert_eq!(d.jobs.len(), 2);
    }
    let started: u32 = decisions.iter().map(|d| d.replicas_started).sum();
    assert_eq!(u64::from(started), outcome.stats.replicas_started);
}

#[test]
fn chaos_replays_are_byte_identical_for_a_fixed_seed() {
    // Every fault class armed at once: the injected-fault schedule is
    // part of the determinism contract, not an exemption from it.
    let plan = ChaosPlan {
        api_errors: Some(ApiErrors {
            observe_rate: 0.08,
            apply_rate: 0.08,
        }),
        latency: Some(InjectedLatency {
            mean: DurationMs::from_millis(40),
            timeout_after: DurationMs::from_millis(400),
        }),
        stale_snapshots: Some(StaleSnapshots { rate: 0.1 }),
        partial_applies: Some(PartialApplies { rate: 0.1 }),
    };
    let run = |seed: u64| {
        let backend = sim().into_backend().expect("backend builds");
        let chaos = ChaosBackend::new(backend, plan, seed).expect("valid plan");
        let mut sink = TraceSink::new();
        let out = Driver::new(chaos, Box::new(Aiad::default()))
            .admission(Box::new(OutageClamp::new(10)))
            .telemetry(&mut sink)
            .run();
        (sink.to_jsonl(), out.driver_stats, *out.backend.stats())
    };
    for seed in [1, 2, 3, 7] {
        let (jsonl_a, driver_a, chaos_a) = run(seed);
        let (jsonl_b, driver_b, chaos_b) = run(seed);
        assert!(!jsonl_a.is_empty());
        assert_eq!(jsonl_a, jsonl_b, "same chaos seed {seed}, same trace bytes");
        assert_eq!(driver_a, driver_b);
        assert_eq!(chaos_a, chaos_b);
        // The run exercised the resilience machinery, not a quiet path.
        assert!(
            chaos_a.observe_errors
                + chaos_a.apply_errors
                + chaos_a.stale_serves
                + chaos_a.partial_applies
                > 0,
            "chaos plan never fired under seed {seed}: {chaos_a:?}"
        );
        assert!(jsonl_a.contains("BackendRetry"), "no retries traced");
    }
}

#[test]
fn sharded_solve_traces_are_reproducible() {
    // The sharded long-term path traces its ShardSolve events and
    // spans, and two identical seeded runs emit byte-identical JSONL
    // and reports.
    let run = || {
        let mut cfg = FaroConfig::new(ClusterObjective::Sum);
        cfg.solve_plan = SolvePlan::Sharded(ShardConfig::with_shards(2));
        let predictors: Vec<Box<dyn RatePredictor>> = (0..2)
            .map(|_| Box::new(FlatPredictor::default()) as Box<dyn RatePredictor>)
            .collect();
        let mut sink = TraceSink::new();
        let outcome = sim()
            .driver(Box::new(FaroAutoscaler::new(cfg, predictors)))
            .telemetry(&mut sink)
            .run()
            .into_outcome();
        let report = serde_json::to_string(&outcome.report).expect("report serializes");
        (sink.to_jsonl(), report)
    };
    let (jsonl_a, report_a) = run();
    let (jsonl_b, report_b) = run();
    assert!(
        jsonl_a.contains("ShardSolve"),
        "sharded path never traced a shard solve"
    );
    assert_eq!(jsonl_a, jsonl_b, "same seed, same trace bytes");
    assert_eq!(report_a, report_b, "same seed, same report");
}

#[test]
fn aggregate_snapshot_is_reproducible() {
    let run = || {
        let mut sink = AggregateSink::new();
        sim()
            .with_faults(faults())
            .unwrap()
            .driver(Box::new(Aiad::default()))
            .telemetry(&mut sink)
            .run()
            .into_outcome();
        sink.prometheus_snapshot()
    };
    let snap = run();
    assert_eq!(snap, run(), "same seed, same snapshot bytes");
    assert!(snap.contains("faro_rounds_total"));
    assert!(snap.contains("faro_phase_rounds_total{phase=\"decide\"}"));
    assert!(snap.contains("faro_slo_attainment_ratio"));
}
