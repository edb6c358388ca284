//! Replays a fig15-style constrained-cluster run with the telemetry
//! layer attached and dumps the control plane's decision trace.
//!
//! The paper's ten-job workload runs for 30 minutes under Faro-Sum at
//! 32 replicas (the constrained regime where admission clamping and
//! drop control actually bite) with a crash/outage fault schedule, a
//! [`TraceSink`] + [`AggregateSink`] tee listening. The row then:
//!
//! - writes the full event trace as JSONL to `results/faro_trace.jsonl`,
//! - writes the Prometheus text snapshot to `results/faro_trace.prom`,
//! - prints phase-work stats, per-kind event counts, per-job SLO
//!   attainment, and a decision-trace excerpt,
//! - times the same single-threaded size sweep with [`NoopSink`]
//!   (implicit default) vs [`TraceSink`] and prints the overhead to
//!   stderr.

use crate::Run;
use faro_bench::prelude::*;
use faro_core::types::JobId;
use faro_sim::{MetricOutage, MetricOutageMode, NodeOutage, ReplicaCrashes, SimRun};
use faro_telemetry::{Phase, Tee};
use std::collections::BTreeMap;
use std::time::Instant;

/// The event kinds the fault schedule below must make the replay emit.
const LIFECYCLE_KINDS: [&str; 8] = [
    "ColdStartBegan",
    "Decision",
    "MetricOutageBegan",
    "MetricOutageEnded",
    "NodeOutageBegan",
    "NodeOutageEnded",
    "ReplicaCrashed",
    "ReplicaReady",
];

/// The fig15-style cell the trace replays: paper workload, Faro-Sum,
/// flat predictors (training cost excluded), constrained cluster.
fn fig15_cell() -> (WorkloadSet, SimConfig) {
    let set = WorkloadSet::paper_ten_jobs(42).truncated_eval(30);
    let cfg = SimConfig {
        total_replicas: 32,
        seed: 7,
        ..Default::default()
    };
    (set, cfg)
}

/// A fault schedule that exercises every lifecycle event kind inside
/// the first 30 minutes.
fn faults() -> FaultPlan {
    FaultPlan {
        replica_crashes: Some(ReplicaCrashes { mttf_secs: 600.0 }),
        node_outage: Some(NodeOutage {
            start_secs: 600.0,
            duration_secs: 120.0,
            quota_fraction: 0.25,
        }),
        metric_outage: Some(MetricOutage {
            start_secs: 1200.0,
            duration_secs: 120.0,
            jobs: vec![JobId::new(3)],
            mode: MetricOutageMode::Stale,
        }),
        ..FaultPlan::none()
    }
}

/// Runs the traced replay: its summary, JSONL trace and Prometheus
/// snapshot.
fn replay_and_dump(set: &WorkloadSet, cfg: &SimConfig) -> Run {
    let policy = PolicyKind::faro(ClusterObjective::Sum).build(set, None, cfg.seed);
    let mut tee = Tee::new(TraceSink::new(), AggregateSink::new());
    let outcome = Simulation::new(cfg.clone(), set.setups(1))
        .expect("valid setup")
        .with_faults(faults())
        .unwrap()
        .driver(policy)
        .unwrap()
        .telemetry(&mut tee)
        .run()
        .expect("traced replay completes")
        .into_outcome();
    let (trace, agg) = tee.into_parts();

    let mut out = format!(
        "replay: {} rounds, {} replicas started, {} trace events ({} evicted)\n",
        outcome.stats.rounds,
        outcome.stats.replicas_started,
        trace.len(),
        trace.evicted(),
    );

    let mut kinds: BTreeMap<&str, u64> = BTreeMap::new();
    for entry in trace.entries() {
        *kinds.entry(entry.event.kind()).or_insert(0) += 1;
    }
    out += "\nevents by kind:\n";
    for (kind, count) in &kinds {
        out += &format!("  {kind:<18} {count:>6}\n");
    }

    out += "\nphase work per round (deterministic units, not wall time):\n";
    out += &format!(
        "  {:<10} {:>8} {:>12} {:>10}\n",
        "phase", "rounds", "total_work", "max_work"
    );
    for phase in Phase::ALL {
        let s = agg.span_stats(phase);
        out += &format!(
            "  {:<10} {:>8} {:>12} {:>10}\n",
            phase.as_str(),
            s.rounds,
            s.total_work,
            s.max_work
        );
    }

    out += "\nper-job SLO attainment (mean of per-minute ratios):\n";
    for (j, job) in set.jobs.iter().enumerate() {
        let series = agg.attainment_series(j);
        let mean = if series.is_empty() {
            0.0
        } else {
            series.iter().sum::<f64>() / series.len() as f64
        };
        out += &format!("  {:<12} {mean:>6.3}\n", job.name);
    }

    let jsonl = trace.to_jsonl();
    out += "\ndecision-trace excerpt (first 2 JSONL records):\n";
    for line in jsonl.lines().take(2) {
        let shown = if line.len() > 200 { &line[..200] } else { line };
        out += &format!("  {shown}...\n");
    }

    let missing: Vec<&str> = LIFECYCLE_KINDS
        .into_iter()
        .filter(|k| !kinds.contains_key(k))
        .collect();
    let mut run = Run::default();
    run.claim(
        missing.is_empty(),
        "the replay emits every lifecycle event kind",
        missing,
    );
    run.print(out)
        .file("jsonl", jsonl)
        .file("prom", agg.prometheus_snapshot())
}

/// Times a single-threaded fig15-style size sweep twice — NoopSink
/// (the Runner default) vs TraceSink — so the ratio isolates tracing
/// overhead with no thread-scheduling noise.
fn measure_overhead(set: &WorkloadSet) -> (f64, f64) {
    let sizes = [16, 24, 32, 36, 44];
    let run = |size: u32, traced: bool| {
        let cfg = SimConfig {
            total_replicas: size,
            seed: 7,
            ..Default::default()
        };
        let policy = PolicyKind::faro(ClusterObjective::Sum).build(set, None, cfg.seed);
        let runner = Simulation::new(cfg, set.setups(1))
            .expect("valid setup")
            .driver(policy)
            .unwrap();
        let mut sink = TraceSink::new();
        let outcome = if traced {
            runner.telemetry(&mut sink).run()
        } else {
            runner.run()
        };
        let report = outcome.expect("sweep cell completes").into_outcome().report;
        assert!(!report.jobs.is_empty());
        assert_eq!(
            sink.is_empty(),
            !traced,
            "only a traced cell records events"
        );
    };
    // Warm-up (page in code and workload history once).
    run(sizes[0], false);
    let time = |traced: bool| {
        let start = Instant::now();
        sizes.iter().for_each(|&s| run(s, traced));
        start.elapsed().as_secs_f64()
    };
    (time(false), time(true))
}

pub fn run() -> Run {
    let (set, cfg) = fig15_cell();
    eprintln!("replaying fig15-style cell with telemetry attached...");
    let run = replay_and_dump(&set, &cfg);

    eprintln!("measuring tracing overhead (NoopSink vs TraceSink sweep)...");
    let (noop_secs, traced_secs) = measure_overhead(&set);
    let overhead_pct = (traced_secs / noop_secs - 1.0) * 100.0;
    eprintln!("  noop {noop_secs:.2}s, traced {traced_secs:.2}s ({overhead_pct:+.1}% overhead)");
    run
}
