//! Performance baseline: machine-readable hot-path timings committed
//! to `BENCH_perf.json` so every PR has a perf trajectory to compare
//! against.
//!
//! Measures the three hot paths that dominate every figure binary,
//! plus the control-plane overhead:
//!   1. simulator throughput (events/sec, Aiad policy — no solver),
//!   2. per-solve latency (10-job relaxed COBYLA solve, Faro's config),
//!   3. end-to-end fig15-style sweep wall-clock (9 policies x sizes,
//!      flat predictors so solver+simulator dominate, not training),
//!   4. bare reconciler rounds/sec over a no-op backend (the cost the
//!      Observe -> Decide -> Admit -> Actuate loop adds per tick).
//!
//! Usage: `cargo run --release -p faro-bench --bin perf_baseline`
//!   FARO_QUICK=1        smaller workload (CI smoke)
//!   FARO_BENCH_LABEL=x  entry label (default "dev")
//!   FARO_BENCH_OUT=path output file (default `BENCH_perf.json` at the repo root)
//!
//! Each run appends one labelled entry to the JSON array in
//! `BENCH_perf.json`; existing entries are preserved verbatim.

use faro_bench::prelude::*;
use faro_control::{ActuationReport, BackendError, Clock, ClusterBackend, Reconciler};
use faro_core::admission::ClampToQuota;
use faro_core::opt::{Fidelity, JobWorkload, MultiTenantProblem};
use faro_core::types::ResourceModel;
use faro_core::types::{ClusterSnapshot, DesiredState, JobObservation, JobSpec};
use faro_core::units::{RatePerMin, ReplicaCount, SimTimeMs};
use faro_solver::Cobyla;
use serde::Serialize;
use std::time::Instant;

#[derive(Debug, Serialize)]
struct PerfEntry {
    /// Entry label (e.g. "pr2-before", "pr2-after", "ci").
    label: String,
    /// Unix timestamp (seconds) when the entry was recorded.
    unix_time_secs: u64,
    /// Whether FARO_QUICK=1 shrank the workload.
    quick: bool,
    /// Simulator events processed per second (Aiad, no solver).
    sim_events_per_sec: f64,
    /// Simulated requests per wall-clock second in the same run.
    sim_requests_per_sec: f64,
    /// Mean wall-clock per 10-job relaxed COBYLA solve (ms).
    solve_ms_mean: f64,
    /// Mean objective evaluations per solve (sanity: workload parity).
    solve_evals_mean: f64,
    /// End-to-end fig15-style sweep wall-clock (seconds).
    fig15_sweep_secs: f64, // faro-lint: allow(raw-time-arith): serialized wire format
    /// Bare reconciler rounds per second over a no-op backend
    /// (control-plane overhead: snapshot hand-off, policy decide,
    /// admission, actuation dispatch — no event processing).
    control_loop_rounds_per_sec: f64,
}

/// Simulator throughput: 10 jobs, Aiad (cheap policy), no solver —
/// dominated by event processing plus per-tick snapshot construction.
fn measure_sim(quick: bool) -> (f64, f64) {
    let minutes = if quick { 60 } else { 180 };
    let set = WorkloadSet::paper_ten_jobs(42).truncated_eval(minutes);
    let cfg = SimConfig {
        total_replicas: 40,
        seed: 7,
        ..Default::default()
    };
    let tick_secs = cfg.tick_secs;
    let sim = Simulation::new(cfg, set.setups(1)).expect("valid setup");
    let policy = PolicyKind::Aiad.build(&set, None, 7);
    let start = Instant::now();
    let report = sim
        .driver()
        .unwrap()
        .policy(policy)
        .run()
        .expect("simulation completes")
        .into_outcome()
        .report;
    let elapsed = start.elapsed().as_secs_f64();
    let requests: u64 = report.jobs.iter().map(|j| j.total_requests).sum();
    let drops: u64 = report.jobs.iter().map(|j| j.drops).sum();
    let ticks = (minutes as f64 * 60.0 / tick_secs) as u64;
    // Arrivals + completions + policy ticks + minute boundaries.
    let events = requests + (requests - drops) + ticks + minutes as u64;
    (events as f64 / elapsed, requests as f64 / elapsed)
}

/// Per-solve latency: the 10-job relaxed problem Faro solves every
/// long-term round, with Faro's own COBYLA configuration.
fn measure_solve(quick: bool) -> (f64, f64) {
    let set = WorkloadSet::n_jobs(10, 42, 1600.0);
    let jobs: Vec<JobWorkload> = set
        .jobs
        .iter()
        .zip(&set.eval)
        .map(|(spec, rates)| JobWorkload {
            lambda_trajectories: vec![rates[180..187].iter().map(|r| r / 60.0).collect()],
            processing_time: spec.processing_time,
            slo: spec.slo,
            priority: spec.priority,
        })
        .collect();
    let problem = MultiTenantProblem::new(
        jobs,
        ResourceModel::replicas(ReplicaCount::new(40)),
        ClusterObjective::Sum,
        Fidelity::Relaxed,
    )
    .expect("valid problem");
    let x0 = vec![1u32; 10];
    let iters = if quick { 10 } else { 40 };
    // Warm-up solve (page in code, build any per-solve state once).
    let _ = problem.solve(&Cobyla::fast(), &x0).expect("solves");
    let mut total_evals = 0.0;
    let start = Instant::now();
    for _ in 0..iters {
        let sol = problem.solve(&Cobyla::fast(), &x0).expect("solves");
        total_evals += sol.evals as f64;
    }
    let elapsed_ms = start.elapsed().as_secs_f64() * 1000.0;
    (elapsed_ms / iters as f64, total_evals / iters as f64)
}

/// End-to-end fig15-style sweep: all nine policies across cluster
/// sizes, one trial, flat predictors (training cost excluded so the
/// number tracks simulator + solver work).
fn measure_sweep(quick: bool) -> f64 {
    let minutes = if quick { 30 } else { 90 };
    let set = WorkloadSet::paper_ten_jobs(42).truncated_eval(minutes);
    let sizes: Vec<u32> = if quick {
        vec![16, 32, 44]
    } else {
        vec![16, 24, 32, 36, 44]
    };
    let spec = ExperimentSpec::new(PolicyKind::standard_nine(set.len()), sizes).with_trials(1);
    let start = Instant::now();
    let results = run_matrix(&spec, &set, None);
    let elapsed = start.elapsed().as_secs_f64();
    assert!(!results.is_empty());
    elapsed
}

/// Control-plane overhead: reconcile rounds/sec with a no-op backend
/// whose observe() hands back a pre-built 10-job snapshot, under
/// FairShare + quota admission. Isolates what the reconciler itself
/// costs per tick, excluding all event processing.
fn measure_control_loop(quick: bool) -> f64 {
    struct NoopBackend {
        rounds: u64,
        limit: u64,
        snapshot: ClusterSnapshot,
    }
    impl Clock for NoopBackend {
        fn now(&self) -> SimTimeMs {
            SimTimeMs::from_millis(self.rounds as i64 * 10_000)
        }
        fn advance(&mut self) -> Option<SimTimeMs> {
            if self.rounds >= self.limit {
                return None;
            }
            self.rounds += 1;
            Some(self.now())
        }
    }
    impl ClusterBackend for NoopBackend {
        fn observe(&mut self) -> Result<ClusterSnapshot, BackendError> {
            Ok(self.snapshot.clone())
        }
        fn apply(&mut self, desired: &DesiredState) -> Result<ActuationReport, BackendError> {
            Ok(ActuationReport {
                jobs_applied: desired.len() as u32,
                jobs_failed: 0,
                replicas_started: ReplicaCount::ZERO,
            })
        }
    }
    let jobs: Vec<JobObservation> = (0..10)
        .map(|j| JobObservation {
            spec: std::sync::Arc::new(JobSpec::resnet34(format!("perf{j}"))),
            target_replicas: 4,
            ready_replicas: 4,
            queue_len: 0,
            arrival_rate_history: std::sync::Arc::new(vec![RatePerMin::new(300.0); 180]),
            recent_arrival_rate: 5.0,
            mean_processing_time: 0.18,
            recent_tail_latency: 0.2,
            drop_rate: 0.0,
            class_target: None,
            class_ready: None,
        })
        .collect();
    let snapshot = ClusterSnapshot {
        now: SimTimeMs::ZERO,
        resources: ResourceModel::replicas(ReplicaCount::new(40)),
        jobs,
    };
    let limit = if quick { 20_000 } else { 100_000 };
    let mut backend = NoopBackend {
        rounds: 0,
        limit,
        snapshot,
    };
    let mut reconciler = Reconciler::new(Box::new(FairShare), Box::new(ClampToQuota));
    let start = Instant::now();
    let stats = reconciler
        .run(&mut backend)
        .expect("no-op backend never fails");
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(stats.rounds, limit);
    stats.rounds as f64 / elapsed
}

fn main() {
    let quick = quick_mode();
    let label = std::env::var("FARO_BENCH_LABEL").unwrap_or_else(|_| "dev".to_string());
    let default_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_perf.json");
    let path = std::env::var("FARO_BENCH_OUT").unwrap_or_else(|_| default_path.to_string());

    eprintln!("measuring simulator throughput...");
    let (sim_events_per_sec, sim_requests_per_sec) = measure_sim(quick);
    eprintln!("  {sim_events_per_sec:.0} events/s ({sim_requests_per_sec:.0} req/s)");

    eprintln!("measuring per-solve latency...");
    let (solve_ms_mean, solve_evals_mean) = measure_solve(quick);
    eprintln!("  {solve_ms_mean:.2} ms/solve ({solve_evals_mean:.0} evals)");

    eprintln!("measuring fig15-style sweep wall-clock...");
    let fig15_sweep_secs = measure_sweep(quick);
    eprintln!("  {fig15_sweep_secs:.2} s end-to-end");

    eprintln!("measuring control-loop overhead...");
    let control_loop_rounds_per_sec = measure_control_loop(quick);
    eprintln!("  {control_loop_rounds_per_sec:.0} rounds/s");

    let entry = PerfEntry {
        label,
        unix_time_secs: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        quick,
        sim_events_per_sec,
        sim_requests_per_sec,
        solve_ms_mean,
        solve_evals_mean,
        fig15_sweep_secs,
        control_loop_rounds_per_sec,
    };
    let json = serde_json::to_string(&entry).expect("entry serializes");
    append_bench_entry(&path, &json).expect("BENCH_perf.json is writable");
    println!("{json}");
    eprintln!("appended entry to {path}");
}
