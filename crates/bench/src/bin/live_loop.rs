//! Live actuation loop: the resilient driver steering a
//! cluster-in-a-process over real HTTP, timed at wall-clock speed.
//!
//! This is the deployable-control-plane counterpart of
//! `perf_baseline`'s in-process control-loop number: every round
//! crosses a TCP socket twice (observe + apply), pays JSON
//! serialization both ways, and runs under seeded server-side chaos
//! (injected apply failures and stale snapshots), so the measured
//! rounds/sec is the protocol's end-to-end overhead, not the
//! reconciler's.
//!
//! Usage: `cargo run --release -p faro-bench --bin live_loop`
//!   FARO_QUICK=1        fewer rounds (CI smoke)
//!   FARO_CHAOS_SEED=n   server fault-stream seed (default 1)
//!   FARO_BENCH_LABEL=x  entry label (default "dev")
//!   FARO_BENCH_OUT=path output file (default `BENCH_perf.json` at the repo root)
//!
//! Appends one `pr10-live-loop`-shaped entry to the JSON array in
//! `BENCH_perf.json`; existing entries are preserved verbatim.

use faro_bench::prelude::*;
use faro_cluster::{ChaosConfig, ClusterConfig, ClusterServer, HttpBackend, LiveConfig};
use faro_control::{Clock, Reconciler, ResilienceConfig, ResilientDriver};
use faro_core::admission::ClampToQuota;
use faro_core::baselines::Aiad;
use faro_metrics::percentile_of_sorted;
use serde::Serialize;
use std::time::{Duration, Instant};

#[derive(Debug, Serialize)]
struct LiveLoopEntry {
    /// Entry label (e.g. "pr10-live-loop", "ci").
    label: String,
    /// Unix timestamp (seconds) when the entry was recorded.
    unix_time_secs: u64,
    /// Whether FARO_QUICK=1 shrank the workload.
    quick: bool,
    /// Server fault-stream seed the run used.
    chaos_seed: u64,
    /// Rounds the driver completed (observe + decide + apply each).
    live_rounds: u64,
    /// Full observe→decide→apply rounds per wall-clock second over
    /// the loopback socket, chaos included.
    live_rounds_per_sec: f64,
    /// Wall-clock p50 of a single HTTP apply call (ms).
    apply_p50_ms: f64, // faro-lint: allow(raw-time-arith): serialized wire format
    /// Wall-clock p99 of a single HTTP apply call (ms).
    apply_p99_ms: f64, // faro-lint: allow(raw-time-arith): serialized wire format
    /// Driver-level retries the chaos forced, observe + apply summed
    /// (sanity: chaos was live).
    retries: u64,
    /// Desired-vs-observed drift repairs over the run.
    drift_repairs: u64,
}

fn chaos_seed() -> u64 {
    std::env::var("FARO_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

fn main() {
    let quick = quick_mode();
    let label = std::env::var("FARO_BENCH_LABEL").unwrap_or_else(|_| "dev".to_string());
    let default_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_perf.json");
    let path = std::env::var("FARO_BENCH_OUT").unwrap_or_else(|_| default_path.to_string());
    let seed = chaos_seed();
    let rounds: u64 = if quick { 64 } else { 512 };

    let chaos = ChaosConfig {
        seed,
        api_latency_ms: 0,
        apply_fail_per_mille: 100,
        stale_observe_per_mille: 50,
        stale_age_ms: 10_000,
    };
    let server =
        ClusterServer::spawn_with_chaos(ClusterConfig::demo(25), chaos).expect("spawn server");
    let backend = HttpBackend::connect(
        server.addr(),
        LiveConfig {
            tick_ms: 10_000,
            interval: Duration::from_millis(0),
            horizon_rounds: rounds,
            request_timeout: Duration::from_secs(5),
        },
    );
    let mut reconciler = Reconciler::new(Box::new(Aiad::default()), Box::new(ClampToQuota));
    let mut driver = ResilientDriver::new(backend, ResilienceConfig::default());
    let mut sink = faro_telemetry::NoopSink;

    eprintln!("driving {rounds} live rounds over loopback HTTP (seed {seed})...");
    let start = Instant::now();
    while driver.backend_mut().advance_with(&mut sink).is_some() {
        driver.round_with(&mut reconciler, &mut sink);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let stats = *driver.stats();
    let backend = driver.into_inner();

    let mut latencies = backend.apply_latencies_ms().to_vec();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let apply_p50_ms = percentile_of_sorted(&latencies, 0.50).unwrap_or(0.0);
    let apply_p99_ms = percentile_of_sorted(&latencies, 0.99).unwrap_or(0.0);
    server.shutdown();

    assert_eq!(stats.rounds, rounds, "every advance produced a round");
    let retries = stats.observe_retries + stats.apply_retries;
    let live_rounds_per_sec = rounds as f64 / elapsed;
    eprintln!(
        "  {live_rounds_per_sec:.0} rounds/s, apply p50 {apply_p50_ms:.3} ms / p99 {apply_p99_ms:.3} ms, \
         {} retries, {} drift repairs",
        retries, stats.drift_repairs
    );

    let entry = LiveLoopEntry {
        label,
        unix_time_secs: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        quick,
        chaos_seed: seed,
        live_rounds: rounds,
        live_rounds_per_sec,
        apply_p50_ms,
        apply_p99_ms,
        retries,
        drift_repairs: stats.drift_repairs,
    };
    let json = serde_json::to_string(&entry).expect("entry serializes");
    append_bench_entry(&path, &json).expect("BENCH_perf.json is writable");
    println!("{json}");
    eprintln!("appended entry to {path}");
}
