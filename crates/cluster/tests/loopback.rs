//! End-to-end loopback integration: real TCP server, real HTTP
//! client, the resilient driver steering through seeded server-side
//! chaos, externally injected drift that must be detected and healed,
//! and refusals the server marks final that must not be retried.
//!
//! Each chaos test runs under every seed in [`CHAOS_SEEDS`]; for any
//! fixed seed the run is deterministic — one server thread serves
//! requests in order and every fault draw comes from the seeded
//! per-class streams. [`TIME_GATE`] bounds each seed's wall time: the
//! live loop must actually run at wall speed, not hang on a socket.

use faro_cluster::http::post;
use faro_cluster::wire::{APPLY_PATH, OBSERVE_PATH};
use faro_cluster::{
    ChaosConfig, ClusterConfig, ClusterServer, HttpBackend, LiveConfig, ObserveResponse,
};
use faro_control::{
    BreakerState, Clock, Driver, DriverStats, Reconciler, ResilienceConfig, ResilientDriver,
};
use faro_core::admission::{ClampToQuota, Unlimited};
use faro_core::baselines::Aiad;
use faro_core::types::{ClusterSnapshot, DesiredState, JobDecision};
use faro_core::Policy;
use faro_telemetry::{TelemetryEvent, TraceSink};
use std::time::{Duration, Instant};

/// Server-side chaos seeds every chaos test runs under.
const CHAOS_SEEDS: [u64; 3] = [1, 2, 3];

/// Wall-time bound on one seed's drift-and-heal run.
const TIME_GATE: Duration = Duration::from_secs(30);

fn live_config(rounds: u64) -> LiveConfig {
    LiveConfig {
        tick_ms: 10_000,
        interval: Duration::from_millis(2),
        horizon_rounds: rounds,
        request_timeout: Duration::from_secs(5),
    }
}

/// The drift-and-heal scenario: run the resilient driver against the
/// live server under seeded chaos, scale a job behind the controller's
/// back mid-run, and require that the drift is detected, repaired, and
/// the final observed state matches the controller's last decision.
/// The rogue write lands between two rounds, so this test steps the
/// rounds itself instead of calling `Driver::run`.
#[test]
fn loopback_driver_heals_injected_drift_under_chaos() {
    for seed in CHAOS_SEEDS {
        heals_injected_drift(seed);
    }
}

fn heals_injected_drift(seed: u64) {
    let started = Instant::now();
    let chaos = ChaosConfig {
        seed,
        api_latency_ms: 0,
        apply_fail_per_mille: 150,
        stale_observe_per_mille: 100,
        stale_age_ms: 10_000,
    };
    let server =
        ClusterServer::spawn_with_chaos(ClusterConfig::demo(40), chaos).expect("spawn server");
    let addr = server.addr();

    let backend = HttpBackend::connect(addr, live_config(24));
    let mut reconciler = Reconciler::new(Box::new(Aiad::default()), Box::new(ClampToQuota));
    let mut driver = ResilientDriver::new(backend, ResilienceConfig::default());
    let mut sink = TraceSink::new();

    let rogue = "{\"v\":1,\"desired\":[{\"job\":0,\"target_replicas\":15,\"drop_rate\":0.0}]}";
    let mut round = 0u64;
    while driver.backend_mut().advance_with(&mut sink).is_some() {
        round += 1;
        if round == 8 {
            // A rogue actor re-scales job 0 through the same public
            // API, behind the controller's back. Retry until it gets
            // past the injected apply failures — the rogue is not
            // subject to the driver's retry budget.
            let mut attempts = 0;
            loop {
                attempts += 1;
                let resp =
                    post(addr, APPLY_PATH, rogue, Duration::from_secs(5)).expect("rogue apply");
                if resp.status == 200 {
                    break;
                }
                assert!(attempts < 100, "rogue apply never got through");
            }
        }
        driver.round_with(&mut reconciler, &mut sink);
    }

    let stats = *driver.stats();
    assert_eq!(stats.rounds, 24, "every advance produced a round");
    assert!(
        stats.drift_repairs >= 1,
        "seed {seed}: the rogue apply must surface as drift: {stats:?}"
    );
    let drift_events = sink
        .entries()
        .filter(|e| matches!(e.event, TelemetryEvent::DriftDetected { .. }))
        .count();
    assert!(drift_events >= 1, "drift must be reported to telemetry");

    // The controller's last decision is the intended state; the
    // server's live state must have converged back to it.
    let last_granted: Vec<u32> = sink
        .entries()
        .filter_map(|e| match &e.event {
            TelemetryEvent::Decision { record } => Some(
                record
                    .jobs
                    .iter()
                    .map(|j| j.granted_replicas)
                    .collect::<Vec<_>>(),
            ),
            _ => None,
        })
        .last()
        .expect("at least one decision was recorded");
    let obs = post(addr, OBSERVE_PATH, "{}", Duration::from_secs(5)).expect("final observe");
    assert_eq!(obs.status, 200);
    let parsed = ObserveResponse::from_json(&serde_json::from_str(&obs.body).expect("json"))
        .expect("v1 body");
    let observed: Vec<u32> = parsed
        .snapshot
        .jobs
        .iter()
        .map(|j| j.target_replicas)
        .collect();
    assert_eq!(
        observed, last_granted,
        "seed {seed}: final observed targets must equal the controller's last decision"
    );

    server.shutdown();
    let elapsed = started.elapsed();
    assert!(
        elapsed < TIME_GATE,
        "seed {seed}: live loop blew the wall-time gate: {elapsed:?}"
    );
}

/// Same seed, same trace: the loopback loop replays deterministically
/// because every fault draw is seeded and requests are served in
/// order by one thread.
#[test]
fn loopback_round_accounting_replays_per_seed() {
    let run = |seed: u64| {
        let chaos = ChaosConfig {
            seed,
            api_latency_ms: 0,
            apply_fail_per_mille: 200,
            stale_observe_per_mille: 150,
            stale_age_ms: 10_000,
        };
        let server =
            ClusterServer::spawn_with_chaos(ClusterConfig::demo(30), chaos).expect("spawn server");
        let backend = HttpBackend::connect(server.addr(), live_config(16));
        let out = Driver::new(backend, Box::new(Aiad::default())).run();
        server.shutdown();
        out.driver_stats
    };
    for seed in CHAOS_SEEDS {
        let a = run(seed);
        let b = run(seed);
        assert_eq!(a, b, "same seed {seed}, same driver accounting");
        assert_eq!(a.rounds, 16);
    }
}

/// With chaos off, a run over the HTTP backend completes its horizon
/// without touching a rung of the retry ladder: every round clean, no
/// retry, no drift, the breaker closed.
#[test]
fn a_clean_run_over_http_takes_no_rung_of_the_ladder() {
    let server = ClusterServer::spawn(ClusterConfig::demo(30)).expect("spawn server");
    let backend = HttpBackend::connect(server.addr(), live_config(20));
    let out = Driver::new(backend, Box::new(Aiad::default())).run();
    server.shutdown();
    assert_eq!(out.stats.rounds, 20);
    assert_eq!(
        out.driver_stats,
        DriverStats {
            rounds: 20,
            ok_rounds: 20,
            ..DriverStats::default()
        }
    );
    assert_eq!(out.breaker, BreakerState::Closed);
}

/// Asks every job for a fixed target, every round.
struct Want(u32);

impl Policy for Want {
    fn name(&self) -> &str {
        "want"
    }

    fn decide(&mut self, snapshot: &ClusterSnapshot) -> DesiredState {
        snapshot
            .job_ids()
            .map(|id| (id, JobDecision::replicas(self.0)))
            .collect()
    }
}

/// A target past the 16-replica demo cluster gets a 400 the server
/// marks non-retryable; the client reports it as `Rejected` and the
/// resilient driver spends no retry on it.
#[test]
fn refused_applies_are_not_retried() {
    let server = ClusterServer::spawn(ClusterConfig::demo(30)).expect("spawn server");
    let backend = HttpBackend::connect(server.addr(), live_config(6));
    let out = Driver::new(backend, Box::new(Want(17)))
        .admission(Box::new(Unlimited))
        .run();
    server.shutdown();
    let stats = out.driver_stats;
    assert_eq!(stats.apply_retries, 0, "{stats:?}");
    assert!(stats.apply_failures > 0, "{stats:?}");
}
