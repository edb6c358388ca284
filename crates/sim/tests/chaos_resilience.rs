//! End-to-end chaos resilience: [`Driver::run`]'s retry ladder
//! steering a [`ChaosBackend`]-wrapped simulator.
//!
//! Two contracts are pinned here:
//!
//! 1. A retried apply after an injected [`BackendError::PartialApply`]
//!    converges to the same cluster state as one clean apply — partial
//!    actuation plus a retry is indistinguishable, state-wise, from
//!    never having failed.
//! 2. Under a 10% injected apply-failure rate, bounded retry achieves
//!    strictly higher SLO attainment than running with retries
//!    disabled, under each of several chaos seeds.

use faro_control::{
    BackendError, ChaosBackend, ChaosPlan, Clock, ClusterBackend, Driver, PartialApplies,
    ResilienceConfig, RetryPolicy,
};
use faro_core::admission::OutageClamp;
use faro_core::types::{DesiredState, JobDecision, JobId, JobSpec};
use faro_sim::{JobSetup, SimBackend, SimConfig, Simulation};
use faro_telemetry::{TelemetryEvent, TraceSink};
use proptest::prelude::*;

/// Chaos stream seeds: every assertion must hold under each fault
/// schedule, not one lucky one.
const CHAOS_SEEDS: [u64; 4] = [1, 2, 3, 7];

/// A policy that ramps supply one replica per job every other round
/// toward a ceiling. The desired state changes nearly every round, so
/// a lost apply withholds real capacity for a full tick — unlike a
/// threshold policy whose targets move rarely enough that most lost
/// applies are silent no-ops on an already-converged cluster.
struct RampSupply {
    round: u32,
    ceiling: u32,
}

impl faro_core::Policy for RampSupply {
    fn name(&self) -> &str {
        "ramp-supply"
    }
    fn decide(&mut self, s: &faro_core::types::ClusterSnapshot) -> DesiredState {
        self.round += 1;
        let target = (2 + self.round / 2).min(self.ceiling);
        s.job_ids()
            .map(|id| (id, JobDecision::replicas(target)))
            .collect()
    }
}

/// Two jobs under sustained heavy load while supply ramps from 4 to
/// 38 replicas: the cluster is capacity-starved until late in the
/// run, so every tick of delayed actuation costs violated requests.
fn ramp_sim() -> Simulation {
    let cfg = SimConfig {
        total_replicas: 40,
        seed: 77,
        ..Default::default()
    };
    let setups = vec![
        JobSetup {
            spec: JobSpec::resnet34("chaos-a"),
            rates_per_minute: vec![2400.0; 16],
            initial_replicas: 2,
        },
        JobSetup {
            spec: JobSpec::resnet34("chaos-b"),
            rates_per_minute: vec![2400.0; 16],
            initial_replicas: 2,
        },
    ];
    Simulation::new(cfg, setups).expect("valid setup")
}

/// Drives the ramp through chaos and returns the trace plus the
/// recovered chaos backend (for stats and the final report).
fn chaos_run(
    plan: ChaosPlan,
    retry: RetryPolicy,
    seed: u64,
) -> (TraceSink, ChaosBackend<SimBackend>) {
    let backend = ramp_sim().into_backend().expect("backend builds");
    let chaos = ChaosBackend::new(backend, plan, seed).expect("valid plan");
    let cfg = ResilienceConfig { retry };
    let policy = RampSupply {
        round: 0,
        ceiling: 19,
    };
    let mut sink = TraceSink::new();
    let out = Driver::new(chaos, Box::new(policy))
        .admission(Box::new(OutageClamp::new(40)))
        .resilience(cfg)
        .telemetry(&mut sink)
        .run();
    (sink, out.backend)
}

/// Request-level SLO attainment (the paper's figure-of-merit):
/// fraction of requests served within their SLO.
fn attainment(chaos: ChaosBackend<SimBackend>) -> f64 {
    let report = chaos.into_inner().finish("ramp-supply");
    1.0 - report.cluster_violation_rate
}

#[test]
fn bounded_retry_beats_no_retry_under_apply_failures() {
    let plan = ChaosPlan {
        api_errors: Some(faro_control::ApiErrors {
            observe_rate: 0.0,
            apply_rate: 0.10,
        }),
        ..ChaosPlan::none()
    };
    for seed in CHAOS_SEEDS {
        let (retried_sink, retried_chaos) = chaos_run(plan, RetryPolicy::default(), seed);
        let (bare_sink, bare_chaos) = chaos_run(plan, RetryPolicy::no_retry(), seed);

        // The fault plan actually bit in both runs.
        assert!(retried_chaos.stats().apply_errors > 0, "chaos never fired");
        assert!(bare_chaos.stats().apply_errors > 0, "chaos never fired");

        // The improvement must come from retries landing the failed
        // applies, not from the fault schedule diverging.
        let retry_events = retried_sink
            .entries()
            .filter(|e| matches!(e.event, TelemetryEvent::BackendRetry { .. }))
            .count();
        assert!(retry_events > 0, "no BackendRetry events recorded");
        let bare_retries = bare_sink
            .entries()
            .filter(|e| matches!(e.event, TelemetryEvent::BackendRetry { .. }))
            .count();
        assert_eq!(bare_retries, 0, "no_retry must never retry");

        let with_retry = attainment(retried_chaos);
        let without = attainment(bare_chaos);
        assert!(
            with_retry > without,
            "bounded retry must strictly improve SLO attainment under 10% \
             apply failures: with retry {with_retry:.4}, without {without:.4} \
             (chaos seed {seed})"
        );
    }
}

/// A two-job backend advanced to its first policy tick.
fn primed_backend(seed: u64) -> SimBackend {
    let cfg = SimConfig {
        total_replicas: 12,
        seed,
        ..Default::default()
    };
    let setups = vec![
        JobSetup {
            spec: JobSpec::resnet34("a"),
            rates_per_minute: vec![120.0; 6],
            initial_replicas: 2,
        },
        JobSetup {
            spec: JobSpec::resnet34("b"),
            rates_per_minute: vec![120.0; 6],
            initial_replicas: 2,
        },
    ];
    let mut backend = Simulation::new(cfg, setups)
        .unwrap()
        .into_backend()
        .unwrap();
    backend.advance().expect("a first tick exists");
    backend
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Partial actuation plus the retry that completes it leaves the
    /// cluster in exactly the state one clean apply would have: the
    /// chaos backend actuates a strict prefix of the desired state,
    /// and re-applying the full state finishes the job without
    /// double-scaling the prefix.
    #[test]
    fn retried_apply_after_partial_apply_converges(
        t0 in 1u32..6,
        t1 in 1u32..6,
        sim_seed in 0u64..20,
        fault_seed in 0u64..20,
    ) {
        let desired: DesiredState = vec![
            (JobId::new(0), JobDecision::replicas(t0)),
            (JobId::new(1), JobDecision::replicas(t1)),
        ]
        .into_iter()
        .collect();

        // Twin one: a single clean apply.
        let mut clean = primed_backend(sim_seed);
        let clean_report = clean.apply(&desired).unwrap();
        let want = clean.observe().unwrap();

        // Twin two: every apply is cut short, so the first attempt
        // actuates a strict prefix and errors; the retry completes it.
        let plan = ChaosPlan {
            partial_applies: Some(PartialApplies { rate: 1.0 }),
            ..ChaosPlan::none()
        };
        let mut chaotic = ChaosBackend::new(primed_backend(sim_seed), plan, fault_seed).unwrap();
        let err = chaotic.apply(&desired).unwrap_err();
        prop_assert!(
            matches!(err, BackendError::PartialApply { .. }),
            "expected PartialApply, got {err}"
        );
        if let BackendError::PartialApply { applied } = err {
            prop_assert!(applied < desired.len() as u32, "a partial apply is strictly partial");
        }

        // The retry: the full desired state against the real backend.
        let mut retried = chaotic.into_inner();
        let retry_report = retried.apply(&desired).unwrap();
        let got = retried.observe().unwrap();

        prop_assert_eq!(&got, &want, "retry after partial apply must converge");
        // The retry never double-starts the already-applied prefix:
        // it starts at most what the clean single apply did.
        prop_assert!(retry_report.replicas_started <= clean_report.replicas_started);
    }
}
