//! SLO attainment under an unreliable cluster API: sweeps the
//! injected apply-failure rate and compares the resilient driver's
//! bounded retry against a no-retry control, averaged over several
//! chaos seeds.
//!
//! The scenario is a capacity-starved supply ramp (targets move
//! nearly every round), so every apply the control loop loses
//! withholds real capacity for a tick and costs violated requests.
//! Expected outcome: attainment with retry dominates no-retry at
//! every non-zero failure rate, and the two curves coincide at rate
//! zero (the wrapper is pass-through when no fault class fires).

use crate::Run;
use faro_control::{
    ApiErrors, ChaosBackend, ChaosPlan, Driver, DriverStats, ResilienceConfig, RetryPolicy,
};
use faro_core::admission::OutageClamp;
use faro_core::types::{ClusterSnapshot, DesiredState, JobDecision, JobSpec};
use faro_core::Policy;
use faro_sim::{JobSetup, SimConfig, Simulation};
use serde::Serialize;

/// Replica quota shared by the two ramp jobs.
const QUOTA: u32 = 40;
/// Injected apply-failure rates swept along the x-axis.
const RATES: [f64; 5] = [0.0, 0.05, 0.10, 0.20, 0.30];

/// One (failure-rate, retry-mode, seed-averaged) curve point.
#[derive(Debug, Serialize)]
struct Row {
    apply_failure_rate: f64,
    retries_enabled: bool,
    seeds: u64,
    slo_attainment_mean: f64,
    slo_attainment_min: f64,
    apply_errors_mean: f64,
    apply_retries_mean: f64,
    failed_rounds_mean: f64,
}

/// Ramps supply one replica per job every other round toward a
/// ceiling, so the desired state changes nearly every round and a
/// lost apply always withholds capacity.
struct RampSupply {
    round: u32,
    ceiling: u32,
}

impl Policy for RampSupply {
    fn name(&self) -> &str {
        "ramp-supply"
    }
    fn decide(&mut self, s: &ClusterSnapshot) -> DesiredState {
        self.round += 1;
        let target = (2 + self.round / 2).min(self.ceiling);
        s.job_ids()
            .map(|id| (id, JobDecision::replicas(target)))
            .collect()
    }
}

fn ramp_sim() -> Simulation {
    let cfg = SimConfig {
        total_replicas: QUOTA,
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

/// One chaos run; returns request-level SLO attainment and the
/// driver's failure accounting.
fn run_once(apply_rate: f64, retry: RetryPolicy, seed: u64) -> (f64, DriverStats) {
    let plan = if apply_rate > 0.0 {
        ChaosPlan {
            api_errors: Some(ApiErrors {
                observe_rate: 0.0,
                apply_rate,
            }),
            ..ChaosPlan::none()
        }
    } else {
        ChaosPlan::none()
    };
    let backend = ramp_sim().into_backend().expect("backend builds");
    let chaos = ChaosBackend::new(backend, plan, seed).expect("valid plan");
    let cfg = ResilienceConfig { retry };
    let policy = RampSupply {
        round: 0,
        ceiling: 19,
    };
    let out = Driver::new(chaos, Box::new(policy))
        .admission(Box::new(OutageClamp::new(QUOTA)))
        .resilience(cfg)
        .run()
        .expect("a resilient run never stops on a backend error");
    let stats = out.driver_stats.expect("a resilient run counts its rounds");
    let report = out.backend.into_inner().finish("ramp-supply");
    (1.0 - report.cluster_violation_rate, stats)
}

pub fn run() -> Run {
    let seeds: Vec<u64> = (1..=10).collect();
    let mut rows: Vec<Row> = Vec::new();
    let mut run = Run::default();
    let mut text =
        String::from("SLO attainment vs injected apply-failure rate (ramp-supply scenario)\n\n");
    text += &format!(
        "{:<12} {:>14} {:>14} {:>12} {:>12}\n",
        "apply_fail", "retry_mean", "no_retry_mean", "retry_min", "no_retry_min"
    );

    for rate in RATES {
        for (enabled, retry) in [
            (true, RetryPolicy::default()),
            (false, RetryPolicy::no_retry()),
        ] {
            let runs: Vec<_> = seeds.iter().map(|&s| run_once(rate, retry, s)).collect();
            let mean = |f: fn(&(f64, DriverStats)) -> f64| {
                runs.iter().map(f).sum::<f64>() / seeds.len() as f64
            };
            rows.push(Row {
                apply_failure_rate: rate,
                retries_enabled: enabled,
                seeds: seeds.len() as u64,
                slo_attainment_mean: mean(|r| r.0),
                slo_attainment_min: runs.iter().map(|r| r.0).fold(f64::INFINITY, f64::min),
                apply_errors_mean: mean(|r| r.1.apply_failures as f64),
                apply_retries_mean: mean(|r| r.1.apply_retries as f64),
                failed_rounds_mean: mean(|r| (r.1.rounds - r.1.ok_rounds) as f64),
            });
        }
        let [with, without] = &rows[rows.len() - 2..] else {
            unreachable!("one row per retry mode")
        };
        let (w, wo) = (with.slo_attainment_mean, without.slo_attainment_mean);
        text += &format!(
            "{:<12.2} {:>14.4} {:>14.4} {:>12.4} {:>12.4}\n",
            rate, w, wo, with.slo_attainment_min, without.slo_attainment_min
        );
        // Strictly better once failures are common enough to cost.
        let ok = if rate >= 0.10 { w > wo } else { w >= wo };
        run.claim(ok, &format!("retry beats no-retry at {rate:.2}"), (w, wo));
    }

    text.push_str(
        "\nretry_mean/no_retry_mean: request-level SLO attainment averaged over seeds;\n\
         *_min: worst seed. Retry should dominate at every non-zero rate.\n",
    );
    let json = serde_json::to_string(&rows).expect("serialize rows");
    run.text(text).file("json", json)
}
