//! Fault-injection study: Faro versus the FairShare/Oneshot/AIAD
//! baselines under each fault scenario the simulator can inject, plus a
//! no-fault control.
//!
//! Scenarios: independent replica crashes (exponential MTTF), one
//! correlated node outage (a quota fraction disappears mid-run), a
//! cold-start spike window, and a metric outage that blanks half the
//! jobs' observations. Claimed: Faro loses the least utility of the four
//! policies in every scenario, and its guards make the metric outage
//! cost it nothing over the no-fault control.

use crate::Run;
use faro_bench::prelude::*;
use faro_sim::{
    ColdStartSpike, FaultPlan, MetricOutage, MetricOutageMode, NodeOutage, ReplicaCrashes,
};
use serde::Serialize;

/// One (scenario, policy) row of the JSON report.
#[derive(Debug, Serialize)]
struct Row {
    scenario: String,
    policy: String,
    lost_utility_mean: f64,
    lost_utility_sd: f64,
    violation_mean: f64,
    effective_utility_mean: f64,
    availability_mean: f64,
    mean_time_to_recover_secs: f64, // faro-lint: allow(raw-time-arith): serialized wire format
    crash_killed_total: u64,
}

fn scenarios(n_jobs: usize) -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("control", FaultPlan::none()),
        (
            "replica-crashes",
            FaultPlan {
                replica_crashes: Some(ReplicaCrashes { mttf_secs: 450.0 }),
                ..FaultPlan::none()
            },
        ),
        (
            "node-outage",
            FaultPlan {
                node_outage: Some(NodeOutage {
                    start_secs: 1200.0,
                    duration_secs: 600.0,
                    quota_fraction: 0.4,
                }),
                ..FaultPlan::none()
            },
        ),
        (
            "cold-start-spike",
            FaultPlan {
                cold_start_spike: Some(ColdStartSpike {
                    start_secs: 600.0,
                    duration_secs: 900.0,
                    median_multiplier: 4.0,
                    sigma: 0.3,
                }),
                ..FaultPlan::none()
            },
        ),
        (
            "metric-outage",
            FaultPlan {
                metric_outage: Some(MetricOutage {
                    start_secs: 900.0,
                    duration_secs: 900.0,
                    jobs: (0..n_jobs.div_ceil(2))
                        .map(faro_core::types::JobId::new)
                        .collect(),
                    mode: MetricOutageMode::Missing,
                }),
                ..FaultPlan::none()
            },
        ),
    ]
}

fn availability_stats(r: &PolicyResult) -> (f64, f64, u64) {
    let n = r.reports.len().max(1) as f64;
    let avail = r.reports.iter().map(|c| c.availability).sum::<f64>() / n;
    let mut ttr_weighted = 0.0;
    let mut recoveries = 0u64;
    let mut killed = 0u64;
    for c in &r.reports {
        killed += c.crash_killed_total;
        for j in &c.jobs {
            ttr_weighted += j.mean_time_to_recover_secs * j.recoveries as f64;
            recoveries += j.recoveries;
        }
    }
    let ttr = if recoveries > 0 {
        ttr_weighted / recoveries as f64
    } else {
        0.0
    };
    (avail, ttr, killed)
}

pub fn run() -> Run {
    let set = WorkloadSet::n_jobs(4, 7, 1200.0).truncated_eval(60);
    let policies = vec![
        PolicyKind::faro(ClusterObjective::Sum),
        PolicyKind::FairShare,
        PolicyKind::Oneshot,
        PolicyKind::Aiad,
    ];

    let mut stdout = String::new();
    let mut text = String::new();
    let mut rows: Vec<Row> = Vec::new();
    let mut run = Run::default();
    // Faro's lost utility in the no-fault control.
    let mut control = None;
    for (scenario, plan) in scenarios(set.len()) {
        // Slightly oversubscribed (the paper's interesting regime:
        // a static split cannot cover staggered per-job peaks).
        let spec = ExperimentSpec::new(policies.clone(), vec![14])
            .with_trials(3)
            .with_faults(plan);
        let results = run_matrix(&spec, &set, None);
        text += &format!("=== Scenario: {scenario} ===\n");
        text.push_str(&summarize(&results));
        text += &format!(
            "{:<28} {:>12} {:>10} {:>12}\n",
            "policy", "avail", "mttr_s", "crash_killed"
        );
        for r in &results {
            let (avail, ttr, killed) = availability_stats(r);
            text += &format!(
                "{:<28} {:>12.4} {:>10.1} {:>12}\n",
                r.policy, avail, ttr, killed
            );
            rows.push(Row {
                scenario: scenario.to_string(),
                policy: r.policy.clone(),
                lost_utility_mean: r.lost_utility_mean,
                lost_utility_sd: r.lost_utility_sd,
                violation_mean: r.violation_mean,
                effective_utility_mean: r.effective_utility_mean,
                availability_mean: avail,
                mean_time_to_recover_secs: ttr,
                crash_killed_total: killed,
            });
        }
        text.push('\n');
        stdout += &format!("=== Scenario: {scenario} ===\n{}\n", summarize(&results));

        let lost: Vec<f64> = results.iter().map(|r| r.lost_utility_mean).collect();
        let faro = lost[0];
        run.claim(
            lost[1..].iter().all(|&b| faro < b),
            &format!("{scenario}: Faro loses the least utility"),
            &lost,
        );
        let control = *control.get_or_insert(faro);
        if scenario == "metric-outage" {
            run.claim(
                faro <= control,
                "metric-outage: Faro loses no more than in the control",
                (faro, control),
            );
        }
    }

    stdout += &format!("{text}\n");
    let json = serde_json::to_string(&rows).expect("serialize rows");
    run.print(stdout).file("txt", text).file("json", json)
}
