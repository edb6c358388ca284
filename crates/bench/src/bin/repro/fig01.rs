//! Figure 1: a single ML inference job with a *fixed* replica count
//! under a time-varying workload violates its SLO badly whenever load
//! exceeds capacity — the motivation for autoscaling.
//!
//! Prints a per-10-minute series of (workload, SLO satisfaction) for a
//! fixed-size job, plus the aggregate violation rate.

use crate::Run;
use faro_bench::prelude::*;
use faro_sim::ClusterReport;

pub fn run() -> Run {
    // One Azure-like job, fixed at 4 replicas (FairShare on a single
    // job = static allocation).
    let set = WorkloadSet::n_jobs(1, 42, 1600.0);
    let quota = 4;
    let report = fixed_size(&set, quota, 1);

    let job = &report.jobs[0];
    let mut out = format!("single job, fixed {quota} replicas, SLO 720 ms @ p99\n");
    out += &format!(
        "{:>8} {:>12} {:>16}\n",
        "minute", "req/min", "slo_satisfaction"
    );
    let minutes = job.utility_per_minute.len();
    let mut satisfaction = Vec::new();
    for m in (0..minutes).step_by(10) {
        let window = &job.utility_per_minute[m..(m + 10).min(minutes)];
        let sat = window.iter().sum::<f64>() / window.len() as f64;
        let load = &job.arrivals_per_minute[m..(m + 10).min(job.arrivals_per_minute.len())];
        let rate = load.iter().sum::<f64>() / load.len().max(1) as f64;
        out += &format!("{m:>8} {rate:>12.0} {sat:>16.3}\n");
        satisfaction.push(sat);
    }
    out += &format!(
        "\noverall SLO violation rate: {:.1}% of {} requests ({} dropped)\n",
        100.0 * job.violation_rate,
        job.total_requests,
        job.drops
    );
    out += "a fixed-size job cannot track a time-varying workload (paper Fig. 1)\n";

    let mut run = Run::default();
    let rate = job.violation_rate;
    run.claim(rate > 0.2, "violation rate > 20%", rate);
    let (worst, best) = satisfaction
        .iter()
        .fold((1.0, 0.0), |(w, b), &s| (s.min(w), s.max(b)));
    let spans = worst <= 0.1 && best == 1.0;
    run.claim(spans, "10-minute windows span <= 0.1 to 1.0", (worst, best));
    run.text(out)
}

/// One run of `set` with every job held at `replicas` replicas (FairShare
/// with a quota of `replicas`).
pub fn fixed_size(set: &WorkloadSet, replicas: u32, seed: u64) -> ClusterReport {
    let config = SimConfig {
        total_replicas: replicas,
        seed,
        ..Default::default()
    };
    let sim = Simulation::new(config, set.setups(replicas)).expect("valid setup");
    let outcome = sim.driver(Box::new(FairShare)).unwrap().run();
    outcome.expect("runs").into_outcome().report
}
