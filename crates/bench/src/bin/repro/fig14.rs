//! Figure 14: mixed workloads — half the jobs run ResNet18 (100 ms,
//! 400 ms SLO), half ResNet34 (180 ms, 720 ms SLO), in a right-sized
//! cluster, Faro-FairSum vs the four baselines.
//!
//! Paper: Faro lowers cluster SLO violation rates 4x-23x and lost
//! cluster utility 2.3x-13.1x.

use crate::Run;
use faro_bench::prelude::*;

pub fn run() -> Run {
    let (set, trained) = crate::trained(WorkloadSet::mixed_models(42));
    let gamma = ClusterObjective::recommended_gamma(set.len());
    // Right-sized for the mixed set: ResNet18 replicas serve ~1.8x the
    // throughput, so the mixed right-size sits below the pure-ResNet34
    // 36.
    let spec = ExperimentSpec::new(
        PolicyKind::baselines_plus(ClusterObjective::FairSum { gamma }),
        vec![30],
    )
    .with_trials(5);
    let results = run_matrix(&spec, &set, Some(&trained));
    let mut out = format!("{}\n", summarize(&results));

    let faro = &results[0];
    for r in &results[1..] {
        out += &format!(
            "Faro vs {:<24} SLO violations {:>5.1}x lower, lost utility {:>5.1}x lower\n",
            r.policy,
            r.violation_mean / faro.violation_mean.max(1e-9),
            r.lost_utility_mean / faro.lost_utility_mean.max(1e-9),
        );
    }
    let mut run = Run::default();
    crate::fig10::claim_faro_leads(&mut run, &results);
    run.text(out)
}
