//! Table 8: large-scale workloads.
//!
//! The paper runs 20 jobs on a 70-replica cluster and a 100-job /
//! 320-replica simulation (duplicated workloads), showing Faro-FairSum
//! still lowers SLO violation rates 3x-18.5x and lost cluster utility
//! 2.07x-13.76x versus FairShare / Oneshot / AIAD / Mark. The
//! hierarchical (grouped) solve kicks in above 50 jobs.

use crate::Run;
use faro_bench::prelude::*;

pub fn run() -> Run {
    let mut out = String::new();
    let mut run = Run::default();
    for (n_jobs, replicas, minutes, trials, label) in [
        (20, 70, 240, 3, "cluster-scale"),
        (100, 320, 120, 1, "simulation-scale"),
    ] {
        let set = WorkloadSet::n_jobs(n_jobs, 42, 1600.0).truncated_eval(minutes);
        let (set, trained) = crate::trained(set);
        let gamma = ClusterObjective::recommended_gamma(n_jobs);
        let spec = ExperimentSpec::new(
            vec![
                PolicyKind::FairShare,
                PolicyKind::Oneshot,
                PolicyKind::Aiad,
                PolicyKind::Mark,
                PolicyKind::faro(ClusterObjective::FairSum { gamma }),
            ],
            vec![replicas],
        )
        .with_trials(trials);
        let results = run_matrix(&spec, &set, Some(&trained));
        out += &format!("=== {label}: {n_jobs} jobs, {replicas} replicas ===\n");
        out += &format!(
            "{:<24} {:>12} {:>8} {:>10} {:>8}\n",
            "policy", "lost_util", "(sd)", "slo_viol", "(sd)"
        );
        for r in &results {
            out += &format!(
                "{:<24} {:>12.2} {:>8.2} {:>10.3} {:>8.3}\n",
                r.policy, r.lost_utility_mean, r.lost_utility_sd, r.violation_mean, r.violation_sd
            );
        }
        out.push('\n');
        let lost: Vec<f64> = results.iter().map(|r| r.lost_utility_mean).collect();
        let (aiad, mark, faro) = (lost[2], lost[3], lost[4]);
        let claim = format!("{label}: lost utility orders Faro < Mark < AIAD");
        run.claim(faro < mark && mark < aiad, &claim, (faro, mark, aiad));
    }
    out +=
        "paper Table 8: Faro-FairSum lost utility 0.63 (20 jobs) / 7.83 (100 jobs), always best\n";
    run.text(out)
}
