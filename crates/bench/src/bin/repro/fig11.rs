//! Figure 11: timeline of cluster utility (max 10) with the total
//! workload below it, for Faro-FairSum and the baselines at 32
//! replicas.

use crate::Run;
use faro_bench::prelude::*;

pub fn run() -> Run {
    let (set, trained) = crate::trained(WorkloadSet::paper_ten_jobs(42));
    let gamma = ClusterObjective::recommended_gamma(set.len());
    let spec = ExperimentSpec::new(
        PolicyKind::baselines_plus(ClusterObjective::FairSum { gamma }),
        vec![32],
    )
    .with_trials(1);
    let results = run_matrix(&spec, &set, Some(&trained));

    // Total workload per minute (same for all policies).
    let minutes = results[0].reports[0].cluster_utility_per_minute.len();
    let total_load: Vec<f64> = (0..minutes)
        .map(|m| {
            set.eval
                .iter()
                .map(|e| e.get(m).copied().unwrap_or(0.0))
                .sum()
        })
        .collect();

    let mut out = format!("{:>7} {:>10}", "minute", "req/min");
    for r in &results {
        out += &format!(" {:>22}", r.policy);
    }
    out.push('\n');
    for m in (0..minutes).step_by(5) {
        out += &format!("{m:>7} {:>10.0}", total_load[m]);
        for r in &results {
            let s = &r.reports[0].cluster_utility_per_minute;
            let w = &s[m..(m + 5).min(s.len())];
            out += &format!(" {:>22.2}", w.iter().sum::<f64>() / w.len() as f64);
        }
        out.push('\n');
    }
    out += "\nexpect: Faro holds utility at/near 10 longest and recovers fastest after spikes\n";

    let mut run = Run::default();
    let mean = |r: &PolicyResult| {
        let s = &r.reports[0].cluster_utility_per_minute;
        s.iter().sum::<f64>() / s.len() as f64
    };
    let faro = mean(&results[0]);
    for b in &results[1..] {
        let claim = format!("Faro's mean timeline utility beats {}'s", b.policy);
        run.claim(faro > mean(b), &claim, (faro, mean(b)));
    }
    run.text(out)
}
