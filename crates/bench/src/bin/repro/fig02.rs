//! Figure 2: Cilantro-SW vs Faro-Sum on the 10-job mix at 32 replicas.
//!
//! The paper reports Cilantro averaging an 83.4% SLO violation rate
//! against Faro's 6.9%: Cilantro's online-learned latency model and
//! fixed-window ARMA predictor adapt too slowly for ML inference
//! workloads. Prints a timeline of per-10-minute cluster utility for
//! both policies plus the aggregate rates.

use crate::Run;
use faro_bench::prelude::*;

pub fn run() -> Run {
    let (set, trained) = crate::trained(WorkloadSet::paper_ten_jobs(42));
    let spec = ExperimentSpec::new(
        vec![
            PolicyKind::faro(ClusterObjective::Sum),
            PolicyKind::Cilantro,
        ],
        vec![32],
    )
    .with_trials(3);
    let results = run_matrix(&spec, &set, Some(&trained));

    let mut out = String::from("cluster utility timeline (10-minute averages, max = 10):\n");
    out += &format!(
        "{:>8} {:>10} {:>14}\n",
        "minute", "Faro-Sum", "Cilantro-like"
    );
    let faro_series = &results[0].reports[0].cluster_utility_per_minute;
    let cil_series = &results[1].reports[0].cluster_utility_per_minute;
    let minutes = faro_series.len().min(cil_series.len());
    for m in (0..minutes).step_by(10) {
        let avg = |s: &[f64]| {
            let w = &s[m..(m + 10).min(s.len())];
            w.iter().sum::<f64>() / w.len() as f64
        };
        out += &format!(
            "{m:>8} {:>10.2} {:>14.2}\n",
            avg(faro_series),
            avg(cil_series)
        );
    }
    for r in &results {
        out += &format!(
            "\n{}: average SLO violation rate {:.1}%, lost cluster utility {:.2}\n",
            r.policy,
            100.0 * r.violation_mean,
            r.lost_utility_mean
        );
    }
    out += "\npaper: Cilantro 83.4% vs Faro 6.9% average SLO violation (Fig. 2)\n";

    let (faro, cilantro) = (results[0].violation_mean, results[1].violation_mean);
    let mut run = Run::default();
    let rates = (faro, cilantro);
    let ok = faro <= cilantro / 3.0;
    run.claim(ok, "Faro-Sum violates <= 1/3 as often as Cilantro", rates);
    run.text(out)
}
