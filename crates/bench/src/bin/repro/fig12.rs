//! Figure 12: fairness across jobs as box plots of per-job lost
//! utility, for all nine policies at cluster sizes 36 / 32 / 16.
//!
//! Prints min / p25 / median / p75 / max of per-job lost utility —
//! tighter whiskers mean better fairness. The paper's findings:
//! FairShare is counterintuitively unfair, Oneshot lets one job starve
//! the rest, Mark is unfair when slightly oversubscribed, and the
//! Faro-*Fair* variants have the tightest boxes.

use crate::Run;
use faro_bench::prelude::*;

fn five_number(mut v: Vec<f64>) -> (f64, f64, f64, f64, f64) {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let q = |f: f64| v[((v.len() - 1) as f64 * f).round() as usize];
    (q(0.0), q(0.25), q(0.5), q(0.75), q(1.0))
}

pub fn run() -> Run {
    let (set, trained) = crate::trained(WorkloadSet::paper_ten_jobs(42));
    let spec =
        ExperimentSpec::new(PolicyKind::standard_nine(set.len()), vec![36, 32, 16]).with_trials(3);
    let results = run_matrix(&spec, &set, Some(&trained));

    let mut out = String::new();
    let mut run = Run::default();
    for &size in &[36u32, 32, 16] {
        out += &format!("=== cluster size {size}: per-job lost utility ===\n");
        out += &format!(
            "{:<24} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
            "policy", "min", "p25", "median", "p75", "max", "spread"
        );
        let mut spreads = Vec::new();
        for r in results.iter().filter(|r| r.cluster_size == size) {
            // Per-job lost utility averaged across trials.
            let n_jobs = r.reports[0].jobs.len();
            let per_job: Vec<f64> = (0..n_jobs)
                .map(|j| {
                    r.reports
                        .iter()
                        .map(|rep| rep.jobs[j].lost_utility())
                        .sum::<f64>()
                        / r.reports.len() as f64
                })
                .collect();
            let (min, p25, med, p75, max) = five_number(per_job);
            out += &format!(
                "{:<24} {min:>8.3} {p25:>8.3} {med:>8.3} {p75:>8.3} {max:>8.3} {:>8.3}\n",
                r.policy,
                max - min
            );
            spreads.push((r.policy == "FairShare", max - min));
        }
        out.push('\n');
        if size != 16 {
            let widest = |fs: bool| spreads.iter().filter(move |s| s.0 == fs).map(|s| s.1);
            let fs = widest(true).fold(0.0, f64::max);
            let next = widest(false).fold(0.0, f64::max);
            let claim = format!("at {size} replicas FairShare's spread is the widest");
            run.claim(fs > next, &claim, (fs, next));
        }
    }
    out += "tighter spread = fairer (paper Fig. 12)\n";
    run.text(out)
}
