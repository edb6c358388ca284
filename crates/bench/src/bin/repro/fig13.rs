//! Figure 13: lost cluster utility and lost *effective* cluster
//! utility (drop-penalized) for all five Faro variants and the four
//! baselines, at cluster sizes 36 / 32 / 16.
//!
//! Paper findings: every Faro variant beats every baseline at RS and
//! SO sizes; the variants' utilities are close to each other; the
//! Penalty variants do not improve a right-sized cluster.

use crate::Run;
use faro_bench::prelude::*;

pub fn run() -> Run {
    let (set, trained) = crate::trained(WorkloadSet::paper_ten_jobs(42));
    let spec =
        ExperimentSpec::new(PolicyKind::standard_nine(set.len()), vec![36, 32, 16]).with_trials(3);
    let results = run_matrix(&spec, &set, Some(&trained));

    let max_u = set.len() as f64;
    let mut out = String::new();
    let mut run = Run::default();
    for &size in &[36u32, 32, 16] {
        out += &format!("=== cluster size {size} ===\n");
        out += &format!(
            "{:<24} {:>12} {:>8} {:>16}\n",
            "policy", "lost_utility", "(sd)", "lost_eff_utility"
        );
        let mut rows: Vec<_> = results.iter().filter(|r| r.cluster_size == size).collect();
        rows.sort_by(|a, b| {
            a.lost_utility_mean
                .partial_cmp(&b.lost_utility_mean)
                .expect("finite")
        });
        for r in &rows {
            out += &format!(
                "{:<24} {:>12.3} {:>8.3} {:>16.3}\n",
                r.policy,
                r.lost_utility_mean,
                r.lost_utility_sd,
                (max_u - r.effective_utility_mean).max(0.0)
            );
        }
        out.push('\n');
        // Every Faro variant beats every baseline: the five rank first.
        let faro_first = rows.iter().take_while(|r| r.policy.starts_with("Faro"));
        let n = faro_first.count();
        run.claim(
            size == 16 || n == 5,
            &format!("all 5 Faro first at {size}"),
            n,
        );
    }
    out += "expect: all Faro variants above all baselines at 36/32 (paper Fig. 13)\n";
    run.text(out)
}
