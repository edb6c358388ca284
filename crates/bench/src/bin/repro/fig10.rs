//! Figure 10 + Table 3: Faro vs the four baselines at right-sized (36),
//! slightly-oversubscribed (32), and heavily-oversubscribed (16)
//! cluster sizes. Reports lost cluster utility and cluster SLO
//! violation rate (mean and SD over trials).
//!
//! Paper reference: in the right-sized cluster Faro lowers SLO
//! violations 2.3x-12.3x and lost utility 1.7x-9x; at 32 replicas,
//! 2.8x-8.4x and 2.5x-6.1x; at 16 replicas, 1.1x-1.5x on both.

use crate::Run;
use faro_bench::prelude::*;

pub fn run() -> Run {
    let (set, trained) = crate::trained(WorkloadSet::paper_ten_jobs(42));

    let mut out = String::new();
    let mut run = Run::default();
    // Paper: Faro-FairSum at RS (36) and SO (32), Faro-Sum at HO (16).
    let gamma = ClusterObjective::recommended_gamma(set.len());
    for (size, objective) in [
        (36u32, ClusterObjective::FairSum { gamma }),
        (32, ClusterObjective::FairSum { gamma }),
        (16, ClusterObjective::Sum),
    ] {
        let spec =
            ExperimentSpec::new(PolicyKind::baselines_plus(objective), vec![size]).with_trials(5);
        let results = run_matrix(&spec, &set, Some(&trained));
        out += &format!("=== Figure 10: cluster size {size} ===\n");
        out += &format!("{}\n", summarize(&results));
        // Table 3 is the 32-replica lost-utility row.
        if size == 32 {
            out += "--- Table 3 (avg lost cluster utility, 32 replicas) ---\n";
            for r in &results {
                out += &format!("{:<28} {:.2}\n", r.policy, r.lost_utility_mean);
            }
            out.push('\n');
        }
        claim_faro_leads(&mut run, &results);
    }
    run.text(out)
}

/// Claims the Faro row of one cell loses less utility and violates its
/// SLOs less often than every baseline in it.
pub fn claim_faro_leads(run: &mut Run, cell: &[PolicyResult]) {
    let of = |r: &PolicyResult| (r.lost_utility_mean, r.violation_mean);
    let (faro, baselines): (Vec<_>, Vec<_>) =
        cell.iter().partition(|r| r.policy.starts_with("Faro"));
    let (f, size) = (of(faro[0]), faro[0].cluster_size);
    for b in baselines {
        let claim = format!("{} beats {} at {size} replicas", faro[0].policy, b.policy);
        run.claim(f.0 < of(b).0 && f.1 < of(b).1, &claim, (f, of(b)));
    }
}
