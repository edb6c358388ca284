//! Figure 15: matched simulation swept from oversubscribed (16
//! replicas) to undersubscribed (44 replicas) clusters, all nine
//! policies, reporting average cluster utility (max 10).
//!
//! Paper: at >= 36 replicas Faro variants and Mark approach the max
//! utility while FairShare/Oneshot/AIAD do not; under constraint
//! (<= 32) Faro leads, and in small clusters Faro-Sum/PenaltySum beat
//! the Faro-*Fair* variants because equitable splitting lowers total
//! utility.

use crate::Run;
use faro_bench::prelude::*;

pub fn run() -> Run {
    let (set, trained) = crate::trained(WorkloadSet::paper_ten_jobs(42));
    let sizes: Vec<u32> = vec![16, 20, 24, 28, 32, 36, 40, 44];
    let spec =
        ExperimentSpec::new(PolicyKind::standard_nine(set.len()), sizes.clone()).with_trials(2);
    let results = run_matrix(&spec, &set, Some(&trained));

    let max_u = set.len() as f64;
    let utility = |p: &str, s: u32| {
        let cell = results
            .iter()
            .find(|r| r.policy == p && r.cluster_size == s)
            .expect("cell exists");
        max_u - cell.lost_utility_mean
    };
    // Matrix: policy rows, size columns.
    let policies: Vec<String> = PolicyKind::standard_nine(set.len())
        .iter()
        .map(PolicyKind::name)
        .collect();
    let mut out = format!("{:<24}", "cluster utility");
    for s in &sizes {
        out += &format!(" {s:>7}");
    }
    out.push('\n');
    for p in &policies {
        out += &format!("{p:<24}");
        for &s in &sizes {
            out += &format!(" {:>7.2}", utility(p, s));
        }
        out.push('\n');
    }
    out += "\nexpect: Faro near 10 from 36 up; dominance under constraint (paper Fig. 15)\n";

    let mut run = Run::default();
    let (faro, baselines): (Vec<&String>, Vec<&String>) =
        policies.iter().partition(|p| p.starts_with("Faro"));
    let best = |of: &[&String], s: u32| of.iter().map(|p| utility(p, s)).fold(0.0, f64::max);
    for &s in &sizes {
        if s >= 36 {
            let worst = faro.iter().map(|p| utility(p, s)).fold(max_u, f64::min);
            run.claim(worst >= 9.5, &format!("every Faro >= 9.5 at {s}"), worst);
        } else {
            let (f, b) = (best(&faro, s), best(&baselines, s));
            run.claim(f > b, &format!("best Faro > best baseline at {s}"), (f, b));
        }
    }
    let (sum, fair) = (utility("Faro-Sum", 16), utility("Faro-Fair", 16));
    run.claim(sum > fair, "Faro-Sum beats Faro-Fair at 16", (sum, fair));
    run.text(out)
}
