//! Table 7: matched simulator vs cluster deployment.
//!
//! The physical cluster is not available in this reproduction, so the
//! "cluster" rows are produced by a *perturbed* simulator configuration
//! (different seeds, higher service-time jitter, longer and noisier
//! cold starts) against the clean "simulation" configuration — the
//! comparison structure of the paper's Table 7: do the two imperfectly
//! matched environments agree on policy utilities (~10%) and rankings
//! (Kendall-Tau near 0)?

use crate::Run;
use faro_bench::prelude::*;
use faro_metrics::kendall_tau_distance;

fn ranked(results: &[PolicyResult], size: u32) -> Vec<(String, f64, f64)> {
    let mut rows: Vec<(String, f64, f64)> = results
        .iter()
        .filter(|r| r.cluster_size == size)
        .map(|r| (r.policy.clone(), r.lost_utility_mean, r.lost_utility_sd))
        .collect();
    rows.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
    rows
}

pub fn run() -> Run {
    let (set, trained) = crate::trained(WorkloadSet::paper_ten_jobs(42));
    let sizes = vec![36u32, 32, 16];
    let trials = 3;

    // Clean "simulation" environment.
    let sim_spec = ExperimentSpec::new(PolicyKind::standard_nine(set.len()), sizes.clone())
        .with_trials(trials);
    let sim_results = run_matrix(&sim_spec, &set, Some(&trained));

    // Perturbed "cluster" environment.
    let mut cluster_spec = ExperimentSpec::new(PolicyKind::standard_nine(set.len()), sizes.clone())
        .with_trials(trials);
    cluster_spec.sim = SimConfig {
        service_cv: 0.15,
        cold_start_secs: 70.0,
        seed: 0xc1u64, // Overridden per cell, but offsets the stream.
        ..SimConfig::default()
    };
    cluster_spec.trials = (100..100 + trials as u64).collect();
    let cluster_results = run_matrix(&cluster_spec, &set, Some(&trained));

    let mut out = String::new();
    let mut run = Run::default();
    for (&size, label) in sizes.iter().zip(["RS", "SO", "HO"]) {
        out += &format!("=== {label} (cluster size {size}) ===\n");
        let cl = ranked(&cluster_results, size);
        let si = ranked(&sim_results, size);
        out += &format!("{:<12} rank 1 -> 9: policy (lost utility, sd)\n", "env");
        for (label, rows) in [("cluster*", &cl), ("simulation", &si)] {
            let line: Vec<String> = rows
                .iter()
                .map(|(p, m, sd)| format!("{p} ({m:.2},{sd:.2})"))
                .collect();
            out += &format!("{label:<12} {}\n", line.join(" | "));
        }
        let cl_names: Vec<&String> = cl.iter().map(|r| &r.0).collect();
        let si_names: Vec<&String> = si.iter().map(|r| &r.0).collect();
        let tau = kendall_tau_distance(&cl_names, &si_names).expect("same policy set");
        // Mean absolute utility difference between environments.
        let diff: f64 = cl
            .iter()
            .map(|(p, m, _)| {
                let other = si
                    .iter()
                    .find(|(q, _, _)| q == p)
                    .expect("policy present")
                    .1;
                (m - other).abs() / m.abs().max(other.abs()).max(1e-9)
            })
            .sum::<f64>()
            / cl.len() as f64;
        out += &format!(
            "Kendall-Tau distance: {tau:.3}   mean relative utility difference: {:.1}%\n\n",
            100.0 * diff
        );
        let claim = format!("{label}: Kendall-Tau <= 0.12, utility difference < 10%");
        run.claim(tau <= 0.12 && diff < 0.10, &claim, (tau, diff));
    }
    out += "paper: Kendall-Tau 0 at SO and HO, 0.083 at RS; 9.6% average utility difference\n";
    run.text(out)
}
