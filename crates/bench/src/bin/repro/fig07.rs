//! Figure 7: hierarchical optimization. (a) solver work against the
//! job count for group counts G (solve times go to stderr); (b)
//! objective value of the grouped solve normalized to the flat
//! (G = jobs) solve.
//!
//! Paper: a few groups speed up the flat solve by up to 64x; with > 50
//! jobs grouping even *improves* utility slightly, while below ~50 jobs
//! the aggregation loses a little. Faro defaults to G = 10.

use crate::Run;
use faro_bench::prelude::*;
use faro_core::hierarchical::solve_hierarchical;
use faro_core::opt::{Fidelity, JobWorkload, MultiTenantProblem};
use faro_core::types::{ClassAlloc, ResourceModel};
use faro_solver::Cobyla;
use std::time::Instant;

fn jobs_from(set: &WorkloadSet, minute: usize) -> Vec<JobWorkload> {
    set.jobs
        .iter()
        .zip(&set.eval)
        .map(|(spec, rates)| {
            let window: Vec<f64> = rates[minute..minute + 7].iter().map(|r| r / 60.0).collect();
            JobWorkload {
                lambda_trajectories: vec![window],
                processing_time: spec.processing_time,
                slo: spec.slo,
                priority: spec.priority,
            }
        })
        .collect()
}

pub fn run() -> Run {
    let solver = Cobyla::fast();
    let mut out = String::new();
    let mut run = Run::default();
    out += &format!(
        "{:>6} {:>4} {:>10} {:>14} {:>12}\n",
        "jobs", "G", "evals", "objective", "normalized"
    );
    for n_jobs in [10usize, 20, 50, 100] {
        let set = WorkloadSet::n_jobs(n_jobs, 11, 1600.0);
        // Constrained quota: the solve must arbitrate, which is where
        // dimensionality bites (and where Faro actually runs).
        let quota = (n_jobs as f64 * 2.2) as u32;
        let resources = ResourceModel::replicas(faro_core::units::ReplicaCount::new(quota));
        let jobs = jobs_from(&set, 180);
        let current = vec![1u32; n_jobs];

        // Flat baseline: every job its own group.
        let flat_problem = MultiTenantProblem::new(
            jobs.clone(),
            resources.clone(),
            ClusterObjective::Sum,
            Fidelity::Relaxed,
        )
        .expect("valid problem");
        let start = Instant::now();
        let flat = flat_problem.solve(&solver, &current).expect("solves");
        let flat_xs: Vec<u32> = flat_problem
            .integerize(&flat)
            .iter()
            .map(ClassAlloc::total)
            .collect();
        let flat_obj = flat_problem.cluster_value_integer(&flat_xs, &flat.drop_rates);
        let flat_ms = start.elapsed().as_secs_f64() * 1e3;
        eprintln!("  {n_jobs:>6} {:>4} {flat_ms:>12.1} ms", "flat");
        out += &format!(
            "{n_jobs:>6} {:>4} {:>10} {flat_obj:>14.3} {:>12.3}\n",
            "flat", flat.evals, 1.0
        );

        let mut grouped = Vec::new();
        for groups in [1usize, 2, 5, 10, 20] {
            if groups >= n_jobs {
                continue;
            }
            let start = Instant::now();
            let out_g = solve_hierarchical(
                &jobs,
                resources.clone(),
                ClusterObjective::Sum,
                Fidelity::Relaxed,
                &solver,
                &current,
                groups,
                7,
            )
            .expect("solves");
            let ms = start.elapsed().as_secs_f64() * 1e3;
            // Score the grouped allocation with the flat problem for an
            // apples-to-apples objective.
            let obj = flat_problem.cluster_value_integer(&out_g.replicas, &out_g.drop_rates);
            let normalized = obj / flat_obj.max(1e-9);
            eprintln!("  {n_jobs:>6} {groups:>4} {ms:>12.1} ms");
            out += &format!(
                "{n_jobs:>6} {groups:>4} {:>10} {obj:>14.3} {normalized:>12.3}\n",
                out_g.evals
            );
            grouped.push((out_g.evals, normalized));
        }
        out.push('\n');
        if n_jobs == 100 {
            let most = grouped.iter().map(|g| g.0).max().unwrap_or(0);
            let evals = (most, flat.evals);
            run.claim(
                evals.0 < evals.1,
                "at 100 jobs every G beats flat's evals",
                evals,
            );
        }
        if n_jobs == 50 {
            let best = grouped.iter().map(|g| g.1).fold(0.0, f64::max);
            run.claim(
                best >= 1.0,
                "at 50 jobs some G reaches >= 1.0 normalized",
                best,
            );
        }
    }
    out += "expect: grouped solves are much faster; normalized objective near 1 (paper Fig. 7)\n";
    run.text(out)
}
