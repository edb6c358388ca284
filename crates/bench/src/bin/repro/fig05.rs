//! Figure 5: precise vs relaxed solvers on a production-trace snapshot
//! (10 jobs, 40 total replicas).
//!
//! The paper's finding: on the *precise* (plateau) formulation, local
//! solvers (SLSQP, COBYLA) finish fast but stall at poor objectives,
//! while Differential Evolution escapes plateaus at ~15-20 s and is
//! still suboptimal. After the relaxation, all three find near-optimal
//! allocations and the local solvers finish sub-second. Nelder-Mead
//! stands in for SLSQP (see DESIGN.md). Solve times go to stderr.

use crate::Run;
use faro_bench::prelude::*;
use faro_core::opt::{Fidelity, JobWorkload, MultiTenantProblem};
use faro_core::types::ResourceModel;
use faro_solver::{Cobyla, DifferentialEvolution, NelderMead, Solver};
use std::time::Instant;

fn snapshot_jobs() -> Vec<JobWorkload> {
    // A mid-day snapshot of the 10-job workload: per-job arrival rate
    // over the next 7 minutes taken directly from the eval traces.
    let set = WorkloadSet::paper_ten_jobs(42);
    set.jobs
        .iter()
        .zip(&set.eval)
        .map(|(spec, rates)| {
            let window: Vec<f64> = rates[180..187].iter().map(|r| r / 60.0).collect();
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
    let resources = ResourceModel::replicas(faro_core::units::ReplicaCount::new(40));
    let objective = ClusterObjective::PenaltySum;
    // Start from a minimal allocation: overloaded jobs sit on the
    // step-utility plateau, which is exactly what defeats local
    // solvers on the precise form.
    let x0 = vec![1u32; 10];

    // The precise problem is the yardstick: every solution (from either
    // fidelity) is re-scored under the precise objective.
    let precise = MultiTenantProblem::new(
        snapshot_jobs(),
        resources.clone(),
        objective,
        Fidelity::Precise,
    )
    .expect("valid snapshot");

    let mut out = format!(
        "{:<22} {:<8} {:>12} {:>12}\n",
        "solver", "form", "evals", "precise_obj"
    );
    // (evaluations, precise objective) in print order: precise COBYLA,
    // Nelder-Mead, DE, then relaxed.
    let mut scores = Vec::new();
    for (fidelity, form) in [
        (Fidelity::Precise, "precise"),
        (Fidelity::Relaxed, "relaxed"),
    ] {
        let problem =
            MultiTenantProblem::new(snapshot_jobs(), resources.clone(), objective, fidelity)
                .expect("valid snapshot");
        let de = DifferentialEvolution {
            max_generations: 400,
            ..Default::default()
        };
        let solvers: Vec<(&str, Box<dyn Solver>)> = vec![
            ("COBYLA", Box::new(Cobyla::default())),
            ("NelderMead(SLSQP-sub)", Box::new(NelderMead::default())),
            ("DifferentialEvolution", Box::new(de)),
        ];
        for (name, solver) in solvers {
            let start = Instant::now();
            let alloc = problem.solve(solver.as_ref(), &x0).expect("solve succeeds");
            let elapsed = start.elapsed().as_secs_f64() * 1e3;
            // Score the raw continuous solution under the precise
            // objective (integer post-processing would mask solver
            // quality differences).
            let score = precise.cluster_value(&alloc.replicas, &alloc.drop_rates);
            eprintln!("  {name:<22} {form:<8} {elapsed:>10.1} ms");
            out += &format!("{name:<22} {form:<8} {:>12} {score:>12.3}\n", alloc.evals);
            scores.push((alloc.evals as f64, score));
        }
    }
    out += "\nexpect: precise+local = fast but poor; precise+DE = slow, middling; \
            relaxed = near-optimal, local solvers sub-second (paper Fig. 5)\n";

    let [(pc_evals, pc), (_, pn), (pd_evals, _), (rc_evals, rc), _, (rd_evals, _)] = scores[..]
    else {
        unreachable!("two forms of three solvers")
    };
    let mut run = Run::default();
    run.claim(rc > 9.999, "relaxed COBYLA reaches the max, 10", rc);
    run.claim(
        rc > pc.max(pn),
        "relaxed COBYLA beats precise COBYLA, NM",
        (pc, pn),
    );
    let de = (pd_evals / pc_evals, rd_evals / rc_evals);
    run.claim(de.0.min(de.1) >= 50.0, "DE needs >= 50x COBYLA's evals", de);
    run.text(out)
}
