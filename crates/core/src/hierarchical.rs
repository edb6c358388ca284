//! Hierarchical optimization for large job counts (paper Sec. 3.4).
//!
//! With many jobs the optimization variable count grows linearly and
//! solve time super-linearly. Faro assigns jobs to `G` random groups,
//! aggregates each group's arrival rate (sum) and processing time
//! (mean), solves the `G`-variable problem, then splits each group's
//! replica budget among its members proportionally to their offered
//! load. The paper reports a 64x speedup at ~2% utility change with a
//! handful of groups, and uses `G = 10` by default.
//!
//! The grouped solve is a `G`-variable *view* of a flat one-class
//! [`MultiTenantProblem`]: it scores jobs through that problem, under
//! that problem's model, and hands its expanded point to that problem's
//! `integerize`. [`crate::sharded`] is its one caller in a long-term
//! round: a solve of the whole problem or of a shard takes it past
//! [`HIERARCHICAL_THRESHOLD`] jobs. It never runs stage 3 — a grouped
//! allocation is not shrunk (pinned by the `sharded_golden` digests; a
//! documented limit). A group budget is a share of a scalar quota, so a
//! problem over two or more replica classes is refused.

use crate::error::{Error, Result};
use crate::objective::ClusterObjective;
use crate::opt::{Fidelity, JobWorkload, MultiTenantProblem};
use crate::rng::SplitMix64;
use crate::types::{ClassAlloc, ResourceModel};
use crate::units::ReplicaCount;
use faro_solver::Solver;

/// Default group count (paper Sec. 3.4).
pub const DEFAULT_GROUPS: usize = 10;

/// Job count above which a solve on a scalar quota is grouped instead
/// of flat, for the whole problem and for each shard alike.
pub const HIERARCHICAL_THRESHOLD: usize = 50;

/// Assigns `n_jobs` jobs to `groups` random groups (each non-empty when
/// `n_jobs >= groups`), deterministically from `seed` via the workspace
/// [`SplitMix64`] stream — the assignment reproduces bit-for-bit across
/// platforms and never shifts under a `rand` version bump.
pub fn assign_groups(n_jobs: usize, groups: usize, seed: u64) -> Vec<usize> {
    let g = groups.max(1).min(n_jobs.max(1));
    let mut rng = SplitMix64::new(seed ^ 0x6e0a_9ed5);
    // Round-robin over a shuffled job order guarantees non-empty groups.
    let mut order: Vec<usize> = (0..n_jobs).collect();
    rng.shuffle(&mut order);
    let mut assignment = vec![0usize; n_jobs];
    for (pos, &job) in order.iter().enumerate() {
        assignment[job] = pos % g;
    }
    assignment
}

/// Estimated M/D/c replica *need* of one job at its mean predicted
/// rate: the replica count that meets the SLO, or an offered-load floor
/// when even the quota cannot. Shared by the within-group share split
/// here and the shard partitioner in [`crate::sharded`].
pub(crate) fn replica_need(job: &JobWorkload, quota: ReplicaCount) -> f64 {
    let mean_lambda = job.mean_rate();
    faro_queueing::mdc::replicas_for_slo(
        job.slo.percentile,
        job.processing_time,
        mean_lambda,
        job.slo.latency,
        quota.max(ReplicaCount::ONE),
    )
    .map(|r| r.as_f64())
    .unwrap_or_else(|_| (mean_lambda * job.processing_time).max(1.0) + 1.0)
}

/// Result of a hierarchical solve.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchicalAllocation {
    /// Integer replica counts per job.
    pub replicas: Vec<u32>,
    /// Drop rates per job.
    pub drop_rates: Vec<f64>,
    /// Group-level continuous objective value.
    pub group_objective: f64,
    /// Solver function evaluations spent on the grouped solve.
    pub evals: usize,
}

/// A `G`-variable view of the flat problem: each group's replica budget
/// is one decision variable, split among members proportionally to
/// their offered load, and per-job utilities are evaluated exactly.
/// The solver probes `G` coordinates per iteration instead of `n`,
/// which is where the paper's up-to-64x speedup comes from.
struct GroupedProblem<'a> {
    flat: &'a MultiTenantProblem,
    member_lists: &'a [Vec<usize>],
    /// Per-job share of its group budget (sums to 1 within a group).
    shares: &'a [f64],
    uses_drops: bool,
}

impl GroupedProblem<'_> {
    /// Expands group variables into per-job `(replicas, drops)`.
    fn expand(&self, v: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let g = self.member_lists.len();
        let n = self.shares.len();
        let mut xs = vec![1.0; n];
        let mut ds = vec![0.0; n];
        for (grp, members) in self.member_lists.iter().enumerate() {
            let budget = v[grp].max(members.len() as f64);
            for &i in members {
                xs[i] = (budget * self.shares[i]).max(1.0);
                if self.uses_drops {
                    ds[i] = v[g + grp].clamp(0.0, 1.0);
                }
            }
        }
        (xs, ds)
    }
}

impl faro_solver::Problem for GroupedProblem<'_> {
    fn dim(&self) -> usize {
        let g = self.member_lists.len();
        if self.uses_drops {
            2 * g
        } else {
            g
        }
    }

    fn objective(&self, v: &[f64]) -> f64 {
        let (xs, ds) = self.expand(v);
        -self.flat.cluster_value(&xs, &ds)
    }

    fn num_constraints(&self) -> usize {
        2
    }

    fn constraints(&self, v: &[f64], out: &mut [f64]) {
        let (xs, _) = self.expand(v);
        let r = self.flat.resources();
        let cpu: f64 = xs.iter().map(|&x| x * r.cpu_per_replica).sum();
        let mem: f64 = xs.iter().map(|&x| x * r.mem_per_replica).sum();
        out[0] = r.cluster_cpu - cpu;
        out[1] = r.cluster_mem - mem;
    }

    fn bounds(&self) -> Vec<(f64, f64)> {
        let g = self.member_lists.len();
        let quota = self.flat.resources().replica_quota().as_f64();
        let mut b: Vec<(f64, f64)> = self
            .member_lists
            .iter()
            .map(|m| (m.len() as f64, quota))
            .collect();
        if self.uses_drops {
            b.extend(std::iter::repeat_n((0.0, 1.0), g));
        }
        b
    }
}

/// Solves the multi-tenant problem hierarchically with `groups` groups,
/// under the paper's default model.
///
/// # Errors
///
/// Propagates problem-construction and solver failures.
#[allow(clippy::too_many_arguments)]
pub fn solve_hierarchical(
    jobs: &[JobWorkload],
    resources: ResourceModel,
    objective: ClusterObjective,
    fidelity: Fidelity,
    solver: &dyn Solver,
    current: &[u32],
    groups: usize,
    seed: u64,
) -> Result<HierarchicalAllocation> {
    let flat = MultiTenantProblem::new(jobs.to_vec(), resources, objective, fidelity)?;
    solve_grouped(&flat, solver, current, groups, seed)
}

/// The grouped solve of `flat` with `groups` groups: what
/// [`solve_hierarchical`] runs once it has built its problem.
///
/// # Errors
///
/// Fails on a problem over two or more replica classes; propagates
/// solver failures.
pub(crate) fn solve_grouped(
    flat: &MultiTenantProblem,
    solver: &dyn Solver,
    current: &[u32],
    groups: usize,
    seed: u64,
) -> Result<HierarchicalAllocation> {
    if flat.n_classes() > 1 {
        return Err(Error::InvalidSnapshot(
            "the grouped solve splits a scalar quota; a classed problem solves flat".into(),
        ));
    }
    let jobs = flat.jobs();
    let n = jobs.len();
    let uses_drops = flat.objective().uses_drop_rates();
    let assignment = assign_groups(n, groups, seed);
    let g = assignment.iter().copied().max().map_or(1, |m| m + 1);
    let mut member_lists: Vec<Vec<usize>> = vec![Vec::new(); g];
    for (job, &grp) in assignment.iter().enumerate() {
        member_lists[grp].push(job);
    }

    // Per-job within-group shares, proportional to each member's
    // estimated M/D/c replica *need* at its mean predicted rate. Raw
    // offered load would starve small jobs (queueing headroom is not
    // linear in load), forcing the group budget far past the true need.
    // Each need is one Erlang recurrence walked up to the job's answer,
    // so it is computed once per job, not once for the total and once
    // for the share.
    let quota = flat.resources().replica_quota().max(ReplicaCount::ONE);
    let needs: Vec<f64> = jobs.iter().map(|j| replica_need(j, quota)).collect();
    let mut shares = vec![0.0; n];
    for members in &member_lists {
        let total: f64 = members.iter().map(|&i| needs[i]).sum();
        for &i in members {
            shares[i] = needs[i] / total.max(1e-9);
        }
    }

    let grouped = GroupedProblem {
        flat,
        member_lists: &member_lists,
        shares: &shares,
        uses_drops,
    };
    // Initial point: each group starts from its members' current total.
    let mut v0: Vec<f64> = member_lists
        .iter()
        .map(|m| {
            m.iter()
                .map(|&i| f64::from(current.get(i).copied().unwrap_or(1)))
                .sum()
        })
        .collect();
    if uses_drops {
        v0.extend(std::iter::repeat_n(0.0, g));
    }
    let sol = solver.solve(&grouped, &v0)?;
    let (xs, ds) = grouped.expand(&sol.x);

    // Reuse the flat problem's integerization so the final allocation
    // is quota-exact and greedily optimal at the margin.
    let alloc = crate::opt::ContinuousAllocation {
        replicas: xs,
        drop_rates: ds,
        objective_value: -sol.objective,
        evals: sol.evals,
    };
    let replicas = flat
        .integerize(&alloc)
        .iter()
        .map(ClassAlloc::total)
        .collect();
    Ok(HierarchicalAllocation {
        replicas,
        drop_rates: alloc.drop_rates,
        group_objective: -sol.objective,
        evals: sol.evals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Slo;
    use faro_solver::Cobyla;

    fn job(lambda: f64) -> JobWorkload {
        JobWorkload::constant(lambda, 0.180, Slo::paper_default(), 1.0)
    }

    #[test]
    fn assignment_covers_all_groups() {
        let a = assign_groups(20, 5, 1);
        assert_eq!(a.len(), 20);
        for g in 0..5 {
            assert!(a.contains(&g), "group {g} empty");
        }
        // Deterministic.
        assert_eq!(a, assign_groups(20, 5, 1));
        assert_ne!(a, assign_groups(20, 5, 2));
    }

    #[test]
    fn more_groups_than_jobs_clamped() {
        let a = assign_groups(3, 10, 0);
        assert!(a.iter().all(|&g| g < 3));
    }

    #[test]
    fn grouped_solution_close_to_flat() {
        // With generous quota, the grouped solve should reach nearly
        // the flat solve's objective (paper: ~2% difference).
        let jobs: Vec<JobWorkload> = (0..12).map(|i| job(4.0 + f64::from(i) * 2.0)).collect();
        let resources = ResourceModel::replicas(ReplicaCount::new(60));
        let flat = MultiTenantProblem::new(
            jobs.clone(),
            resources.clone(),
            ClusterObjective::Sum,
            Fidelity::Relaxed,
        )
        .unwrap();
        let flat_alloc = flat.solve(&Cobyla::fast(), &[1; 12]).unwrap();
        let flat_xs: Vec<u32> = flat
            .integerize(&flat_alloc)
            .iter()
            .map(ClassAlloc::total)
            .collect();
        let flat_obj = flat.cluster_value_integer(&flat_xs, &flat_alloc.drop_rates);
        let grouped = solve_hierarchical(
            &jobs,
            resources.clone(),
            ClusterObjective::Sum,
            Fidelity::Relaxed,
            &Cobyla::fast(),
            &[1; 12],
            4,
            7,
        )
        .unwrap();
        let grouped_obj = flat.cluster_value_integer(&grouped.replicas, &grouped.drop_rates);
        assert!(
            grouped_obj > 0.9 * flat_obj,
            "grouped {grouped_obj} vs flat {flat_obj}"
        );
    }

    #[test]
    fn hierarchical_respects_quota_and_minimums() {
        let jobs: Vec<JobWorkload> = (0..12).map(|i| job(5.0 + f64::from(i) * 3.0)).collect();
        let current = vec![1u32; 12];
        let out = solve_hierarchical(
            &jobs,
            ResourceModel::replicas(ReplicaCount::new(48)),
            ClusterObjective::Sum,
            Fidelity::Relaxed,
            &Cobyla::fast(),
            &current,
            4,
            7,
        )
        .unwrap();
        assert_eq!(out.replicas.len(), 12);
        assert!(out.replicas.iter().all(|&x| x >= 1));
        assert!(out.replicas.iter().sum::<u32>() <= 48, "{:?}", out.replicas);
    }

    #[test]
    fn heavier_jobs_get_more_within_group() {
        // One group: split is purely proportional.
        let jobs = vec![job(5.0), job(50.0)];
        let out = solve_hierarchical(
            &jobs,
            ResourceModel::replicas(ReplicaCount::new(24)),
            ClusterObjective::Sum,
            Fidelity::Relaxed,
            &Cobyla::fast(),
            &[1, 1],
            1,
            3,
        )
        .unwrap();
        assert!(out.replicas[1] > out.replicas[0], "{:?}", out.replicas);
    }

    #[test]
    fn group_solve_dimension_shrinks() {
        // Indirect speed check: group problem has G variables, so
        // evaluations should be far fewer than the flat problem's.
        let jobs: Vec<JobWorkload> = (0..30).map(|i| job(3.0 + f64::from(i))).collect();
        let flat = MultiTenantProblem::new(
            jobs.clone(),
            ResourceModel::replicas(ReplicaCount::new(120)),
            ClusterObjective::Sum,
            Fidelity::Relaxed,
        )
        .unwrap();
        let flat_alloc = flat.solve(&Cobyla::fast(), &[1; 30]).unwrap();
        let grouped = solve_hierarchical(
            &jobs,
            ResourceModel::replicas(ReplicaCount::new(120)),
            ClusterObjective::Sum,
            Fidelity::Relaxed,
            &Cobyla::fast(),
            &[1; 30],
            5,
            1,
        );
        assert!(grouped.is_ok());
        assert!(flat_alloc.evals > 0);
    }
}
