//! Sharded incremental solving: the scale path past the hierarchical
//! grouped solve (ROADMAP item 1, "millions of users").
//!
//! The grouped solve of Sec. 3.4 collapses the *variable count* but
//! still evaluates every job's utility inside the solver loop and still
//! re-solves the whole cluster every long-term round. At thousands of
//! jobs both costs dominate. The sharded path splits them:
//!
//! 1. **Partition** — jobs are assigned to shards by a deterministic
//!    longest-processing-time (LPT) greedy over each job's estimated
//!    M/D/c replica *need*: sort by need descending, place each job on
//!    the least-loaded shard. No RNG, balanced by construction, and
//!    stable for a fixed job set.
//! 2. **Top-level quota split** — one cheap `S`-variable solve over
//!    per-shard *pseudo-jobs* (aggregated rate, need-weighted
//!    processing time and SLO, summed priority) decides each shard's
//!    replica budget. Budgets are integerized by largest remainder with
//!    a one-replica-per-member floor, summing exactly to the quota.
//! 3. **Independent shard solves** — each shard solves its members
//!    against its own budget (flat COBYLA up to
//!    [`HIERARCHICAL_THRESHOLD`] members, the grouped solve above it),
//!    in ascending shard index on the calling thread, so every sum
//!    over shards runs in one fixed order.
//! 4. **Incremental re-solves** — each solved job's workload signature
//!    (mean predicted rate, processing time, SLO, priority) is cached;
//!    a shard re-enters the solver only when a member's rate or
//!    processing time moved beyond [`DIRTY_EPSILON`] (relative) or its
//!    SLO/priority changed at all, or when the new
//!    budget no longer covers the cached allocation. Clean shards reuse
//!    their cached decisions, so a warm round's cost is the top-level
//!    split plus only the shards that actually changed.
//!
//! The split problem and every shard problem are built from the one
//! model value the round was given (`FaroAutoscaler` builds it from its
//! configuration; the public [`ShardedSolver::solve`] runs the paper's
//! defaults), and a flat shard runs the same solve, integerize, shrink
//! function a global flat round does. A shard above the threshold takes
//! the grouped solve, which never shrinks. A shard budget is a share of
//! a scalar quota, so a cluster of two or more replica classes is
//! refused: it solves flat.

use crate::error::{Error, Result};
use crate::evaluate::{fold_class_speed, validate, Model};
use crate::hierarchical::{replica_need, solve_grouped, DEFAULT_GROUPS, HIERARCHICAL_THRESHOLD};
use crate::objective::ClusterObjective;
use crate::opt::{Fidelity, JobWorkload, MultiTenantProblem};
use crate::rng::SplitMix64;
use crate::types::{ClassAlloc, ReplicaClass, ResourceModel, Slo};
use crate::units::ReplicaCount;
use faro_solver::Solver;
use std::borrow::Cow;

/// Relative change in a job's mean predicted rate or processing time
/// that marks its shard dirty. SLO or priority changes always do.
pub const DIRTY_EPSILON: f64 = 0.05;

/// How the long-term solve is organized (`FaroConfig::solve_plan`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SolvePlan {
    /// One cluster-wide solve per round (flat below the hierarchical
    /// threshold, grouped above it) — the paper-faithful default.
    Global,
    /// Sharded incremental solve.
    Sharded(ShardConfig),
}

/// Configuration for the sharded solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardConfig {
    /// Shard count (clamped to the job count).
    pub shards: usize,
    /// Group count for within-shard grouped solves.
    pub groups: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            shards: 16,
            groups: DEFAULT_GROUPS,
        }
    }
}

impl ShardConfig {
    /// A config with the given shard count and defaults elsewhere.
    pub fn with_shards(shards: usize) -> Self {
        Self {
            shards,
            ..Self::default()
        }
    }
}

/// What one sharded solve round did — the telemetry record behind the
/// `ShardSolve` event and the per-shard solve spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardSolveRecord {
    /// Total shards in the partition.
    pub shards: u32,
    /// Shards that entered the solver this round.
    pub solved: u32,
    /// Clean shards that reused their cached allocation.
    pub skipped: u32,
    /// Jobs served from a cached shard allocation.
    pub cache_hit_jobs: u32,
    /// Solver objective evaluations across solved shards.
    pub evals: u64,
    /// Evaluations spent on the top-level quota split (0 when the
    /// round was fully clean and the split was skipped).
    pub split_evals: u64,
}

/// One solved shard's telemetry span (work = solver evaluations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpan {
    /// Shard index.
    pub shard: u32,
    /// Objective evaluations the shard's solve consumed.
    pub evals: u64,
}

/// Result of a sharded solve round.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedAllocation {
    /// Integer replica counts per job.
    pub replicas: Vec<u32>,
    /// Drop rates per job.
    pub drop_rates: Vec<f64>,
    /// What the round did (solved/skipped shards, evals, cache hits).
    pub record: ShardSolveRecord,
    /// Per-solved-shard spans, ascending shard index.
    pub shard_spans: Vec<ShardSpan>,
}

/// The workload facts a shard solve depends on; equality within epsilon
/// means the cached allocation is still valid.
#[derive(Debug, Clone, Copy, PartialEq)]
struct JobSignature {
    mean_rate: f64,
    processing_time: f64,
    slo: Slo,
    priority: f64,
}

impl JobSignature {
    fn of(job: &JobWorkload) -> Self {
        let total: f64 = job.lambda_trajectories.iter().flat_map(|t| t.iter()).sum();
        let count = job
            .lambda_trajectories
            .iter()
            .map(Vec::len)
            .sum::<usize>()
            .max(1);
        Self {
            mean_rate: total / count as f64,
            processing_time: job.processing_time,
            slo: job.slo,
            priority: job.priority,
        }
    }

    /// Whether moving from `self` to `new` invalidates a cached solve.
    fn dirty_against(&self, new: &JobSignature) -> bool {
        let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-9);
        rel(new.mean_rate, self.mean_rate) > DIRTY_EPSILON
            || rel(new.processing_time, self.processing_time) > DIRTY_EPSILON
            || new.slo != self.slo
            || new.priority != self.priority
    }
}

/// A shard's cached solve: member decisions in member-list order.
#[derive(Debug, Clone)]
struct ShardCache {
    replicas: Vec<u32>,
    drops: Vec<f64>,
    /// Total replicas the cached allocation uses (re-solve trigger when
    /// the new budget dips below it).
    used: u32,
}

/// One shard solve's raw output.
struct ShardResult {
    replicas: Vec<u32>,
    drops: Vec<f64>,
    evals: u64,
}

/// Deterministic LPT partition: jobs sorted by `need` descending (ties
/// by index), each placed on the least-loaded shard (ties by shard
/// index). Every shard is non-empty when `needs.len() >= shards`.
pub fn assign_shards(needs: &[f64], shards: usize) -> Vec<usize> {
    let s = shards.max(1).min(needs.len().max(1));
    let mut order: Vec<usize> = (0..needs.len()).collect();
    order.sort_by(|&a, &b| {
        needs[b]
            .partial_cmp(&needs[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut load = vec![0.0f64; s];
    let mut assignment = vec![0usize; needs.len()];
    for &j in &order {
        let mut best = 0usize;
        for t in 1..s {
            if load[t] < load[best] {
                best = t;
            }
        }
        assignment[j] = best;
        // A zero-need job must still occupy its shard, or ties would
        // pile every light job onto shard 0.
        load[best] += needs[j].max(1e-12);
    }
    assignment
}

/// Largest-remainder split of `quota` across shards: every shard gets
/// at least its floor (one replica per member); the surplus goes
/// proportionally to the continuous solve's above-floor desires, with
/// fractional-part ties broken by shard index.
fn split_budgets(cont: &[f64], floors: &[u32], quota: u32) -> Vec<u32> {
    let s = cont.len();
    let floor_sum: u32 = floors.iter().sum();
    let extra = quota.saturating_sub(floor_sum);
    let desire: Vec<f64> = cont
        .iter()
        .zip(floors)
        .map(|(&c, &f)| (c - f64::from(f)).max(0.0))
        .collect();
    let desire_sum: f64 = desire.iter().sum();
    let weights: Vec<f64> = if desire_sum > 1e-9 {
        desire
    } else {
        floors.iter().map(|&f| f64::from(f).max(1.0)).collect()
    };
    let wsum: f64 = weights.iter().sum::<f64>().max(1e-9);
    let raw: Vec<f64> = weights
        .iter()
        .map(|w| f64::from(extra) * w / wsum)
        .collect();
    let mut extras: Vec<u32> = raw.iter().map(|r| r.floor() as u32).collect();
    let mut assigned: u32 = extras.iter().sum();
    let mut order: Vec<usize> = (0..s).collect();
    order.sort_by(|&a, &b| {
        let fa = raw[a] - raw[a].floor();
        let fb = raw[b] - raw[b].floor();
        fb.partial_cmp(&fa)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut i = 0usize;
    while assigned < extra {
        extras[order[i % s]] += 1;
        assigned += 1;
        i += 1;
    }
    floors.iter().zip(&extras).map(|(&f, &e)| f + e).collect()
}

/// Everything a shard solve reads besides its members and budget.
struct SolveCtx<'a> {
    jobs: &'a [JobWorkload],
    resources: ResourceModel,
    objective: ClusterObjective,
    model: Model,
    use_shrinking: bool,
    solver: &'a dyn Solver,
    current: &'a [u32],
    groups: usize,
    seed: u64,
}

/// Scales a cluster down to a shard's replica budget: `budget` replicas'
/// worth of every dimension, at a one-class table's own class costs (so
/// the shard's quota is the budget whatever the scalar fields say) and
/// at the per-replica vCPU and RAM without one.
fn sub_resources_for_budget(resources: &ResourceModel, budget: u32) -> ResourceModel {
    let scalar = [resources.cpu_per_replica, 0.0, resources.mem_per_replica];
    let [cpu, gpu, mem] = resources.classes.first().map_or(scalar, ReplicaClass::cost);
    let budget = f64::from(budget);
    ResourceModel {
        cluster_cpu: budget * cpu,
        cluster_gpu: budget * gpu,
        cluster_mem: budget * mem,
        ..resources.clone()
    }
}

/// Solves one shard against its budget: the flat solve, integerize and
/// shrink for small member lists, the grouped solve above
/// [`HIERARCHICAL_THRESHOLD`], with a per-shard child seed.
fn solve_shard(
    ctx: &SolveCtx<'_>,
    members: &[usize],
    budget: u32,
    shard: usize,
) -> Result<ShardResult> {
    let sub_jobs: Vec<JobWorkload> = members.iter().map(|&i| ctx.jobs[i].clone()).collect();
    let sub_current: Vec<u32> = members
        .iter()
        .map(|&i| ctx.current.get(i).copied().unwrap_or(1))
        .collect();
    let sub_resources = sub_resources_for_budget(&ctx.resources, budget);
    let problem =
        MultiTenantProblem::with_model(sub_jobs, sub_resources, ctx.objective, ctx.model)?;
    if members.len() > HIERARCHICAL_THRESHOLD {
        let out = solve_grouped(
            &problem,
            ctx.solver,
            &sub_current,
            ctx.groups,
            SplitMix64::child_seed(ctx.seed, shard as u64),
        )?;
        Ok(ShardResult {
            replicas: out.replicas,
            drops: out.drop_rates,
            evals: out.evals as u64,
        })
    } else {
        let (allocs, alloc) = problem.solve_integer(ctx.solver, &sub_current, ctx.use_shrinking)?;
        Ok(ShardResult {
            replicas: allocs.iter().map(ClassAlloc::total).collect(),
            drops: alloc.drop_rates,
            evals: alloc.evals as u64,
        })
    }
}

/// The sharded incremental solver. Owns the partition, the per-job
/// workload signatures, and the per-shard allocation caches between
/// rounds; [`ShardedSolver::solve`] is one long-term round.
#[derive(Debug)]
pub struct ShardedSolver {
    cfg: ShardConfig,
    seed: u64,
    /// Shard member lists (job indices, ascending within a shard).
    members: Vec<Vec<usize>>,
    /// Signatures backing the cached allocations (`None` = never
    /// solved).
    sigs: Vec<Option<JobSignature>>,
    /// Cached per-shard allocations.
    caches: Vec<Option<ShardCache>>,
    /// Budgets from the last top-level split.
    budgets: Vec<u32>,
    /// Job count and quota the partition was built for.
    n_jobs: usize,
    last_quota: u32,
}

impl ShardedSolver {
    /// A solver with no cached state; the first round solves every
    /// shard.
    pub fn new(cfg: ShardConfig, seed: u64) -> Self {
        Self {
            cfg,
            seed,
            members: Vec::new(),
            sigs: Vec::new(),
            caches: Vec::new(),
            budgets: Vec::new(),
            n_jobs: 0,
            last_quota: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ShardConfig {
        &self.cfg
    }

    /// One sharded long-term round under the paper's default model,
    /// with stage-3 shrinking on: partition (if stale), dirty-check,
    /// top-level split, dirty-shard solves in shard order, merge.
    ///
    /// # Errors
    ///
    /// Fails on a cluster of two or more replica classes; propagates
    /// problem-construction and solver failures. Cached state is left
    /// untouched so the next round retries cleanly.
    pub fn solve(
        &mut self,
        jobs: &[JobWorkload],
        resources: ResourceModel,
        objective: ClusterObjective,
        fidelity: Fidelity,
        solver: &dyn Solver,
        current: &[u32],
    ) -> Result<ShardedAllocation> {
        let model = Model::new(fidelity);
        self.solve_with(jobs, resources, objective, model, true, solver, current)
    }

    /// [`ShardedSolver::solve`] under a given model, shrinking flat
    /// shard solves when `use_shrinking` says so.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn solve_with(
        &mut self,
        jobs: &[JobWorkload],
        resources: ResourceModel,
        objective: ClusterObjective,
        model: Model,
        use_shrinking: bool,
        solver: &dyn Solver,
        current: &[u32],
    ) -> Result<ShardedAllocation> {
        validate(jobs, &resources)?;
        if resources.n_classes() > 1 {
            return Err(Error::InvalidSnapshot(
                "the sharded solve splits a scalar quota; a classed cluster solves flat".into(),
            ));
        }
        // The partition, the signatures and every shard read a one-class
        // table's jobs at the class's service time.
        let (mut jobs, mut resources) = (Cow::Borrowed(jobs), resources);
        if resources.has_classes() {
            fold_class_speed(jobs.to_mut(), &mut resources);
        }
        let n = jobs.len();
        let quota = resources.replica_quota();

        let new_sigs: Vec<JobSignature> = jobs.iter().map(JobSignature::of).collect();
        if n != self.n_jobs || quota.get() != self.last_quota {
            let needs: Vec<f64> = jobs.iter().map(|j| replica_need(j, quota)).collect();
            let assignment = assign_shards(&needs, self.cfg.shards);
            let s = assignment.iter().copied().max().map_or(1, |m| m + 1);
            self.members = vec![Vec::new(); s];
            for (job, &shard) in assignment.iter().enumerate() {
                self.members[shard].push(job);
            }
            self.sigs = vec![None; n];
            self.caches = vec![None; s];
            self.budgets = Vec::new();
            self.n_jobs = n;
            self.last_quota = quota.get();
        }
        let s = self.members.len();

        // A shard is dirty when any member's signature moved.
        let mut dirty = vec![false; s];
        for (shard, members) in self.members.iter().enumerate() {
            dirty[shard] = members.iter().any(|&j| {
                self.sigs[j]
                    .as_ref()
                    .is_none_or(|old| old.dirty_against(&new_sigs[j]))
            });
        }
        let any_dirty = dirty.iter().any(|&d| d) || self.budgets.len() != s;

        // Top-level quota split: one S-variable solve over per-shard
        // pseudo-jobs. Skipped on fully clean rounds — the previous
        // budgets still describe the cluster within epsilon.
        let mut split_evals = 0u64;
        if any_dirty {
            let floors: Vec<u32> = self.members.iter().map(|m| m.len() as u32).collect();
            let (pseudo, x0) = self.pseudo_jobs(&new_sigs, quota);
            let cont: Vec<f64> = if s == 1 {
                vec![quota.as_f64()]
            } else {
                let split_problem = MultiTenantProblem::with_model(
                    pseudo,
                    resources.clone(),
                    objective.drop_free(),
                    model,
                )?;
                let split = split_problem.solve(solver, &x0)?;
                split_evals = split.evals as u64;
                split.replicas
            };
            self.budgets = split_budgets(&cont, &floors, quota.get());
        }

        // A clean shard still re-solves when its new budget no longer
        // covers the cached allocation (the merged total must respect
        // the quota). Solves run in ascending shard index; the first
        // failure returns before any cache is touched.
        let ctx = SolveCtx {
            jobs: &jobs,
            resources,
            objective,
            model,
            use_shrinking,
            solver,
            current,
            groups: self.cfg.groups,
            seed: self.seed,
        };
        let solved_new = (0..s)
            .filter(|&shard| {
                dirty[shard]
                    || match &self.caches[shard] {
                        Some(c) => c.used > self.budgets[shard],
                        None => true,
                    }
            })
            .map(|shard| {
                let r = solve_shard(&ctx, &self.members[shard], self.budgets[shard], shard)?;
                Ok((shard, r))
            })
            .collect::<Result<Vec<(usize, ShardResult)>>>()?;

        let mut record = ShardSolveRecord {
            shards: s as u32,
            solved: solved_new.len() as u32,
            skipped: (s - solved_new.len()) as u32,
            ..ShardSolveRecord::default()
        };
        let mut spans = Vec::with_capacity(solved_new.len());
        for (shard, r) in &solved_new {
            record.evals += r.evals;
            spans.push(ShardSpan {
                shard: *shard as u32,
                evals: r.evals,
            });
        }
        record.split_evals = split_evals;

        // Commit: caches and signatures update only for solved shards.
        for (shard, r) in solved_new {
            let used = r.replicas.iter().sum();
            for &j in &self.members[shard] {
                self.sigs[j] = Some(new_sigs[j]);
            }
            self.caches[shard] = Some(ShardCache {
                replicas: r.replicas,
                drops: r.drops,
                used,
            });
        }

        let mut replicas = vec![1u32; n];
        let mut drop_rates = vec![0.0f64; n];
        for (shard, members) in self.members.iter().enumerate() {
            let cache = self.caches[shard].as_ref().expect("every shard solved");
            if !spans.iter().any(|sp| sp.shard == shard as u32) {
                record.cache_hit_jobs += members.len() as u32;
            }
            for (pos, &j) in members.iter().enumerate() {
                replicas[j] = cache.replicas[pos].max(1);
                drop_rates[j] = cache.drops[pos];
            }
        }
        Ok(ShardedAllocation {
            replicas,
            drop_rates,
            record,
            shard_spans: spans,
        })
    }

    /// Per-shard pseudo-jobs for the top-level split: aggregated mean
    /// rate (one-step constant trajectory), need-weighted processing
    /// time and SLO, summed priority. Also returns the split's starting
    /// point — the previous budgets when available, else each shard's
    /// offered-load share of the quota. COBYLA only refines locally, so
    /// a floor-level start would leave light shards at their floor and
    /// read as zero desire downstream.
    fn pseudo_jobs(
        &self,
        sigs: &[JobSignature],
        quota: ReplicaCount,
    ) -> (Vec<JobWorkload>, Vec<u32>) {
        let mut pseudo = Vec::with_capacity(self.members.len());
        let mut shard_load = Vec::with_capacity(self.members.len());
        for members in self.members.iter() {
            let mut rate = 0.0;
            let mut weight = 0.0;
            let mut ptime = 0.0;
            let mut slo_latency = 0.0;
            let mut slo_percentile = 0.0;
            let mut priority = 0.0;
            for &j in members {
                let sig = &sigs[j];
                // Weight by a cheap proxy for need (offered load): the
                // exact M/D/c need was already spent on partitioning.
                let w = (sig.mean_rate * sig.processing_time).max(1e-3);
                rate += sig.mean_rate;
                ptime += w * sig.processing_time;
                slo_latency += w * sig.slo.latency;
                slo_percentile += w * sig.slo.percentile;
                priority += sig.priority;
                weight += w;
            }
            let w = weight.max(1e-9);
            pseudo.push(JobWorkload {
                lambda_trajectories: vec![vec![rate]],
                processing_time: (ptime / w).max(1e-6),
                slo: Slo {
                    latency: (slo_latency / w).max(1e-6),
                    percentile: (slo_percentile / w).clamp(0.5, 0.999_999),
                },
                priority,
            });
            shard_load.push(weight.max(1e-9));
        }
        let total_load: f64 = shard_load.iter().sum();
        let x0 = self
            .members
            .iter()
            .enumerate()
            .map(|(shard, members)| match self.budgets.get(shard) {
                Some(&b) => b.min(quota.get()),
                None => {
                    let share = quota.as_f64() * shard_load[shard] / total_load.max(1e-9);
                    (share.round() as u32)
                        .max(members.len() as u32)
                        .min(quota.get())
                }
            })
            .collect();
        (pseudo, x0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faro_solver::Cobyla;

    fn job(lambda: f64) -> JobWorkload {
        JobWorkload::constant(lambda, 0.180, Slo::paper_default(), 1.0)
    }

    fn jobs(n: usize) -> Vec<JobWorkload> {
        (0..n).map(|i| job(3.0 + (i % 7) as f64 * 2.5)).collect()
    }

    #[test]
    fn lpt_assignment_is_balanced_and_total() {
        let needs: Vec<f64> = (0..20).map(|i| 1.0 + f64::from(i)).collect();
        let a = assign_shards(&needs, 4);
        assert_eq!(a.len(), 20);
        let mut load = vec![0.0; 4];
        for (j, &s) in a.iter().enumerate() {
            load[s] += needs[j];
        }
        let max = load.iter().cloned().fold(0.0, f64::max);
        let min = load.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(min > 0.0, "no empty shard: {load:?}");
        assert!(max / min < 1.5, "LPT keeps shards balanced: {load:?}");
        assert_eq!(a, assign_shards(&needs, 4), "deterministic");
    }

    #[test]
    fn split_budgets_hits_quota_exactly_and_respects_floors() {
        let cont = vec![10.3, 2.1, 30.6];
        let floors = vec![4, 4, 4];
        let b = split_budgets(&cont, &floors, 40);
        assert_eq!(b.iter().sum::<u32>(), 40);
        assert!(b.iter().zip(&floors).all(|(&x, &f)| x >= f), "{b:?}");
        // The big desire gets the big budget.
        assert!(b[2] > b[0] && b[0] > b[1], "{b:?}");
    }

    #[test]
    fn split_budgets_with_zero_desire_falls_back_to_floors() {
        let b = split_budgets(&[1.0, 1.0], &[2, 3], 9);
        assert_eq!(b.iter().sum::<u32>(), 9);
        assert!(b[0] >= 2 && b[1] >= 3, "{b:?}");
    }

    #[test]
    fn first_round_solves_every_shard() {
        let js = jobs(12);
        let mut solver = ShardedSolver::new(ShardConfig::with_shards(3), 7);
        let out = solver
            .solve(
                &js,
                ResourceModel::replicas(ReplicaCount::new(48)),
                ClusterObjective::Sum,
                Fidelity::Relaxed,
                &Cobyla::fast(),
                &[1; 12],
            )
            .unwrap();
        assert_eq!(out.record.shards, 3);
        assert_eq!(out.record.solved, 3);
        assert_eq!(out.record.skipped, 0);
        assert_eq!(out.record.cache_hit_jobs, 0);
        assert!(out.record.evals > 0);
        assert!(out.record.split_evals > 0);
        assert_eq!(out.shard_spans.len(), 3);
        assert!(out.replicas.iter().all(|&r| r >= 1));
        assert!(out.replicas.iter().sum::<u32>() <= 48);
    }

    #[test]
    fn clean_round_solves_zero_shards_and_returns_cache_unchanged() {
        let js = jobs(12);
        let resources = ResourceModel::replicas(ReplicaCount::new(48));
        let mut solver = ShardedSolver::new(ShardConfig::with_shards(3), 7);
        let cold = solver
            .solve(
                &js,
                resources.clone(),
                ClusterObjective::Sum,
                Fidelity::Relaxed,
                &Cobyla::fast(),
                &[1; 12],
            )
            .unwrap();
        let warm = solver
            .solve(
                &js,
                resources.clone(),
                ClusterObjective::Sum,
                Fidelity::Relaxed,
                &Cobyla::fast(),
                &cold.replicas,
            )
            .unwrap();
        assert_eq!(warm.record.solved, 0);
        assert_eq!(warm.record.skipped, 3);
        assert_eq!(warm.record.cache_hit_jobs, 12);
        assert_eq!(warm.record.evals, 0);
        assert_eq!(warm.record.split_evals, 0, "clean round skips the split");
        assert!(warm.shard_spans.is_empty());
        assert_eq!(warm.replicas, cold.replicas);
        assert_eq!(warm.drop_rates, cold.drop_rates);
    }

    #[test]
    fn sub_epsilon_drift_stays_clean_and_beyond_epsilon_resolves() {
        let js = jobs(12);
        let resources = ResourceModel::replicas(ReplicaCount::new(48));
        let mut solver = ShardedSolver::new(ShardConfig::with_shards(3), 7);
        let solve = |solver: &mut ShardedSolver, js: &[JobWorkload]| {
            solver
                .solve(
                    js,
                    resources.clone(),
                    ClusterObjective::Sum,
                    Fidelity::Relaxed,
                    &Cobyla::fast(),
                    &[1; 12],
                )
                .unwrap()
        };
        solve(&mut solver, &js);
        // 1% drift on one job: inside the 5% epsilon, fully clean.
        let mut drifted = js.clone();
        drifted[0].lambda_trajectories[0][0] *= 1.01;
        let warm = solve(&mut solver, &drifted);
        assert_eq!(warm.record.solved, 0, "sub-epsilon drift is clean");
        // 30% movement on the same job: exactly its shard re-solves.
        let mut moved = js.clone();
        moved[0].lambda_trajectories[0][0] *= 1.3;
        let re = solve(&mut solver, &moved);
        assert_eq!(re.record.solved, 1, "only the dirty shard re-solved");
        assert_eq!(re.record.skipped, 2);
        assert!(re.record.cache_hit_jobs >= 6);
    }

    #[test]
    fn slo_change_always_dirties_its_shard() {
        let js = jobs(8);
        let resources = ResourceModel::replicas(ReplicaCount::new(32));
        let mut solver = ShardedSolver::new(ShardConfig::with_shards(2), 1);
        let solve = |solver: &mut ShardedSolver, js: &[JobWorkload]| {
            solver
                .solve(
                    js,
                    resources.clone(),
                    ClusterObjective::Sum,
                    Fidelity::Relaxed,
                    &Cobyla::fast(),
                    &[1; 8],
                )
                .unwrap()
        };
        solve(&mut solver, &js);
        let mut changed = js.clone();
        changed[3].slo.latency *= 0.5;
        let out = solve(&mut solver, &changed);
        assert_eq!(out.record.solved, 1);
    }

    #[test]
    fn quota_change_invalidates_the_partition() {
        let js = jobs(8);
        let mut solver = ShardedSolver::new(ShardConfig::with_shards(2), 1);
        let solve = |solver: &mut ShardedSolver, quota: u32| {
            solver
                .solve(
                    &js,
                    ResourceModel::replicas(ReplicaCount::new(quota)),
                    ClusterObjective::Sum,
                    Fidelity::Relaxed,
                    &Cobyla::fast(),
                    &[1; 8],
                )
                .unwrap()
        };
        solve(&mut solver, 32);
        let out = solve(&mut solver, 24);
        assert_eq!(out.record.solved, 2, "quota change re-solves everything");
        assert!(out.replicas.iter().sum::<u32>() <= 24);
    }

    #[test]
    fn drop_objectives_produce_drop_rates_per_job() {
        let js = jobs(8);
        let mut solver = ShardedSolver::new(ShardConfig::with_shards(2), 5);
        let out = solver
            .solve(
                &js,
                ResourceModel::replicas(ReplicaCount::new(16)),
                ClusterObjective::PenaltySum,
                Fidelity::Relaxed,
                &Cobyla::fast(),
                &[1; 8],
            )
            .unwrap();
        assert_eq!(out.drop_rates.len(), 8);
        assert!(out.drop_rates.iter().all(|d| (0.0..=1.0).contains(d)));
    }

    /// A one-class table's shard holds its budget of that class, even
    /// where the scalar per-replica fields disagree with the class's
    /// own costs (4 GB a replica against `mem_per_replica` 1).
    #[test]
    fn a_one_class_shard_hosts_its_budget_whatever_the_scalar_fields() {
        let resources = ResourceModel {
            mem_per_replica: 1.0,
            ..ResourceModel::heterogeneous(vec![ReplicaClass::gpu("gpu")], 48.0, 48.0, 192.0)
        };
        assert_eq!(resources.replica_quota().get(), 48);
        for budget in [1, 7, 16, 48] {
            let shard = sub_resources_for_budget(&resources, budget);
            assert_eq!(shard.replica_quota().get(), budget);
        }
        let out = ShardedSolver::new(ShardConfig::with_shards(3), 7)
            .solve(
                &jobs(12),
                resources,
                ClusterObjective::Sum,
                Fidelity::Relaxed,
                &Cobyla::fast(),
                &[1; 12],
            )
            .expect("every shard hosts one replica per member");
        assert_eq!(out.record.solved, 3);
        assert!(out.replicas.iter().sum::<u32>() <= 48);
    }
}
