//! Sharded incremental solving: the one organization of a long-term
//! solve. The paper scales the solve one way, by splitting the cluster
//! and solving the parts (Sec. 3.4); every long-term round is one
//! [`ShardedSolver`] call on one [`MultiTenantProblem`].
//!
//! **One shard** is the global plan ([`SolvePlan::Global`]): when
//! `min(shards, jobs) ≤ 1`, or the cluster has two or more replica
//! classes (a shard budget is a share of a scalar quota), the round
//! solves the whole problem with the solver's own seed. It has no
//! partition, no split, no signatures, no cache and no
//! [`ShardSolveRecord`]. More shards run four steps:
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
//!    against its own budget with a per-shard child seed. The dirty
//!    shards solve concurrently, on as many scoped threads as
//!    [`std::thread::available_parallelism`] reported when the solver
//!    was built (the calling thread among them), and their answers
//!    merge in ascending shard index, so every sum over shards runs in
//!    one fixed order and no byte depends on the thread count. The
//!    lowest-index failure is the round's.
//! 4. **Incremental re-solves** — each solved job's workload signature
//!    (mean predicted rate, processing time, SLO, priority) is cached;
//!    a shard re-enters the solver only when a member's rate or
//!    processing time moved beyond [`DIRTY_EPSILON`] (relative) or its
//!    SLO/priority changed at all, or when the new
//!    budget no longer covers the cached allocation. Clean shards reuse
//!    their cached decisions, so a warm round's cost is the top-level
//!    split plus only the shards that actually changed.
//!
//! The split problem and every shard problem are built from the round's
//! problem: its jobs, resources, objective and model. Every solve, of
//! the whole problem or of a shard, is flat (solve, integerize, shrink)
//! up to
//! [`HIERARCHICAL_THRESHOLD`](hierarchical::HIERARCHICAL_THRESHOLD)
//! jobs and grouped above it on a scalar quota; the grouped solve never
//! shrinks. A round that fails commits nothing, so the next round
//! retries from the last successful round's state.

use crate::error::{Error, Result};
use crate::hierarchical::{self, replica_need, solve_grouped, DEFAULT_GROUPS};
use crate::objective::ClusterObjective;
use crate::opt::{Fidelity, JobWorkload, MultiTenantProblem};
use crate::rng::SplitMix64;
use crate::types::{ClassAlloc, ReplicaClass, ResourceModel, Slo};
use crate::units::ReplicaCount;
use faro_solver::Solver;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Relative change in a job's mean predicted rate or processing time
/// that marks its shard dirty. SLO or priority changes always do.
pub const DIRTY_EPSILON: f64 = 0.05;

/// How the long-term solve is organized (`FaroConfig::solve_plan`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SolvePlan {
    /// The one-shard plan: the whole problem every round (flat below
    /// the hierarchical threshold, grouped above it), the paper's
    /// default.
    Global,
    /// Sharded incremental solve.
    Sharded(ShardConfig),
}

impl SolvePlan {
    /// The shard configuration the plan runs: `Global` is one shard.
    pub(crate) fn shard_config(self) -> ShardConfig {
        match self {
            Self::Global => ShardConfig::with_shards(1),
            Self::Sharded(cfg) => cfg,
        }
    }
}

/// Configuration for the sharded solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardConfig {
    /// Shard count (clamped to the job count; one is the global plan).
    pub shards: usize,
    /// Group count for grouped solves.
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
    /// Total shards in the partition (0 on a one-shard round, which has
    /// none).
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

/// An integer solve's answer: per-job allocations and drop rates, and
/// the objective evaluations it took.
#[derive(Debug, Clone)]
pub(crate) struct Solved {
    pub(crate) allocs: Vec<ClassAlloc>,
    pub(crate) drops: Vec<f64>,
    pub(crate) evals: u64,
}

/// One long-term round: what [`ShardedSolver::solve_problem`] returns.
pub(crate) struct Round {
    /// The merged answer; `evals` counts the split's evaluations too.
    pub(crate) solved: Solved,
    /// What a partitioned round did; `None` on one shard.
    pub(crate) record: Option<ShardSolveRecord>,
    /// Per-solved-shard spans, ascending shard index.
    pub(crate) spans: Vec<ShardSpan>,
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
        Self {
            mean_rate: job.mean_rate(),
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

/// The one place a solve is chosen flat or grouped: the grouped solve
/// with `groups` groups and `seed` on a scalar quota past
/// [`HIERARCHICAL_THRESHOLD`](hierarchical::HIERARCHICAL_THRESHOLD)
/// jobs, else solve, integerize and shrink (unless `use_shrinking` is
/// off). The whole problem of a one-shard round and every shard's
/// problem go through here.
fn solve_flat_or_grouped(
    problem: &MultiTenantProblem,
    solver: &dyn Solver,
    current: &[u32],
    use_shrinking: bool,
    groups: usize,
    seed: u64,
) -> Result<Solved> {
    if problem.n_classes() == 1 && problem.n_jobs() > hierarchical::HIERARCHICAL_THRESHOLD {
        let out = solve_grouped(problem, solver, current, groups, seed)?;
        let allocs = out.replicas.iter().map(|&r| ClassAlloc::single(0, r, 1));
        return Ok(Solved {
            allocs: allocs.collect(),
            drops: out.drop_rates,
            evals: out.evals as u64,
        });
    }
    let (allocs, alloc) = problem.solve_integer(solver, current, use_shrinking)?;
    Ok(Solved {
        allocs,
        drops: alloc.drop_rates,
        evals: alloc.evals as u64,
    })
}

/// `work` on every item on up to `workers` scoped threads, the calling
/// thread among them, each taking the next item as it comes free; the
/// answers come back in item order, whichever thread computed them.
fn on_workers<I: Sync, T: Send>(
    items: &[I],
    workers: usize,
    work: impl Fn(&I) -> T + Sync,
) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let drain = || {
        let mut done = Vec::new();
        loop {
            // Only the index is shared: each answer travels back with it.
            let at = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(at) else {
                return done;
            };
            done.push((at, work(item)));
        }
    };
    let mut answers: Vec<Option<T>> = items.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers.min(items.len()))
            .map(|_| scope.spawn(drain))
            .collect();
        let mine = drain();
        let theirs = helpers.into_iter().flat_map(|h| {
            h.join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        });
        for (at, answer) in mine.into_iter().chain(theirs) {
            answers[at] = Some(answer);
        }
    });
    answers
        .into_iter()
        .map(|answer| answer.expect("every item was taken"))
        .collect()
}

/// A partition and what was solved on it: the state a sharded round
/// reads and, once every shard it solves has succeeded, commits.
#[derive(Debug, Default)]
struct Partition {
    /// Shard member lists (job indices, ascending within a shard).
    members: Vec<Vec<usize>>,
    /// Signatures backing the cached allocations (`None` = never
    /// solved).
    sigs: Vec<Option<JobSignature>>,
    /// Cached per-shard solves, member decisions in member-list order.
    caches: Vec<Option<Solved>>,
    /// Budgets from the last top-level split.
    budgets: Vec<u32>,
    /// Job count and quota the partition was built for.
    n_jobs: usize,
    quota: u32,
}

impl Partition {
    /// The LPT partition of `jobs` at `quota`, nothing solved yet.
    fn lpt(jobs: &[JobWorkload], quota: ReplicaCount, shards: usize) -> Self {
        let needs: Vec<f64> = jobs.iter().map(|j| replica_need(j, quota)).collect();
        let assignment = assign_shards(&needs, shards);
        let s = assignment.iter().copied().max().map_or(1, |m| m + 1);
        let mut members = vec![Vec::new(); s];
        for (job, &shard) in assignment.iter().enumerate() {
            members[shard].push(job);
        }
        Self {
            members,
            sigs: vec![None; jobs.len()],
            caches: vec![None; s],
            budgets: Vec::new(),
            n_jobs: jobs.len(),
            quota: quota.get(),
        }
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

/// The sharded incremental solver. Owns the partition, the per-job
/// workload signatures, and the per-shard allocation caches between
/// rounds; [`ShardedSolver::solve`] is one long-term round.
#[derive(Debug)]
pub struct ShardedSolver {
    cfg: ShardConfig,
    seed: u64,
    /// Threads a round's dirty shards solve on, the calling thread
    /// among them: the machine's width. No byte of a round depends on
    /// it.
    workers: usize,
    /// The last successful sharded round's partition and caches.
    part: Partition,
}

impl ShardedSolver {
    /// A solver with no cached state; the first round solves every
    /// shard.
    pub fn new(cfg: ShardConfig, seed: u64) -> Self {
        Self {
            cfg,
            seed,
            workers: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            part: Partition::default(),
        }
    }

    /// One long-term round under the paper's default model, with
    /// stage-3 shrinking on, of the problem these arguments build: the
    /// whole problem on one shard, else partition (if stale),
    /// dirty-check, split, solve the dirty shards concurrently, commit
    /// and merge in shard order. A one-shard round's record is all zero.
    ///
    /// # Errors
    ///
    /// Fails on a cluster of two or more replica classes, whose class
    /// split a `Vec<u32>` cannot carry; propagates problem-construction
    /// and solver failures.
    pub fn solve(
        &mut self,
        jobs: &[JobWorkload],
        resources: ResourceModel,
        objective: ClusterObjective,
        fidelity: Fidelity,
        solver: &dyn Solver,
        current: &[u32],
    ) -> Result<ShardedAllocation> {
        let problem = MultiTenantProblem::new(jobs.to_vec(), resources, objective, fidelity)?;
        if problem.n_classes() > 1 {
            return Err(Error::InvalidSnapshot(
                "a replica count per job cannot carry a classed cluster's class split".into(),
            ));
        }
        let Round {
            solved,
            record,
            spans,
        } = self.solve_problem(&problem, solver, current, true)?;
        Ok(ShardedAllocation {
            replicas: solved.allocs.iter().map(ClassAlloc::total).collect(),
            drop_rates: solved.drops,
            record: record.unwrap_or_default(),
            shard_spans: spans,
        })
    }

    /// One long-term round of `problem`, shrinking flat solves when
    /// `use_shrinking` says so. One shard solves the whole problem; more
    /// partition (if stale), dirty-check, split, solve the dirty shards
    /// concurrently, commit and merge in shard order.
    ///
    /// # Errors
    ///
    /// Propagates shard-problem construction and solver failures. A
    /// failed round commits nothing: the partition, budgets, signatures
    /// and caches stay the last successful round's.
    pub(crate) fn solve_problem(
        &mut self,
        problem: &MultiTenantProblem,
        solver: &dyn Solver,
        current: &[u32],
        use_shrinking: bool,
    ) -> Result<Round> {
        let (jobs, n) = (problem.jobs(), problem.n_jobs());
        let (groups, seed) = (self.cfg.groups, self.seed);
        if self.cfg.shards.min(n) <= 1 || problem.n_classes() > 1 {
            let solved =
                solve_flat_or_grouped(problem, solver, current, use_shrinking, groups, seed)?;
            return Ok(Round {
                solved,
                record: None,
                spans: Vec::new(),
            });
        }
        let resources = problem.resources();
        let quota = resources.replica_quota();
        let new_sigs: Vec<JobSignature> = jobs.iter().map(JobSignature::of).collect();
        // A stale partition is rebuilt aside and committed with the rest.
        let fresh = (n != self.part.n_jobs || quota.get() != self.part.quota)
            .then(|| Partition::lpt(jobs, quota, self.cfg.shards));
        let part = fresh.as_ref().unwrap_or(&self.part);
        let s = part.members.len();

        // A shard is dirty when any member's signature moved.
        let dirty: Vec<bool> = part
            .members
            .iter()
            .map(|members| {
                members.iter().any(|&j| {
                    part.sigs[j]
                        .as_ref()
                        .is_none_or(|old| old.dirty_against(&new_sigs[j]))
                })
            })
            .collect();

        // Top-level quota split: one S-variable solve over per-shard
        // pseudo-jobs. Skipped on fully clean rounds — the previous
        // budgets still describe the cluster within epsilon.
        let mut split_evals = 0u64;
        let budgets = if dirty.contains(&true) || part.budgets.len() != s {
            let floors: Vec<u32> = part.members.iter().map(|m| m.len() as u32).collect();
            let (pseudo, x0) = part.pseudo_jobs(&new_sigs, quota);
            let split_problem = MultiTenantProblem::with_model(
                pseudo,
                resources.clone(),
                problem.objective().drop_free(),
                problem.model(),
            )?;
            let split = split_problem.solve(solver, &x0)?;
            split_evals = split.evals as u64;
            split_budgets(&split.replicas, &floors, quota.get())
        } else {
            part.budgets.clone()
        };

        // A clean shard still re-solves when its new budget no longer
        // covers the cached allocation (the merged total must respect
        // the quota). Shards solve concurrently and come back in
        // ascending shard index; the lowest-index failure returns
        // before anything is committed.
        let covers =
            |c: &Solved, budget: u32| c.allocs.iter().map(ClassAlloc::total).sum::<u32>() <= budget;
        let todo: Vec<usize> = (0..s)
            .filter(|&shard| {
                dirty[shard]
                    || part.caches[shard]
                        .as_ref()
                        .is_none_or(|c| !covers(c, budgets[shard]))
            })
            .collect();
        let solved_new = on_workers(&todo, self.workers, |&shard| {
            let members = &part.members[shard];
            let sub_jobs = members.iter().map(|&i| jobs[i].clone()).collect();
            let sub_current: Vec<u32> = members
                .iter()
                .map(|&i| current.get(i).copied().unwrap_or(1))
                .collect();
            let sub = MultiTenantProblem::with_model(
                sub_jobs,
                sub_resources_for_budget(resources, budgets[shard]),
                problem.objective(),
                problem.model(),
            )?;
            let seed = SplitMix64::child_seed(seed, shard as u64);
            let r = solve_flat_or_grouped(&sub, solver, &sub_current, use_shrinking, groups, seed)?;
            Ok((shard, r))
        })
        .into_iter()
        .collect::<Result<Vec<(usize, Solved)>>>()?;

        // Commit: a rebuilt partition, the budgets, and the solved
        // shards' signatures and caches.
        if let Some(fresh) = fresh {
            self.part = fresh;
        }
        self.part.budgets = budgets;
        let mut record = ShardSolveRecord {
            shards: s as u32,
            solved: solved_new.len() as u32,
            skipped: (s - solved_new.len()) as u32,
            split_evals,
            ..ShardSolveRecord::default()
        };
        let mut spans = Vec::with_capacity(solved_new.len());
        for (shard, r) in solved_new {
            record.evals += r.evals;
            spans.push(ShardSpan {
                shard: shard as u32,
                evals: r.evals,
            });
            for &j in &self.part.members[shard] {
                self.part.sigs[j] = Some(new_sigs[j]);
            }
            self.part.caches[shard] = Some(r);
        }

        let mut allocs = vec![ClassAlloc::zero(1); n];
        let mut drops = vec![0.0f64; n];
        for (shard, members) in self.part.members.iter().enumerate() {
            let cache = self.part.caches[shard]
                .as_ref()
                .expect("every shard solved");
            if !spans.iter().any(|sp| sp.shard == shard as u32) {
                record.cache_hit_jobs += members.len() as u32;
            }
            for (pos, &j) in members.iter().enumerate() {
                allocs[j] = cache.allocs[pos];
                drops[j] = cache.drops[pos];
            }
        }
        Ok(Round {
            solved: Solved {
                allocs,
                drops,
                evals: record.evals + split_evals,
            },
            record: Some(record),
            spans,
        })
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

    /// Cobyla, except that its `fail_at`-th call (counting from 1) fails
    /// as a NaN objective at the start point would; a `fail_at` of 0
    /// never fails, and counts the calls.
    struct FailingCall {
        calls: AtomicUsize,
        fail_at: usize,
    }

    impl FailingCall {
        fn at(fail_at: usize) -> Self {
            Self {
                calls: AtomicUsize::new(0),
                fail_at,
            }
        }
    }

    impl Solver for FailingCall {
        fn solve(
            &self,
            problem: &(dyn faro_solver::Problem + Sync),
            x0: &[f64],
        ) -> faro_solver::Result<faro_solver::Solution> {
            // Which call fails is all the count decides: no other memory
            // is published through it.
            if self.calls.fetch_add(1, Ordering::Relaxed) + 1 == self.fail_at {
                return Err(faro_solver::Error::NanObjective);
            }
            Cobyla::fast().solve(problem, x0)
        }
    }

    /// A round that fails part-way commits nothing, whichever of its
    /// solver calls fails, the split's included: its retry is, byte for
    /// byte, the round of a solver that never failed. Quota 70 after 120
    /// rebuilds the partition, so every shard solves.
    #[test]
    fn a_failed_round_leaves_no_state_behind() {
        let js: Vec<JobWorkload> = (0..30u32)
            .map(|i| {
                let lambda = 1.0 + f64::from(i * 37 % 23) * 1.7;
                JobWorkload::constant(lambda, 0.180, Slo::paper_default(), 1.0 + f64::from(i % 3))
            })
            .collect();
        let round = |solver: &mut ShardedSolver, quota: u32, cobyla: &dyn Solver| {
            let resources = ResourceModel::replicas(ReplicaCount::new(quota));
            let (objective, fidelity) = (ClusterObjective::Sum, Fidelity::Relaxed);
            solver.solve(&js, resources, objective, fidelity, cobyla, &[1; 30])
        };
        let mut never_failed = ShardedSolver::new(ShardConfig::with_shards(5), 7);
        round(&mut never_failed, 120, &Cobyla::fast()).unwrap();
        let counted = FailingCall::at(0);
        let want = round(&mut never_failed, 70, &counted).unwrap();
        let calls = counted.calls.into_inner();
        assert_eq!(want.record.solved, 5);
        assert!(calls > 5, "the split and every shard call the solver");
        for fail_at in 1..=calls {
            let mut failed = ShardedSolver::new(ShardConfig::with_shards(5), 7);
            round(&mut failed, 120, &Cobyla::fast()).unwrap();
            let failing = FailingCall::at(fail_at);
            assert!(round(&mut failed, 70, &failing).is_err(), "call {fail_at}");
            let retried = round(&mut failed, 70, &Cobyla::fast()).unwrap();
            assert_eq!(
                format!("{retried:?}"),
                format!("{want:?}"),
                "call {fail_at}"
            );
        }
    }

    /// How many workers solve a round's shards changes no byte of it: a
    /// cold round, then a warm one with two dirty shards, a clean shard
    /// re-solved because its new budget no longer covers its cached
    /// allocation, and a clean shard served from its cache, each at one
    /// worker and at three.
    #[test]
    fn the_worker_count_changes_no_byte() {
        let js = jobs(12);
        let mut moved = js.clone();
        for j in [0, 1] {
            moved[j].lambda_trajectories[0][0] *= 2.0;
        }
        let rounds = |workers: usize| {
            let mut solver = ShardedSolver {
                workers,
                ..ShardedSolver::new(ShardConfig::with_shards(4), 7)
            };
            let out = [&js, &moved].map(|jobs| {
                let problem = MultiTenantProblem::new(
                    jobs.clone(),
                    ResourceModel::replicas(ReplicaCount::new(20)),
                    ClusterObjective::Sum,
                    Fidelity::Relaxed,
                )
                .unwrap();
                let round = solver
                    .solve_problem(&problem, &Cobyla::fast(), &[1; 12], true)
                    .unwrap();
                let record = round.record.unwrap();
                (
                    format!("{:?} {record:?} {:?}", round.solved, round.spans),
                    record,
                )
            });
            let shard_of = |j: usize| solver.part.members.iter().position(|m| m.contains(&j));
            assert_ne!(shard_of(0), shard_of(1), "two dirty shards");
            out
        };
        let [(cold, _), (warm, record)] = rounds(1);
        assert_eq!((record.solved, record.skipped), (3, 1), "{record:?}");
        assert_eq!([cold, warm], rounds(3).map(|(debug, _)| debug));
    }
}
