//! The multi-tenant cluster optimization (paper Sec. 3.4 and 4.2), over
//! `C = max(1, classes)` replica classes.
//!
//! Decision variables are continuous replica counts `x[j·C + c]` of
//! class `c` for job `j` (and, for Penalty objectives, drop rates `d_j`
//! in `[0, 1]`). The objective aggregates per-job expected utilities
//! over the predicted arrival-rate trajectories; constraints cap
//! capacity. The class count picks the form, and nothing else does:
//!
//! - **C = 1**, a classless cluster or a one-class table, is the paper's
//!   problem: each count lies in `[1, quota]`, capacity is the vCPU/RAM
//!   pair, `integerize` trims to the replica quota, and a job is scored
//!   at its one class's service time `p × speed` (speed 1 without a
//!   table). A one-class table's speed is folded into the jobs when the
//!   problem is built, so every reader of [`MultiTenantProblem::jobs`]
//!   sees that service time.
//! - **C ≥ 2** adds the hardware axis: counts lie in `[0, class quota]`
//!   on the classes the job's affinity allows, capacity is the vector
//!   `[vCPU, GPU, RAM]` of [`crate::types::ReplicaClass::cost`] plus a
//!   one-replica floor per job, a job's mixed pool is reduced to one
//!   effective M/D/c queue (the harmonic capacity-weighted mean of the
//!   per-class service times, see [`faro_queueing::mixed`]),
//!   `integerize` trims the most overcommitted dimension and `shrink`
//!   drains the slowest class first.
//!
//! Two *fidelities* are provided:
//!
//! - [`Fidelity::Precise`]: step utility, raw M/D/c latency (infinite
//!   when unstable), step penalty table — the formulation of Eq. 3.
//!   Plateau-ridden; local solvers stall on it (Figure 5).
//! - [`Fidelity::Relaxed`]: inverse-power utility, relaxed latency with
//!   the `rho_max` knee, piecewise-linear penalty — plateau-free and
//!   solvable in sub-second time by COBYLA.
//!
//! How a job is scored is not decided here: the shared evaluator in
//! `evaluate.rs` scores every read, and owns the fidelity, the
//! estimator, the relaxation and what a table entry holds. This module
//! keeps the shape of the decision and, at C = 1, two ways of not
//! asking twice: per-solve latency tables over the fixed trajectory
//! rates, which the evaluator's table arm reads a step's latency from on
//! every zero-drop read inside the quota, and each job's last few
//! utilities.
//! The tables' entry budget, their distinct-rate rows and their flat
//! layout are decided here: a job's step rates are deduplicated on their
//! bits in one open-addressed table, linear in the job's steps, with
//! rows in order of first appearance; a row stores only its prefix up to
//! its first zero-wait count, the prefixes go back to back, and every
//! count past a prefix reads as the service time. A sharded round builds
//! its dirty shards' problems, and so their tables, concurrently, one
//! problem to a thread. On every other read, and on
//! every read at C ≥ 2 (where `p_eff` moves continuously with the mix,
//! so there is no axis to tabulate), the evaluator asks the estimator
//! at `(p_eff, x)`.

use std::sync::{Mutex, OnceLock};

use crate::error::{Error, Result};
use crate::evaluate::{fold_class_speed, validate, Model, Rows};
use crate::objective::{ClusterObjective, JobUtility};
use crate::types::{ClassAlloc, ResourceModel, Slo, MAX_CLASSES, RESOURCE_DIMS};
use crate::utility::RelaxedUtility;
use faro_queueing::RelaxedLatency;
use faro_solver::{Problem, Solution, Solver};

/// Latency tables are built only while the entries they store stay
/// under this budget (~134 MB of `f64`): refused before any row is
/// filled when a lower bound on them passes it, and otherwise counted
/// as the rows are filled; past it every read asks the evaluator,
/// which returns the same bits. It also keeps every row start in a
/// `u32`.
const MAX_TABLE_ENTRIES: usize = 1 << 24;

/// Per-solve latency tables over integer replica counts.
///
/// The predicted arrival rates are fixed for the lifetime of a problem,
/// so for every (job, distinct trajectory rate) pair the latency at
/// *every* integer replica count `1..=quota` is known after one
/// Erlang-B recurrence ([`Model::fill_latency_row`]) instead of
/// re-running the O(c) recurrence in the solver's innermost loop. A
/// row stores only its prefix up to the first count whose wait is
/// zero, about the rate's offered load: every later count is exactly
/// the job's service time, which the evaluator reads past the prefix.
/// Under relaxed fidelity the prefix also covers the counts at which a
/// rate is past the knee ([`RelaxedLatency::knee_count`] of them),
/// which hold the job's knee latency scaled by the rate; knee latencies
/// cost a recurrence of their own each, so they are computed for those
/// counts only, not up to the quota. Every count reads bit-identically
/// to the direct estimator call it replaces.
#[derive(Debug, Default)]
struct LatencyTables {
    /// `stored[job]`: the job's stored row prefixes back to back, one
    /// row per distinct trajectory rate; entry `n - 1` of a row is the
    /// latency at `n` replicas.
    stored: Vec<Vec<f64>>,
    /// `starts[job]`: where each of the job's rows starts in
    /// `stored[job]`, and one past the last row's end.
    starts: Vec<Vec<u32>>,
    /// `steps[job]`: one row id per trajectory step, flattened in
    /// `lambda_trajectories` iteration order, so the zero-drop utility
    /// path walks precomputed rows without keying on the rate.
    steps: Vec<Vec<u32>>,
    /// The largest count a row answers for (the replica quota when the
    /// tables were built).
    quota: usize,
}

impl LatencyTables {
    /// Job `i`'s rows, as the evaluator reads them.
    fn rows(&self, i: usize) -> Rows<'_> {
        Rows {
            rows: &self.stored[i],
            starts: &self.starts[i],
            steps: &self.steps[i],
            width: self.quota,
        }
    }
}

/// One job's distinct step rates at a time, keyed on their bits: an
/// open-addressed table with linear probing, allocated once per table
/// build for its longest job and cleared for each job, so a job's
/// dedup is linear in its steps. Sampled step rates rarely repeat (a
/// forecast's sigma is floored above zero), so nearly every step
/// inserts.
struct RateIndex {
    /// `(rate bits, row id)`; an id of [`RateIndex::FREE`] marks a free
    /// slot.
    slots: Vec<(u64, u32)>,
}

impl RateIndex {
    const FREE: u32 = u32::MAX;

    /// An index for jobs of up to `steps` steps.
    fn for_steps(steps: usize) -> Self {
        Self {
            slots: vec![(0, Self::FREE); Self::slots_for(steps)],
        }
    }

    /// Slots for `steps` keys: a power of two at least twice the keys,
    /// so the table is at most half full and every probe ends.
    fn slots_for(steps: usize) -> usize {
        (2 * steps).next_power_of_two().max(2)
    }

    /// `job`'s distinct step rates, clamped at zero as the evaluator
    /// clamps them, in order of first appearance, and one row id per
    /// step in [`JobWorkload::rates`] order.
    fn dedup(&mut self, job: &JobWorkload) -> (Vec<f64>, Vec<u32>) {
        let steps = job.n_steps();
        let len = Self::slots_for(steps);
        let slots = &mut self.slots[..len];
        slots.fill((0, Self::FREE));
        let shift = 64 - len.trailing_zeros();
        // Sampled rates rarely repeat: room for every step is about the
        // room the rates take.
        let mut rates: Vec<f64> = Vec::with_capacity(steps);
        let mut step_rows: Vec<u32> = Vec::with_capacity(steps);
        for raw in job.rates() {
            let lambda = raw.max(0.0); // Same clamp as the evaluator.
            let key = lambda.to_bits();
            // Fibonacci hashing of the folded bits: the top bits of the
            // product depend on every bit of the key.
            let hash = (key ^ (key >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut at = (hash >> shift) as usize;
            let id = loop {
                let (bits, id) = slots[at];
                if id == Self::FREE {
                    let id = rates.len() as u32;
                    slots[at] = (key, id);
                    rates.push(lambda);
                    break id;
                }
                if bits == key {
                    break id;
                }
                at = (at + 1) & (len - 1);
            };
            step_rows.push(id);
        }
        (rates, step_rows)
    }
}

/// How many recent evaluations each job's [`UtilitySlots`] keep. A
/// COBYLA iteration holds a job at three values — the base point, the
/// job's own coordinate probe, a trial step — so four keep the base
/// point resident across a rejected step and the probes after it. On
/// a paper-shaped problem (the structural test below) one slot serves
/// 77% of a default solve's reads, four 86%, eight 87%: a constant,
/// not a knob.
const UTILITY_SLOTS: usize = 4;

/// One job's most recent `(replicas, drop rate)` -> [`JobUtility`]
/// evaluations, keyed on the exact input bits and replaced round-robin.
///
/// A job's utility is a pure function of its own two variables, and a
/// local solver moves one coordinate at a time, so between consecutive
/// objective evaluations all jobs but one ask for a value they were
/// just given. The lock is held for a slot read or a slot write, never
/// across the evaluation: concurrent evaluators (Differential
/// Evolution's population) at worst compute the same value twice.
#[derive(Debug, Default)]
pub(crate) struct UtilitySlots {
    ring: Mutex<UtilityRing>,
}

#[derive(Debug, Default)]
struct UtilityRing {
    entries: [Option<((u64, u64), JobUtility)>; UTILITY_SLOTS],
    /// The entry the next store overwrites.
    next: usize,
}

impl UtilitySlots {
    /// The utility stored for exactly these input bits, if still held.
    pub(crate) fn get(&self, x: f64, d: f64) -> Option<JobUtility> {
        let key = (x.to_bits(), d.to_bits());
        let ring = self.ring.lock().expect("utility slots");
        ring.entries
            .iter()
            .flatten()
            .find_map(|&(k, u)| (k == key).then_some(u))
    }

    /// Stores an evaluation over the oldest entry.
    pub(crate) fn put(&self, x: f64, d: f64, utility: JobUtility) {
        let mut ring = self.ring.lock().expect("utility slots");
        let at = ring.next;
        ring.entries[at] = Some(((x.to_bits(), d.to_bits()), utility));
        ring.next = (at + 1) % UTILITY_SLOTS;
    }
}

/// Interior-mutable caches shared by every objective evaluation of one
/// C = 1 problem instance (including parallel solver populations and
/// the hierarchical grouped solve, which borrows the flat problem).
///
/// Cloning a [`MultiTenantProblem`] resets the cache: it holds derived
/// values only, never part of the problem's identity. So does every
/// model builder (`with_latency_model`, `with_utility`,
/// `with_relaxed_latency`), since each changes what an entry would hold.
#[derive(Debug)]
struct SolveCache {
    /// Lazily built on the first latency evaluation; `None` when the
    /// latency model has nothing worth tabulating (upper bound is O(1)).
    tables: OnceLock<Option<LatencyTables>>,
    /// `utilities[job]`: that job's most recent utility evaluations.
    utilities: Vec<UtilitySlots>,
    /// Job utilities computed rather than served from `utilities`.
    #[cfg(test)]
    utility_misses: std::sync::atomic::AtomicUsize,
}

impl SolveCache {
    /// An empty cache for a problem of `n_jobs` jobs.
    fn empty(n_jobs: usize) -> Self {
        Self {
            tables: OnceLock::new(),
            utilities: (0..n_jobs).map(|_| UtilitySlots::default()).collect(),
            #[cfg(test)]
            utility_misses: std::sync::atomic::AtomicUsize::new(0),
        }
    }
}

/// One job's share of the optimization input.
#[derive(Debug, Clone, PartialEq)]
pub struct JobWorkload {
    /// Predicted arrival-rate trajectories (requests/second), each
    /// covering the planning window. One trajectory means point
    /// prediction; several mean probabilistic samples.
    pub lambda_trajectories: Vec<Vec<f64>>,
    /// Mean per-request processing time (seconds).
    pub processing_time: f64,
    /// The job's SLO.
    pub slo: Slo,
    /// Priority coefficient.
    pub priority: f64,
}

impl JobWorkload {
    /// Every trajectory step's rate, in `lambda_trajectories` order.
    pub(crate) fn rates(&self) -> impl Iterator<Item = f64> + '_ {
        self.lambda_trajectories.iter().flatten().copied()
    }

    /// How many trajectory steps the job has, over every trajectory.
    pub(crate) fn n_steps(&self) -> usize {
        self.lambda_trajectories.iter().map(Vec::len).sum()
    }

    /// The mean rate over every trajectory step.
    pub(crate) fn mean_rate(&self) -> f64 {
        self.rates().sum::<f64>() / self.n_steps().max(1) as f64
    }

    /// A workload with a single constant-rate trajectory.
    pub fn constant(lambda: f64, processing_time: f64, slo: Slo, priority: f64) -> Self {
        Self {
            lambda_trajectories: vec![vec![lambda]],
            processing_time,
            slo,
            priority,
        }
    }
}

/// Whether to evaluate the precise (plateau) or relaxed formulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Step utility + raw M/D/c + step penalty (Eq. 3).
    Precise,
    /// Sloppified, plateau-free variants (Sec. 3.4).
    Relaxed,
}

/// Which latency estimator feeds the utility (ablation knob, Fig. 16).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyModel {
    /// The M/D/c queueing model (Faro's default).
    MDc,
    /// The pessimistic upper-bound estimator.
    UpperBound,
}

#[cfg(test)]
thread_local! {
    /// Pool reductions this thread's C ≥ 2 evaluations have performed.
    pub(crate) static POOL_REDUCTIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Latency-table entries this thread's table builds have stored.
    static TABLE_ENTRIES_STORED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The assembled multi-tenant optimization problem.
#[derive(Debug)]
pub struct MultiTenantProblem {
    jobs: Vec<JobWorkload>,
    resources: ResourceModel,
    objective: ClusterObjective,
    model: Model,
    /// `allowed[job][class]`: whether the job may run on the class (from
    /// [`crate::types::JobSpec::allows_class`]); empty, and so never
    /// allocated per job, while every job may run on every class. Read
    /// at C ≥ 2 only.
    allowed: Vec<Vec<bool>>,
    cache: SolveCache,
}

impl Clone for MultiTenantProblem {
    /// Clones the problem definition with a fresh (empty) solve cache.
    fn clone(&self) -> Self {
        Self {
            jobs: self.jobs.clone(),
            resources: self.resources.clone(),
            objective: self.objective,
            model: self.model,
            allowed: self.allowed.clone(),
            cache: SolveCache::empty(self.jobs.len()),
        }
    }
}

impl MultiTenantProblem {
    /// Builds a problem over the given jobs and resources, under the
    /// paper's default model (M/D/c, `alpha = 4`, `rho_max = 0.95`).
    /// Every job is allowed on every class; restrict with
    /// [`MultiTenantProblem::with_affinity`].
    ///
    /// # Errors
    ///
    /// Fails when there are no jobs, a job has no trajectory or
    /// processing time, the class table is longer than [`MAX_CLASSES`]
    /// or has a non-positive service-time multiplier, or the quota
    /// cannot host one replica per job.
    pub fn new(
        jobs: Vec<JobWorkload>,
        resources: ResourceModel,
        objective: ClusterObjective,
        fidelity: Fidelity,
    ) -> Result<Self> {
        Self::with_model(jobs, resources, objective, Model::new(fidelity))
    }

    /// [`MultiTenantProblem::new`] under a given model.
    pub(crate) fn with_model(
        mut jobs: Vec<JobWorkload>,
        mut resources: ResourceModel,
        objective: ClusterObjective,
        model: Model,
    ) -> Result<Self> {
        validate(&jobs, &resources)?;
        fold_class_speed(&mut jobs, &mut resources);
        let cache = SolveCache::empty(jobs.len());
        Ok(Self {
            jobs,
            resources,
            objective,
            model,
            allowed: Vec::new(),
            cache,
        })
    }

    /// Overrides the latency model (ablation).
    pub fn with_latency_model(mut self, model: LatencyModel) -> Self {
        self.model.latency_model = model;
        self.cache = SolveCache::empty(self.jobs.len());
        self
    }

    /// Overrides the relaxed utility sharpness.
    pub fn with_utility(mut self, u: RelaxedUtility) -> Self {
        self.model.relaxed_utility = u;
        self.cache = SolveCache::empty(self.jobs.len());
        self
    }

    /// Overrides the relaxed latency knee.
    pub fn with_relaxed_latency(mut self, l: RelaxedLatency) -> Self {
        self.model.relaxed_latency = l;
        self.cache = SolveCache::empty(self.jobs.len());
        self
    }

    /// Restricts which classes each job may run on
    /// (`masks[job][class]`); the C ≥ 2 form bounds a disallowed class
    /// at zero.
    ///
    /// # Errors
    ///
    /// Fails when the masks are not one row of C entries per job or a
    /// job is left with no allowed class.
    pub fn with_affinity(mut self, masks: Vec<Vec<bool>>) -> Result<Self> {
        let nc = self.n_classes();
        if masks.len() != self.jobs.len() || masks.iter().any(|m| m.len() != nc) {
            return Err(Error::InvalidSnapshot(format!(
                "affinity mask shape {}x{} does not match {} jobs x {nc} classes",
                masks.len(),
                masks.first().map_or(0, Vec::len),
                self.jobs.len(),
            )));
        }
        if let Some(i) = masks.iter().position(|m| !m.contains(&true)) {
            return Err(Error::InvalidSnapshot(format!(
                "job {i} is not allowed on any replica class"
            )));
        }
        self.allowed = masks;
        Ok(self)
    }

    /// Number of jobs.
    pub fn n_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// The class count C: one without a class table.
    pub fn n_classes(&self) -> usize {
        self.resources.n_classes().max(1)
    }

    /// Whether the problem takes the C ≥ 2 form.
    fn classed(&self) -> bool {
        self.resources.n_classes() > 1
    }

    /// Whether job `j` may run on class `c`.
    fn allows(&self, j: usize, c: usize) -> bool {
        self.allowed.get(j).is_none_or(|mask| mask[c])
    }

    /// The job workloads. On a one-class table each processing time is
    /// the class's service time `p × speed`, and [`Self::resources`]
    /// holds that class at speed 1.
    pub fn jobs(&self) -> &[JobWorkload] {
        &self.jobs
    }

    /// The cluster objective in use.
    pub fn objective(&self) -> ClusterObjective {
        self.objective
    }

    /// The resource model in use.
    pub fn resources(&self) -> &ResourceModel {
        &self.resources
    }

    /// The model the problem scores jobs under.
    pub(crate) fn model(&self) -> Model {
        self.model
    }

    /// The lazily built per-solve latency tables (`None` when the
    /// latency model is not tabulated).
    fn tables(&self) -> Option<&LatencyTables> {
        self.cache
            .tables
            .get_or_init(|| self.build_latency_tables())
            .as_ref()
    }

    /// Builds the per-job latency tables from the fixed trajectory
    /// rates: per job one knee-latency prefix as long as its largest
    /// rate is past the knee, per distinct rate one row, filled into
    /// one full-width scratch row and stored as far as it is not the
    /// service time. Replaces the per-evaluation recurrence in the
    /// solver's innermost loop. `None` once the stored entries pass
    /// [`MAX_TABLE_ENTRIES`]: at sweep scale (thousands of jobs,
    /// five-digit quotas, saturated rates) they could reach gigabytes.
    /// A row stores at least the counts its rate saturates, so an input
    /// whose saturated counts alone pass the budget is refused before
    /// anything is allocated.
    fn build_latency_tables(&self) -> Option<LatencyTables> {
        if self.model.latency_model == LatencyModel::UpperBound {
            return None; // Closed form, O(1): nothing to tabulate.
        }
        let quota = self.resources.replica_quota();
        if quota.is_zero() {
            return None;
        }
        let width = quota.get() as usize;
        // Each job's distinct rates, and a lower bound on the entries
        // their rows store: every count at or under a rate's offered
        // load saturates, so it waits. A bound past the budget refuses
        // before any row is filled; the stored total would pass it too.
        let mut at_least = 0usize;
        let most = self.jobs.iter().map(JobWorkload::n_steps).max();
        let mut index = RateIndex::for_steps(most.unwrap_or(0));
        let distinct: Vec<(Vec<f64>, Vec<u32>)> = self
            .jobs
            .iter()
            .map(|job| {
                let (rates, step_rows) = index.dedup(job);
                let p = job.processing_time;
                at_least += rates
                    .iter()
                    .map(|lambda| (lambda * p).floor().min(width as f64) as usize)
                    .sum::<usize>();
                (rates, step_rows)
            })
            .collect();
        if at_least > MAX_TABLE_ENTRIES {
            return None;
        }
        let mut scratch = vec![0.0; width];
        let mut total = 0usize;
        let mut tables = LatencyTables {
            quota: width,
            ..LatencyTables::default()
        };
        for (job, (rates, step_rows)) in self.jobs.iter().zip(distinct) {
            let k = job.slo.percentile;
            let p = job.processing_time;
            let knees = self.model.knee_prefix(job, quota);
            let mut stored = Vec::new();
            let mut starts = Vec::with_capacity(rates.len() + 1);
            starts.push(0);
            for &lambda in &rates {
                let len = self
                    .model
                    .fill_latency_row(k, p, lambda, &mut scratch, &knees);
                total += len;
                if total > MAX_TABLE_ENTRIES {
                    return None;
                }
                #[cfg(test)]
                TABLE_ENTRIES_STORED.with(|n| n.set(n.get() + len));
                stored.extend_from_slice(&scratch[..len]);
                starts.push(stored.len() as u32);
            }
            // Held for the rest of the solve: keep no growth slack.
            stored.shrink_to_fit();
            tables.stored.push(stored);
            tables.starts.push(starts);
            tables.steps.push(step_rows);
        }
        Some(tables)
    }

    /// Expected utility of job `i` at fractional per-class replica
    /// counts (one per class), averaged over trajectories and window
    /// steps (Sec. 4.1), before the drop multiplier. At C ≥ 2 an empty
    /// pool serves nothing.
    pub fn expected_utility(&self, i: usize, counts: &[f64], drop_rate: f64) -> f64 {
        let job = &self.jobs[i];
        if self.classed() {
            return match self.pool(job.processing_time, counts) {
                Some((p_eff, total)) => self
                    .model
                    .expected_utility(job, p_eff, total, drop_rate, None),
                None => 0.0,
            };
        }
        // Solver hot path: with no drop adjustment every step rate has
        // its precomputed table row.
        let table = if drop_rate.clamp(0.0, 1.0) == 0.0 {
            self.tables().map(|t| t.rows(i))
        } else {
            None
        };
        self.model
            .expected_utility(job, job.processing_time, counts[0], drop_rate, table)
    }

    /// Reduces a fractional per-class count vector to the pool's
    /// effective service time and head count (the fractional mirror of
    /// [`faro_queueing::mixed::effective_pool`]). `None` for an empty
    /// pool.
    fn pool(&self, p: f64, counts: &[f64]) -> Option<(f64, f64)> {
        #[cfg(test)]
        POOL_REDUCTIONS.with(|n| n.set(n.get() + 1));
        let (mut total, mut rate) = (0.0, 0.0);
        let (mut used, mut speed) = (0, 0.0);
        for (c, &x) in counts.iter().enumerate() {
            if x > 0.0 {
                speed = self.resources.classes[c].speed;
                total += x;
                rate += x / (p * speed);
                used += 1;
            }
        }
        match used {
            0 => None,
            // Single-class pools skip the aggregation round-trip so that
            // the class's service time is `p * speed` to the bit.
            1 => Some((p * speed, total)),
            _ => Some((total / rate, total)),
        }
    }

    /// Per-job utility record at per-class counts: every objective
    /// evaluation, `integerize` and `shrink` come through here. At C = 1
    /// the job's recent evaluations are consulted first, so a solver
    /// probe that moved one coordinate recomputes one job; at C ≥ 2
    /// every read is asked.
    pub(crate) fn job_utility(&self, i: usize, counts: &[f64], d: f64) -> JobUtility {
        let record = |u| self.model.record(&self.jobs[i], u, d);
        if self.classed() {
            return record(self.expected_utility(i, counts, d));
        }
        let x = counts[0];
        let recent = &self.cache.utilities[i];
        if let Some(hit) = recent.get(x, d) {
            return hit;
        }
        #[cfg(test)]
        self.cache
            .utility_misses
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let fresh = record(self.expected_utility(i, counts, d));
        recent.put(x, d, fresh);
        fresh
    }

    /// Per-job utility record at an integer per-class allocation.
    pub(crate) fn alloc_utility(&self, i: usize, alloc: &ClassAlloc, d: f64) -> JobUtility {
        let mut counts = [0.0; MAX_CLASSES];
        for (x, &n) in counts.iter_mut().zip(alloc.as_slice()) {
            *x = f64::from(n);
        }
        self.job_utility(i, &counts[..alloc.n_classes()], d)
    }

    /// Cluster objective value (maximize convention) at a continuous
    /// allocation `xs[j·C + c]`. `drops` may be empty when the objective
    /// does not use drop rates.
    pub fn cluster_value(&self, xs: &[f64], drops: &[f64]) -> f64 {
        let nc = self.n_classes();
        let utilities: Vec<JobUtility> = (0..self.jobs.len())
            .map(|i| {
                let d = drops.get(i).copied().unwrap_or(0.0);
                self.job_utility(i, &xs[i * nc..(i + 1) * nc], d)
            })
            .collect();
        self.objective.aggregate(&utilities)
    }

    /// [`MultiTenantProblem::cluster_value`] at integer counts `xs[j·C + c]`.
    pub fn cluster_value_integer(&self, xs: &[u32], drops: &[f64]) -> f64 {
        let xf: Vec<f64> = xs.iter().map(|&x| f64::from(x)).collect();
        self.cluster_value(&xf, drops)
    }

    /// Splits a solver variable vector into `(counts, drops)`.
    fn split_vars<'a>(&self, v: &'a [f64]) -> (&'a [f64], &'a [f64]) {
        let nx = self.jobs.len() * self.n_classes();
        if self.objective.uses_drop_rates() {
            (&v[..nx], &v[nx..])
        } else {
            (v, &[])
        }
    }

    /// Seeds the solver start point from each job's current total (at
    /// least one replica). At C ≥ 2 the total is placed into the job's
    /// allowed classes fastest-first, spilling a class when it alone
    /// could not host the remainder.
    fn seed(&self, current: &[u32]) -> Vec<f64> {
        let n = self.jobs.len();
        let start = |j: usize| f64::from(current.get(j).copied().unwrap_or(1).max(1));
        if !self.classed() {
            return (0..n).map(start).collect();
        }
        let nc = self.n_classes();
        let order = self.resources.classes_by_speed();
        let mut x0 = vec![0.0; n * nc];
        for (j, slot) in x0.chunks_mut(nc).enumerate() {
            let mut remaining = start(j);
            let mut last_allowed = None;
            for &c in &order {
                if !self.allows(j, c) {
                    continue;
                }
                last_allowed = Some(c);
                let take = remaining.min(self.resources.class_quota(c).as_f64());
                slot[c] = take;
                remaining -= take;
                if remaining <= 0.0 {
                    break;
                }
            }
            if remaining > 0.0 {
                // Over-quota starts are legal (COBYLA treats them as
                // constraint violations); park the excess on the
                // slowest allowed class.
                if let Some(c) = last_allowed {
                    slot[c] += remaining;
                }
            }
        }
        x0
    }

    /// Solves the continuous problem with the given solver, starting
    /// from the current allocation (replica totals per job).
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn solve(&self, solver: &dyn Solver, current: &[u32]) -> Result<ContinuousAllocation> {
        let n = self.jobs.len();
        let mut x0 = self.seed(current);
        if self.objective.uses_drop_rates() {
            x0.extend(std::iter::repeat_n(0.0, n));
        }
        let adapter = ProblemAdapter { inner: self };
        let sol: Solution = solver.solve(&adapter, &x0)?;
        let (xs, ds) = self.split_vars(&sol.x);
        Ok(ContinuousAllocation {
            replicas: xs.to_vec(),
            drop_rates: if ds.is_empty() {
                vec![0.0; n]
            } else {
                ds.to_vec()
            },
            objective_value: -sol.objective,
            evals: sol.evals,
        })
    }

    /// The capacity dimension `integerize` trims next, or `None` when
    /// the allocation fits: at C = 1 any overshoot of the replica quota,
    /// at C ≥ 2 the most overcommitted dimension of the vector capacity.
    fn overcommitted(&self, allocs: &[ClassAlloc]) -> Option<usize> {
        if !self.classed() {
            let total: u32 = allocs.iter().map(ClassAlloc::total).sum();
            return (total > self.resources.replica_quota().get()).then_some(0);
        }
        let mut usage = [0.0; RESOURCE_DIMS];
        for a in allocs {
            for (u, v) in usage.iter_mut().zip(self.resources.usage_of(a)) {
                *u += v;
            }
        }
        if self.resources.fits(&usage) {
            return None;
        }
        let caps = self.resources.capacities();
        (0..RESOURCE_DIMS).max_by(|&a, &b| {
            (usage[a] - caps[a])
                .partial_cmp(&(usage[b] - caps[b]))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    }

    /// Converts a continuous allocation into integer per-class counts,
    /// "staying within the cluster size" (Sec. 4.2): round each count to
    /// nearest, floor every job at one replica (on its fastest allowed
    /// class), and while the capacity is overcommitted remove the
    /// replica — of a class that consumes the overcommitted dimension —
    /// whose removal costs the least cluster objective.
    ///
    /// Deliberately *not* a greedy integer re-optimization: the paper's
    /// post-processing only converts, and a greedy repair would mask
    /// the relaxation's contribution (integer +1 steps can cross the
    /// step utility's threshold even where the continuous problem is a
    /// plateau — see the Figure 16 ablation).
    pub fn integerize(&self, alloc: &ContinuousAllocation) -> Vec<ClassAlloc> {
        let n = self.jobs.len();
        let nc = self.n_classes();
        let mut allocs: Vec<ClassAlloc> = (0..n)
            .map(|j| {
                let mut a = ClassAlloc::zero(nc);
                for c in 0..nc {
                    a.set(c, alloc.replicas[j * nc + c].round().max(0.0) as u32);
                }
                if a.total() == 0 {
                    let mut order = self.resources.classes_by_speed().into_iter();
                    let fastest = order.find(|&c| self.allows(j, c));
                    a.set(fastest.unwrap_or(0), 1);
                }
                a
            })
            .collect();
        if self.overcommitted(&allocs).is_none() {
            return allocs;
        }
        // Only job `j`'s utility changes when one of its counts is
        // decremented, so the per-job utilities are cached and a
        // candidate is scored by patching one entry before re-aggregating
        // — the aggregate sees the exact same values a full recomputation
        // would produce.
        let drop_of = |j: usize| alloc.drop_rates.get(j).copied().unwrap_or(0.0);
        let mut utils: Vec<JobUtility> = (0..n)
            .map(|j| self.alloc_utility(j, &allocs[j], drop_of(j)))
            .collect();
        while let Some(dim) = self.overcommitted(&allocs) {
            let before = self.objective.aggregate(&utils);
            let mut best: Option<(usize, usize, f64, JobUtility)> = None;
            for j in 0..n {
                if allocs[j].total() <= 1 {
                    continue;
                }
                for c in 0..nc {
                    let spares_dim = self.classed() && self.resources.classes[c].cost()[dim] <= 0.0;
                    if allocs[j].count(c) == 0 || spares_dim {
                        continue;
                    }
                    let mut cand_alloc = allocs[j];
                    cand_alloc.add(c, -1);
                    let cand = self.alloc_utility(j, &cand_alloc, drop_of(j));
                    let saved = std::mem::replace(&mut utils[j], cand);
                    let after = self.objective.aggregate(&utils);
                    utils[j] = saved;
                    let loss = before - after;
                    if best.as_ref().is_none_or(|&(_, _, b, _)| loss < b) {
                        best = Some((j, c, loss, cand));
                    }
                }
            }
            match best {
                Some((j, c, _, cand)) => {
                    allocs[j].add(c, -1);
                    utils[j] = cand;
                }
                // Every job is at one replica (or no class consumes the
                // overcommitted dimension): leave the floor in place and
                // let admission arbitrate.
                None => break,
            }
        }
        allocs
    }

    /// Stage-3 shrinking (paper Sec. 4.3): iteratively removes replicas
    /// from jobs at full predicted utility while the *cluster* objective
    /// stays unchanged, draining the slowest class first so that the
    /// fast capacity freed last is the capacity other jobs want.
    pub fn shrink(&self, allocs: &mut [ClassAlloc], drops: &[f64]) {
        let eps = 1e-9;
        let drop_of = |j: usize| drops.get(j).copied().unwrap_or(0.0);
        // Same incremental scheme as `integerize`: a removal only
        // changes job `j`'s utility, so cache the vector and patch.
        let mut utils: Vec<JobUtility> = (0..allocs.len())
            .map(|j| self.alloc_utility(j, &allocs[j], drop_of(j)))
            .collect();
        let mut order = self.resources.classes_by_speed();
        order.reverse(); // Slowest first.
        for j in 0..allocs.len() {
            'job: loop {
                if allocs[j].total() <= 1 {
                    break;
                }
                if utils[j].utility < 1.0 - 1e-9 {
                    break; // Only shrink jobs at (predicted) utility 1.
                }
                let before = self.objective.aggregate(&utils);
                for &c in &order {
                    if allocs[j].count(c) == 0 {
                        continue;
                    }
                    let mut cand_alloc = allocs[j];
                    cand_alloc.add(c, -1);
                    let cand = self.alloc_utility(j, &cand_alloc, drop_of(j));
                    let saved = std::mem::replace(&mut utils[j], cand);
                    let after = self.objective.aggregate(&utils);
                    if after < before - eps {
                        utils[j] = saved; // Cluster utility changed.
                    } else {
                        allocs[j] = cand_alloc;
                        continue 'job;
                    }
                }
                break; // No class can give one up for free.
            }
        }
    }

    /// Stages 2 and 3 as the autoscaler chains them, whichever
    /// organization of the solve asks: solve from `current`, integerize,
    /// and shrink unless the ablation turns it off. Returns the integer
    /// allocations beside the continuous allocation they came from.
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub(crate) fn solve_integer(
        &self,
        solver: &dyn Solver,
        current: &[u32],
        use_shrinking: bool,
    ) -> Result<(Vec<ClassAlloc>, ContinuousAllocation)> {
        let alloc = self.solve(solver, current)?;
        let mut allocs = self.integerize(&alloc);
        if use_shrinking {
            self.shrink(&mut allocs, &alloc.drop_rates);
        }
        Ok((allocs, alloc))
    }
}

/// Result of the continuous solve.
#[derive(Debug, Clone, PartialEq)]
pub struct ContinuousAllocation {
    /// Fractional replica counts, `job * C + class`.
    pub replicas: Vec<f64>,
    /// Drop rates per job (zero when unused).
    pub drop_rates: Vec<f64>,
    /// Cluster objective at the solution (maximize convention).
    pub objective_value: f64,
    /// Function evaluations spent.
    pub evals: usize,
}

/// Adapts [`MultiTenantProblem`] to the solver's minimize convention.
struct ProblemAdapter<'a> {
    inner: &'a MultiTenantProblem,
}

impl Problem for ProblemAdapter<'_> {
    fn dim(&self) -> usize {
        let n = self.inner.jobs.len();
        let nx = n * self.inner.n_classes();
        if self.inner.objective.uses_drop_rates() {
            nx + n
        } else {
            nx
        }
    }

    fn objective(&self, v: &[f64]) -> f64 {
        let (xs, ds) = self.inner.split_vars(v);
        -self.inner.cluster_value(xs, ds)
    }

    fn num_constraints(&self) -> usize {
        if self.inner.classed() {
            // One per capacity dimension plus one "at least one replica"
            // floor per job.
            RESOURCE_DIMS + self.inner.jobs.len()
        } else {
            2 // vCPU and RAM.
        }
    }

    fn constraints(&self, v: &[f64], out: &mut [f64]) {
        let (xs, _) = self.inner.split_vars(v);
        let r = &self.inner.resources;
        if !self.inner.classed() {
            let cpu: f64 = xs.iter().map(|&x| x.max(1.0) * r.cpu_per_replica).sum();
            let mem: f64 = xs.iter().map(|&x| x.max(1.0) * r.mem_per_replica).sum();
            out[0] = r.cluster_cpu - cpu;
            out[1] = r.cluster_mem - mem;
            return;
        }
        let mut usage = [0.0; RESOURCE_DIMS];
        for (j, counts) in xs.chunks(self.inner.n_classes()).enumerate() {
            let mut total = 0.0;
            for (c, &x) in counts.iter().enumerate() {
                let x = x.max(0.0);
                total += x;
                for (u, k) in usage.iter_mut().zip(r.classes[c].cost()) {
                    *u += x * k;
                }
            }
            out[RESOURCE_DIMS + j] = total - 1.0;
        }
        for (d, cap) in r.capacities().into_iter().enumerate() {
            out[d] = cap - usage[d];
        }
    }

    fn bounds(&self) -> Vec<(f64, f64)> {
        let n = self.inner.jobs.len();
        let r = &self.inner.resources;
        let mut b = Vec::with_capacity(self.dim());
        if self.inner.classed() {
            for j in 0..n {
                for c in 0..r.n_classes() {
                    b.push((
                        0.0,
                        if self.inner.allows(j, c) {
                            r.class_quota(c).as_f64()
                        } else {
                            0.0
                        },
                    ));
                }
            }
        } else {
            b.resize(n, (1.0, r.replica_quota().as_f64()));
        }
        if self.inner.objective.uses_drop_rates() {
            b.extend(std::iter::repeat_n((0.0, 1.0), n));
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::ReplicaCount;
    use crate::utility::step_utility;
    use faro_queueing::{mdc, upper_bound};
    use faro_solver::Cobyla;

    fn slo() -> Slo {
        Slo::paper_default()
    }

    fn totals(allocs: &[ClassAlloc]) -> Vec<u32> {
        allocs.iter().map(ClassAlloc::total).collect()
    }

    fn one_class(xs: &[u32]) -> Vec<ClassAlloc> {
        xs.iter().map(|&x| ClassAlloc::single(0, x, 1)).collect()
    }

    fn two_job_problem(quota: u32, objective: ClusterObjective) -> MultiTenantProblem {
        // Job 0 needs many replicas (high rate), job 1 few.
        let jobs = vec![
            JobWorkload::constant(40.0, 0.180, slo(), 1.0),
            JobWorkload::constant(5.0, 0.180, slo(), 1.0),
        ];
        MultiTenantProblem::new(
            jobs,
            ResourceModel::replicas(ReplicaCount::new(quota)),
            objective,
            Fidelity::Relaxed,
        )
        .unwrap()
    }

    #[test]
    fn validation_rejects_bad_input() {
        let r = ResourceModel::replicas(ReplicaCount::new(8));
        assert!(MultiTenantProblem::new(
            vec![],
            r.clone(),
            ClusterObjective::Sum,
            Fidelity::Relaxed
        )
        .is_err());
        let no_traj = JobWorkload {
            lambda_trajectories: vec![],
            processing_time: 0.1,
            slo: slo(),
            priority: 1.0,
        };
        assert!(MultiTenantProblem::new(
            vec![no_traj],
            r,
            ClusterObjective::Sum,
            Fidelity::Relaxed
        )
        .is_err());
        // Quota 1 cannot host 2 jobs.
        let jobs = vec![
            JobWorkload::constant(1.0, 0.1, slo(), 1.0),
            JobWorkload::constant(1.0, 0.1, slo(), 1.0),
        ];
        assert!(MultiTenantProblem::new(
            jobs,
            ResourceModel::replicas(ReplicaCount::new(1)),
            ClusterObjective::Sum,
            Fidelity::Relaxed
        )
        .is_err());
    }

    #[test]
    fn expected_utility_monotone_in_replicas() {
        let p = two_job_problem(32, ClusterObjective::Sum);
        let mut prev = 0.0;
        for x in 1..=16 {
            let u = p.expected_utility(0, &[f64::from(x)], 0.0);
            assert!(u >= prev - 1e-9, "x={x}");
            prev = u;
        }
        // Many replicas satisfy the SLO fully.
        assert!((p.expected_utility(0, &[16.0], 0.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn solver_finds_needy_job() {
        let p = two_job_problem(32, ClusterObjective::Sum);
        let alloc = p.solve(&Cobyla::fast(), &[1, 1]).unwrap();
        let xs = totals(&p.integerize(&alloc));
        assert!(xs[0] > xs[1], "needy job should get more replicas: {xs:?}");
        assert!(xs.iter().sum::<u32>() <= 32);
        // Both jobs should end up satisfied in a right-sized cluster.
        assert!(
            p.expected_utility(0, &[f64::from(xs[0])], 0.0) > 0.9,
            "{xs:?}"
        );
        assert!(
            p.expected_utility(1, &[f64::from(xs[1])], 0.0) > 0.9,
            "{xs:?}"
        );
    }

    #[test]
    fn integerize_respects_quota_exactly() {
        let p = two_job_problem(10, ClusterObjective::Sum);
        // Deliberately infeasible continuous allocation.
        let alloc = ContinuousAllocation {
            replicas: vec![9.7, 8.2],
            drop_rates: vec![0.0, 0.0],
            objective_value: 0.0,
            evals: 0,
        };
        let xs = totals(&p.integerize(&alloc));
        assert!(xs.iter().sum::<u32>() <= 10, "{xs:?}");
        assert!(xs.iter().all(|&x| x >= 1));
    }

    #[test]
    fn shrink_removes_waste() {
        let p = two_job_problem(32, ClusterObjective::Sum);
        // Grossly overprovisioned allocation: both at utility 1.
        let mut allocs = one_class(&[20, 10]);
        p.shrink(&mut allocs, &[0.0, 0.0]);
        let xs = totals(&allocs);
        let total: u32 = xs.iter().sum();
        assert!(total < 30, "shrinking should reclaim replicas: {xs:?}");
        // Utility must still be 1 for both.
        for (i, &x) in xs.iter().enumerate() {
            assert!(
                (p.expected_utility(i, &[f64::from(x)], 0.0) - 1.0).abs() < 1e-9,
                "{xs:?}"
            );
        }
    }

    #[test]
    fn shrink_skips_unsatisfied_jobs() {
        // Tiny quota: nobody reaches utility 1; shrink must not move.
        let jobs = vec![
            JobWorkload::constant(100.0, 0.180, slo(), 1.0),
            JobWorkload::constant(100.0, 0.180, slo(), 1.0),
        ];
        let p = MultiTenantProblem::new(
            jobs,
            ResourceModel::replicas(ReplicaCount::new(4)),
            ClusterObjective::Sum,
            Fidelity::Relaxed,
        )
        .unwrap();
        let mut allocs = one_class(&[2, 2]);
        let before = allocs.clone();
        p.shrink(&mut allocs, &[0.0, 0.0]);
        assert_eq!(allocs, before);
    }

    #[test]
    fn penalty_objective_adds_drop_variables() {
        let p = two_job_problem(32, ClusterObjective::PenaltySum);
        let alloc = p.solve(&Cobyla::fast(), &[1, 1]).unwrap();
        assert_eq!(alloc.drop_rates.len(), 2);
        for d in &alloc.drop_rates {
            assert!((0.0..=1.0).contains(d));
        }
    }

    #[test]
    fn precise_fidelity_exposes_plateau() {
        // With the step utility and a badly overloaded job, local probes
        // around small x all evaluate to utility 0: a plateau.
        let jobs = vec![JobWorkload::constant(200.0, 0.180, slo(), 1.0)];
        let p = MultiTenantProblem::new(
            jobs,
            ResourceModel::replicas(ReplicaCount::new(64)),
            ClusterObjective::Sum,
            Fidelity::Precise,
        )
        .unwrap();
        let u1 = p.expected_utility(0, &[1.0], 0.0);
        let u2 = p.expected_utility(0, &[3.0], 0.0);
        assert_eq!(u1, 0.0);
        assert_eq!(u2, 0.0);
        // The relaxed version distinguishes them.
        let jobs = vec![JobWorkload::constant(200.0, 0.180, slo(), 1.0)];
        let p = MultiTenantProblem::new(
            jobs,
            ResourceModel::replicas(ReplicaCount::new(64)),
            ClusterObjective::Sum,
            Fidelity::Relaxed,
        )
        .unwrap();
        assert!(p.expected_utility(0, &[3.0], 0.0) > p.expected_utility(0, &[1.0], 0.0));
    }

    /// The independent reference for `expected_utility`: one public
    /// `faro_queueing` call per (trajectory, step) —
    /// `latency_fractional`, `latency_percentile` or `completion_time`
    /// — under the problem's clamps and mean, with nothing tabulated
    /// and nothing held between steps. `model` is read as plain data.
    fn direct_expected_utility(job: &JobWorkload, model: Model, x: f64, d: f64) -> f64 {
        let (k, p) = (job.slo.percentile, job.processing_time);
        let whole = || ReplicaCount::new(x.max(1.0).round() as u32);
        let (mut sum, mut count) = (0.0, 0usize);
        for traj in &job.lambda_trajectories {
            for &lambda in traj {
                let lambda_eff = (lambda * (1.0 - d.clamp(0.0, 1.0))).max(0.0);
                let l = match (model.latency_model, model.fidelity) {
                    (LatencyModel::UpperBound, _) => {
                        upper_bound::completion_time(p, lambda_eff, whole()).map(|w| w.max(p))
                    }
                    (LatencyModel::MDc, Fidelity::Relaxed) => model
                        .relaxed_latency
                        .latency_fractional(k, p, lambda_eff, x.max(1.0)),
                    (LatencyModel::MDc, Fidelity::Precise) => {
                        mdc::latency_percentile(k, p, lambda_eff, whole())
                    }
                }
                .unwrap_or(f64::INFINITY);
                sum += match model.fidelity {
                    Fidelity::Precise => step_utility(l, job.slo.latency),
                    Fidelity::Relaxed => model.relaxed_utility.value(l, job.slo.latency),
                };
                count += 1;
            }
        }
        sum / count.max(1) as f64
    }

    fn multi_step_problem(fidelity: Fidelity) -> MultiTenantProblem {
        // Rates spanning idle, loaded, and overloaded regimes so the
        // tables carry zeros, finite entries, and (precise) infinities.
        let jobs = vec![
            JobWorkload {
                lambda_trajectories: vec![vec![0.0, 5.0, 40.0, 90.0], vec![12.5, 250.0]],
                processing_time: 0.180,
                slo: slo(),
                priority: 1.0,
            },
            JobWorkload {
                lambda_trajectories: vec![vec![3.0, 8.0, 15.0]],
                processing_time: 0.090,
                slo: slo(),
                priority: 2.0,
            },
        ];
        MultiTenantProblem::new(
            jobs,
            ResourceModel::replicas(ReplicaCount::new(24)),
            ClusterObjective::Sum,
            fidelity,
        )
        .unwrap()
    }

    /// Every way a read can leave the tables — a drop rate, a count
    /// past the quota or not a number, the upper-bound estimator — and
    /// every read that stays on them is the reference, bit for bit,
    /// under default and non-default sharpness and knee.
    #[test]
    fn cached_latency_matches_direct_path_bitwise() {
        let steep = (
            RelaxedUtility::new(8.0),
            RelaxedLatency::new(0.6).expect("valid knee"),
        );
        for fidelity in [Fidelity::Relaxed, Fidelity::Precise] {
            for latency_model in [LatencyModel::MDc, LatencyModel::UpperBound] {
                for (relaxed_utility, relaxed_latency) in [Default::default(), steep] {
                    let model = Model {
                        fidelity,
                        latency_model,
                        relaxed_utility,
                        relaxed_latency,
                    };
                    // Built through the public overrides, not from `model`.
                    let p = multi_step_problem(fidelity)
                        .with_latency_model(latency_model)
                        .with_utility(relaxed_utility)
                        .with_relaxed_latency(relaxed_latency);
                    let mut xs = vec![
                        0.2,
                        1.0,
                        1.5,
                        2.0,
                        3.25,
                        7.0,
                        12.5,
                        23.0,
                        24.0,
                        24.5,
                        30.0,
                        f64::NAN,
                    ];
                    // The precise M/D/c estimator would run a 2^32-step
                    // recurrence at an infinite count, here and in the
                    // reference alike.
                    if (fidelity, latency_model) != (Fidelity::Precise, LatencyModel::MDc) {
                        xs.push(f64::INFINITY);
                    }
                    for (i, job) in p.jobs().iter().enumerate() {
                        for &x in &xs {
                            for d in [0.0, 0.25, 0.9, 1.0, 1.5] {
                                let got = p.expected_utility(i, &[x], d);
                                let direct = direct_expected_utility(job, model, x, d);
                                assert_eq!(
                                    got.to_bits(),
                                    direct.to_bits(),
                                    "{model:?} i={i} x={x} d={d}: {got} vs {direct}"
                                );
                                // Asked again, the same answer.
                                assert_eq!(p.expected_utility(i, &[x], d).to_bits(), got.to_bits());
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn clone_resets_cache_but_not_results() {
        let p = multi_step_problem(Fidelity::Relaxed);
        let warm = p.expected_utility(0, &[5.5], 0.1); // Populates caches.
        let q = p.clone();
        assert_eq!(q.expected_utility(0, &[5.5], 0.1).to_bits(), warm.to_bits());
    }

    #[test]
    fn with_utility_resets_cached_utilities() {
        // The order the benchmark's probes build in: evaluate (which
        // fills the cache under the default sharpness), then override.
        let steep = RelaxedUtility::new(8.0);
        let p = multi_step_problem(Fidelity::Relaxed);
        let (xs, ds) = ([3.5, 2.0], [0.0, 0.2]);
        let flat = p.cluster_value(&xs, &ds);
        let warm = p.with_utility(steep);
        let fresh = multi_step_problem(Fidelity::Relaxed).with_utility(steep);
        let got = warm.cluster_value(&xs, &ds);
        assert_eq!(got.to_bits(), fresh.cluster_value(&xs, &ds).to_bits());
        assert_ne!(got.to_bits(), flat.to_bits(), "the sharpness is read");
    }

    /// The paper's shape — 10 jobs, 20 sampled trajectories of `window`
    /// steps, 32 replicas — at rates a right-sized cluster carries.
    fn paper_shaped_problem(window: usize) -> MultiTenantProblem {
        let mut rng = crate::rng::SplitMix64::new(16);
        let jobs: Vec<JobWorkload> = (0..10)
            .map(|_| {
                let mean = 4.0 + 10.0 * rng.fraction();
                JobWorkload {
                    lambda_trajectories: (0..20)
                        .map(|_| {
                            (0..window)
                                .map(|_| mean * (0.75 + 0.5 * rng.fraction()))
                                .collect()
                        })
                        .collect(),
                    processing_time: 0.180,
                    slo: slo(),
                    priority: 1.0,
                }
            })
            .collect();
        MultiTenantProblem::new(
            jobs,
            ResourceModel::replicas(ReplicaCount::new(32)),
            ClusterObjective::Sum,
            Fidelity::Relaxed,
        )
        .unwrap()
    }

    /// The cache cannot stop paying unnoticed, and no clock is read to
    /// say so: on the paper's shape a default COBYLA solve of `E`
    /// evaluations asks for `10 E` job utilities and computes about a
    /// seventh of them — a coordinate probe moves one job, and a
    /// rejected step returns to a point every job still holds.
    #[test]
    #[cfg_attr(
        miri,
        ignore = "a full default solve over 1,000 table rows; the count is checked natively"
    )]
    fn a_flat_solve_computes_a_fraction_of_the_utilities_it_reads() {
        let n = 10;
        let p = paper_shaped_problem(5);
        let alloc = p.solve(&Cobyla::default(), &[3; 10]).unwrap();
        let computed = p
            .cache
            .utility_misses
            .load(std::sync::atomic::Ordering::Relaxed);
        let read = n * alloc.evals;
        assert!(alloc.evals > 5 * n, "the solve iterated: {}", alloc.evals);
        assert!(
            computed * 10 < read * 4,
            "{computed} job utilities computed for {read} read"
        );
    }

    /// Nor can the met-SLO shortcut: over a default solve of the paper's
    /// shape (20 × 7 steps a job) under a quarter of the steps scored
    /// miss their SLO and reach `powf`; the rest are compared and
    /// counted as 1.
    #[test]
    #[cfg_attr(
        miri,
        ignore = "a full default solve over 1,400 table rows; the count is checked natively"
    )]
    fn a_flat_solve_asks_powf_for_a_fraction_of_its_steps() {
        use crate::evaluate::STEPS_SCORED;
        use crate::utility::POWF_CALLS;
        let p = paper_shaped_problem(7);
        let before = (STEPS_SCORED.get(), POWF_CALLS.get());
        let alloc = p.solve(&Cobyla::default(), &[3; 10]).unwrap();
        assert!(alloc.evals > 50, "the solve iterated: {}", alloc.evals);
        let scored = STEPS_SCORED.get() - before.0;
        let asked = POWF_CALLS.get() - before.1;
        assert!(asked > 0, "the solve visited allocations that miss an SLO");
        assert!(asked * 4 < scored, "{asked} of {scored} steps asked powf");
    }

    /// One evaluator scores every read: a read the tables serve scores
    /// each step once and asks the estimator nothing, and a
    /// drop-adjusted read of the same job asks it once a step and scores
    /// as many.
    #[test]
    #[cfg_attr(miri, ignore = "counts work, which is checked natively")]
    fn a_table_served_read_is_scored_by_the_one_evaluator() {
        use crate::evaluate::{ESTIMATOR_CALLS, STEPS_SCORED};
        let p = paper_shaped_problem(7);
        let steps = 20 * 7;
        let work = |x: f64, d: f64| {
            let before = (STEPS_SCORED.get(), ESTIMATOR_CALLS.get());
            let u = p.expected_utility(0, &[x], d);
            assert!(u > 0.0 && u <= 1.0, "x={x} d={d}: utility {u}");
            (
                STEPS_SCORED.get() - before.0,
                ESTIMATOR_CALLS.get() - before.1,
            )
        };
        for x in [1.0, 2.5, 3.0, 32.0] {
            assert_eq!(work(x, 0.0), (steps, 0), "tabulated at x={x}");
            assert_eq!(work(x, 0.1), (steps, steps), "asked at x={x}");
        }
    }

    /// What a read that leaves the tables costs does not grow with the
    /// job's trajectories: whatever the step count, each of the two
    /// counts bracketing `x` has its knee latency computed at most once
    /// (keyed per distinct rate and count, these jobs filled up to 48
    /// and 480 entries). No clock is read to say so.
    #[test]
    #[cfg_attr(miri, ignore = "counts work, which is checked natively")]
    fn a_drop_adjusted_evaluation_holds_its_knees() {
        use crate::evaluate::KNEE_RECURRENCES;
        for steps in [6, 60] {
            // 4 trajectories from idle to four times what 2.5 replicas
            // carry: steps under and past both counts' knees.
            let job = JobWorkload {
                lambda_trajectories: (0..4)
                    .map(|t| {
                        (0..steps)
                            .map(|s| f64::from(t * steps + s) * 100.0 / f64::from(4 * steps))
                            .collect()
                    })
                    .collect(),
                ..JobWorkload::constant(0.0, 0.10, slo(), 1.0)
            };
            let p = MultiTenantProblem::new(
                vec![job],
                ResourceModel::replicas(ReplicaCount::new(8)),
                ClusterObjective::PenaltySum,
                Fidelity::Relaxed,
            )
            .unwrap();
            for (x, d, knees) in [(2.5, 0.1, 2), (3.0, 0.1, 1), (9.5, 0.0, 2), (2.5, 1.0, 0)] {
                let before = KNEE_RECURRENCES.get();
                let u = p.job_utility(0, &[x], d).utility;
                let computed = KNEE_RECURRENCES.get() - before;
                assert!(u > 0.0 && u <= 1.0, "x={x} d={d}: utility {u}");
                assert_eq!(computed, knees, "{steps} steps at x={x} d={d}");
            }
            // A read the tables serve asks nothing.
            let before = KNEE_RECURRENCES.get();
            p.job_utility(0, &[2.5], 0.0);
            assert_eq!(KNEE_RECURRENCES.get(), before, "{steps} steps");
        }
    }

    proptest::proptest! {
        /// The tables must be invisible: random rates, replica
        /// counts, and drop rates all evaluate bit-identically to the
        /// direct estimator path.
        #[test]
        fn table_path_is_bitwise_invisible(
            rates in proptest::prop::collection::vec(0.0f64..300.0, 1..6),
            x in 1.0f64..40.0,
            d in 0.0f64..1.0,
        ) {
            let jobs = vec![JobWorkload {
                lambda_trajectories: vec![rates],
                processing_time: 0.150,
                slo: slo(),
                priority: 1.0,
            }];
            let p = MultiTenantProblem::new(
                jobs,
                ResourceModel::replicas(ReplicaCount::new(40)),
                ClusterObjective::Sum,
                Fidelity::Relaxed,
            )
            .unwrap();
            let cached = p.expected_utility(0, &[x], d);
            let direct = direct_expected_utility(&p.jobs()[0], p.model, x, d);
            proptest::prop_assert_eq!(cached.to_bits(), direct.to_bits());
        }
    }

    /// Every table entry must be the direct estimator call, bit for bit,
    /// at every replica count up to the quota — inside the knee region,
    /// beyond it, and on rows the estimator rejects — read the way the
    /// utility path reads it: step by step through `steps`.
    fn assert_tables_match_direct(p: &MultiTenantProblem, relaxed: RelaxedLatency) {
        let quota = p.resources().replica_quota().get();
        let tables = p.tables().expect("M/D/c problems are tabulated");
        for (i, job) in p.jobs().iter().enumerate() {
            let (k, pt) = (job.slo.percentile, job.processing_time);
            let rates = job.lambda_trajectories.iter().flatten();
            assert_eq!(tables.steps[i].len(), rates.clone().count());
            for (&raw, &row) in rates.zip(&tables.steps[i]) {
                let lambda = raw.max(0.0);
                let row = tables.rows(i).row(row);
                assert!(row.len() <= quota as usize);
                for n in 1..=quota {
                    let direct = match p.model.fidelity {
                        Fidelity::Relaxed => relaxed.latency(k, pt, lambda, ReplicaCount::new(n)),
                        Fidelity::Precise => {
                            mdc::latency_percentile(k, pt, lambda, ReplicaCount::new(n))
                        }
                    }
                    .unwrap_or(f64::INFINITY);
                    let got = row.get((n - 1) as usize).copied().unwrap_or(pt);
                    assert_eq!(
                        got.to_bits(),
                        direct.to_bits(),
                        "{:?} job {i} rate {raw} n={n}: table {got} vs direct {direct}",
                        p.model.fidelity
                    );
                }
            }
        }
    }

    #[test]
    fn bounded_knee_tables_match_direct_estimators_at_every_count() {
        let quota = if cfg!(miri) { 24 } else { 300 };
        let job = |rates: Vec<f64>, processing_time: f64, percentile: f64| JobWorkload {
            lambda_trajectories: vec![rates],
            processing_time,
            slo: Slo {
                latency: 0.720,
                percentile,
            },
            priority: 1.0,
        };
        for fidelity in [Fidelity::Relaxed, Fidelity::Precise] {
            let jobs = vec![
                // Idle, sub-knee, past the knee, past saturation at the
                // quota, and rates the estimator rejects or clamps.
                job(
                    vec![
                        0.0,
                        5.0,
                        40.0,
                        250.0,
                        1500.0,
                        1e5,
                        -3.0,
                        f64::NAN,
                        f64::INFINITY,
                    ],
                    0.180,
                    0.99,
                ),
                job(vec![3.0, 1875.0, 1900.0], 0.050, 0.5),
                job(vec![12.5, 90.0], 0.090, 0.9999),
                // Invalid percentile and processing time: every row is
                // infinite at every count.
                job(vec![0.0, 10.0, 400.0], 0.150, 1.5),
                job(vec![0.0, 10.0], f64::INFINITY, 0.99),
            ];
            for rho_max in [0.95, 0.6] {
                let relaxed = RelaxedLatency::new(rho_max).unwrap();
                let p = MultiTenantProblem::new(
                    jobs.clone(),
                    ResourceModel::replicas(ReplicaCount::new(quota)),
                    ClusterObjective::Sum,
                    fidelity,
                )
                .unwrap()
                .with_relaxed_latency(relaxed);
                assert_tables_match_direct(&p, relaxed);
                let tables = p.tables().unwrap();
                for i in [3, 4] {
                    // Stored whole: no count of a rejected row is `p`.
                    let rows = tables.starts[i].len() - 1;
                    assert_eq!(tables.stored[i].len(), rows * quota as usize);
                    assert!(tables.stored[i].iter().all(|l| l.is_infinite()));
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(if cfg!(miri) { 2 } else { 32 }))]

        /// Random rates, service times, percentiles and quotas: tables
        /// built over the bounded knee prefix are the direct estimator
        /// at every count.
        #[test]
        fn bounded_knee_tables_are_bitwise_invisible(
            loads in proptest::prop::collection::vec(0.0f64..1.6, 1..5),
            pt in 0.01f64..0.5,
            k in 0.5f64..0.9999,
            quota in 1u32..(if cfg!(miri) { 32 } else { 600 }),
            precise in 0u32..2,
        ) {
            let rates: Vec<f64> = loads.iter().map(|l| l * f64::from(quota) / pt).collect();
            let jobs = vec![JobWorkload {
                lambda_trajectories: vec![rates],
                processing_time: pt,
                slo: Slo { latency: 0.5, percentile: k },
                priority: 1.0,
            }];
            let fidelity = if precise == 1 { Fidelity::Precise } else { Fidelity::Relaxed };
            let p = MultiTenantProblem::new(
                jobs,
                ResourceModel::replicas(ReplicaCount::new(quota)),
                ClusterObjective::Sum,
                fidelity,
            )
            .unwrap();
            assert_tables_match_direct(&p, RelaxedLatency::default());
        }
    }

    /// At whole counts the fractional pool reduction is
    /// `mixed::effective_pool`, to the bit: the same service time and
    /// head count over one to four classes, single-class pools and
    /// empty ones included.
    #[test]
    fn pool_is_the_effective_pool_at_whole_counts() {
        use crate::types::ReplicaClass;
        use faro_queueing::mixed::effective_pool;
        let speeds = [1.0, 2.5, 0.7, 3.0];
        let counts_of = [0u32, 1, 3, 17];
        for n_classes in 1..=MAX_CLASSES {
            let classes = speeds[..n_classes]
                .iter()
                .enumerate()
                .map(|(c, &speed)| ReplicaClass::cpu(format!("c{c}"), speed))
                .collect();
            let problem = MultiTenantProblem::new(
                vec![JobWorkload::constant(10.0, 0.18, slo(), 1.0)],
                ResourceModel::heterogeneous(classes, 64.0, 0.0, 64.0),
                ClusterObjective::Sum,
                Fidelity::Relaxed,
            )
            .unwrap();
            let multipliers: Vec<f64> = problem.resources.classes.iter().map(|c| c.speed).collect();
            for code in 0..4usize.pow(n_classes as u32) {
                let counts: Vec<u32> = (0..n_classes)
                    .map(|c| counts_of[code / 4usize.pow(c as u32) % 4])
                    .collect();
                let xs: Vec<f64> = counts.iter().map(|&n| f64::from(n)).collect();
                for p in [0.18, 0.05, 1.3] {
                    let got = problem.pool(p, &xs);
                    let want = effective_pool(p, &multipliers, &counts)
                        .ok()
                        .map(|pool| (pool.service_time, pool.servers.as_f64()));
                    assert_eq!(
                        got.map(|(s, n)| [s.to_bits(), n.to_bits()]),
                        want.map(|(s, n)| [s.to_bits(), n.to_bits()]),
                        "p={p} counts={counts:?} speeds={multipliers:?}: {got:?} vs {want:?}"
                    );
                }
            }
        }
    }

    /// The quadratic cannot come back unnoticed: at the top-level split
    /// of the 1,000-job sharded benchmark (16 pseudo-jobs, each ~62
    /// jobs of 10-50 req/s at 50 ms, quota 3,200) a job's knee
    /// latencies — one Erlang recurrence of length `n` each — are
    /// computed as far as its offered load asks, not as far as the
    /// quota allows.
    #[test]
    fn split_problem_knee_prefix_is_bounded_by_load_not_quota() {
        let quota = ReplicaCount::new(3_200);
        let mut rng = crate::rng::SplitMix64::new(7);
        let jobs: Vec<JobWorkload> = (0..16)
            .map(|_| {
                let rate: f64 = (0..62).map(|_| 10.0 + 40.0 * rng.fraction()).sum();
                JobWorkload::constant(rate, 0.050, slo(), 62.0)
            })
            .collect();
        let p = MultiTenantProblem::new(
            jobs,
            ResourceModel::replicas(quota),
            ClusterObjective::Sum,
            Fidelity::Relaxed,
        )
        .unwrap();
        for job in p.jobs() {
            let knees = p.model.knee_prefix(job, quota).len();
            assert!(knees > 0, "a pseudo-job's rate is past the knee somewhere");
            assert!(
                knees * 20 < quota.get() as usize,
                "knee prefix {knees} at quota {quota}"
            );
            // Recurrence steps: n(n+1)/2 over the prefix against the
            // same over the quota.
            assert!(knees * knees * 400 < (quota.get() as usize).pow(2));
        }
    }

    /// The rows cannot grow back to the quota unnoticed, and no clock
    /// is read to say so: on a shard shaped like the sharded 1,000-job
    /// benchmark's (62 jobs of 10-50 req/s at 50 ms, 20 sampled
    /// trajectories of 7 steps, a budget of 200 replicas) the tables
    /// store under 5% of `rows × quota` entries, since a row ends at
    /// its first zero-wait count, a few servers past its offered load.
    #[test]
    fn a_sharded_shape_stores_a_small_share_of_its_rows() {
        let quota = 200;
        let mut rng = crate::rng::SplitMix64::new(45);
        let jobs: Vec<JobWorkload> = (0..62)
            .map(|_| {
                let base = 10.0 + 40.0 * rng.fraction();
                JobWorkload {
                    lambda_trajectories: (0..20)
                        .map(|_| {
                            (0..7)
                                .map(|_| base * (0.9 + 0.2 * rng.fraction()))
                                .collect()
                        })
                        .collect(),
                    ..JobWorkload::constant(0.0, 0.050, slo(), 1.0)
                }
            })
            .collect();
        let p = MultiTenantProblem::new(
            jobs,
            ResourceModel::replicas(ReplicaCount::new(quota)),
            ClusterObjective::Sum,
            Fidelity::Relaxed,
        )
        .unwrap();
        let tables = p.tables().expect("tabulated");
        let rows: usize = tables.starts.iter().map(|s| s.len() - 1).sum();
        let stored: usize = tables.stored.iter().map(Vec::len).sum();
        assert_eq!(rows, 62 * 20 * 7, "every sampled rate is its own row");
        assert!(
            stored * 20 < rows * quota as usize,
            "{stored} entries stored for {rows} rows of {quota}"
        );
    }

    /// The evaluator's table arm against `RelaxedUtility::value` on rows
    /// no estimator would fill — entries at, one ulp either side of and
    /// far from the target, zero, negative, NaN and both infinities —
    /// under sharpnesses and targets the shortcut must stand aside for
    /// (the field is public: zero, negative, NaN; an infinite or NaN
    /// target), at whole and fractional counts. A count past a row's
    /// stored prefix and inside the width reads the service time; a
    /// count past the width is the estimator-only read, bit for bit.
    #[test]
    fn tabulated_scoring_is_the_utility_of_every_entry_bitwise() {
        let p = 0.18;
        let targets = [0.72, 0.0, -1.0, f64::INFINITY, f64::NAN];
        let alphas = [4.0, 0.5, 1e-300, f64::INFINITY, 0.0, -0.0, -2.0, f64::NAN];
        for target in targets {
            let t = if target.is_finite() { target } else { 0.72 };
            let (below, above) = (
                f64::from_bits(0.72f64.to_bits() - 1),
                f64::from_bits(0.72f64.to_bits() + 1),
            );
            let prefixes: [&[f64]; 8] = [
                &[t, t, t, t],
                &[below, 0.72, above, 0.18],
                &[3.0, 1.5, 0.9, 0.5],
                &[f64::INFINITY, f64::INFINITY, 2.0, 0.7],
                &[f64::NAN, 0.3, f64::NAN, f64::NEG_INFINITY],
                &[0.0, -0.0, -5.0, f64::MIN_POSITIVE],
                // Idle, and waiting at one and two replicas only.
                &[],
                &[f64::INFINITY, 0.9],
            ];
            let rows = prefixes.concat();
            let starts: Vec<u32> = std::iter::once(0)
                .chain(prefixes.iter().scan(0, |end, row| {
                    *end += row.len() as u32;
                    Some(*end)
                }))
                .collect();
            let steps: [u32; 10] = [0, 1, 2, 3, 4, 5, 1, 0, 6, 7];
            for alpha in alphas {
                let utility = RelaxedUtility { alpha };
                let model = Model {
                    relaxed_utility: utility,
                    ..Model::new(Fidelity::Relaxed)
                };
                let job = JobWorkload {
                    slo: Slo {
                        latency: target,
                        percentile: 0.99,
                    },
                    ..JobWorkload::constant(1.0, p, slo(), 1.0)
                };
                let read = |x: f64, table| model.expected_utility(&job, p, x, 0.0, table);
                // At width 4 every count a row answers for is stored
                // but the short rows'; at width 6 counts 5 and 6 are
                // past every prefix.
                for (width, tabulated, asked) in [
                    (
                        4,
                        &[0.5, 1.0, 1.5, 2.0, 2.75, 3.0, 3.999, 4.0][..],
                        [4.5, 7.0],
                    ),
                    (6, &[0.5, 2.75, 4.0, 4.5, 5.0, 5.25, 6.0][..], [6.5, 7.0]),
                ] {
                    let table = Rows {
                        rows: &rows,
                        starts: &starts,
                        steps: &steps,
                        width,
                    };
                    for &x in tabulated {
                        let got = read(x, Some(table));
                        let x: f64 = x.max(1.0);
                        let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
                        let mut sum = 0.0;
                        for &id in &steps {
                            let row = prefixes[id as usize];
                            let at = |n: usize| row.get(n - 1).copied().unwrap_or(p);
                            let (l_lo, l_hi) = (at(lo), at(hi));
                            let l = if lo == hi {
                                l_lo
                            } else if l_lo.is_infinite() || l_hi.is_infinite() {
                                f64::INFINITY
                            } else {
                                l_lo + (l_hi - l_lo) * (x - x.floor())
                            };
                            sum += utility.value(l, target);
                        }
                        let want = sum / steps.len() as f64;
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "width={width} target={target} alpha={alpha} x={x}: {got} vs {want}"
                        );
                    }
                    for x in asked.into_iter().chain([f64::INFINITY]) {
                        let (got, asked) = (read(x, Some(table)), read(x, None));
                        assert_eq!(
                            got.to_bits(),
                            asked.to_bits(),
                            "width={width} target={target} alpha={alpha} x={x}: {got} vs {asked}"
                        );
                    }
                }
            }
        }
    }

    /// Through the public path: a target set to exactly the latency the
    /// estimator gives one of the job's steps, at a whole and at a
    /// fractional count, under sharpnesses on both sides of the guard.
    #[test]
    fn a_step_exactly_at_its_target_matches_the_direct_path_bitwise() {
        let base = multi_step_problem(Fidelity::Relaxed);
        let job = &base.jobs()[0];
        let (k, pt) = (job.slo.percentile, job.processing_time);
        for (lambda, x) in [(40.0, 9.0), (40.0, 8.5), (90.0, 17.25), (5.0, 1.0)] {
            let at = base
                .model
                .relaxed_latency
                .latency_fractional(k, pt, lambda, x)
                .unwrap();
            assert!(at.is_finite() && at > pt, "a queueing latency: {at}");
            let mut jobs = base.jobs().to_vec();
            jobs[0].slo.latency = at;
            for alpha in [4.0, 0.5, 0.0, -2.0, f64::NAN] {
                let utility = RelaxedUtility { alpha };
                let p = MultiTenantProblem::new(
                    jobs.clone(),
                    base.resources().clone(),
                    ClusterObjective::Sum,
                    Fidelity::Relaxed,
                )
                .unwrap()
                .with_utility(utility);
                let model = Model {
                    relaxed_utility: utility,
                    ..p.model
                };
                for probe in [x, x.floor(), x.ceil(), x + 0.125, 1.0, 24.0] {
                    let got = p.expected_utility(0, &[probe], 0.0);
                    let direct = direct_expected_utility(&p.jobs()[0], model, probe, 0.0);
                    assert_eq!(
                        got.to_bits(),
                        direct.to_bits(),
                        "alpha={alpha} lambda={lambda} target={at} x={probe}"
                    );
                }
            }
        }
    }

    /// The table budget counts the entries the rows store: idle rows
    /// store none, however many and however wide, and rows the queue
    /// saturates at every count store the whole quota, so rows one past
    /// the budget leave every read to the evaluator, with the same
    /// answer, and are refused before any of them is stored.
    #[test]
    #[cfg_attr(miri, ignore = "65,536-count rows; the budget is checked natively")]
    fn table_budget_counts_stored_entries() {
        let quota = 1usize << 16;
        let fitting_rows = MAX_TABLE_ENTRIES / quota;
        let problem = |rates: Vec<f64>| {
            let job = JobWorkload {
                lambda_trajectories: vec![rates],
                ..JobWorkload::constant(0.0, 0.180, slo(), 1.0)
            };
            MultiTenantProblem::new(
                vec![job],
                ResourceModel::replicas(ReplicaCount::new(quota as u32)),
                ClusterObjective::Sum,
                Fidelity::Precise,
            )
            .unwrap()
        };
        let agrees = |p: &MultiTenantProblem| {
            let got = p.expected_utility(0, &[9.5], 0.0);
            let direct = direct_expected_utility(&p.jobs()[0], p.model, 9.5, 0.0);
            assert_eq!(got.to_bits(), direct.to_bits());
        };
        // Four budgets' worth of full-width rows, none of them stored.
        let idle = problem((0..4 * fitting_rows).map(|s| s as f64 * 1e-6).collect());
        let tables = idle.tables().expect("idle rows store nothing");
        assert_eq!(tables.starts[0].len(), 4 * fitting_rows + 1);
        assert!(tables.stored[0].is_empty());
        agrees(&idle);
        // Saturated rows, each stored whole: exactly the budget fits,
        // one row more does not.
        for (rows, fits) in [(fitting_rows, true), (fitting_rows + 1, false)] {
            let saturated = problem((0..rows).map(|s| 1e7 + s as f64).collect());
            let before = TABLE_ENTRIES_STORED.get();
            match saturated.tables() {
                Some(tables) => assert_eq!(tables.stored[0].len(), MAX_TABLE_ENTRIES),
                None => {
                    assert!(!fits, "{rows} rows");
                    assert_eq!(
                        TABLE_ENTRIES_STORED.get(),
                        before,
                        "the refusal stored rows"
                    );
                }
            }
            assert_eq!(saturated.tables().is_some(), fits, "{rows} rows");
            agrees(&saturated);
        }
    }

    #[test]
    fn upper_bound_model_overprovisions() {
        // Paper Sec. 3.3: the upper-bound estimator demands more
        // replicas than M/D/c for the same utility.
        let mk = |model| {
            let jobs = vec![JobWorkload::constant(
                40.0,
                0.150,
                Slo {
                    latency: 0.6,
                    percentile: 0.9999,
                },
                1.0,
            )];
            MultiTenantProblem::new(
                jobs,
                ResourceModel::replicas(ReplicaCount::new(32)),
                ClusterObjective::Sum,
                Fidelity::Relaxed,
            )
            .unwrap()
            .with_latency_model(model)
        };
        let mdc_p = mk(LatencyModel::MDc);
        let ub_p = mk(LatencyModel::UpperBound);
        let first_full = |p: &MultiTenantProblem| {
            (1..=32)
                .find(|&x| p.expected_utility(0, &[f64::from(x)], 0.0) > 1.0 - 1e-9)
                .unwrap_or(33)
        };
        assert!(first_full(&mdc_p) < first_full(&ub_p));
    }

    /// The dedup the table build ran before [`RateIndex`]: one ordered
    /// map per job, keyed on the clamped rate's bits.
    fn btree_dedup(job: &JobWorkload) -> (Vec<f64>, Vec<u32>) {
        let mut by_rate: std::collections::BTreeMap<u64, u32> = std::collections::BTreeMap::new();
        let mut rates: Vec<f64> = Vec::new();
        let step_rows = job
            .rates()
            .map(|raw| {
                let lambda = raw.max(0.0);
                *by_rate.entry(lambda.to_bits()).or_insert_with(|| {
                    rates.push(lambda);
                    (rates.len() - 1) as u32
                })
            })
            .collect();
        (rates, step_rows)
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    proptest::proptest! {
        /// One index, reused job after job, finds each job's distinct
        /// rates and step rows as a fresh ordered map does: repeats,
        /// signed zeros, negatives, NaN and infinities, over
        /// trajectories of unequal (and zero) length.
        #[test]
        fn rate_index_dedups_as_an_ordered_map_does(
            picks in proptest::prop::collection::vec(
                proptest::prop::collection::vec(
                    proptest::prop::collection::vec((0usize..16, -5.0f64..300.0), 0..24),
                    0..4,
                ),
                1..5,
            ),
        ) {
            const SPECIAL: [f64; 10] = [
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                -0.0,
                0.0,
                -3.5,
                1.5,
                1.5 + f64::EPSILON,
                7.25,
                300.0,
            ];
            let jobs: Vec<JobWorkload> = picks
                .into_iter()
                .map(|trajectories| JobWorkload {
                    lambda_trajectories: trajectories
                        .into_iter()
                        .map(|steps| {
                            let rate = |(pick, x): (usize, f64)| SPECIAL.get(pick).copied().unwrap_or(x);
                            steps.into_iter().map(rate).collect()
                        })
                        .collect(),
                    ..JobWorkload::constant(0.0, 0.180, slo(), 1.0)
                })
                .collect();
            let most = jobs.iter().map(JobWorkload::n_steps).max().unwrap_or(0);
            let mut index = RateIndex::for_steps(most);
            for job in &jobs {
                let (rates, step_rows) = index.dedup(job);
                let (want_rates, want_rows) = btree_dedup(job);
                proptest::prop_assert_eq!(bits(&rates), bits(&want_rates));
                proptest::prop_assert_eq!(step_rows, want_rows);
            }
        }
    }

    /// A paper-shaped problem's tables (ten jobs of sixteen sampled
    /// 15-step trajectories, half of them on a coarse grid so rates
    /// repeat) are, entry for entry, the tables the ordered-map dedup
    /// fills.
    #[test]
    fn paper_shaped_tables_are_the_ordered_map_tables() {
        let mut rng = crate::rng::SplitMix64::new(11);
        let jobs: Vec<JobWorkload> = (0..10)
            .map(|j| {
                let level = 2.0 + 6.0 * f64::from(j);
                let trajectories = (0..16)
                    .map(|_| {
                        (0..15)
                            .map(|_| {
                                let rate = level * (0.7 + 0.6 * rng.fraction());
                                if j % 2 == 0 {
                                    (rate * 4.0).round() / 4.0
                                } else {
                                    rate
                                }
                            })
                            .collect()
                    })
                    .collect();
                JobWorkload {
                    lambda_trajectories: trajectories,
                    ..JobWorkload::constant(0.0, 0.180, slo(), 1.0)
                }
            })
            .collect();
        for fidelity in [Fidelity::Precise, Fidelity::Relaxed] {
            let p = MultiTenantProblem::new(
                jobs.clone(),
                ResourceModel::replicas(ReplicaCount::new(64)),
                ClusterObjective::Sum,
                fidelity,
            )
            .unwrap();
            let got = p.tables().expect("inside the budget");
            let quota = p.resources.replica_quota();
            let mut scratch = vec![0.0; got.quota];
            assert_eq!(got.quota, 64);
            for (i, job) in p.jobs().iter().enumerate() {
                let (rates, steps) = btree_dedup(job);
                let knees = p.model.knee_prefix(job, quota);
                let (mut stored, mut starts) = (Vec::new(), vec![0u32]);
                for &lambda in &rates {
                    let (k, t) = (job.slo.percentile, job.processing_time);
                    let len = p.model.fill_latency_row(k, t, lambda, &mut scratch, &knees);
                    stored.extend_from_slice(&scratch[..len]);
                    starts.push(stored.len() as u32);
                }
                if i % 2 == 0 {
                    assert!(rates.len() < job.n_steps(), "job {i} repeats rates");
                }
                assert_eq!(bits(&got.stored[i]), bits(&stored), "{fidelity:?} job {i}");
                assert_eq!(got.starts[i], starts, "{fidelity:?} job {i}");
                assert_eq!(got.steps[i], steps, "{fidelity:?} job {i}");
            }
        }
    }
}
