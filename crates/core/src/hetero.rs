//! The class-aware multi-tenant optimization over heterogeneous
//! hardware.
//!
//! Where [`crate::opt::MultiTenantProblem`] decides one replica count
//! per job, this module decides a *(class, count)* vector per job: the
//! decision variables are `x_{j,c} >= 0` fractional replicas of class
//! `c` for job `j` (plus the usual drop rates for Penalty objectives).
//! A job's latency is scored by reducing its mixed pool to an
//! effective homogeneous M/D/c queue (the harmonic capacity-weighted
//! mean of the per-class service times — see [`faro_queueing::mixed`]),
//! and capacity is the vector quota `[vCPU, GPU, RAM]` with
//! per-class costs from [`ReplicaClass::cost`].
//!
//! All this module knows about scoring is that reduction, `counts ->
//! (p_eff, total)`: the pool is then scored by the evaluator of
//! `evaluate.rs`, the one [`crate::opt::MultiTenantProblem`] asks with
//! `(p, x)`, under whatever model the solve was given (the upper-bound
//! estimator included — a mixed pool's burst completes in
//! `p_eff * kappa / N`). Unlike the homogeneous path, latency rows
//! cannot be precomputed per (job, rate): `p_eff` varies continuously
//! with the class mix, so there is no finite axis to tabulate, and
//! every read is asked. Single-class pools keep `p_eff = p * m_c`
//! exactly, so a one-class cluster reproduces the homogeneous estimates
//! bit-for-bit (which is why [`crate::faro::FaroAutoscaler`] only routes
//! here when two or more classes are configured).
//!
//! The post-processing mirrors the homogeneous pipeline with a class
//! axis:
//!
//! - [`HeteroProblem::integerize`] rounds each `x_{j,c}`, floors every
//!   job at one replica, and while any capacity dimension is
//!   overcommitted removes the single replica (job, class) whose class
//!   consumes the most-overcommitted dimension at the least cluster
//!   objective loss.
//! - [`HeteroProblem::shrink`] removes replicas from jobs at full
//!   predicted utility while the cluster objective is unchanged,
//!   draining the *slowest* class first so the fast capacity freed
//!   last is the capacity other jobs actually want.

use crate::error::{Error, Result};
use crate::evaluate::{validate, Model};
use crate::objective::{ClusterObjective, JobUtility};
use crate::opt::{Fidelity, JobWorkload};
use crate::types::{ClassAlloc, ReplicaClass, ResourceModel, MAX_CLASSES, RESOURCE_DIMS};
use crate::utility::RelaxedUtility;
use faro_queueing::RelaxedLatency;
use faro_solver::{Problem, Solution, Solver};

/// The assembled class-aware optimization problem.
#[derive(Debug, Clone)]
pub struct HeteroProblem {
    jobs: Vec<JobWorkload>,
    resources: ResourceModel,
    objective: ClusterObjective,
    model: Model,
    /// `allowed[job][class]`: whether the job may run on the class
    /// (from [`crate::types::JobSpec::allows_class`]).
    allowed: Vec<Vec<bool>>,
}

#[cfg(test)]
thread_local! {
    /// Pool reductions this thread's evaluations have performed.
    static POOL_REDUCTIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl HeteroProblem {
    /// Builds a class-aware problem over the given jobs and resources,
    /// under the paper's default model. Every job is initially allowed
    /// on every class; restrict with [`HeteroProblem::with_affinity`].
    ///
    /// # Errors
    ///
    /// Fails when there are no jobs, a job has no trajectory or
    /// processing time, the resource model has no class table or one
    /// longer than [`MAX_CLASSES`], a class has a non-positive
    /// service-time multiplier, or the quota cannot host one replica per
    /// job.
    pub fn new(
        jobs: Vec<JobWorkload>,
        resources: ResourceModel,
        objective: ClusterObjective,
        fidelity: Fidelity,
    ) -> Result<Self> {
        Self::with_model(jobs, resources, objective, Model::new(fidelity))
    }

    /// [`HeteroProblem::new`] under a given model.
    pub(crate) fn with_model(
        jobs: Vec<JobWorkload>,
        resources: ResourceModel,
        objective: ClusterObjective,
        model: Model,
    ) -> Result<Self> {
        validate(&jobs, &resources)?;
        if !resources.has_classes() {
            return Err(Error::InvalidSnapshot(
                "hetero solve needs a replica class table".into(),
            ));
        }
        if resources.n_classes() > MAX_CLASSES {
            return Err(Error::InvalidSnapshot(format!(
                "{} replica classes exceed the {MAX_CLASSES} a decision can carry",
                resources.n_classes()
            )));
        }
        for class in &resources.classes {
            if !(class.speed.is_finite() && class.speed > 0.0) {
                return Err(Error::InvalidSnapshot(format!(
                    "class {} has service-time multiplier {}",
                    class.name, class.speed
                )));
            }
        }
        let allowed = vec![vec![true; resources.n_classes()]; jobs.len()];
        Ok(Self {
            jobs,
            resources,
            objective,
            model,
            allowed,
        })
    }

    /// Overrides the relaxed utility sharpness.
    pub fn with_utility(mut self, u: RelaxedUtility) -> Self {
        self.model.relaxed_utility = u;
        self
    }

    /// Overrides the relaxed latency knee.
    pub fn with_relaxed_latency(mut self, l: RelaxedLatency) -> Self {
        self.model.relaxed_latency = l;
        self
    }

    /// Restricts which classes each job may run on
    /// (`masks[job][class]`).
    ///
    /// # Errors
    ///
    /// Fails when the mask dimensions do not match the problem or a
    /// job is left with no allowed class.
    pub fn with_affinity(mut self, masks: Vec<Vec<bool>>) -> Result<Self> {
        if masks.len() != self.jobs.len()
            || masks.iter().any(|m| m.len() != self.resources.n_classes())
        {
            return Err(Error::InvalidSnapshot(format!(
                "affinity mask shape {}x{} does not match {} jobs x {} classes",
                masks.len(),
                masks.first().map_or(0, Vec::len),
                self.jobs.len(),
                self.resources.n_classes()
            )));
        }
        for (i, mask) in masks.iter().enumerate() {
            if !mask.iter().any(|&a| a) {
                return Err(Error::InvalidSnapshot(format!(
                    "job {i} is not allowed on any replica class"
                )));
            }
        }
        self.allowed = masks;
        Ok(self)
    }

    /// Number of jobs.
    pub fn n_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Number of replica classes.
    pub fn n_classes(&self) -> usize {
        self.resources.n_classes()
    }

    /// The resource model in use.
    pub fn resources(&self) -> &ResourceModel {
        &self.resources
    }

    /// The class table, fastest (lowest multiplier) first, as
    /// `(class index, class)` pairs. Ties break on the lower index.
    fn classes_by_speed(&self) -> Vec<(usize, &ReplicaClass)> {
        let mut order: Vec<(usize, &ReplicaClass)> =
            self.resources.classes.iter().enumerate().collect();
        order.sort_by(|a, b| {
            a.1.speed
                .partial_cmp(&b.1.speed)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        order
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
            // Single-class pools skip the aggregation round-trip so the
            // reference class stays bit-identical to the homogeneous
            // estimator.
            1 => Some((p * speed, total)),
            _ => Some((total / rate, total)),
        }
    }

    /// Expected utility of job `i` at fractional per-class counts,
    /// averaged over trajectories and window steps, before the drop
    /// multiplier. An empty pool serves nothing.
    pub fn expected_utility(&self, i: usize, counts: &[f64], drop_rate: f64) -> f64 {
        let job = &self.jobs[i];
        match self.pool(job.processing_time, counts) {
            Some((p_eff, total)) => self.model.expected_utility(job, p_eff, total, drop_rate),
            None => 0.0,
        }
    }

    /// Per-job utility record at a fractional per-class allocation.
    fn job_utility(&self, i: usize, counts: &[f64], d: f64) -> JobUtility {
        let u = self.expected_utility(i, counts, d);
        self.model.record(&self.jobs[i], u, d)
    }

    /// Per-job utility record at an integer per-class allocation.
    fn job_utility_alloc(&self, i: usize, alloc: &ClassAlloc, d: f64) -> JobUtility {
        let mut counts = [0.0; MAX_CLASSES];
        for (x, &n) in counts.iter_mut().zip(alloc.as_slice()) {
            *x = f64::from(n);
        }
        self.job_utility(i, &counts[..alloc.n_classes()], d)
    }

    /// Cluster objective value (maximize convention) at a flat
    /// `n_jobs * n_classes` count vector. `drops` may be empty when the
    /// objective does not use drop rates.
    pub fn cluster_value(&self, flat: &[f64], drops: &[f64]) -> f64 {
        let nc = self.n_classes();
        let utilities: Vec<JobUtility> = (0..self.jobs.len())
            .map(|i| {
                let d = drops.get(i).copied().unwrap_or(0.0);
                self.job_utility(i, &flat[i * nc..(i + 1) * nc], d)
            })
            .collect();
        self.objective.aggregate(&utilities)
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

    /// Seeds the solver start point: each job's current total placed
    /// into its allowed classes fastest-first, spilling a class when it
    /// alone could not host the remainder.
    fn seed(&self, current: &[u32]) -> Vec<f64> {
        let nc = self.n_classes();
        let order = self.classes_by_speed();
        let mut x0 = vec![0.0; self.jobs.len() * nc];
        for (j, slot) in x0.chunks_mut(nc).enumerate() {
            let mut remaining = f64::from(current.get(j).copied().unwrap_or(1).max(1));
            let mut last_allowed = None;
            for &(c, _) in &order {
                if !self.allowed[j][c] {
                    continue;
                }
                last_allowed = Some(c);
                let room = self.resources.class_quota(c).as_f64();
                let take = remaining.min(room);
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

    /// Solves the continuous class-aware problem with the given
    /// solver, starting from the current per-job replica totals.
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn solve(&self, solver: &dyn Solver, current: &[u32]) -> Result<HeteroAllocation> {
        let n = self.jobs.len();
        let mut x0 = self.seed(current);
        if self.objective.uses_drop_rates() {
            x0.extend(std::iter::repeat_n(0.0, n));
        }
        let adapter = HeteroAdapter { inner: self };
        let sol: Solution = solver.solve(&adapter, &x0)?;
        let (xs, ds) = self.split_vars(&sol.x);
        Ok(HeteroAllocation {
            counts: xs.to_vec(),
            drop_rates: if ds.is_empty() {
                vec![0.0; n]
            } else {
                ds.to_vec()
            },
            objective_value: -sol.objective,
            evals: sol.evals,
        })
    }

    /// Converts a continuous class-aware allocation into integer
    /// per-class counts: round each `x_{j,c}` to nearest, floor every
    /// job at one replica (on its fastest allowed class), and while any
    /// capacity dimension is overcommitted remove the replica whose
    /// class consumes the most-overcommitted dimension at the least
    /// cluster objective loss (same patched-utility incremental scoring
    /// as the homogeneous `integerize`).
    pub fn integerize(&self, alloc: &HeteroAllocation) -> Vec<ClassAlloc> {
        let n = self.jobs.len();
        let nc = self.n_classes();
        let order = self.classes_by_speed();
        let mut allocs: Vec<ClassAlloc> = (0..n)
            .map(|j| {
                let mut a = ClassAlloc::zero(nc);
                for c in 0..nc {
                    let x = alloc.counts[j * nc + c];
                    a.set(c, x.round().max(0.0) as u32);
                }
                if a.total() == 0 {
                    let fastest = order
                        .iter()
                        .find(|&&(c, _)| self.allowed[j][c])
                        .map_or(0, |&(c, _)| c);
                    a.set(fastest, 1);
                }
                a
            })
            .collect();
        let drop_of = |j: usize| alloc.drop_rates.get(j).copied().unwrap_or(0.0);
        let mut utils: Vec<JobUtility> = (0..n)
            .map(|j| self.job_utility_alloc(j, &allocs[j], drop_of(j)))
            .collect();
        loop {
            let mut usage = [0.0; RESOURCE_DIMS];
            for a in &allocs {
                for (u, v) in usage.iter_mut().zip(self.resources.usage_of(a)) {
                    *u += v;
                }
            }
            if self.resources.fits(&usage) {
                break;
            }
            let caps = self.resources.capacities();
            let dim = (0..RESOURCE_DIMS)
                .max_by(|&a, &b| {
                    (usage[a] - caps[a])
                        .partial_cmp(&(usage[b] - caps[b]))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .unwrap_or(0);
            let before = self.objective.aggregate(&utils);
            let mut best: Option<(usize, usize, f64, JobUtility)> = None;
            for j in 0..n {
                if allocs[j].total() <= 1 {
                    continue;
                }
                for c in 0..nc {
                    if allocs[j].count(c) == 0 || self.resources.classes[c].cost()[dim] <= 0.0 {
                        continue;
                    }
                    let mut cand_alloc = allocs[j];
                    cand_alloc.add(c, -1);
                    let cand = self.job_utility_alloc(j, &cand_alloc, drop_of(j));
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
                // let vector admission arbitrate, as the homogeneous
                // pipeline does.
                None => break,
            }
        }
        allocs
    }

    /// Stage-3 shrinking with a class axis: iteratively removes
    /// replicas from jobs at full predicted utility while the cluster
    /// objective stays unchanged, draining the slowest class first.
    pub fn shrink(&self, allocs: &mut [ClassAlloc], drops: &[f64]) {
        let eps = 1e-9;
        let drop_of = |j: usize| drops.get(j).copied().unwrap_or(0.0);
        let mut utils: Vec<JobUtility> = (0..allocs.len())
            .map(|j| self.job_utility_alloc(j, &allocs[j], drop_of(j)))
            .collect();
        let mut order = self.classes_by_speed();
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
                for &(c, _) in &order {
                    if allocs[j].count(c) == 0 {
                        continue;
                    }
                    let mut cand_alloc = allocs[j];
                    cand_alloc.add(c, -1);
                    let cand = self.job_utility_alloc(j, &cand_alloc, drop_of(j));
                    let saved = std::mem::replace(&mut utils[j], cand);
                    let after = self.objective.aggregate(&utils);
                    if after >= before - eps {
                        allocs[j] = cand_alloc;
                        continue 'job;
                    }
                    utils[j] = saved;
                }
                break; // No class can give one up for free.
            }
        }
    }
}

/// Result of the continuous class-aware solve.
#[derive(Debug, Clone, PartialEq)]
pub struct HeteroAllocation {
    /// Fractional per-class replica counts, flattened
    /// `job * n_classes + class`.
    pub counts: Vec<f64>,
    /// Drop rates per job (zero when unused).
    pub drop_rates: Vec<f64>,
    /// Cluster objective at the solution (maximize convention).
    pub objective_value: f64,
    /// Function evaluations spent.
    pub evals: usize,
}

/// Adapts [`HeteroProblem`] to the solver's minimize convention.
struct HeteroAdapter<'a> {
    inner: &'a HeteroProblem,
}

impl Problem for HeteroAdapter<'_> {
    fn dim(&self) -> usize {
        let nx = self.inner.jobs.len() * self.inner.n_classes();
        if self.inner.objective.uses_drop_rates() {
            nx + self.inner.jobs.len()
        } else {
            nx
        }
    }

    fn objective(&self, v: &[f64]) -> f64 {
        let (xs, ds) = self.inner.split_vars(v);
        -self.inner.cluster_value(xs, ds)
    }

    fn num_constraints(&self) -> usize {
        // One per capacity dimension plus one "at least one replica"
        // floor per job.
        RESOURCE_DIMS + self.inner.jobs.len()
    }

    fn constraints(&self, v: &[f64], out: &mut [f64]) {
        let (xs, _) = self.inner.split_vars(v);
        let r = &self.inner.resources;
        let nc = self.inner.n_classes();
        let caps = r.capacities();
        let mut usage = [0.0; RESOURCE_DIMS];
        for (j, counts) in xs.chunks(nc).enumerate() {
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
        for d in 0..RESOURCE_DIMS {
            out[d] = caps[d] - usage[d];
        }
    }

    fn bounds(&self) -> Vec<(f64, f64)> {
        let r = &self.inner.resources;
        let nc = self.inner.n_classes();
        let mut b = Vec::with_capacity(self.dim());
        for j in 0..self.inner.jobs.len() {
            for c in 0..nc {
                if self.inner.allowed[j][c] {
                    b.push((0.0, r.class_quota(c).as_f64()));
                } else {
                    b.push((0.0, 0.0));
                }
            }
        }
        if self.inner.objective.uses_drop_rates() {
            b.extend(std::iter::repeat_n((0.0, 1.0), self.inner.jobs.len()));
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::{ESTIMATOR_CALLS, KNEE_RECURRENCES, STEPS_SCORED};
    use crate::opt::LatencyModel;
    use crate::types::Slo;
    use crate::units::ReplicaCount;
    use crate::utility::POWF_CALLS;
    use faro_queueing::upper_bound;
    use faro_solver::Cobyla;

    fn slo(latency: f64) -> Slo {
        Slo {
            latency,
            percentile: 0.99,
        }
    }

    fn gpu_cpu_resources(gpus: f64, extra_cpus: f64) -> ResourceModel {
        ResourceModel::heterogeneous(
            vec![ReplicaClass::gpu("gpu"), ReplicaClass::cpu("cpu", 3.0)],
            gpus + extra_cpus,
            gpus,
            4.0 * gpus + extra_cpus,
        )
    }

    #[test]
    fn validation_rejects_bad_input() {
        let r = gpu_cpu_resources(4.0, 4.0);
        assert!(
            HeteroProblem::new(vec![], r.clone(), ClusterObjective::Sum, Fidelity::Relaxed)
                .is_err()
        );
        let job = JobWorkload::constant(5.0, 0.15, slo(0.6), 1.0);
        assert!(HeteroProblem::new(
            vec![job.clone()],
            ResourceModel::replicas(ReplicaCount::new(8)),
            ClusterObjective::Sum,
            Fidelity::Relaxed
        )
        .is_err());
        let p = HeteroProblem::new(
            vec![job.clone(), job],
            r,
            ClusterObjective::Sum,
            Fidelity::Relaxed,
        )
        .unwrap();
        // A job stripped of every class is rejected.
        assert!(p
            .with_affinity(vec![vec![true, true], vec![false, false]])
            .is_err());
        // A fifth class has no slot in a `ClassAlloc`: its replicas
        // would be dropped on the way out of `integerize`.
        let five = (0..=MAX_CLASSES)
            .map(|c| ReplicaClass::cpu(format!("cpu{c}"), 1.0 + c as f64))
            .collect();
        let err = HeteroProblem::new(
            vec![JobWorkload::constant(5.0, 0.15, slo(0.6), 1.0)],
            ResourceModel::heterogeneous(five, 8.0, 0.0, 8.0),
            ClusterObjective::Sum,
            Fidelity::Relaxed,
        )
        .unwrap_err();
        assert!(
            matches!(&err, Error::InvalidSnapshot(m) if m.contains('5') && m.contains('4')),
            "{err}"
        );
    }

    /// What a job evaluation costs does not grow with its trajectories:
    /// whatever the step count, the pool is reduced once and each of
    /// the two bracketing counts has its knee latency computed at most
    /// once (evaluating step by step, 24 reductions here and up to 48
    /// knee recurrences). No clock is read to say so.
    #[test]
    #[cfg_attr(miri, ignore = "counts work, which is checked natively")]
    fn a_job_evaluation_reduces_its_pool_once_and_holds_its_knees() {
        let work = || (POOL_REDUCTIONS.get(), KNEE_RECURRENCES.get());
        for steps in [6, 60] {
            // 4 trajectories from idle to four times what 2.5 GPU
            // replicas carry: steps under and past both counts' knees.
            let job = JobWorkload {
                lambda_trajectories: (0..4)
                    .map(|t| {
                        (0..steps)
                            .map(|s| f64::from(t * steps + s) * 100.0 / f64::from(4 * steps))
                            .collect()
                    })
                    .collect(),
                ..JobWorkload::constant(0.0, 0.10, slo(0.4), 1.0)
            };
            let p = HeteroProblem::new(
                vec![job],
                gpu_cpu_resources(4.0, 4.0),
                ClusterObjective::Sum,
                Fidelity::Relaxed,
            )
            .unwrap();
            for (counts, knees) in [([2.5, 0.0], 2), ([1.5, 1.0], 2), ([3.0, 0.0], 1)] {
                let before = work();
                let u = p.job_utility(0, &counts, 0.0).utility;
                let after = work();
                assert!(u > 0.0 && u < 1.0, "{counts:?}: utility {u}");
                assert_eq!(after.0 - before.0, 1, "{steps} steps at {counts:?}");
                assert_eq!(after.1 - before.1, knees, "{steps} steps at {counts:?}");
            }
            // Idle at every step: no knee is ever needed.
            let before = work();
            p.job_utility(0, &[2.5, 0.0], 1.0);
            assert_eq!(work().1, before.1, "{steps} steps, all traffic dropped");
        }
    }

    /// A step is one call into the estimator whatever the pool: a whole
    /// count is asked alone, and a fractional count's two consecutive
    /// counts are one bracket (under the knee, one recurrence for
    /// both). No clock is read to say so.
    #[test]
    #[cfg_attr(miri, ignore = "counts work, which is checked natively")]
    fn a_step_is_one_estimator_call_whole_or_fractional() {
        let work = || {
            (
                STEPS_SCORED.get(),
                ESTIMATOR_CALLS.get(),
                KNEE_RECURRENCES.get(),
            )
        };
        // Rates two replicas carry under their knee, and rates past
        // every count's knee.
        for (base, past) in [(2.0, false), (400.0, true)] {
            let job = JobWorkload {
                lambda_trajectories: (0..3)
                    .map(|t| (0..5).map(|s| base + 0.2 * f64::from(t * 5 + s)).collect())
                    .collect(),
                ..JobWorkload::constant(0.0, 0.10, slo(0.4), 1.0)
            };
            let p = HeteroProblem::new(
                vec![job],
                gpu_cpu_resources(4.0, 4.0),
                ClusterObjective::Sum,
                Fidelity::Relaxed,
            )
            .unwrap();
            for counts in [[2.5, 0.0], [1.5, 1.25], [3.0, 0.0], [2.0, 2.0]] {
                let before = work();
                p.job_utility(0, &counts, 0.0);
                let after = work();
                let steps = after.0 - before.0;
                assert_eq!(steps, 15, "{counts:?}");
                assert_eq!(after.1 - before.1, steps, "{base} req/s at {counts:?}");
                let knees = after.2 - before.2;
                if past {
                    assert!(knees > 0, "{base} req/s at {counts:?}");
                } else {
                    assert_eq!(knees, 0, "{base} req/s at {counts:?}");
                }
            }
        }
    }

    /// A default classed solve of `hetero_mixed`'s shape scores most
    /// of its steps at or under their SLO, and those are compared, not
    /// raised to a power: under a quarter of the steps it scores reach
    /// `powf`. The classed twin of the flat solve's count.
    #[test]
    #[cfg_attr(miri, ignore = "a full default solve; the count is checked natively")]
    fn a_classed_solve_asks_powf_for_a_fraction_of_its_steps() {
        let mut rng = crate::rng::SplitMix64::new(17);
        let jobs: Vec<JobWorkload> = (0..10)
            .map(|i| {
                let (latency, base) = [(4.0, 7.0), (0.4, 10.0), (4.0, 3.0), (0.4, 4.0)][i % 4];
                JobWorkload {
                    lambda_trajectories: (0..4)
                        .map(|_| {
                            (0..6)
                                .map(|_| base * (0.7 + 0.6 * rng.fraction()))
                                .collect()
                        })
                        .collect(),
                    ..JobWorkload::constant(0.0, 0.10, slo(latency), 1.0)
                }
            })
            .collect();
        let r = ResourceModel::heterogeneous(
            vec![ReplicaClass::gpu("gpu"), ReplicaClass::cpu("cpu", 5.0)],
            40.0,
            16.0,
            88.0,
        );
        let p = HeteroProblem::new(jobs, r, ClusterObjective::Sum, Fidelity::Relaxed).unwrap();
        let before = (STEPS_SCORED.get(), POWF_CALLS.get());
        let alloc = p.solve(&Cobyla::default(), &[2; 10]).unwrap();
        let scored = STEPS_SCORED.get() - before.0;
        let asked = POWF_CALLS.get() - before.1;
        assert!(alloc.evals > 50, "the solve iterated: {}", alloc.evals);
        assert!(asked > 0, "the solve visited allocations that miss an SLO");
        assert!(asked * 4 < scored, "{asked} of {scored} steps asked powf");
    }

    /// The evaluator is one, so the classed path inherits the
    /// upper-bound arm: a mixed pool's burst of one second's arrivals
    /// completes in `p_eff * kappa / N`, never under one effective
    /// service time.
    #[test]
    fn upper_bound_scores_a_mixed_pool_by_its_effective_service_time() {
        let job = JobWorkload {
            lambda_trajectories: vec![vec![4.0, 30.0, 55.0], vec![80.0]],
            ..JobWorkload::constant(0.0, 0.10, slo(0.4), 1.0)
        };
        let model = Model {
            latency_model: LatencyModel::UpperBound,
            ..Model::new(Fidelity::Relaxed)
        };
        let p = HeteroProblem::with_model(
            vec![job.clone()],
            gpu_cpu_resources(4.0, 4.0),
            ClusterObjective::Sum,
            model,
        )
        .unwrap();
        // 2.6 GPU replicas and 3 CPU replicas three times slower.
        let (gpus, cpus) = (2.6, 3.0);
        let total: f64 = gpus + cpus;
        let p_eff = total / (gpus / 0.10 + cpus / (0.10 * 3.0));
        let servers = ReplicaCount::new(total.round() as u32);
        for d in [0.0, 0.3] {
            let want = job
                .lambda_trajectories
                .iter()
                .flatten()
                .map(|&lambda| {
                    let burst = upper_bound::completion_time(p_eff, lambda * (1.0 - d), servers);
                    model
                        .relaxed_utility
                        .value(burst.unwrap().max(p_eff), job.slo.latency)
                })
                .sum::<f64>()
                / 4.0;
            let got = p.expected_utility(0, &[gpus, cpus], d);
            assert_eq!(got.to_bits(), want.to_bits(), "drop {d}: {got} vs {want}");
            assert!(got > 0.0 && got < 1.0, "drop {d}: utility {got}");
        }
    }

    #[test]
    fn single_class_pool_matches_homogeneous_estimates() {
        // A one-class table must reproduce the homogeneous problem's
        // expected utilities bit-for-bit: p_eff = p * 1.0 == p.
        let job = JobWorkload::constant(12.0, 0.15, slo(0.6), 1.0);
        let r = ResourceModel::heterogeneous(vec![ReplicaClass::gpu("gpu")], 16.0, 16.0, 64.0);
        let hetero = HeteroProblem::new(
            vec![job.clone()],
            r,
            ClusterObjective::Sum,
            Fidelity::Relaxed,
        )
        .unwrap();
        let homo = crate::opt::MultiTenantProblem::new(
            vec![job],
            ResourceModel::replicas(ReplicaCount::new(16)),
            ClusterObjective::Sum,
            Fidelity::Relaxed,
        )
        .unwrap();
        for n in 1..=10u32 {
            let uh = hetero.expected_utility(0, &[f64::from(n)], 0.0);
            let u0 = homo.expected_utility(0, f64::from(n), 0.0);
            assert!(uh == u0, "n={n}: {uh} != {u0}");
        }
    }

    #[test]
    fn solver_places_loose_job_on_cpus_when_gpus_are_scarce() {
        // One tight-SLO job that only works on the GPU class and one
        // loose-SLO job that is fine 3x slower. With only enough GPUs
        // for the tight job, the solve must put the loose job's
        // replicas on the CPU class.
        let tight = JobWorkload::constant(10.0, 0.15, slo(0.4), 1.0);
        let loose = JobWorkload::constant(4.0, 0.15, slo(3.0), 1.0);
        let r = gpu_cpu_resources(4.0, 12.0);
        let p = HeteroProblem::new(
            vec![tight, loose],
            r,
            ClusterObjective::Sum,
            Fidelity::Relaxed,
        )
        .unwrap();
        let alloc = p.solve(&Cobyla::default(), &[4, 2]).unwrap();
        let allocs = p.integerize(&alloc);
        // Both jobs end at utility ~1 and the cluster fits.
        let mut usage = [0.0; RESOURCE_DIMS];
        for a in &allocs {
            for (u, v) in usage.iter_mut().zip(p.resources().usage_of(a)) {
                *u += v;
            }
        }
        assert!(p.resources().fits(&usage), "over capacity: {usage:?}");
        let u_tight = p.job_utility_alloc(0, &allocs[0], 0.0).utility;
        let u_loose = p.job_utility_alloc(1, &allocs[1], 0.0).utility;
        assert!(u_tight > 0.9, "tight job utility {u_tight}");
        assert!(u_loose > 0.9, "loose job utility {u_loose}");
        // The loose job leans on CPU replicas: it cannot have taken
        // the GPUs the tight job needs.
        assert!(
            allocs[1].count(1) >= 1,
            "loose job never used the CPU class: {:?}",
            allocs[1]
        );
        assert!(
            allocs[0].count(0) >= 3,
            "tight job lost its GPUs: {:?}",
            allocs[0]
        );
    }

    #[test]
    fn affinity_masks_zero_out_disallowed_classes() {
        let job = JobWorkload::constant(6.0, 0.15, slo(0.5), 1.0);
        let r = gpu_cpu_resources(6.0, 6.0);
        let p = HeteroProblem::new(
            vec![job.clone(), job],
            r,
            ClusterObjective::Sum,
            Fidelity::Relaxed,
        )
        .unwrap()
        .with_affinity(vec![vec![true, false], vec![true, true]])
        .unwrap();
        let alloc = p.solve(&Cobyla::default(), &[2, 2]).unwrap();
        let allocs = p.integerize(&alloc);
        assert_eq!(allocs[0].count(1), 0, "gpu-only job got CPU replicas");
    }

    #[test]
    fn integerize_respects_vector_capacity() {
        // Force a heavy over-ask and check the trim lands inside every
        // capacity dimension.
        let job = JobWorkload::constant(20.0, 0.15, slo(0.5), 1.0);
        let r = gpu_cpu_resources(3.0, 3.0);
        let p = HeteroProblem::new(
            vec![job.clone(), job],
            r,
            ClusterObjective::Sum,
            Fidelity::Relaxed,
        )
        .unwrap();
        let alloc = HeteroAllocation {
            counts: vec![5.0, 4.0, 5.0, 4.0],
            drop_rates: vec![0.0, 0.0],
            objective_value: 0.0,
            evals: 0,
        };
        let allocs = p.integerize(&alloc);
        let mut usage = [0.0; RESOURCE_DIMS];
        for a in &allocs {
            assert!(a.total() >= 1);
            for (u, v) in usage.iter_mut().zip(p.resources().usage_of(a)) {
                *u += v;
            }
        }
        assert!(p.resources().fits(&usage), "over capacity: {usage:?}");
    }

    #[test]
    fn shrink_drains_the_slow_class_first() {
        let job = JobWorkload::constant(2.0, 0.10, slo(2.0), 1.0);
        let r = gpu_cpu_resources(4.0, 8.0);
        let p = HeteroProblem::new(vec![job], r, ClusterObjective::Sum, Fidelity::Relaxed).unwrap();
        // Grossly overprovisioned mixed pool at utility 1.
        let mut allocs = vec![ClassAlloc::from_counts(&[3, 5]).unwrap()];
        p.shrink(&mut allocs, &[0.0]);
        assert!(
            allocs[0].total() < 8,
            "shrink removed nothing: {:?}",
            allocs[0]
        );
        // The slow CPU replicas drain before the GPU ones.
        assert!(
            allocs[0].count(1) == 0 || allocs[0].count(0) == 3,
            "shrink took GPUs while CPUs remained: {:?}",
            allocs[0]
        );
    }
}
