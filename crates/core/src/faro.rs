//! The Faro multi-tenant autoscaler (paper Sec. 4).
//!
//! Every invocation runs up to three stages:
//!
//! 1. **Per-job formulation** (Sec. 4.1): fetch each job's measured
//!    processing time and arrival history, predict the next window's
//!    arrival-rate distribution, and sample trajectories (cold-start
//!    minutes at the head of the window are skipped, since new replicas
//!    only become useful after startup).
//! 2. **Multi-tenant autoscaling** (Sec. 4.2): maximize the configured
//!    cluster objective under the resource constraints with COBYLA, then
//!    integerize. The problem is [`MultiTenantProblem`] over the
//!    cluster's replica classes, solved by the autoscaler's one
//!    [`ShardedSolver`]: one shard under [`SolvePlan::Global`], flat or,
//!    on a scalar quota past
//!    [`HIERARCHICAL_THRESHOLD`](crate::hierarchical::HIERARCHICAL_THRESHOLD)
//!    jobs, the grouped solve of Sec. 3.4.
//! 3. **Shrinking** (Sec. 4.3): reclaim replicas from jobs at predicted
//!    utility 1 while the cluster objective is unchanged.
//!
//! The long-term predictive solve runs every
//! [`LONG_TERM_INTERVAL`](crate::policy::LONG_TERM_INTERVAL) seconds
//! (5 min); between solves, a short-term reactive loop (Sec. 4.4) adds
//! one replica to any job whose SLO has been violated for
//! [`REACTIVE_THRESHOLD`](crate::policy::REACTIVE_THRESHOLD) seconds, and
//! never scales down. Both are the cadence and the clock every policy
//! shares ([`crate::policy`]).
//!
//! Faults are absorbed by guards that never fire on a healthy cluster,
//! so every fault-free run is the paper's controller: corrupted history
//! minutes are repaired before forecasting, a non-finite measurement
//! falls back to the last history minute or the spec's processing time,
//! a NaN tail latency holds the violation clock, a failed or invalid
//! solve keeps the previous decisions, and the desired state survives a
//! quota clamp.

use crate::admission::ClampToQuota;
use crate::error::Result;
use crate::evaluate::Model;
use crate::objective::ClusterObjective;
use crate::opt::{Fidelity, JobWorkload, LatencyModel, MultiTenantProblem};
use crate::policy::{
    carry, emit, planned_processing_time, Cadence, Persistence, Policy, PolicyIntrospection,
    PREDICTION_WINDOW_MINUTES,
};
use crate::predictor::{sanitize_history, RatePredictor};
use crate::sharded::{Round, ShardedSolver, SolvePlan};
use crate::types::{ClassAlloc, ClusterSnapshot, DesiredState, JobDecision, JobObservation};
use crate::units::DurationMs;
use faro_solver::Cobyla;
use rand::prelude::*;

/// Faro configuration; defaults follow the paper (Sec. 4.4 and 5).
#[derive(Debug, Clone, PartialEq)]
pub struct FaroConfig {
    /// Cluster objective to maximize.
    pub objective: ClusterObjective,
    /// Precise (ablation: "no relaxation") or relaxed optimization.
    pub fidelity: Fidelity,
    /// M/D/c (default) or upper-bound latency estimation (ablation).
    pub latency_model: LatencyModel,
    /// Probabilistic trajectories sampled per job (1 = use the mean).
    pub samples: usize,
    /// Stage-3 shrinking on/off (ablation).
    pub use_shrinking: bool,
    /// Short-term reactive autoscaler on/off (ablation).
    pub use_hybrid: bool,
    /// How the long-term solve is organized ([`crate::sharded`]):
    /// `Global` is the one-shard plan, the paper's default.
    /// [`FaroAutoscaler::new`] reads it once.
    pub solve_plan: SolvePlan,
    /// RNG seed (trajectory sampling, grouping).
    pub seed: u64,
}

/// Cold-start time in minutes skipped at the head of the window.
const COLD_START_MINUTES: usize = 1;

impl FaroConfig {
    /// Paper defaults with the given objective.
    pub fn new(objective: ClusterObjective) -> Self {
        Self {
            objective,
            fidelity: Fidelity::Relaxed,
            latency_model: LatencyModel::MDc,
            samples: 20,
            use_shrinking: true,
            use_hybrid: true,
            solve_plan: SolvePlan::Global,
            seed: 0,
        }
    }
}

/// The Faro autoscaler: one [`RatePredictor`] per job plus the staged
/// optimization.
pub struct FaroAutoscaler {
    config: FaroConfig,
    predictors: Vec<Box<dyn RatePredictor>>,
    solver: Cobyla,
    /// When the long-term solve is due.
    cadence: Cadence,
    /// Per-job sustained SLO violation (the reactive trigger), recorded
    /// on reactive rounds only.
    clock: Persistence,
    /// Desired decisions, carried between ticks; never replaced by
    /// their quota-clamped form.
    current: Vec<JobDecision>,
    /// What the last `decide` round did (solve effort, carry-forward,
    /// sanitization), reported through [`Policy::introspect`].
    intro: PolicyIntrospection,
    /// Every long-term solve, with its state across rounds (partition,
    /// signatures, caches) when the plan has more than one shard.
    sharded: ShardedSolver,
    rng: StdRng,
}

impl FaroAutoscaler {
    /// Creates the autoscaler with one predictor per job (in job order).
    pub fn new(config: FaroConfig, predictors: Vec<Box<dyn RatePredictor>>) -> Self {
        Self {
            rng: StdRng::seed_from_u64(config.seed ^ 0xfa60_5eed),
            solver: Cobyla::fast(),
            predictors,
            cadence: Cadence::default(),
            clock: Persistence::default(),
            current: Vec::new(),
            intro: PolicyIntrospection::default(),
            sharded: ShardedSolver::new(config.solve_plan.shard_config(), config.seed),
            config,
        }
    }

    /// Stage 1: assembles per-job workloads from predictions.
    ///
    /// Metric-outage damage is repaired before it can poison the solve:
    /// corrupted history minutes are replaced with the last observed rate
    /// (unrepaired, `per_second`'s NaN-ignoring `max` would turn a lost
    /// scrape into *zero* predicted load and strip the job to one
    /// replica). A clean history is forecast as it is.
    fn formulate(&mut self, snapshot: &ClusterSnapshot) -> Vec<JobWorkload> {
        let w = PREDICTION_WINDOW_MINUTES;
        let skip = COLD_START_MINUTES.min(w.saturating_sub(1));
        snapshot
            .jobs
            .iter()
            .enumerate()
            .map(|(i, obs)| {
                let raw = &obs.arrival_rate_history;
                let corrupt = raw.iter().filter(|r| r.is_corrupt()).count();
                self.intro.sanitized_samples += corrupt as u64;
                let history = sanitize_history(raw);
                let forecast = match self.predictors.get_mut(i) {
                    Some(p) => p.predict(&history, w),
                    None => {
                        let level = if obs.recent_arrival_rate.is_finite() {
                            obs.recent_arrival_rate * 60.0
                        } else {
                            history.last().map_or(0.0, |r| r.get())
                        };
                        faro_forecast::GaussianForecast::new(vec![level; w], vec![1e-9; w])
                    }
                };
                let n_samples = self.config.samples.max(1);
                let mut trajectories = Vec::with_capacity(n_samples);
                if n_samples == 1 {
                    trajectories.push(per_second(&forecast.mu[skip..]));
                } else {
                    for _ in 0..n_samples {
                        let s = forecast.sample(&mut self.rng);
                        trajectories.push(per_second(&s[skip..]));
                    }
                }
                JobWorkload {
                    lambda_trajectories: trajectories,
                    processing_time: planned_processing_time(obs),
                    slo: obs.spec.slo,
                    priority: obs.spec.priority,
                }
            })
            .collect()
    }

    /// Stages 2 and 3: solve, integerize, shrink. The model is built
    /// here, once, from the configuration, and a classed problem carries
    /// each job's class affinity; the round is one call to the
    /// autoscaler's [`ShardedSolver`].
    fn long_term(&mut self, snapshot: &ClusterSnapshot) -> Result<Vec<JobDecision>> {
        let jobs = self.formulate(snapshot);
        let current: Vec<u32> = snapshot.jobs.iter().map(|j| j.target_replicas).collect();
        let model = Model {
            latency_model: self.config.latency_model,
            ..Model::new(self.config.fidelity)
        };
        let resources = snapshot.resources.clone();
        let mut problem =
            MultiTenantProblem::with_model(jobs, resources, self.config.objective, model)?;
        let classed = problem.n_classes() > 1;
        if classed {
            problem = problem.with_affinity(affinity(snapshot))?;
        }
        let use_shrinking = self.config.use_shrinking;
        let Round {
            solved,
            record,
            spans,
        } = self
            .sharded
            .solve_problem(&problem, &self.solver, &current, use_shrinking)?;
        self.intro.solver_evals += solved.evals;
        self.intro.shard_record = record;
        self.intro.shard_spans = spans;
        // A class split per job on a classed cluster, else one count (a
        // one-class table actuates on class 0) with a defensive floor
        // (solvers already respect bounds).
        let decision = |a: ClassAlloc| {
            if classed {
                JobDecision::classed(a)
            } else {
                JobDecision::replicas(a.total().max(1))
            }
        };
        Ok(solved
            .allocs
            .into_iter()
            .zip(solved.drops)
            .map(|(a, d)| decision(a).with_drop_rate(d))
            .collect())
    }

    /// Adds one replica to job `i`'s current decision if capacity
    /// allows: the scalar quota check in the homogeneous regime, the
    /// fastest allowed class with vector headroom in the classed one.
    /// Returns whether a replica was added.
    fn add_one_replica(&mut self, snapshot: &ClusterSnapshot, i: usize) -> bool {
        let res = &snapshot.resources;
        if res.n_classes() > 1 {
            // Totals over every job's classed decision; classless
            // decisions (e.g. carried forward from before the first
            // classed solve) count as class 0.
            let mut totals = ClassAlloc::zero(res.n_classes());
            for d in &self.current {
                match d.classes {
                    Some(a) => {
                        for (c, &k) in a.as_slice().iter().enumerate() {
                            totals.add(c, i64::from(k));
                        }
                    }
                    None => totals.add(0, i64::from(d.target_replicas)),
                }
            }
            let usage = res.usage_of(&totals);
            // Fastest class first: a reactive boost exists to kill a
            // live SLO violation, so it buys the largest service-rate
            // increment that still fits.
            for c in res.classes_by_speed() {
                if !snapshot.jobs[i].spec.allows_class(&res.classes[c].name) {
                    continue;
                }
                let mut padded = usage;
                for (u, k) in padded.iter_mut().zip(res.classes[c].cost()) {
                    *u += k;
                }
                if res.fits(&padded) {
                    let target = self.current[i].target_replicas;
                    let alloc = self.current[i]
                        .classes
                        .get_or_insert_with(|| ClassAlloc::single(0, target, res.n_classes()));
                    alloc.add(c, 1);
                    self.current[i].target_replicas = target + 1;
                    return true;
                }
            }
            false
        } else {
            let quota = snapshot.replica_quota();
            let total: u32 = self.current.iter().map(|d| d.target_replicas).sum();
            if total < quota.get() {
                self.current[i].target_replicas += 1;
                true
            } else {
                false
            }
        }
    }

    /// Short-term reactive pass: additive upscale on sustained
    /// violation; never downscales (Sec. 4.4). A NaN tail latency (a
    /// lost scrape) holds the violation clock and boosts nothing.
    fn reactive(&mut self, snapshot: &ClusterSnapshot, dt: DurationMs) {
        self.clock.record(snapshot, dt);
        for (i, obs) in snapshot.jobs.iter().enumerate() {
            if !obs.recent_tail_latency.is_nan()
                && self.clock.overloaded(i)
                && self.add_one_replica(snapshot, i)
            {
                self.clock.restart(i);
            }
        }
    }
}

fn per_second(per_minute: &[f64]) -> Vec<f64> {
    per_minute.iter().map(|&r| (r / 60.0).max(0.0)).collect()
}

/// `masks[job][class]`: which of the cluster's classes each job's spec
/// allows.
fn affinity(snapshot: &ClusterSnapshot) -> Vec<Vec<bool>> {
    let classes = &snapshot.resources.classes;
    let allows = |o: &JobObservation| {
        classes
            .iter()
            .map(|c| o.spec.allows_class(&c.name))
            .collect()
    };
    snapshot.jobs.iter().map(allows).collect()
}

impl Policy for FaroAutoscaler {
    fn name(&self) -> &str {
        self.config.objective.name()
    }

    fn introspect(&self) -> PolicyIntrospection {
        self.intro.clone()
    }

    fn decide(&mut self, snapshot: &ClusterSnapshot) -> DesiredState {
        self.intro = PolicyIntrospection::default();
        if carry(&mut self.current, snapshot) {
            self.clock.restart_all();
        }
        let dt = self.clock.elapsed(snapshot.now);
        if self.cadence.due(snapshot.now) {
            self.intro.long_term_solve = true;
            match self.long_term(snapshot) {
                Ok(decisions) if decisions_valid(&decisions) => {
                    self.current = decisions;
                    self.clock.restart_all();
                }
                // Keep the previous decisions on a failed or invalid
                // solve: an autoscaler must not crash the control loop.
                _ => self.intro.carried_forward = true,
            }
        } else if self.config.use_hybrid {
            self.reactive(snapshot, dt);
        }

        // The clamp shapes what is applied, not what is desired, so
        // capacity snaps back the moment a quota dip ends.
        emit(snapshot, &self.current, &mut ClampToQuota)
    }
}

/// A solve is usable when every decision is in-domain; junk decisions
/// (NaN drop rates from a poisoned objective) trip the carry-forward.
fn decisions_valid(decisions: &[JobDecision]) -> bool {
    decisions
        .iter()
        .all(|d| d.target_replicas >= 1 && d.drop_rate.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::LONG_TERM_INTERVAL;
    use crate::predictor::FlatPredictor;
    use crate::types::{JobObservation, JobSpec, ResourceModel};
    use crate::units::{RatePerMin, SimTimeMs};

    fn obs(rate_per_min: f64, target: u32, tail: f64) -> JobObservation {
        JobObservation {
            spec: std::sync::Arc::new(JobSpec::resnet34("job")),
            target_replicas: target,
            ready_replicas: target,
            queue_len: 0,
            arrival_rate_history: std::sync::Arc::new(vec![RatePerMin::new(rate_per_min); 15]),
            recent_arrival_rate: rate_per_min / 60.0,
            mean_processing_time: 0.180,
            recent_tail_latency: tail,
            drop_rate: 0.0,
            class_target: None,
            class_ready: None,
        }
    }

    fn snapshot(now: f64, quota: u32, jobs: Vec<JobObservation>) -> ClusterSnapshot {
        ClusterSnapshot {
            now: SimTimeMs::from_secs(now),
            resources: ResourceModel::replicas(crate::units::ReplicaCount::new(quota)),
            jobs,
        }
    }

    fn t0(ds: &DesiredState) -> u32 {
        ds.get(crate::types::JobId::new(0)).unwrap().target_replicas
    }

    fn faro(objective: ClusterObjective, n_jobs: usize) -> FaroAutoscaler {
        faro_planned(objective, n_jobs, SolvePlan::Global)
    }

    fn faro_planned(objective: ClusterObjective, n_jobs: usize, plan: SolvePlan) -> FaroAutoscaler {
        let predictors: Vec<Box<dyn RatePredictor>> = (0..n_jobs)
            .map(|_| {
                Box::new(FlatPredictor {
                    lookback: 3,
                    sigma_fraction: 0.1,
                }) as Box<dyn RatePredictor>
            })
            .collect();
        let mut cfg = FaroConfig::new(objective);
        cfg.samples = 8;
        cfg.solve_plan = plan;
        FaroAutoscaler::new(cfg, predictors)
    }

    #[test]
    fn allocates_more_to_heavier_job() {
        let mut f = faro(ClusterObjective::Sum, 2);
        let snap = snapshot(0.0, 32, vec![obs(2400.0, 1, 0.1), obs(300.0, 1, 0.1)]);
        let ds = f.decide(&snap);
        assert_eq!(ds.len(), 2);
        assert!(
            t0(&ds) > ds.get(crate::types::JobId::new(1)).unwrap().target_replicas,
            "{ds:?}"
        );
        assert!(ds.total_replicas() <= 32);
        // 2400/min = 40/s at 180 ms needs ~8+ replicas.
        assert!(t0(&ds) >= 8, "{ds:?}");
    }

    #[test]
    fn long_term_cadence_respected() {
        let mut f = faro(ClusterObjective::Sum, 1);
        let d0 = f.decide(&snapshot(0.0, 16, vec![obs(1200.0, 1, 0.1)]));
        // 10 s later with a huge rate change: long-term must NOT rerun.
        let d1 = f.decide(&snapshot(10.0, 16, vec![obs(6000.0, t0(&d0), 0.1)]));
        assert_eq!(t0(&d0), t0(&d1));
        // 300 s later it must rerun and scale up.
        let d2 = f.decide(&snapshot(300.0, 16, vec![obs(6000.0, t0(&d1), 0.1)]));
        assert!(t0(&d2) > t0(&d1), "{d2:?}");
    }

    #[test]
    fn reactive_upscales_after_sustained_violation() {
        let mut f = faro(ClusterObjective::Sum, 1);
        let d0 = f.decide(&snapshot(0.0, 16, vec![obs(600.0, 1, 0.1)]));
        let base = t0(&d0);
        // Three 10 s ticks of violation -> 30 s sustained -> +1.
        let mut last = base;
        for (i, t) in [10.0, 20.0, 30.0].iter().enumerate() {
            let d = f.decide(&snapshot(*t, 16, vec![obs(600.0, last, 5.0)]));
            last = t0(&d);
            if i < 2 {
                assert_eq!(last, base, "no upscale before the threshold");
            }
        }
        assert_eq!(last, base + 1, "one additive upscale after 30 s");
    }

    #[test]
    fn reactive_never_downscales() {
        let mut f = faro(ClusterObjective::Sum, 1);
        let d0 = f.decide(&snapshot(0.0, 16, vec![obs(1200.0, 1, 0.1)]));
        let base = t0(&d0);
        // Healthy latency for many short ticks: replicas must not drop.
        for t in [10.0, 20.0, 30.0, 40.0] {
            let d = f.decide(&snapshot(t, 16, vec![obs(10.0, base, 0.05)]));
            assert!(t0(&d) >= base);
        }
    }

    #[test]
    fn hybrid_ablation_disables_reactive() {
        let predictors: Vec<Box<dyn RatePredictor>> = vec![Box::new(FlatPredictor::default())];
        let mut cfg = FaroConfig::new(ClusterObjective::Sum);
        cfg.use_hybrid = false;
        cfg.samples = 4;
        let mut f = FaroAutoscaler::new(cfg, predictors);
        let d0 = f.decide(&snapshot(0.0, 16, vec![obs(600.0, 1, 0.1)]));
        let base = t0(&d0);
        for t in [10.0, 20.0, 30.0, 40.0, 50.0] {
            let d = f.decide(&snapshot(t, 16, vec![obs(600.0, base, 9.0)]));
            assert_eq!(t0(&d), base, "reactive disabled");
        }
    }

    #[test]
    fn quota_respected_with_many_needy_jobs() {
        let mut f = faro(ClusterObjective::FairSum { gamma: 4.0 }, 4);
        let jobs = (0..4).map(|_| obs(3000.0, 1, 0.1)).collect();
        let ds = f.decide(&snapshot(0.0, 12, jobs));
        assert!(ds.total_replicas() <= 12);
        assert!(ds.targets().all(|t| t >= 1));
    }

    fn corrupt(mut o: JobObservation) -> JobObservation {
        let n = o.arrival_rate_history.len();
        for v in std::sync::Arc::make_mut(&mut o.arrival_rate_history)
            .iter_mut()
            .skip(n - 5)
        {
            *v = RatePerMin::NAN;
        }
        o.recent_arrival_rate = f64::NAN;
        o.recent_tail_latency = f64::NAN;
        o
    }

    /// Faro plans a zero or negative observed processing time at the
    /// spec's, as it plans a lost one, not at a microsecond that would
    /// size the job to one replica.
    #[test]
    fn a_non_positive_processing_time_is_planned_at_the_spec() {
        let decide = |p: f64| {
            let o = JobObservation {
                mean_processing_time: p,
                ..obs(2400.0, 1, 0.1)
            };
            t0(&faro(ClusterObjective::Sum, 1).decide(&snapshot(0.0, 64, vec![o])))
        };
        let spec = decide(0.180);
        assert!(spec >= 8, "40 req/s at 180 ms: {spec}");
        for p in [f64::NAN, 0.0, -0.1] {
            assert_eq!(decide(p), spec, "p={p}");
        }
    }

    #[test]
    fn name_is_the_objectives() {
        assert_eq!(faro(ClusterObjective::Sum, 1).name(), "Faro-Sum");
    }

    #[test]
    fn metric_outage_keeps_the_allocation() {
        // Unrepaired, a NaN history mean flows through per_second's
        // NaN-ignoring max() as *zero load* and the solve strips the job.
        let mut f = faro(ClusterObjective::Sum, 1);
        let base = t0(&f.decide(&snapshot(0.0, 32, vec![obs(2400.0, 1, 0.1)])));
        assert!(base >= 8, "healthy solve sizes for the load: {base}");
        let d1 = f.decide(&snapshot(300.0, 32, vec![corrupt(obs(2400.0, base, 0.1))]));
        assert!(
            t0(&d1) >= 8,
            "repaired history keeps the allocation: {d1:?}"
        );
        assert_eq!(f.introspect().sanitized_samples, 5);
    }

    #[test]
    fn nan_tail_holds_the_violation_clock() {
        let mut f = faro(ClusterObjective::Sum, 1);
        let d0 = f.decide(&snapshot(0.0, 16, vec![obs(600.0, 1, 0.1)]));
        let base = t0(&d0);
        // 20 s of violation, then a NaN scrape, then more violation:
        // the clock must not reset at the NaN tick.
        let o = |tail: f64| obs(600.0, base, tail);
        f.decide(&snapshot(10.0, 16, vec![o(5.0)]));
        f.decide(&snapshot(20.0, 16, vec![o(5.0)]));
        f.decide(&snapshot(30.0, 16, vec![o(f64::NAN)]));
        let d = f.decide(&snapshot(40.0, 16, vec![o(5.0)]));
        assert_eq!(
            t0(&d),
            base + 1,
            "30 s of accumulated violation crossed the threshold"
        );
    }

    #[test]
    fn a_replica_deficit_alone_waits_out_the_threshold() {
        let mut f = faro(ClusterObjective::Sum, 1);
        let base = t0(&f.decide(&snapshot(0.0, 16, vec![obs(600.0, 1, 0.1)])));
        let mut o = obs(600.0, base, 5.0);
        o.ready_replicas = base - 1; // A replica died.
        let d = f.decide(&snapshot(10.0, 16, vec![o]));
        assert_eq!(t0(&d), base, "one violated tick is below 30 s");
    }

    #[test]
    fn a_crash_with_healthy_latency_triggers_no_boost() {
        let mut f = faro(ClusterObjective::Sum, 1);
        let base = t0(&f.decide(&snapshot(0.0, 32, vec![obs(600.0, 1, 0.1)])));
        assert!(base >= 2);
        f.decide(&snapshot(10.0, 32, vec![obs(600.0, base, 0.1)]));
        let mut crashed = obs(600.0, base, 0.1);
        crashed.ready_replicas = base - 1;
        let d = f.decide(&snapshot(20.0, 32, vec![crashed]));
        assert_eq!(t0(&d), base);
    }

    #[test]
    fn a_quota_dip_snaps_back_at_the_next_tick() {
        let heavy = 2400.0;
        let mut f = faro(ClusterObjective::Sum, 1);
        let base = t0(&f.decide(&snapshot(0.0, 32, vec![obs(heavy, 1, 0.1)])));
        assert!(base >= 8);
        // A node outage shrinks the quota for one tick.
        let d1 = f.decide(&snapshot(10.0, 4, vec![obs(heavy, base, 0.1)]));
        assert!(t0(&d1) <= 4, "clamped during the outage");
        // Outage over; no long-term solve is due until t=300.
        let d2 = f.decide(&snapshot(20.0, 32, vec![obs(heavy, t0(&d1), 0.1)]));
        assert_eq!(t0(&d2), base, "desired state snaps back");
    }

    #[test]
    fn sharded_plan_solves_cold_and_reuses_cache_warm() {
        use crate::sharded::ShardConfig;
        let n = 9;
        let predictors: Vec<Box<dyn RatePredictor>> = (0..n)
            .map(|_| Box::new(FlatPredictor::default()) as Box<dyn RatePredictor>)
            .collect();
        let mut cfg = FaroConfig::new(ClusterObjective::Sum);
        cfg.solve_plan = SolvePlan::Sharded(ShardConfig::with_shards(3));
        cfg.samples = 1; // Mean trajectory: warm rounds see zero drift.
        let mut f = FaroAutoscaler::new(cfg, predictors);
        let mk = |target: u32| {
            (0..n)
                .map(|i| obs(600.0 + 100.0 * i as f64, target, 0.1))
                .collect::<Vec<_>>()
        };
        let d0 = f.decide(&snapshot(0.0, 60, mk(1)));
        assert_eq!(d0.len(), n);
        assert!(d0.total_replicas() <= 60);
        let intro = f.introspect();
        let rec = intro.shard_record.expect("sharded round recorded");
        assert_eq!(rec.shards, 3);
        assert_eq!(rec.solved, 3, "cold round solves every shard");
        assert_eq!(intro.shard_spans.len(), 3);
        assert!(intro.solver_evals > 0);
        // Same load at the next long-term round: fully clean.
        let d1 = f.decide(&snapshot(300.0, 60, mk(1)));
        let rec = f.introspect().shard_record.expect("warm round recorded");
        assert_eq!(rec.solved, 0, "clean warm round skips every shard");
        assert_eq!(rec.cache_hit_jobs, n as u32);
        assert_eq!(d1, d0, "cached decisions are unchanged");
        // Reactive ticks between solves report no shard record.
        f.decide(&snapshot(310.0, 60, mk(1)));
        assert!(f.introspect().shard_record.is_none());
    }

    /// One cold long-term round of `n` mean-trajectory jobs under `cfg`:
    /// what the autoscaler decided, beside the snapshot and the stage-1
    /// workloads (from a twin; the mean trajectory draws nothing).
    fn cold_round(
        cfg: &FaroConfig,
        n: usize,
        quota: u32,
    ) -> (Vec<u32>, ClusterSnapshot, Vec<JobWorkload>) {
        let twin = || {
            let predictors = (0..n)
                .map(|_| Box::new(FlatPredictor::default()) as Box<dyn RatePredictor>)
                .collect();
            FaroAutoscaler::new(cfg.clone(), predictors)
        };
        let jobs = (0..n)
            .map(|i| obs(900.0 + 150.0 * (i % 9) as f64, 1, 0.1))
            .collect();
        let snap = snapshot(0.0, quota, jobs);
        let decided = twin().decide(&snap).targets().collect();
        let workloads = twin().formulate(&snap);
        (decided, snap, workloads)
    }

    fn model_of(cfg: &FaroConfig) -> Model {
        Model {
            latency_model: cfg.latency_model,
            ..Model::new(cfg.fidelity)
        }
    }

    /// Under the latency-model knob, the one model knob `FaroConfig`
    /// has, a round of `n` jobs organized by `plan` decides what the same
    /// solve decides on a problem built by hand with that model — and
    /// not what the default model decides.
    fn assert_round_reads_the_model_knob(n: usize, quota: u32, plan: SolvePlan) {
        let mut cfg = FaroConfig::new(ClusterObjective::Sum);
        cfg.samples = 1;
        cfg.solve_plan = plan;
        let (default, ..) = cold_round(&cfg, n, quota);
        cfg.latency_model = LatencyModel::UpperBound;
        let (decided, snap, jobs) = cold_round(&cfg, n, quota);
        let problem =
            MultiTenantProblem::with_model(jobs, snap.resources, cfg.objective, model_of(&cfg))
                .unwrap();
        let by_hand = ShardedSolver::new(plan.shard_config(), cfg.seed)
            .solve_problem(&problem, &Cobyla::fast(), &vec![1; n], cfg.use_shrinking)
            .unwrap();
        let totals = by_hand.solved.allocs.iter().map(ClassAlloc::total);
        assert_eq!(decided, totals.collect::<Vec<_>>());
        assert_ne!(decided, default, "the latency model is read");
    }

    #[test]
    fn grouped_round_reads_every_model_knob() {
        assert_round_reads_the_model_knob(60, 150, SolvePlan::Global);
    }

    #[test]
    fn sharded_round_reads_every_model_knob() {
        use crate::sharded::ShardConfig;
        let plan = SolvePlan::Sharded(ShardConfig::with_shards(3));
        assert_round_reads_the_model_knob(12, 30, plan);
    }

    /// Fig. 16's ablation reaches the shards: with shrinking off, a
    /// (one-shard, so reproducible by hand) sharded round returns the
    /// integerized solve as it is, replicas shrinking would reclaim
    /// included.
    #[test]
    fn sharded_round_without_shrinking_is_its_unshrunk_integerization() {
        use crate::sharded::ShardConfig;
        let (n, quota) = (6, 60);
        let mut cfg = FaroConfig::new(ClusterObjective::Sum);
        cfg.samples = 1;
        cfg.solve_plan = SolvePlan::Sharded(ShardConfig::with_shards(1));
        cfg.use_shrinking = false;
        let (decided, snap, jobs) = cold_round(&cfg, n, quota);
        let problem =
            MultiTenantProblem::with_model(jobs, snap.resources, cfg.objective, model_of(&cfg))
                .unwrap();
        let alloc = problem.solve(&Cobyla::fast(), &vec![1; n]).unwrap();
        let unshrunk = problem.integerize(&alloc);
        let totals =
            |allocs: &[ClassAlloc]| allocs.iter().map(ClassAlloc::total).collect::<Vec<_>>();
        assert_eq!(decided, totals(&unshrunk));
        let mut shrunk = unshrunk.clone();
        problem.shrink(&mut shrunk, &alloc.drop_rates);
        assert_ne!(shrunk, unshrunk, "shrinking had replicas to reclaim");
    }

    /// Past the hierarchical threshold (60 jobs) a round is the grouped
    /// solve of its workloads, within the quota.
    #[test]
    fn hierarchical_path_used_for_many_jobs() {
        use crate::hierarchical::{solve_grouped, DEFAULT_GROUPS};
        let (n, quota) = (60, 150);
        let mut cfg = FaroConfig::new(ClusterObjective::Sum);
        cfg.samples = 1;
        let (decided, snap, jobs) = cold_round(&cfg, n, quota);
        let problem =
            MultiTenantProblem::with_model(jobs, snap.resources, cfg.objective, model_of(&cfg))
                .unwrap();
        let grouped = solve_grouped(
            &problem,
            &Cobyla::fast(),
            &vec![1; n],
            DEFAULT_GROUPS,
            cfg.seed,
        );
        assert_eq!(decided, grouped.unwrap().replicas);
        assert!(decided.iter().sum::<u32>() <= quota);
    }

    /// A one-class table is planned at its class's speed: `q` replicas
    /// of a class three times slower than the reference decide what `q`
    /// reference replicas decide for `n` jobs measured three times
    /// slower, and not what they decide for the jobs as measured.
    fn assert_planned_at_class_speed(n: usize, quota: u32, plan: SolvePlan) {
        use crate::types::ReplicaClass;
        let p = 0.180;
        let jobs = |processing_time: f64| {
            (0..n)
                .map(|i| {
                    let mut o = obs(300.0 + 150.0 * (i % 5) as f64, 1, 0.1);
                    o.mean_processing_time = processing_time;
                    o
                })
                .collect::<Vec<_>>()
        };
        let decide =
            |snap: &ClusterSnapshot| faro_planned(ClusterObjective::Sum, n, plan).decide(snap);
        let slow_class = ClusterSnapshot {
            resources: ResourceModel::heterogeneous(
                vec![ReplicaClass::cpu("cpu", 3.0)],
                f64::from(quota),
                0.0,
                f64::from(quota),
            ),
            ..snapshot(0.0, quota, jobs(p))
        };
        let decided = decide(&slow_class);
        let slow_jobs = decide(&snapshot(0.0, quota, jobs(3.0 * p)));
        let as_measured = decide(&snapshot(0.0, quota, jobs(p)));
        assert_eq!(decided, slow_jobs, "{n} jobs, {plan:?}");
        assert_ne!(
            decided, as_measured,
            "{n} jobs, {plan:?}: the class speed is read"
        );
    }

    /// Flat, grouped past the hierarchical threshold (60 jobs), and
    /// sharded.
    #[test]
    fn a_one_class_cluster_is_planned_at_its_class_speed() {
        use crate::sharded::ShardConfig;
        assert_planned_at_class_speed(3, 32, SolvePlan::Global);
        assert_planned_at_class_speed(60, 300, SolvePlan::Global);
        let sharded = SolvePlan::Sharded(ShardConfig::with_shards(3));
        assert_planned_at_class_speed(12, 60, sharded);
    }

    /// `Global` is the one-shard plan: on a flat (10 jobs), a grouped
    /// (60 jobs) and a two-class cluster, over a cold round and a warm
    /// one with unchanged loads, it and `Sharded` at one shard decide
    /// alike, and neither records a shard round.
    #[test]
    fn the_global_plan_is_the_one_shard_plan() {
        use crate::sharded::ShardConfig;
        use crate::types::ReplicaClass;
        let jobs = |n: usize| {
            (0..n)
                .map(|i| obs(900.0 + 150.0 * (i % 9) as f64, 1, 0.1))
                .collect::<Vec<_>>()
        };
        let classes = vec![ReplicaClass::gpu("gpu"), ReplicaClass::cpu("cpu", 3.0)];
        let classed = ClusterSnapshot {
            resources: ResourceModel::heterogeneous(classes, 40.0, 8.0, 64.0),
            ..snapshot(0.0, 40, jobs(6))
        };
        for cold in [
            snapshot(0.0, 40, jobs(10)),
            snapshot(0.0, 150, jobs(60)),
            classed,
        ] {
            let n = cold.jobs.len();
            let one_shard = SolvePlan::Sharded(ShardConfig::with_shards(1));
            let mut global = faro_planned(ClusterObjective::Sum, n, SolvePlan::Global);
            let mut sharded = faro_planned(ClusterObjective::Sum, n, one_shard);
            for now in [0.0, LONG_TERM_INTERVAL] {
                let snap = ClusterSnapshot {
                    now: SimTimeMs::from_secs(now),
                    ..cold.clone()
                };
                assert_eq!(
                    global.decide(&snap),
                    sharded.decide(&snap),
                    "{n} jobs at {now} s"
                );
                assert!(sharded.introspect().long_term_solve, "{n} jobs at {now} s");
                assert_eq!(
                    global.introspect(),
                    sharded.introspect(),
                    "{n} jobs at {now} s"
                );
                assert!(
                    global.introspect().shard_record.is_none(),
                    "{n} jobs at {now} s"
                );
            }
        }
    }
}
