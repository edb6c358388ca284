//! Bit-identity contracts for `MultiTenantProblem`'s solve cache.
//!
//! At one replica class a job's utility is memoised on the exact bits of
//! its replica count and drop rate, so a problem that has evaluated a
//! thousand points must answer the next one exactly as a problem that
//! has evaluated none. `Clone` starts with an empty cache, which makes a
//! fresh clone the uncached reference everywhere below: flat and grouped
//! solves, the integer post-processing, and concurrent population
//! evaluation. A one-class table is that same scalar problem at its
//! class's speed, read for read.
//!
//! At two or more classes there is no fresh-clone reference — however
//! the problem shares work between the steps of one evaluation, a clone
//! shares it the same way. Its reference is the estimator itself: the
//! last section recomputes every value from one public `faro_queueing`
//! call per trajectory step per bracketing server count, with nothing
//! held from one step to the next.

use std::sync::Mutex;

use faro_core::hetero::HeteroProblem;
use faro_core::hierarchical::solve_hierarchical;
use faro_core::objective::{ClusterObjective, JobUtility};
use faro_core::opt::{
    ContinuousAllocation, Fidelity, JobWorkload, LatencyModel, MultiTenantProblem,
};
use faro_core::penalty::{phi, PenaltyShape};
use faro_core::rng::SplitMix64;
use faro_core::types::{ClassAlloc, ReplicaClass, ResourceModel, Slo};
use faro_core::units::ReplicaCount;
use faro_core::utility::{step_utility, RelaxedUtility};
use faro_queueing::{mdc, RelaxedLatency};
use faro_solver::{Cobyla, DifferentialEvolution, Problem, Solution, Solver};

const QUOTA: u32 = 24;

fn objectives() -> Vec<ClusterObjective> {
    if cfg!(miri) {
        return vec![ClusterObjective::PenaltyFairSum { gamma: 2.0 }];
    }
    vec![
        ClusterObjective::Sum,
        ClusterObjective::Fair,
        ClusterObjective::FairSum { gamma: 4.0 },
        ClusterObjective::PenaltySum,
        ClusterObjective::PenaltyFairSum { gamma: 4.0 },
    ]
}

fn fidelities() -> Vec<Fidelity> {
    if cfg!(miri) {
        return vec![Fidelity::Relaxed];
    }
    vec![Fidelity::Relaxed, Fidelity::Precise]
}

/// `n` jobs of three two-step trajectories each, from idle to
/// overloaded at the quota, with mixed priorities.
fn jobs(n: usize) -> Vec<JobWorkload> {
    let mut rng = SplitMix64::new(11);
    (0..n)
        .map(|i| {
            let base = 4.0 + 30.0 * rng.fraction();
            JobWorkload {
                lambda_trajectories: (0..3)
                    .map(|t| vec![base * (0.6 + 0.4 * f64::from(t)), base * 1.1])
                    .collect(),
                processing_time: 0.090 + 0.030 * (i % 3) as f64,
                slo: Slo::paper_default(),
                priority: 1.0 + (i % 2) as f64,
            }
        })
        .collect()
}

fn resources() -> ResourceModel {
    ResourceModel::replicas(ReplicaCount::new(QUOTA))
}

fn problem(n: usize, objective: ClusterObjective, fidelity: Fidelity) -> MultiTenantProblem {
    MultiTenantProblem::new(jobs(n), resources(), objective, fidelity).expect("valid problem")
}

/// A solver that records every objective evaluation its inner solver
/// makes, from whichever thread makes it, and the point it returns.
struct Tap<'a, S> {
    inner: &'a S,
    log: Mutex<Vec<(Vec<f64>, f64)>>,
    solved: Mutex<Vec<f64>>,
}

impl<'a, S: Solver> Tap<'a, S> {
    fn new(inner: &'a S) -> Self {
        Self {
            inner,
            log: Mutex::new(Vec::new()),
            solved: Mutex::new(Vec::new()),
        }
    }

    /// The recorded evaluations (all of them, or a prefix under Miri).
    fn evaluations(&self) -> Vec<(Vec<f64>, f64)> {
        let mut log = self.log.lock().unwrap().clone();
        assert!(!log.is_empty(), "the solver evaluated nothing");
        if cfg!(miri) {
            log.truncate(6);
        }
        log
    }
}

struct TappedProblem<'a> {
    inner: &'a (dyn Problem + Sync),
    log: &'a Mutex<Vec<(Vec<f64>, f64)>>,
}

impl Problem for TappedProblem<'_> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn objective(&self, x: &[f64]) -> f64 {
        let f = self.inner.objective(x);
        self.log.lock().unwrap().push((x.to_vec(), f));
        f
    }
    fn num_constraints(&self) -> usize {
        self.inner.num_constraints()
    }
    fn constraints(&self, x: &[f64], out: &mut [f64]) {
        self.inner.constraints(x, out);
    }
    fn bounds(&self) -> Vec<(f64, f64)> {
        self.inner.bounds()
    }
}

impl<S: Solver> Solver for Tap<'_, S> {
    fn solve(&self, problem: &(dyn Problem + Sync), x0: &[f64]) -> faro_solver::Result<Solution> {
        let tapped = TappedProblem {
            inner: problem,
            log: &self.log,
        };
        let solution = self.inner.solve(&tapped, x0)?;
        self.solved.lock().unwrap().clone_from(&solution.x);
        Ok(solution)
    }
}

/// A "solver" that evaluates one given point and returns it: run
/// through an entry point that builds its own problem, it reads that
/// point off a problem that has evaluated nothing else.
struct ProbeAt(Vec<f64>);

impl Solver for ProbeAt {
    fn solve(&self, problem: &(dyn Problem + Sync), _x0: &[f64]) -> faro_solver::Result<Solution> {
        Ok(Solution {
            x: self.0.clone(),
            objective: problem.objective(&self.0),
            violation: 0.0,
            evals: 1,
            iterations: 0,
            converged: true,
        })
    }
}

/// What a problem with an empty cache says at solver point `v`.
fn cold_objective(p: &MultiTenantProblem, v: &[f64]) -> f64 {
    let n = p.n_jobs();
    let (xs, ds) = if p.objective().uses_drop_rates() {
        v.split_at(n)
    } else {
        (v, &[][..])
    };
    -p.clone().cluster_value(xs, ds)
}

fn cobyla() -> Cobyla {
    Cobyla {
        max_iters: if cfg!(miri) { 2 } else { 120 },
        ..Cobyla::fast()
    }
}

#[test]
fn probes_steps_and_revisits_evaluate_as_a_fresh_clone() {
    let n = 4;
    let steps = if cfg!(miri) { 8 } else { 80 };
    for objective in objectives() {
        for fidelity in fidelities() {
            for model in [LatencyModel::MDc, LatencyModel::UpperBound] {
                let p = problem(n, objective, fidelity).with_latency_model(model);
                let mut rng = SplitMix64::new(3);
                let mut xs = vec![2.0; n];
                let mut ds = vec![0.0; n];
                let mut visited: Vec<(Vec<f64>, Vec<f64>)> = Vec::new();
                for step in 0..steps {
                    match rng.below(10) {
                        // A solver's finite-difference probe: one
                        // coordinate moves, a replica count or a drop rate.
                        0..=2 => xs[rng.below(n)] = 1.0 + f64::from(QUOTA) * rng.fraction(),
                        3..=4 => ds[rng.below(n)] = rng.fraction(),
                        // An integer count, as integerize and shrink ask.
                        5 => xs[rng.below(n)] = (1 + rng.below(QUOTA as usize)) as f64,
                        // A full step: every coordinate moves.
                        6..=7 => {
                            for i in 0..n {
                                xs[i] = 1.0 + f64::from(QUOTA) * rng.fraction();
                                ds[i] = rng.fraction() * rng.fraction();
                            }
                        }
                        // Back to a point evaluated earlier.
                        _ => {
                            if let Some((x, d)) = visited.get(rng.below(visited.len().max(1))) {
                                xs.clone_from(x);
                                ds.clone_from(d);
                            }
                        }
                    }
                    visited.push((xs.clone(), ds.clone()));
                    let warm = p.cluster_value(&xs, &ds);
                    let cold = p.clone().cluster_value(&xs, &ds);
                    assert_eq!(
                        warm.to_bits(),
                        cold.to_bits(),
                        "{objective:?} {fidelity:?} {model:?} step {step}: {warm} vs {cold} \
                         at {xs:?} / {ds:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn a_flat_solve_and_its_post_processing_equal_a_fresh_clones() {
    let n = 5;
    let solver = cobyla();
    for objective in objectives() {
        for fidelity in fidelities() {
            let p = problem(n, objective, fidelity);
            let tap = Tap::new(&solver);
            let alloc = p.solve(&tap, &vec![2; n]).expect("solve");
            for (v, f) in tap.evaluations() {
                assert_eq!(
                    f.to_bits(),
                    cold_objective(&p, &v).to_bits(),
                    "{objective:?} {fidelity:?} at {v:?}"
                );
            }
            // The solved point, and the same point pushed past the quota
            // so that integerize has replicas to trim.
            let crowded = ContinuousAllocation {
                replicas: alloc.replicas.iter().map(|x| x + 3.4).collect(),
                ..alloc.clone()
            };
            for alloc in [&alloc, &crowded] {
                let fresh = p.clone();
                let mut warm_xs = p.integerize(alloc);
                let mut cold_xs = fresh.integerize(alloc);
                assert_eq!(warm_xs, cold_xs, "{objective:?} {fidelity:?} integerize");
                p.shrink(&mut warm_xs, &alloc.drop_rates);
                fresh.shrink(&mut cold_xs, &alloc.drop_rates);
                assert_eq!(warm_xs, cold_xs, "{objective:?} {fidelity:?} shrink");
            }
        }
    }
}

#[test]
fn a_grouped_solve_evaluates_as_a_problem_that_has_seen_nothing() {
    let (n, groups, seed) = (9, 3, 5);
    let jobs = jobs(n);
    let current = vec![2; n];
    let solver = cobyla();
    for objective in objectives() {
        for fidelity in fidelities() {
            let grouped = |solver: &dyn Solver| {
                solve_hierarchical(
                    &jobs,
                    resources(),
                    objective,
                    fidelity,
                    solver,
                    &current,
                    groups,
                    seed,
                )
                .expect("grouped solve")
            };
            let tap = Tap::new(&solver);
            let warm = grouped(&tap);
            // A group-budget probe reaches the cache as a move of that
            // group's members only; each recorded point must read the
            // same off a problem built for it alone.
            for (v, f) in tap.evaluations() {
                let cold = grouped(&ProbeAt(v.clone()));
                assert_eq!(
                    cold.group_objective.to_bits(),
                    (-f).to_bits(),
                    "{objective:?} {fidelity:?} at {v:?}"
                );
            }
            // Integerized after the whole solve, or after nothing.
            let cold = grouped(&ProbeAt(tap.solved.lock().unwrap().clone()));
            assert_eq!(warm.replicas, cold.replicas, "{objective:?} {fidelity:?}");
        }
    }
}

#[test]
fn concurrent_population_evaluation_equals_sequential() {
    let n = 4;
    let de = DifferentialEvolution {
        population: if cfg!(miri) { 4 } else { 24 },
        max_generations: if cfg!(miri) { 1 } else { 6 },
        ..DifferentialEvolution::default()
    };
    for objective in objectives() {
        let p = problem(n, objective, Fidelity::Relaxed);
        // Differential Evolution evaluates each generation on one
        // thread per core, all through the one problem's cache.
        let tap = Tap::new(&de);
        let alloc = p.solve(&tap, &vec![2; n]).expect("solve");
        for (v, f) in tap.evaluations() {
            assert_eq!(
                f.to_bits(),
                cold_objective(&p, &v).to_bits(),
                "{objective:?} at {v:?}"
            );
        }
        // And the whole solve repeats on a problem that starts empty.
        let again = p.clone().solve(&de, &vec![2; n]).expect("solve");
        assert_eq!(alloc, again, "{objective:?}");
    }
}

/// `n` paper-shaped jobs: 20 sampled trajectories of 6 window steps
/// around a per-job mean, ResNet34 service time.
fn sampled_jobs(n: usize) -> Vec<JobWorkload> {
    let mut rng = SplitMix64::new(18);
    (0..n)
        .map(|i| {
            let mean = 4.0 + 12.0 * rng.fraction();
            JobWorkload {
                lambda_trajectories: (0..20)
                    .map(|_| {
                        (0..6)
                            .map(|_| mean * (0.7 + 0.6 * rng.fraction()))
                            .collect()
                    })
                    .collect(),
                processing_time: 0.180,
                slo: Slo::paper_default(),
                priority: 1.0 + (i % 3) as f64,
            }
        })
        .collect()
}

/// The drop-rate objectives are the only traffic that leaves the
/// latency tables in a default configuration: every evaluation asks for
/// rates `lambda * (1 - d)` no table row holds. What a whole cold-start
/// `solve -> integerize -> shrink` decides under them — right-sized,
/// starved and at forty jobs — is pinned here, continuous point
/// included; the digest was taken when those rates went through a keyed
/// lookup first.
#[test]
#[cfg_attr(miri, ignore = "six default solves; the digest is checked natively")]
fn drop_objective_solves_decide_what_they_decided() {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |word: u64| digest = (digest ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    for (n, quota) in [(10, 32), (10, 20), (40, 400)] {
        for objective in [
            ClusterObjective::PenaltySum,
            ClusterObjective::PenaltyFairSum { gamma: 4.0 },
        ] {
            let p = MultiTenantProblem::new(
                sampled_jobs(n),
                ResourceModel::replicas(ReplicaCount::new(quota)),
                objective,
                Fidelity::Relaxed,
            )
            .expect("valid problem");
            let alloc = p.solve(&Cobyla::fast(), &vec![1; n]).expect("solve");
            mix(alloc.evals as u64);
            mix(alloc.objective_value.to_bits());
            alloc
                .replicas
                .iter()
                .chain(&alloc.drop_rates)
                .for_each(|v| mix(v.to_bits()));
            // The solved point, and the same point pushed past the quota
            // under drop rates the solve need not settle on, so that the
            // trim and the shrink score drop-adjusted rates too.
            let crowded = ContinuousAllocation {
                replicas: alloc.replicas.iter().map(|x| x + 1.4).collect(),
                drop_rates: (0..n).map(|j| 0.04 * (j % 3) as f64).collect(),
                ..alloc.clone()
            };
            for alloc in [&alloc, &crowded] {
                let mut xs = p.integerize(alloc);
                xs.iter().for_each(|x| mix(u64::from(x.total())));
                p.shrink(&mut xs, &alloc.drop_rates);
                xs.iter().for_each(|x| mix(u64::from(x.total())));
            }
        }
    }
    assert_eq!(
        digest, 0x46a4_c32c_c74f_bbda,
        "drop-objective decisions moved: digest {digest:#018x}"
    );
}

/// C = 1 *is* the scalar problem: a one-class table of a class `SPEED`
/// times slower than the reference, at processing time `p`, and a
/// classless cluster of as many replicas at `SPEED · p` read the same
/// bits at every point a solve visits and decide the same integers,
/// under every objective, both fidelities and both estimators.
#[test]
fn a_one_class_table_is_the_scalar_problem_at_its_class_speed() {
    const SPEED: f64 = 3.0;
    let n = 5;
    let slowed: Vec<JobWorkload> = jobs(n)
        .into_iter()
        .map(|job| JobWorkload {
            processing_time: SPEED * job.processing_time,
            ..job
        })
        .collect();
    let quota = f64::from(QUOTA);
    let one_class =
        ResourceModel::heterogeneous(vec![ReplicaClass::cpu("cpu", SPEED)], quota, 0.0, quota);
    let solver = cobyla();
    let bits = |log: Vec<(Vec<f64>, f64)>| -> Vec<(Vec<u64>, u64)> {
        log.into_iter()
            .map(|(v, f)| (v.iter().map(|x| x.to_bits()).collect(), f.to_bits()))
            .collect()
    };
    for objective in objectives() {
        for fidelity in fidelities() {
            for model in [LatencyModel::MDc, LatencyModel::UpperBound] {
                let build = |jobs: Vec<JobWorkload>, resources: ResourceModel| {
                    MultiTenantProblem::new(jobs, resources, objective, fidelity)
                        .expect("valid problem")
                        .with_latency_model(model)
                };
                let classed = build(jobs(n), one_class.clone());
                let scalar = build(slowed.clone(), resources());
                let (classed_tap, scalar_tap) = (Tap::new(&solver), Tap::new(&solver));
                let alloc = classed.solve(&classed_tap, &vec![2; n]).expect("solve");
                let want = scalar.solve(&scalar_tap, &vec![2; n]).expect("solve");
                let what = format!("{objective:?} {fidelity:?} {model:?}");
                assert_eq!(
                    bits(classed_tap.evaluations()),
                    bits(scalar_tap.evaluations()),
                    "{what}"
                );
                assert_eq!(alloc, want, "{what}");
                let crowded = ContinuousAllocation {
                    replicas: alloc.replicas.iter().map(|x| x + 3.4).collect(),
                    ..alloc.clone()
                };
                for alloc in [&alloc, &crowded] {
                    let mut got = classed.integerize(alloc);
                    let mut want = scalar.integerize(alloc);
                    assert_eq!(got, want, "{what} integerize");
                    classed.shrink(&mut got, &alloc.drop_rates);
                    scalar.shrink(&mut want, &alloc.drop_rates);
                    assert_eq!(got, want, "{what} shrink");
                }
            }
        }
    }
}

// ------------------------------------------------------- the classed problem

/// Non-default sharpness and knee, so the builders' overrides are read.
const CLASSED_ALPHA: f64 = 6.0;
const CLASSED_KNEE: f64 = 0.9;

/// A classed problem beside everything needed to score it without it.
struct Classed {
    problem: HeteroProblem,
    jobs: Vec<JobWorkload>,
    /// Service-time multiplier per class.
    speeds: Vec<f64>,
    /// `masks[job][class]`: whether the job may run on the class.
    masks: Vec<Vec<bool>>,
    objective: ClusterObjective,
    fidelity: Fidelity,
}

impl Classed {
    fn new(
        jobs: Vec<JobWorkload>,
        resources: ResourceModel,
        masks: Vec<Vec<bool>>,
        objective: ClusterObjective,
        fidelity: Fidelity,
    ) -> Self {
        let speeds = resources.classes.iter().map(|c| c.speed).collect();
        let problem = HeteroProblem::new(jobs.clone(), resources, objective, fidelity)
            .expect("valid classed problem")
            .with_utility(RelaxedUtility::new(CLASSED_ALPHA))
            .with_relaxed_latency(RelaxedLatency::new(CLASSED_KNEE).expect("valid knee"))
            .with_affinity(masks.clone())
            .expect("valid masks");
        Self {
            problem,
            jobs,
            speeds,
            masks,
            objective,
            fidelity,
        }
    }

    /// Latency of one trajectory step, from scratch: reduce the pool to
    /// its head count and effective service time, then one estimator
    /// call per bracketing integer count.
    fn step_latency(&self, job: &JobWorkload, lambda: f64, counts: &[f64]) -> f64 {
        let (k, p) = (job.slo.percentile, job.processing_time);
        let mut total = 0.0;
        let mut rate = 0.0;
        let mut used = Vec::new();
        for (c, &x) in counts.iter().enumerate() {
            let x = x.max(0.0);
            if x > 0.0 {
                total += x;
                rate += x / (p * self.speeds[c]);
                used.push(c);
            }
        }
        let p_eff = match used[..] {
            [] => return f64::INFINITY,
            [only] => p * self.speeds[only],
            _ => total / rate,
        };
        let lambda = lambda.max(0.0);
        let relaxed = RelaxedLatency::new(CLASSED_KNEE).expect("valid knee");
        let at = |n: f64| {
            let servers = ReplicaCount::new(n as u32);
            match self.fidelity {
                Fidelity::Precise => mdc::latency_percentile(k, p_eff, lambda, servers),
                Fidelity::Relaxed => relaxed.latency(k, p_eff, lambda, servers),
            }
            .unwrap_or(f64::INFINITY)
        };
        match self.fidelity {
            Fidelity::Precise => at(total.max(1.0).round()),
            Fidelity::Relaxed => {
                let x = total.max(1.0);
                if !x.is_finite() {
                    return f64::INFINITY;
                }
                let (lo, hi) = (x.floor(), x.ceil());
                let l_lo = at(lo);
                if lo == hi {
                    return l_lo;
                }
                let l_hi = at(hi);
                if l_lo.is_infinite() || l_hi.is_infinite() {
                    return f64::INFINITY;
                }
                l_lo + (l_hi - l_lo) * (x - lo)
            }
        }
    }

    fn expected_utility(&self, i: usize, counts: &[f64], d: f64) -> f64 {
        let job = &self.jobs[i];
        let mut sum = 0.0;
        let mut steps = 0usize;
        for &lambda in job.lambda_trajectories.iter().flatten() {
            let l = self.step_latency(job, lambda * (1.0 - d.clamp(0.0, 1.0)), counts);
            sum += match self.fidelity {
                Fidelity::Precise => step_utility(l, job.slo.latency),
                Fidelity::Relaxed => RelaxedUtility::new(CLASSED_ALPHA).value(l, job.slo.latency),
            };
            steps += 1;
        }
        sum / steps.max(1) as f64
    }

    /// The solver's objective (minimize convention) at point `v`.
    fn objective_at(&self, v: &[f64]) -> f64 {
        let (n, nc) = (self.jobs.len(), self.speeds.len());
        let (xs, ds) = v.split_at(n * nc);
        let shape = match self.fidelity {
            Fidelity::Precise => PenaltyShape::Step,
            Fidelity::Relaxed => PenaltyShape::Relaxed,
        };
        let utilities: Vec<JobUtility> = (0..n)
            .map(|i| {
                let d = ds.get(i).copied().unwrap_or(0.0);
                let u = self.expected_utility(i, &xs[i * nc..(i + 1) * nc], d);
                JobUtility {
                    utility: u,
                    effective_utility: phi(d, shape) * u,
                    priority: self.jobs[i].priority,
                }
            })
            .collect();
        -self.objective.aggregate(&utilities)
    }

    /// The problem's own expected utility against the reference's, at
    /// an integer allocation and at each allocation one replica short
    /// of it (what `integerize` and `shrink` score). At one class the
    /// empty pool is skipped: the scalar form floors a count at one
    /// replica, where the reference serves nothing.
    fn check_integer_neighbourhood(&self, allocs: &[ClassAlloc], drops: &[f64], what: &str) {
        for (j, alloc) in allocs.iter().enumerate() {
            let at = alloc.as_slice().iter().map(|&n| f64::from(n));
            let mut points = vec![at.clone().collect::<Vec<f64>>()];
            for c in 0..alloc.n_classes() {
                if alloc.count(c) > 0 && (alloc.total() > 1 || alloc.n_classes() > 1) {
                    let mut short: Vec<f64> = at.clone().collect();
                    short[c] -= 1.0;
                    points.push(short);
                }
            }
            for counts in points {
                let got = self.problem.expected_utility(j, &counts, drops[j]);
                let want = self.expected_utility(j, &counts, drops[j]);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{:?} {:?} {what}: job {j} at {counts:?}: {got} vs {want}",
                    self.objective,
                    self.fidelity
                );
            }
        }
    }
}

/// `hetero_mixed`'s shape: loose- and tight-SLO ResNet18 jobs of four
/// sampled trajectories by six window steps. By `i % 5`: a loose job
/// some CPU replicas can carry, a tight job that wants GPUs, a job that
/// is idle for half its steps, a job saturated at any count the cluster
/// can host, and a light tight job.
fn classed_jobs(n: usize) -> Vec<JobWorkload> {
    const SHAPES: [(f64, f64); 5] = [
        (4.0, 7.0),
        (0.4, 10.0),
        (4.0, 0.5),
        (0.4, 900.0),
        (0.4, 3.0),
    ];
    let mut rng = SplitMix64::new(17);
    (0..n)
        .map(|i| {
            let (slo_latency, base) = SHAPES[i % 5];
            JobWorkload {
                lambda_trajectories: (0..4)
                    .map(|t| {
                        (0..6)
                            .map(|s| match (i % 5, (t + s) % 2) {
                                (2, 0) => 0.0,
                                _ => base * (0.7 + 0.6 * rng.fraction()),
                            })
                            .collect()
                    })
                    .collect(),
                processing_time: 0.100,
                slo: Slo {
                    latency: slo_latency,
                    percentile: 0.99,
                },
                priority: 1.0 + (i % 2) as f64,
            }
        })
        .collect()
}

/// The classed cases: `hetero_mixed`'s GPU and 5x-slower CPU slots with
/// one GPU-only and one CPU-only job among the unrestricted ones, and a
/// one-class table (every pool single-class, `p_eff = p * 3`).
fn classed_cases(objective: ClusterObjective, fidelity: Fidelity) -> Vec<Classed> {
    let (n, gpus, cpus) = if cfg!(miri) {
        (3, 4.0, 6.0)
    } else {
        (10, 16.0, 24.0)
    };
    let mut masks = vec![vec![true, true]; n];
    masks[1] = vec![true, false];
    masks[2] = vec![false, true];
    let mixed = Classed::new(
        classed_jobs(n),
        ResourceModel::heterogeneous(
            vec![ReplicaClass::gpu("gpu"), ReplicaClass::cpu("cpu", 5.0)],
            gpus + cpus,
            gpus,
            4.0 * gpus + cpus,
        ),
        masks,
        objective,
        fidelity,
    );
    let single = Classed::new(
        classed_jobs(3),
        ResourceModel::heterogeneous(vec![ReplicaClass::cpu("cpu", 3.0)], 20.0, 0.0, 20.0),
        vec![vec![true]; 3],
        objective,
        fidelity,
    );
    vec![mixed, single]
}

/// FNV-1a over integer allocations.
fn allocation_digest(h: u64, allocs: &[ClassAlloc]) -> u64 {
    allocs
        .iter()
        .flat_map(|a| a.as_slice().iter().copied().chain([u32::MAX]))
        .fold(h, |h, w| {
            (h ^ u64::from(w)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Every value a default COBYLA solve of a classed problem reads, and
/// every utility its integer post-processing scores, is the estimator's
/// own value at that step and count; and the allocations decided from
/// them are pinned, one digest per case. The mixed-class digest was
/// taken when each value was computed (or looked up in a memo) one step
/// at a time; the one-class digest when a one-class table took the
/// scalar form, which the test above holds to the classless solve.
#[test]
fn a_classed_solve_and_its_post_processing_equal_the_direct_estimator() {
    let solver = Cobyla {
        max_iters: if cfg!(miri) { 2 } else { 400 },
        ..Cobyla::default()
    };
    let mut digests = [0xcbf2_9ce4_8422_2325u64; 2];
    for objective in objectives() {
        for fidelity in fidelities() {
            for (case, digest) in classed_cases(objective, fidelity).iter().zip(&mut digests) {
                let p = &case.problem;
                let n = p.n_jobs();
                let nc = p.n_classes();
                let tap = Tap::new(&solver);
                let alloc = p.solve(&tap, &vec![2; n]).expect("classed solve");
                for (v, f) in tap.evaluations() {
                    assert_eq!(
                        f.to_bits(),
                        case.objective_at(&v).to_bits(),
                        "{objective:?} {fidelity:?} {nc} classes at {v:?}"
                    );
                }
                // The solved point, and the same point with every allowed
                // class pushed up so that integerize has replicas to trim,
                // under drop rates no objective here settles on.
                let crowded = ContinuousAllocation {
                    replicas: alloc
                        .replicas
                        .iter()
                        .zip(case.masks.iter().flatten())
                        .map(|(x, &allowed)| if allowed { x + 2.6 } else { *x })
                        .collect(),
                    drop_rates: (0..n).map(|j| 0.04 * (j % 3) as f64).collect(),
                    ..alloc.clone()
                };
                for alloc in [&alloc, &crowded] {
                    let mut allocs = p.integerize(alloc);
                    case.check_integer_neighbourhood(&allocs, &alloc.drop_rates, "integerized");
                    *digest = allocation_digest(*digest, &allocs);
                    p.shrink(&mut allocs, &alloc.drop_rates);
                    case.check_integer_neighbourhood(&allocs, &alloc.drop_rates, "shrunk");
                    *digest = allocation_digest(*digest, &allocs);
                }
            }
        }
    }
    if !cfg!(miri) {
        let [mixed, single] = digests;
        assert_eq!(
            mixed, 0x8aa6_20e0_0b56_1fcc,
            "mixed-class allocations moved: digest {mixed:#018x}"
        );
        assert_eq!(
            single, 0x6a87_aa32_2d14_fb39,
            "one-class allocations moved: digest {single:#018x}"
        );
    }
}

/// The corners no solve visits: empty, negative, NaN and infinite
/// counts, pools under one replica, whole and fractional head counts,
/// single-class and mixed, with drop rates inside and outside `[0, 1]`.
#[test]
fn classed_corner_points_equal_the_direct_estimator() {
    let pools = [
        [0.0, 0.0],
        [-1.0, 0.0],
        [f64::NAN, 2.0],
        [0.3, 0.2],
        [0.0, 1e-9],
        [2.0, 0.0],
        [2.5, 0.0],
        [0.0, 7.0],
        [1.0, 3.0],
        [1.25, 3.5],
        [6.0, 11.75],
        [f64::INFINITY, 1.0],
    ];
    let drops = [0.0, 0.3, 1.0, 1.7, -0.4, f64::NAN];
    for fidelity in fidelities() {
        let case = &classed_cases(ClusterObjective::Sum, fidelity)[0];
        for j in 0..case.jobs.len() {
            for counts in &pools {
                for &d in &drops {
                    let got = case.problem.expected_utility(j, counts, d);
                    let want = case.expected_utility(j, counts, d);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{fidelity:?} job {j} at {counts:?}, drop {d}: {got} vs {want}"
                    );
                }
            }
        }
    }
}
