//! Bit-identity contracts for `MultiTenantProblem`'s solve cache.
//!
//! A job's utility is memoised on the exact bits of its replica count
//! and drop rate, so a problem that has evaluated a thousand points
//! must answer the next one exactly as a problem that has evaluated
//! none. `Clone` starts with an empty cache, which makes a fresh clone
//! the uncached reference everywhere below: flat and grouped solves,
//! the integer post-processing, and concurrent population evaluation.

use std::sync::Mutex;

use faro_core::hierarchical::solve_hierarchical;
use faro_core::objective::ClusterObjective;
use faro_core::opt::{
    ContinuousAllocation, Fidelity, JobWorkload, LatencyModel, MultiTenantProblem,
};
use faro_core::rng::SplitMix64;
use faro_core::types::{ResourceModel, Slo};
use faro_core::units::ReplicaCount;
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
