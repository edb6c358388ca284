//! The class-aware problem's name.
//!
//! Heterogeneous hardware is not a second formulation: a cluster with C
//! replica classes is [`crate::opt::MultiTenantProblem`] over C classes,
//! and the class count picks the form (see [`crate::opt`]). The alias
//! stays while the benchmark's probes (`benchmark/src/probes.rs`) import
//! this path; the tests here exercise the C ≥ 2 form.

/// The class-aware multi-tenant problem: the one problem.
pub type HeteroProblem = crate::opt::MultiTenantProblem;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use crate::evaluate::{Model, ESTIMATOR_CALLS, KNEE_RECURRENCES, STEPS_SCORED};
    use crate::objective::ClusterObjective;
    use crate::opt::{ContinuousAllocation, Fidelity, JobWorkload, LatencyModel, POOL_REDUCTIONS};
    use crate::types::{ClassAlloc, ReplicaClass, ResourceModel, Slo, MAX_CLASSES, RESOURCE_DIMS};
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
        // A class that serves nothing has no service time.
        let stalled = ReplicaClass::cpu("stalled", 0.0);
        assert!(HeteroProblem::new(
            vec![job.clone()],
            ResourceModel::heterogeneous(vec![ReplicaClass::gpu("gpu"), stalled], 8.0, 4.0, 8.0),
            ClusterObjective::Sum,
            Fidelity::Relaxed
        )
        .is_err());
        // Masks are one row of C entries per job; a classless cluster
        // is C = 1.
        let classless = HeteroProblem::new(
            vec![job.clone()],
            ResourceModel::replicas(ReplicaCount::new(8)),
            ClusterObjective::Sum,
            Fidelity::Relaxed,
        )
        .unwrap();
        assert_eq!(classless.n_classes(), 1);
        assert!(classless.with_affinity(vec![vec![true, true]]).is_err());
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
            let u0 = homo.expected_utility(0, &[f64::from(n)], 0.0);
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
        let u_tight = p.alloc_utility(0, &allocs[0], 0.0).utility;
        let u_loose = p.alloc_utility(1, &allocs[1], 0.0).utility;
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
        let alloc = ContinuousAllocation {
            replicas: vec![5.0, 4.0, 5.0, 4.0],
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
