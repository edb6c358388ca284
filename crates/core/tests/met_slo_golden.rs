//! What zero-drop flat solves and classed solves decide, pinned from
//! outside the crate.
//!
//! Every step of the flat solves is read from the latency tables, and
//! every step of the classed ones is asked of the evaluator; both score
//! a step that meets its SLO as 1 without evaluating the power in
//! `RelaxedUtility::value`. Each digest was taken when every step went
//! through that power (the flat one at `d6662cb`, the classed one at
//! `e93d2eb`), over the inputs on which the two could part if anything
//! could: sharpnesses on both sides of the `alpha > 0` guard (the field
//! is public, so zero, negative and NaN values arrive through
//! `with_utility`), targets tight enough that most steps miss them and
//! loose enough that all meet them, and a target that is exactly one
//! step's latency.

use faro_core::hetero::HeteroProblem;
use faro_core::objective::ClusterObjective;
use faro_core::opt::{Fidelity, JobWorkload, MultiTenantProblem};
use faro_core::rng::SplitMix64;
use faro_core::types::{ReplicaClass, ResourceModel, Slo};
use faro_core::units::ReplicaCount;
use faro_core::utility::RelaxedUtility;
use faro_queueing::RelaxedLatency;
use faro_solver::Cobyla;

/// The paper's shape: ten jobs, 20 sampled trajectories of 7 window
/// steps around a per-job mean, ResNet34 service time; targets from a
/// third of the default to three times it.
fn paper_shaped_jobs() -> Vec<JobWorkload> {
    let mut rng = SplitMix64::new(23);
    (0..10)
        .map(|i| {
            let mean = 4.0 + 12.0 * rng.fraction();
            JobWorkload {
                lambda_trajectories: (0..20)
                    .map(|_| {
                        (0..7)
                            .map(|_| mean * (0.7 + 0.6 * rng.fraction()))
                            .collect()
                    })
                    .collect(),
                processing_time: 0.180,
                slo: Slo {
                    latency: [0.720, 0.240, 2.160][i % 3],
                    percentile: 0.99,
                },
                priority: 1.0 + (i % 2) as f64,
            }
        })
        .collect()
}

#[test]
#[cfg_attr(miri, ignore = "thirty default solves; the digest is checked natively")]
fn zero_drop_solves_decide_what_they_decided_through_powf() {
    let mut jobs = paper_shaped_jobs();
    // Job 0's target is the latency of its first step at 2.5 replicas,
    // to the bit.
    let first = jobs[0].lambda_trajectories[0][0];
    jobs[0].slo.latency = RelaxedLatency::default()
        .latency_fractional(0.99, 0.180, first, 2.5)
        .expect("a valid queue");

    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |word: u64| digest = (digest ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    for quota in [32, 20] {
        for objective in [
            ClusterObjective::Sum,
            ClusterObjective::Fair,
            ClusterObjective::FairSum { gamma: 4.0 },
        ] {
            for alpha in [4.0, 0.5, 16.0, 0.0, -1.0] {
                let p = MultiTenantProblem::new(
                    jobs.clone(),
                    ResourceModel::replicas(ReplicaCount::new(quota)),
                    objective,
                    Fidelity::Relaxed,
                )
                .expect("valid problem")
                .with_utility(RelaxedUtility { alpha });
                let alloc = p.solve(&Cobyla::default(), &[2; 10]).expect("solve");
                mix(alloc.evals as u64);
                mix(alloc.objective_value.to_bits());
                alloc.replicas.iter().for_each(|x| mix(x.to_bits()));
                let mut xs = p.integerize(&alloc);
                xs.iter().for_each(|x| mix(u64::from(x.total())));
                p.shrink(&mut xs, &alloc.drop_rates);
                xs.iter().for_each(|x| mix(u64::from(x.total())));
                // The job whose target sits on a table entry, at the
                // count that reads it and either side.
                for x in [2.0, 2.5, 3.0] {
                    mix(p.expected_utility(0, &[x], 0.0).to_bits());
                }
            }
        }
    }
    assert_eq!(
        digest, 0x5556_be09_1e85_c2b3,
        "zero-drop decisions moved: digest {digest:#018x}"
    );
}

/// Six ResNet18-like jobs of four trajectories by six window steps. By
/// `i % 6`: idle at every other step, under the knee at any count a
/// solve settles on, a tight job that wants GPUs, past the knee at any
/// count the cluster can host, a loose job some CPU replicas carry, and
/// a job whose rates straddle the knee of two to three GPU replicas.
fn classed_jobs() -> Vec<JobWorkload> {
    const SHAPES: [(f64, f64); 6] = [
        (0.4, 6.0),
        (0.6, 4.0),
        (0.25, 12.0),
        (0.4, 600.0),
        (3.0, 5.0),
        (0.4, 25.0),
    ];
    let mut rng = SplitMix64::new(25);
    SHAPES
        .iter()
        .enumerate()
        .map(|(i, &(latency, base))| JobWorkload {
            lambda_trajectories: (0..4)
                .map(|t| {
                    (0..6)
                        .map(|s| match (i, (t + s) % 2) {
                            (0, 0) => 0.0,
                            _ => base * (0.6 + 0.8 * rng.fraction()),
                        })
                        .collect()
                })
                .collect(),
            processing_time: 0.100,
            slo: Slo {
                latency,
                percentile: 0.99,
            },
            priority: 1.0 + (i % 2) as f64,
        })
        .collect()
}

/// What classed solves decide, taken at `e93d2eb`, when every step's
/// utility went through the power in `RelaxedUtility::value` and a
/// fractional pool ran one Erlang recurrence per bracketing count.
/// A GPU and a 5x-slower CPU class, one GPU-only and one CPU-only job,
/// the solve's fractional pools and the post-processing's whole ones,
/// sharpnesses on both sides of the `alpha > 0` guard (NaN included),
/// both fidelities, with and without drop rates in the decision.
#[test]
#[cfg_attr(
    miri,
    ignore = "two dozen classed solves; the digest is checked natively"
)]
fn classed_solves_decide_what_they_decided_through_powf() {
    let mut jobs = classed_jobs();
    // Job 5's target is the latency of its first step at 2.5 GPU
    // replicas, to the bit.
    let first = jobs[5].lambda_trajectories[0][0];
    jobs[5].slo.latency = RelaxedLatency::default()
        .latency_fractional(0.99, 0.100, first, 2.5)
        .expect("a valid queue");
    let (gpus, cpus) = (8.0, 12.0);
    let resources = ResourceModel::heterogeneous(
        vec![ReplicaClass::gpu("gpu"), ReplicaClass::cpu("cpu", 5.0)],
        gpus + cpus,
        gpus,
        4.0 * gpus + cpus,
    );
    let mut masks = vec![vec![true, true]; jobs.len()];
    masks[2] = vec![true, false];
    masks[4] = vec![false, true];

    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |word: u64| digest = (digest ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    for fidelity in [Fidelity::Relaxed, Fidelity::Precise] {
        for objective in [ClusterObjective::Sum, ClusterObjective::PenaltySum] {
            for alpha in [4.0, 0.5, 16.0, 0.0, -1.0, f64::NAN] {
                let p = HeteroProblem::new(jobs.clone(), resources.clone(), objective, fidelity)
                    .expect("valid problem")
                    .with_affinity(masks.clone())
                    .expect("valid masks")
                    .with_utility(RelaxedUtility { alpha });
                let alloc = p.solve(&Cobyla::default(), &[2; 6]).expect("solve");
                mix(alloc.evals as u64);
                mix(alloc.objective_value.to_bits());
                alloc.replicas.iter().for_each(|x| mix(x.to_bits()));
                alloc.drop_rates.iter().for_each(|d| mix(d.to_bits()));
                let mut allocs = p.integerize(&alloc);
                allocs
                    .iter()
                    .flat_map(|a| a.as_slice().iter())
                    .for_each(|&n| mix(u64::from(n)));
                p.shrink(&mut allocs, &alloc.drop_rates);
                allocs
                    .iter()
                    .flat_map(|a| a.as_slice().iter())
                    .for_each(|&n| mix(u64::from(n)));
                // Whole and fractional pools, single-class and mixed, at
                // the count whose latency is job 5's target and either
                // side, with and without drops.
                for counts in [[2.0, 0.0], [2.5, 0.0], [3.0, 0.0], [1.5, 1.25], [0.0, 3.0]] {
                    for j in [0, 3, 5] {
                        for d in [0.0, 0.2] {
                            mix(p.expected_utility(j, &counts, d).to_bits());
                        }
                    }
                }
            }
        }
    }
    assert_eq!(
        digest, 0x6867_dc1f_e9f8_18f6,
        "classed decisions moved: digest {digest:#018x}"
    );
}
