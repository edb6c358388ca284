//! What zero-drop flat solves decide, pinned from outside the crate.
//!
//! Every step of these solves is read from the latency tables, which
//! score a step that meets its SLO as 1 without evaluating the power in
//! `RelaxedUtility::value`. The digest below was taken at `d6662cb`,
//! when every step went through that power, over the inputs on which
//! the two could part if anything could: sharpnesses on both sides of
//! the `alpha > 0` guard (the field is public, so zero and negative
//! values arrive through `with_utility`), targets tight enough that
//! most steps miss them and loose enough that all meet them, and a
//! target that is exactly one step's tabulated latency.

use faro_core::objective::ClusterObjective;
use faro_core::opt::{Fidelity, JobWorkload, MultiTenantProblem};
use faro_core::rng::SplitMix64;
use faro_core::types::{ResourceModel, Slo};
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
                xs.iter().for_each(|&x| mix(u64::from(x)));
                p.shrink(&mut xs, &alloc.drop_rates);
                xs.iter().for_each(|&x| mix(u64::from(x)));
                // The job whose target sits on a table entry, at the
                // count that reads it and either side.
                for x in [2.0, 2.5, 3.0] {
                    mix(p.expected_utility(0, x, 0.0).to_bits());
                }
            }
        }
    }
    assert_eq!(
        digest, 0x5556_be09_1e85_c2b3,
        "zero-drop decisions moved: digest {digest:#018x}"
    );
}
