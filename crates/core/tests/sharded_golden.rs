//! Golden determinism and quality contracts for the sharded solver.
//!
//! The sharded path ships with three promises:
//!
//! 1. **Replay** — two fresh solvers with equal seeds and configs
//!    return the same bytes (replicas, drop-rate bits, record, spans).
//! 2. **Bounded utility gap** — sharding loses only a bounded slice of
//!    cluster utility versus the flat global solve (the paper's
//!    grouped-solve trade, Sec 3.4).
//! 3. **Clean rounds are free and inert** — re-solving an unchanged
//!    cluster performs zero shard solves and returns the exact bytes of
//!    the previous answer.

use faro_core::objective::ClusterObjective;
use faro_core::opt::{Fidelity, JobWorkload, MultiTenantProblem};
use faro_core::sharded::{ShardConfig, ShardedSolver};
use faro_core::types::{ClassAlloc, ResourceModel, Slo};
use faro_core::units::ReplicaCount;
use faro_solver::Cobyla;
use proptest::prelude::*;

fn workload(lambdas: &[f64]) -> Vec<JobWorkload> {
    lambdas
        .iter()
        .map(|&l| JobWorkload::constant(l, 0.180, Slo::paper_default(), 1.0))
        .collect()
}

fn resources(jobs: usize, per_job: u32) -> ResourceModel {
    ResourceModel::replicas(ReplicaCount::new(jobs as u32 * per_job))
}

/// Solves `jobs` once and returns every observable byte of the answer.
fn solve_once(
    jobs: &[JobWorkload],
    shards: usize,
    objective: ClusterObjective,
) -> (Vec<u32>, Vec<u64>, String) {
    let mut solver = ShardedSolver::new(ShardConfig::with_shards(shards), 17);
    let cobyla = Cobyla::fast();
    let current = vec![1u32; jobs.len()];
    let out = solver
        .solve(
            jobs,
            resources(jobs.len(), 4),
            objective,
            Fidelity::Relaxed,
            &cobyla,
            &current,
        )
        .expect("sharded solve succeeds");
    let drop_bits = out.drop_rates.iter().map(|d| d.to_bits()).collect();
    let meta = format!("{:?}|{:?}", out.record, out.shard_spans);
    (out.replicas, drop_bits, meta)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Promise 2: sharding keeps the cluster objective within a bounded
    /// gap of the flat global solve on the same workload. The bound is
    /// deliberately loose (10%) — `repro --check scale_sweep` holds the
    /// real figure at 100 to 5,000 jobs under 3% — so this property
    /// never flakes while still catching a broken split or merge
    /// outright.
    #[test]
    fn sharded_utility_stays_within_bounded_gap_of_global(
        lambdas in prop::collection::vec(2.0f64..40.0, 6..16),
        shards in 2usize..5,
    ) {
        let jobs = workload(&lambdas);
        let res = resources(jobs.len(), 4);
        let cobyla = Cobyla::fast();
        let current = vec![1u32; jobs.len()];

        let problem = MultiTenantProblem::new(
            jobs.clone(),
            res.clone(),
            ClusterObjective::Sum,
            Fidelity::Relaxed,
        ).expect("valid problem");
        let alloc = problem.solve(&cobyla, &current).expect("global solve");
        let mut allocs = problem.integerize(&alloc);
        problem.shrink(&mut allocs, &alloc.drop_rates);
        let global: Vec<u32> = allocs.iter().map(ClassAlloc::total).collect();

        let mut sharded = ShardedSolver::new(ShardConfig::with_shards(shards), 17);
        let out = sharded
            .solve(&jobs, res.clone(), ClusterObjective::Sum, Fidelity::Relaxed, &cobyla, &current)
            .expect("sharded solve");

        let zeros = vec![0.0; jobs.len()];
        let g = problem.cluster_value_integer(&global, &zeros);
        let s = problem.cluster_value_integer(&out.replicas, &zeros);
        prop_assert!(
            s >= g - 0.10 * g.abs().max(1.0),
            "sharded {s:.4} fell more than 10% below global {g:.4}"
        );
    }
}

/// Promise 3: an unchanged cluster re-solves nothing and the answer is
/// the cached bytes, solver untouched.
#[test]
fn clean_round_returns_cached_bytes_with_zero_solves() {
    let jobs = workload(&[4.0, 9.0, 14.0, 19.0, 24.0, 29.0, 6.0, 11.0]);
    let mut solver = ShardedSolver::new(ShardConfig::with_shards(3), 17);
    let cobyla = Cobyla::fast();
    let current = vec![1u32; jobs.len()];
    let res = resources(jobs.len(), 4);
    let cold = solver
        .solve(
            &jobs,
            res.clone(),
            ClusterObjective::Sum,
            Fidelity::Relaxed,
            &cobyla,
            &current,
        )
        .expect("cold solve");
    assert_eq!(cold.record.solved, 3, "cold round solves every shard");
    let warm = solver
        .solve(
            &jobs,
            res.clone(),
            ClusterObjective::Sum,
            Fidelity::Relaxed,
            &cobyla,
            &cold.replicas,
        )
        .expect("warm solve");
    assert_eq!(warm.record.solved, 0, "clean round re-solves nothing");
    assert_eq!(warm.record.split_evals, 0, "clean round skips the split");
    assert_eq!(warm.record.cache_hit_jobs, jobs.len() as u32);
    assert_eq!(warm.replicas, cold.replicas);
    let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&warm.drop_rates), bits(&cold.drop_rates));
}

/// Promise 1: two fresh solvers with the same seed and config produce
/// the same bytes — the sharded path inherits the repo's replay
/// contract.
#[test]
fn fresh_solvers_with_equal_seeds_agree_exactly() {
    let jobs = workload(&[3.0, 8.0, 13.0, 21.0, 34.0, 5.0]);
    let a = solve_once(&jobs, 4, ClusterObjective::Sum);
    let b = solve_once(&jobs, 4, ClusterObjective::Sum);
    assert_eq!(a, b);
}

/// FNV-1a over the observable bytes of a sharded round.
fn round_digest(replicas: &[u32], drop_bits: &[u64], meta: &str) -> u64 {
    let words = replicas
        .iter()
        .map(|&r| u64::from(r))
        .chain(drop_bits.iter().copied())
        .chain(meta.bytes().map(u64::from));
    words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Promise 4: how a solve evaluates is invisible in what it decides.
/// These digests — replicas, drop-rate bits, and the record with its
/// evaluation counts — were taken before the latency tables stopped
/// computing knee latencies they never read, and on two shard-solve
/// threads, which shard order on the calling thread reproduces. The
/// split, the grouped shards (above `HIERARCHICAL_THRESHOLD`) and the
/// flat shards (below it) must keep reproducing them, evaluation for
/// evaluation, however the tables come to be built.
#[test]
#[cfg_attr(
    miri,
    ignore = "thousands of 130-job evaluations; the digests are checked natively"
)]
fn sharded_rounds_reproduce_their_committed_digests() {
    let lambdas: Vec<f64> = (0..130)
        .map(|i| 2.0 + f64::from(i * 37 % 101) * 0.45)
        .collect();
    let jobs = workload(&lambdas);
    let cases = [
        (2, ClusterObjective::Sum, 0x05ea_10ee_db48_d9d7u64),
        (
            2,
            ClusterObjective::PenaltyFairSum { gamma: 130.0 },
            0x2254_6996_b096_d56b,
        ),
        (
            5,
            ClusterObjective::FairSum { gamma: 130.0 },
            0x1c9d_58bb_5647_ae1c,
        ),
        (5, ClusterObjective::PenaltySum, 0x39dd_6a63_fed7_42cc),
    ];
    for (shards, objective, want) in cases {
        let (replicas, drop_bits, meta) = solve_once(&jobs, shards, objective);
        let got = round_digest(&replicas, &drop_bits, &meta);
        assert_eq!(
            got, want,
            "{shards} shards, {objective:?}: digest {got:#018x}, record {meta}"
        );
    }
}
