//! Property-based tests for the discrete-event simulator.

use faro_control::{Clock, ClusterBackend};
use faro_core::baselines::FairShare;
use faro_core::types::{ClusterSnapshot, DesiredState, JobDecision, JobId, JobSpec};
use faro_core::Policy;
use faro_sim::{JobSetup, SimConfig, SimRun, Simulation};
use proptest::prelude::*;

/// A policy that applies an arbitrary fixed decision sequence, to fuzz
/// actuation paths (scale up, down, drops).
struct ScriptedPolicy {
    script: Vec<(u32, f64)>,
    step: usize,
}

impl Policy for ScriptedPolicy {
    fn name(&self) -> &str {
        "scripted"
    }
    fn decide(&mut self, s: &ClusterSnapshot) -> DesiredState {
        let (target, drop) = self.script[self.step % self.script.len()];
        self.step += 1;
        s.job_ids()
            .map(|id| (id, JobDecision::replicas(target).with_drop_rate(drop)))
            .collect()
    }
}

/// A two-job backend advanced to its first policy tick, for actuation
/// properties.
fn primed_backend(seed: u64) -> faro_sim::SimBackend {
    let cfg = SimConfig {
        total_replicas: 12,
        seed,
        ..Default::default()
    };
    let setups = vec![
        JobSetup {
            spec: JobSpec::resnet34("a"),
            rates_per_minute: vec![120.0; 6],
            initial_replicas: 2,
        },
        JobSetup {
            spec: JobSpec::resnet34("b"),
            rates_per_minute: vec![120.0; 6],
            initial_replicas: 2,
        },
    ];
    let mut backend = Simulation::new(cfg, setups)
        .unwrap()
        .into_backend()
        .unwrap();
    backend.advance().expect("a first tick exists");
    backend
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Under arbitrary scale/drop churn the simulator's accounting
    /// stays consistent: violations include all drops, rates bounded,
    /// utilities within [0, 1].
    #[test]
    fn accounting_survives_actuation_churn(
        script in prop::collection::vec((1u32..10, 0.0f64..0.5), 1..8),
        rates in prop::collection::vec(20.0f64..600.0, 4..10),
        seed in 0u64..100,
    ) {
        let cfg = SimConfig { total_replicas: 10, seed, ..Default::default() };
        let setup = JobSetup {
            spec: JobSpec::resnet34("fuzz"),
            rates_per_minute: rates,
            initial_replicas: 2,
        };
        let policy = ScriptedPolicy { script, step: 0 };
        let report = Simulation::new(cfg, vec![setup]).unwrap()
            .driver(Box::new(policy))
            .unwrap()
            .run()
            .unwrap()
            .into_outcome()
            .report;
        let job = &report.jobs[0];
        prop_assert!(job.violations >= job.drops);
        prop_assert!(job.violations <= job.total_requests);
        prop_assert!((0.0..=1.0).contains(&job.violation_rate));
        for &u in &job.utility_per_minute {
            prop_assert!((0.0..=1.0).contains(&u));
        }
        for &e in &job.effective_utility_per_minute {
            prop_assert!((0.0..=1.0).contains(&e));
        }
    }

    /// An explicit drop rate of d drops about d of the traffic.
    #[test]
    fn explicit_drops_track_rate(drop in 0.1f64..0.6, seed in 0u64..20) {
        let cfg = SimConfig { total_replicas: 12, seed, ..Default::default() };
        let setup = JobSetup {
            spec: JobSpec::resnet34("dropper"),
            rates_per_minute: vec![600.0; 10],
            initial_replicas: 8, // Plenty: only explicit drops occur.
        };
        let policy = ScriptedPolicy { script: vec![(8, drop)], step: 0 };
        let report = Simulation::new(cfg, vec![setup]).unwrap()
            .driver(Box::new(policy))
            .unwrap()
            .run()
            .unwrap()
            .into_outcome()
            .report;
        let job = &report.jobs[0];
        let observed = job.drops as f64 / job.total_requests as f64;
        prop_assert!(
            (observed - drop).abs() < 0.05,
            "asked {drop}, observed {observed}"
        );
    }

    /// More capacity never (statistically) increases the violation
    /// rate on the same workload and seed.
    #[test]
    fn more_replicas_never_hurt(seed in 0u64..20) {
        let setup = || JobSetup {
            spec: JobSpec::resnet34("cap"),
            rates_per_minute: vec![1200.0; 8],
            initial_replicas: 1,
        };
        let run = |replicas: u32| {
            let cfg = SimConfig { total_replicas: replicas, seed, ..Default::default() };
            Simulation::new(cfg, vec![setup()]).unwrap()
                .driver(Box::new(FairShare))
                .unwrap()
                .run()
                .unwrap()
                .into_outcome()
                .report
                .cluster_violation_rate
        };
        let small = run(2);
        let big = run(10);
        prop_assert!(big <= small + 0.02, "2 replicas: {small}, 10 replicas: {big}");
    }

    /// Applying the same desired state twice is a no-op on observable
    /// cluster state: the second apply scales nothing and changes no
    /// observation.
    #[test]
    fn applying_the_same_state_twice_is_a_noop(
        t0 in 1u32..6,
        t1 in 1u32..6,
        d0 in 0.0f64..0.5,
        seed in 0u64..20,
    ) {
        let mut backend = primed_backend(seed);
        let desired: DesiredState = vec![
            (JobId::new(0), JobDecision::replicas(t0).with_drop_rate(d0)),
            (JobId::new(1), JobDecision::replicas(t1)),
        ]
        .into_iter()
        .collect();
        backend.apply(&desired).unwrap();
        let after_once = backend.observe().unwrap();
        let second = backend.apply(&desired).unwrap();
        let after_twice = backend.observe().unwrap();
        prop_assert_eq!(second.replicas_started, faro_core::units::ReplicaCount::ZERO, "targets already met");
        prop_assert_eq!(after_once, after_twice);
    }

    /// Jobs absent from the desired state are left untouched by
    /// actuation.
    #[test]
    fn apply_never_touches_absent_jobs(
        target in 1u32..8,
        drop in 0.0f64..0.5,
        seed in 0u64..20,
    ) {
        let mut backend = primed_backend(seed);
        let before = backend.observe().unwrap();
        let only_first: DesiredState = vec![
            (JobId::new(0), JobDecision::replicas(target).with_drop_rate(drop)),
        ]
        .into_iter()
        .collect();
        let report = backend.apply(&only_first).unwrap();
        let after = backend.observe().unwrap();
        prop_assert_eq!(report.jobs_applied, 1);
        prop_assert_eq!(&after.jobs[1], &before.jobs[1], "job 1 was absent");
        prop_assert_eq!(after.jobs[0].target_replicas, target);
    }
}
