//! End-to-end integration tests: the full stack (traces -> predictors
//! -> Faro policy -> simulator -> reports) on short workloads.

use faro::bench::harness::{run_matrix, ExperimentSpec};
use faro::bench::policies::{Ablation, PolicyKind};
use faro::bench::WorkloadSet;
use faro::control::{BreakerState, Clock, DriverStats, Reconciler};
use faro::core::admission::OutageClamp;
use faro::core::types::{JobId, ReplicaClass, ResourceModel};
use faro::core::units::{DurationMs, SimTimeMs};
use faro::core::ClusterObjective;
use faro::sim::{
    ClusterReport, FaultPlan, MetricOutage, MetricOutageMode, NodeOutage, ReplicaCrashes,
    SimConfig, SimRun, Simulation,
};
use faro::telemetry::TraceSink;

fn small_set() -> WorkloadSet {
    WorkloadSet::n_jobs(4, 21, 1200.0).truncated_eval(45)
}

#[test]
fn faro_beats_static_and_oneshot_when_constrained() {
    // A busy mid-day slice with real trained predictors: the setting
    // where Faro's predictive cross-job allocation pays off.
    let set = WorkloadSet::n_jobs(4, 21, 1200.0).eval_window(120, 60);
    let trained = set.train_predictors(3);
    let spec = ExperimentSpec::new(
        vec![
            PolicyKind::faro(ClusterObjective::Sum),
            PolicyKind::FairShare,
            PolicyKind::Oneshot,
        ],
        vec![10],
    )
    .with_trials(2);
    let results = run_matrix(&spec, &set, Some(&trained));
    let faro = &results[0];
    for baseline in &results[1..] {
        assert!(
            faro.violation_mean <= baseline.violation_mean * 1.1,
            "Faro ({:.4}) should not lose to {} ({:.4})",
            faro.violation_mean,
            baseline.policy,
            baseline.violation_mean
        );
    }
}

#[test]
fn deterministic_full_stack_replay() {
    let set = small_set();
    let spec =
        ExperimentSpec::new(vec![PolicyKind::faro(ClusterObjective::Sum)], vec![12]).with_trials(1);
    let a = run_matrix(&spec, &set, None);
    let b = run_matrix(&spec, &set, None);
    assert_eq!(a[0].violation_mean, b[0].violation_mean);
    assert_eq!(a[0].lost_utility_mean, b[0].lost_utility_mean);
    assert_eq!(
        a[0].reports[0].cluster_utility_per_minute,
        b[0].reports[0].cluster_utility_per_minute
    );
}

#[test]
fn relaxation_ablation_hurts() {
    // Removing the relaxation leaves the precise plateau objective: the
    // local solver stalls and allocations are poor (paper Fig. 16's
    // largest ablation effect: 2.1x-3.7x).
    let set = small_set();
    let full = PolicyKind::faro(ClusterObjective::FairSum { gamma: 4.0 });
    let ablated = PolicyKind::Faro {
        objective: ClusterObjective::FairSum { gamma: 4.0 },
        ablation: Ablation {
            no_relaxation: true,
            ..Default::default()
        },
    };
    let spec = ExperimentSpec::new(vec![full, ablated], vec![12]).with_trials(2);
    let results = run_matrix(&spec, &set, None);
    assert!(
        results[0].lost_utility_mean <= results[1].lost_utility_mean * 1.05,
        "full Faro {:.3} should beat no-relaxation {:.3}",
        results[0].lost_utility_mean,
        results[1].lost_utility_mean
    );
}

#[test]
fn every_policy_stays_within_quota_and_serves() {
    let set = small_set();
    let quota = 8u32;
    let mut policies = PolicyKind::standard_nine(set.len());
    policies.push(PolicyKind::Cilantro);
    let spec = ExperimentSpec::new(policies, vec![quota]).with_trials(1);
    let results = run_matrix(&spec, &set, None);
    for r in &results {
        let report = &r.reports[0];
        assert_eq!(report.quota, quota);
        for job in &report.jobs {
            assert!(
                job.total_requests > 0,
                "{}: job {} starved",
                r.policy,
                job.name
            );
            assert!(job.violations <= job.total_requests);
            assert!(job.drops <= job.violations);
            assert!((0.0..=1.0).contains(&job.violation_rate));
            for &u in &job.utility_per_minute {
                assert!((0.0..=1.0).contains(&u), "{}: utility {u}", r.policy);
            }
        }
        assert!(r.lost_utility_mean >= 0.0 && r.lost_utility_mean <= set.len() as f64);
    }
}

#[test]
fn oversubscription_degrades_everyone_but_faro_least() {
    let set = WorkloadSet::n_jobs(4, 21, 1200.0).eval_window(120, 45);
    let spec = ExperimentSpec::new(
        vec![PolicyKind::faro(ClusterObjective::Sum), PolicyKind::Aiad],
        vec![6, 16],
    )
    .with_trials(1);
    let results = run_matrix(&spec, &set, None);
    let get = |policy: &str, size: u32| {
        results
            .iter()
            .find(|r| r.policy == policy && r.cluster_size == size)
            .expect("cell exists")
            .violation_mean
    };
    // Both degrade when constrained (small tolerance for noise on the
    // short slice).
    assert!(get("Faro-Sum", 6) >= get("Faro-Sum", 16) - 0.01);
    assert!(get("AIAD", 6) >= get("AIAD", 16) - 0.01);
    // Faro stays ahead in the constrained cluster.
    assert!(get("Faro-Sum", 6) <= get("AIAD", 6) * 1.15 + 0.01);
}

/// One traced run through `Driver::run`, the one arm, beside the same
/// cell stepped by hand with `Reconciler::reconcile`: the simulator
/// never fails a call, so the two must agree on every round.
#[test]
fn the_one_arm_on_a_clean_simulator_is_reconcile_stepped_by_hand() {
    let faults = FaultPlan {
        replica_crashes: Some(ReplicaCrashes {
            mttf: DurationMs::from_secs(600.0),
        }),
        node_outage: Some(NodeOutage {
            start: SimTimeMs::from_secs(600.0),
            duration: DurationMs::from_secs(120.0),
            quota_fraction: 0.25,
        }),
        metric_outage: Some(MetricOutage {
            start: SimTimeMs::from_secs(1200.0),
            duration: DurationMs::from_secs(120.0),
            jobs: vec![JobId::new(3)],
            mode: MetricOutageMode::Stale,
        }),
        ..FaultPlan::none()
    };
    let paper = WorkloadSet::paper_ten_jobs(42).truncated_eval(30);
    let scalar = SimConfig {
        total_replicas: 32,
        seed: 7,
        ..Default::default()
    };
    let hetero_set = WorkloadSet::n_jobs(4, 21, 1200.0).truncated_eval(20);
    let hetero = SimConfig {
        total_replicas: 16,
        seed: 7,
        hetero_resources: Some(ResourceModel::heterogeneous(
            vec![ReplicaClass::gpu("gpu"), ReplicaClass::cpu("cpu", 3.0)],
            16.0,
            4.0,
            32.0,
        )),
        ..Default::default()
    };
    let faro = || PolicyKind::faro(ClusterObjective::Sum);
    // A stale-mode metric outage replays a job's whole frozen
    // observation, target included, so the ladder's drift check reports
    // each such round as drift (one `DriftDetected` event and nothing
    // else): 11 rounds of job 3 (1210-1310 s) for Faro-Sum, none for
    // AIAD.
    let cells: [(&str, &SimConfig, &WorkloadSet, &FaultPlan, PolicyKind, u64); 3] = [
        ("AIAD", &scalar, &paper, &faults, PolicyKind::Aiad, 0),
        ("Faro-Sum", &scalar, &paper, &faults, faro(), 11),
        (
            "Faro-Sum classed",
            &hetero,
            &hetero_set,
            &FaultPlan::none(),
            faro(),
            0,
        ),
    ];
    for (name, config, set, plan, kind, drift) in cells {
        let sim = || {
            Simulation::new(config.clone(), set.setups(1))
                .expect("valid setup")
                .with_faults(plan.clone())
                .expect("valid plan")
        };
        let policy = || kind.build(set, None, config.seed);

        let mut sink = TraceSink::new();
        let out = sim().driver(policy()).telemetry(&mut sink).run();
        let (driver, breaker) = (out.driver_stats, out.breaker);
        let run = out.into_outcome();

        let mut backend = sim().into_backend().expect("backend builds");
        let admission = Box::new(OutageClamp::new(config.total_replicas));
        let mut rec = Reconciler::new(policy(), admission);
        while backend.advance().is_some() {
            rec.reconcile(&mut backend)
                .expect("the simulator never fails a call");
        }
        let report = |r: &ClusterReport| serde_json::to_string(r).expect("report serializes");

        assert_eq!(run.stats, *rec.stats(), "{name}");
        assert_eq!(
            report(&run.report),
            report(&backend.finish(rec.policy_name())),
            "{name}"
        );
        assert_eq!(
            driver,
            DriverStats {
                rounds: run.stats.rounds,
                ok_rounds: run.stats.rounds,
                drift_repairs: driver.drift_repairs,
                ..DriverStats::default()
            },
            "{name}: no retry, degraded round or skip"
        );
        assert_eq!(breaker, BreakerState::Closed, "{name}");
        let drift_events = sink
            .to_jsonl()
            .lines()
            .filter(|l| l.contains("\"DriftDetected\""))
            .count();
        assert_eq!(
            (driver.drift_repairs, drift_events as u64),
            (drift, drift),
            "{name}"
        );
    }
}
