//! Cross-crate property tests: conservation laws and component
//! contracts that must hold for any workload.

use faro::core::baselines::Aiad;
use faro::core::opt::{Fidelity, JobWorkload, MultiTenantProblem};
use faro::core::types::{ClassAlloc, JobSpec, ResourceModel, Slo};
use faro::core::units::{DurationMs, SimTimeMs};
use faro::core::ClusterObjective;
use faro::sim::{
    ColdStartSpike, FaultPlan, JobSetup, MetricOutage, MetricOutageMode, NodeOutage,
    ReplicaCrashes, SimConfig, SimRun, Simulation,
};
use faro::solver::{Cobyla, DifferentialEvolution, NelderMead, Solver};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Simulator conservation: every arriving request is eventually
    /// completed or dropped (the run flushes at the final minute, so
    /// only the last minute's in-flight handful may be outstanding).
    #[test]
    fn simulator_conserves_requests(
        rates in prop::collection::vec(10.0f64..800.0, 5..15),
        seed in 0u64..50,
        replicas in 2u32..8,
    ) {
        let cfg = SimConfig { total_replicas: replicas.max(2), seed, ..Default::default() };
        let setup = JobSetup {
            spec: JobSpec::resnet34("prop"),
            rates_per_minute: rates,
            initial_replicas: 1,
        };
        let report = Simulation::new(cfg, vec![setup]).unwrap()
            .driver(Box::new(Aiad::default()))
            .run()
            .into_outcome()
            .report;
        let job = &report.jobs[0];
        let arrived: f64 = job.arrivals_per_minute.iter().sum();
        prop_assert!(job.total_requests as f64 <= arrived + 1.0);
        // At most one queue's worth of requests may still be in flight.
        prop_assert!(
            arrived - job.total_requests as f64 <= 64.0,
            "arrived {arrived} vs accounted {}",
            job.total_requests
        );
        prop_assert!(job.violations >= job.drops);
    }

    /// Conservation survives fault injection: requests killed by
    /// replica crashes are accounted (as violating completions), not
    /// silently lost, for any crash rate.
    #[test]
    fn simulator_conserves_requests_under_crashes(
        rates in prop::collection::vec(60.0f64..600.0, 6..12),
        seed in 0u64..30,
        mttf in 60.0f64..400.0,
    ) {
        let cfg = SimConfig { total_replicas: 5, seed, ..Default::default() };
        let setup = JobSetup {
            spec: JobSpec::resnet34("crashy"),
            rates_per_minute: rates,
            initial_replicas: 3,
        };
        let plan = FaultPlan {
            replica_crashes: Some(ReplicaCrashes { mttf: DurationMs::from_secs(mttf) }),
            ..FaultPlan::none()
        };
        let report = Simulation::new(cfg, vec![setup]).unwrap()
            .with_faults(plan).unwrap()
            .driver(Box::new(Aiad::default()))
            .run()
            .into_outcome()
            .report;
        let job = &report.jobs[0];
        let arrived: f64 = job.arrivals_per_minute.iter().sum();
        prop_assert!(job.total_requests as f64 <= arrived + 1.0);
        prop_assert!(
            arrived - job.total_requests as f64 <= 64.0,
            "arrived {arrived} vs accounted {} (crash_killed {})",
            job.total_requests,
            job.crash_killed
        );
        prop_assert!(job.violations >= job.crash_killed + job.drops);
        prop_assert!((0.0..=1.0).contains(&job.availability));
    }

    /// The multi-tenant optimizer's integer output never exceeds the
    /// quota and never starves a job, for any workload mix — and the
    /// problem's solve cache is invisible: solving, integerizing and
    /// shrinking on clones that have evaluated nothing gives the same
    /// bits as doing all three on the one warm problem.
    #[test]
    fn optimizer_allocation_valid(
        lambdas in prop::collection::vec(0.5f64..60.0, 2..6),
        quota_extra in 0u32..24,
    ) {
        let n = lambdas.len() as u32;
        let quota = n + quota_extra;
        let jobs: Vec<JobWorkload> = lambdas
            .iter()
            .map(|&l| JobWorkload::constant(l, 0.18, Slo::paper_default(), 1.0))
            .collect();
        let p = MultiTenantProblem::new(
            jobs,
            ResourceModel::replicas(faro::core::units::ReplicaCount::new(quota)),
            ClusterObjective::Sum,
            Fidelity::Relaxed,
        )
        .unwrap();
        let alloc = p.solve(&Cobyla::fast(), &vec![1; lambdas.len()]).unwrap();
        let mut xs = p.integerize(&alloc);
        let total = |xs: &[ClassAlloc]| xs.iter().map(ClassAlloc::total).sum::<u32>();
        prop_assert!(total(&xs) <= quota, "{xs:?} quota {quota}");
        prop_assert!(xs.iter().all(|x| x.total() >= 1));
        let integerized = xs.clone();
        p.shrink(&mut xs, &alloc.drop_rates);
        prop_assert!(total(&xs) <= quota);
        prop_assert!(xs.iter().all(|x| x.total() >= 1));

        let cold = p.clone().solve(&Cobyla::fast(), &vec![1; lambdas.len()]).unwrap();
        prop_assert_eq!(&cold, &alloc);
        let fresh = p.clone();
        let mut cold_xs = fresh.integerize(&alloc);
        prop_assert_eq!(&cold_xs, &integerized);
        fresh.shrink(&mut cold_xs, &alloc.drop_rates);
        prop_assert_eq!(cold_xs, xs);
    }

    /// All three solvers agree (within tolerance) on a smooth convex
    /// problem — the relaxed objective is solvable by any of them
    /// (paper Fig. 5, right cluster of points).
    #[test]
    fn solvers_agree_on_relaxed_problem(lambda in 5.0f64..40.0) {
        let jobs = vec![JobWorkload::constant(lambda, 0.18, Slo::paper_default(), 1.0)];
        let p = MultiTenantProblem::new(
            jobs,
            ResourceModel::replicas(faro::core::units::ReplicaCount::new(32)),
            ClusterObjective::Sum,
            Fidelity::Relaxed,
        )
        .unwrap();
        let adapter_value = |solver: &dyn Solver| {
            let alloc = p.solve(solver, &[1]).unwrap();
            alloc.objective_value
        };
        let cobyla = adapter_value(&Cobyla::default());
        let nm = adapter_value(&NelderMead::default());
        let de = adapter_value(&DifferentialEvolution {
            max_generations: 200,
            ..Default::default()
        });
        let best = cobyla.max(nm).max(de);
        prop_assert!(best - cobyla < 0.08, "cobyla {cobyla} vs best {best}");
        prop_assert!(best - nm < 0.08, "nelder-mead {nm} vs best {best}");
        prop_assert!(best - de < 0.08, "de {de} vs best {best}");
    }
}

#[test]
fn fault_injection_is_deterministic_across_runs() {
    // Every fault class armed at once; two runs from the same seed
    // must produce byte-identical reports.
    let plan = FaultPlan {
        replica_crashes: Some(ReplicaCrashes {
            mttf: DurationMs::from_secs(300.0),
        }),
        node_outage: Some(NodeOutage {
            start: SimTimeMs::from_secs(240.0),
            duration: DurationMs::from_secs(180.0),
            quota_fraction: 0.5,
        }),
        cold_start_spike: Some(ColdStartSpike {
            start: SimTimeMs::from_secs(60.0),
            duration: DurationMs::from_secs(120.0),
            median_multiplier: 3.0,
            sigma: 0.4,
        }),
        metric_outage: Some(MetricOutage {
            start: SimTimeMs::from_secs(120.0),
            duration: DurationMs::from_secs(180.0),
            jobs: vec![faro::core::types::JobId::new(0)],
            mode: MetricOutageMode::Stale,
        }),
    };
    let run = || {
        let cfg = SimConfig {
            total_replicas: 6,
            seed: 17,
            ..Default::default()
        };
        let setups = vec![
            JobSetup {
                spec: JobSpec::resnet34("a"),
                rates_per_minute: vec![300.0; 10],
                initial_replicas: 2,
            },
            JobSetup {
                spec: JobSpec::resnet34("b"),
                rates_per_minute: vec![500.0; 10],
                initial_replicas: 2,
            },
        ];
        let report = Simulation::new(cfg, setups)
            .unwrap()
            .with_faults(plan.clone())
            .unwrap()
            .driver(Box::new(Aiad::default()))
            .run()
            .into_outcome()
            .report;
        serde_json::to_string(&report).unwrap()
    };
    assert_eq!(
        run(),
        run(),
        "same seed + same fault plan must replay identically"
    );
}

#[test]
fn forecaster_feeds_autoscaler() {
    // Fit a tiny N-HiTS on a synthetic series and drive Faro with it.
    use faro::core::policy::Policy;
    use faro::core::predictor::{ProbabilisticPredictor, RatePredictor};
    use faro::core::types::{ClusterSnapshot, JobObservation};
    use faro::core::{FaroAutoscaler, FaroConfig};
    use faro::forecast::nhits::NHits;
    use faro::forecast::Forecaster;

    let series: Vec<f64> = (0..300)
        .map(|i| 600.0 + 300.0 * (i as f64 / 24.0).sin())
        .collect();
    let mut model = NHits::quick(15, 7, 2);
    model.fit(&series).expect("fit succeeds");
    let predictors: Vec<Box<dyn RatePredictor>> =
        vec![Box::new(ProbabilisticPredictor::new(Box::new(model)))];
    let mut cfg = FaroConfig::new(ClusterObjective::Sum);
    cfg.samples = 8;
    let mut faro = FaroAutoscaler::new(cfg, predictors);

    let obs = JobObservation {
        spec: std::sync::Arc::new(JobSpec::resnet34("nn-driven")),
        target_replicas: 1,
        ready_replicas: 1,
        queue_len: 0,
        arrival_rate_history: std::sync::Arc::new(
            series[series.len() - 15..]
                .iter()
                .map(|&v| faro::core::units::RatePerMin::new(v))
                .collect(),
        ),
        recent_arrival_rate: 10.0,
        mean_processing_time: 0.18,
        recent_tail_latency: 0.2,
        drop_rate: 0.0,
        class_target: None,
        class_ready: None,
    };
    let snap = ClusterSnapshot {
        now: faro::core::units::SimTimeMs::ZERO,
        resources: ResourceModel::replicas(faro::core::units::ReplicaCount::new(16)),
        jobs: vec![obs],
    };
    let ds = faro.decide(&snap);
    // ~600-900 req/min = 10-15 req/s at 180 ms needs >= 3 replicas.
    let d0 = ds
        .get(faro::core::types::JobId::new(0))
        .expect("job 0 decided");
    assert!(d0.target_replicas >= 3, "{ds:?}");
    assert!(d0.target_replicas <= 16);
}
