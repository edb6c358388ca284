//! Heterogeneous-cluster simulation tests, golden-grade: the classed
//! actuation path (`SimConfig::hetero_resources`) must be
//! deterministic, must actually place replicas on both classes, and —
//! critically — must leave the homogeneous path byte-identical (the
//! `golden_report` snapshot guards the scalar bytes; these tests guard
//! the classed regime's behavior).

use faro_core::admission::ClampToQuota;
use faro_core::faro::{FaroAutoscaler, FaroConfig};
use faro_core::predictor::{FlatPredictor, RatePredictor};
use faro_core::types::{JobSpec, ReplicaClass, ResourceModel};
use faro_core::units::{DurationMs, SimTimeMs};
use faro_core::ClusterObjective;
use faro_sim::{FaultPlan, JobSetup, RunOutcome, SimConfig, SimRun, Simulation};

/// A 4-GPU + 12-vCPU cluster: the GPU class binds on GPUs, the CPU
/// class (3x slower) binds on vCPUs.
fn hetero_model() -> ResourceModel {
    ResourceModel::heterogeneous(
        vec![ReplicaClass::gpu("gpu"), ReplicaClass::cpu("cpu", 3.0)],
        16.0, // vCPU: 4 for the GPU replicas + 12 CPU-only
        4.0,  // GPUs
        32.0, // GB
    )
}

fn setups() -> Vec<JobSetup> {
    vec![
        // Tight SLO: needs the fast class.
        JobSetup {
            spec: JobSpec::resnet34("tight"),
            rates_per_minute: vec![300.0, 600.0, 600.0, 300.0, 120.0, 120.0],
            initial_replicas: 2,
        },
        // Loose SLO: can live on slow replicas.
        JobSetup {
            spec: {
                let mut s = JobSpec::resnet18("loose");
                s.slo.latency = 4.0;
                s
            },
            rates_per_minute: vec![120.0, 120.0, 300.0, 300.0, 120.0, 60.0],
            initial_replicas: 2,
        },
    ]
}

fn faro_policy(n_jobs: usize) -> Box<FaroAutoscaler> {
    let predictors: Vec<Box<dyn RatePredictor>> = (0..n_jobs)
        .map(|_| {
            Box::new(FlatPredictor {
                lookback: 3,
                sigma_fraction: 0.1,
            }) as Box<dyn RatePredictor>
        })
        .collect();
    let mut cfg = FaroConfig::new(ClusterObjective::Sum);
    cfg.samples = 4;
    Box::new(FaroAutoscaler::new(cfg, predictors))
}

fn hetero_run(seed: u64) -> RunOutcome {
    let cfg = SimConfig {
        total_replicas: 16,
        seed,
        hetero_resources: Some(hetero_model()),
        ..Default::default()
    };
    let jobs = setups();
    let n = jobs.len();
    Simulation::new(cfg, jobs)
        .expect("hetero setup is valid")
        .driver(faro_policy(n))
        .admission(Box::new(ClampToQuota))
        .run()
        .into_outcome()
}

#[test]
fn hetero_run_is_deterministic() {
    let a = hetero_run(7);
    let b = hetero_run(7);
    let ja = serde_json::to_string(&a.report).expect("report serializes");
    let jb = serde_json::to_string(&b.report).expect("report serializes");
    assert_eq!(ja, jb, "same seed, same classed run, different bytes");
}

#[test]
fn hetero_run_serves_the_workload() {
    let out = hetero_run(3);
    for job in &out.report.jobs {
        assert!(job.total_requests > 0, "{} served nothing", job.name);
        assert!(
            job.violation_rate < 0.9,
            "{} violated {}% of requests — classed actuation is broken",
            job.name,
            job.violation_rate * 100.0
        );
    }
}

#[test]
fn classed_targets_reach_the_backend() {
    // Drive the backend directly for a couple of ticks and check the
    // observation's class breakdown is populated by Faro's classed
    // decisions.
    use faro_control::{Clock, ClusterBackend};
    let cfg = SimConfig {
        total_replicas: 16,
        seed: 1,
        hetero_resources: Some(hetero_model()),
        ..Default::default()
    };
    let jobs = setups();
    let n = jobs.len();
    let mut backend = Simulation::new(cfg, jobs)
        .expect("valid setup")
        .into_backend()
        .expect("backend builds");
    let mut policy = faro_policy(n);
    let mut saw_classed = false;
    let mut saw_cpu_class = false;
    for _ in 0..40 {
        if backend.advance().is_none() {
            break;
        }
        let snap = backend.observe().expect("sim observe is infallible");
        assert!(snap.resources.has_classes(), "hetero model must surface");
        for obs in &snap.jobs {
            if let Some(t) = obs.class_target {
                saw_classed = true;
                if t.count(1) > 0 {
                    saw_cpu_class = true;
                }
            }
        }
        use faro_core::policy::Policy;
        let desired = policy.decide(&snap);
        backend.apply(&desired).expect("sim apply is infallible");
    }
    assert!(saw_classed, "no classed target ever reached the runtime");
    assert!(
        saw_cpu_class,
        "the CPU class was never used — the solver should spill past 4 GPUs"
    );
}

#[test]
fn class_blind_decisions_spill_fill_deterministically() {
    // A scalar-only policy (FairShare) on a classed cluster: the
    // backend assigns classes by spill-fill; the run must complete and
    // be deterministic.
    use faro_core::baselines::FairShare;
    let run = |seed: u64| {
        let cfg = SimConfig {
            total_replicas: 16,
            seed,
            hetero_resources: Some(hetero_model()),
            ..Default::default()
        };
        Simulation::new(cfg, setups())
            .expect("valid setup")
            .driver(Box::new(FairShare))
            .admission(Box::new(ClampToQuota))
            .run()
            .into_outcome()
    };
    let a = serde_json::to_string(&run(5).report).expect("serializes");
    let b = serde_json::to_string(&run(5).report).expect("serializes");
    assert_eq!(a, b);
}

#[test]
fn hetero_setup_rejections() {
    // No classes in the model.
    let cfg = SimConfig {
        hetero_resources: Some(ResourceModel::replicas(
            faro_core::units::ReplicaCount::new(8),
        )),
        ..Default::default()
    };
    assert!(Simulation::new(cfg, setups()).is_err());

    // Node outages are not modeled on classed clusters.
    let cfg = SimConfig {
        total_replicas: 16,
        hetero_resources: Some(hetero_model()),
        ..Default::default()
    };
    let plan = FaultPlan {
        node_outage: Some(faro_sim::NodeOutage {
            start: SimTimeMs::from_secs(60.0),
            duration: DurationMs::from_secs(60.0),
            quota_fraction: 0.5,
        }),
        ..FaultPlan::none()
    };
    let attached = Simulation::new(cfg, setups())
        .expect("setup itself is fine")
        .with_faults(plan);
    assert!(attached.is_err(), "node outage + classes must be rejected");
}
