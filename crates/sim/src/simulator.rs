//! Simulation setup and entry points.
//!
//! [`Simulation`] validates a configuration, a job set and (in
//! [`Simulation::with_faults`]) a fault plan, then either runs the
//! whole control loop itself ([`Simulation::driver`], which hands the
//! primed [`SimBackend`] to the backend-generic
//! [`faro_control::Driver`] builder) or hands the backend out for
//! fully external driving ([`Simulation::into_backend`]). Everything
//! that can be refused is refused before the backend is built, so
//! neither step fails, and neither does the run: the simulator never
//! fails a call, so the run loop's retry ladder never fires on it.
//!
//! One run is configured through the [`faro_control::Driver`]
//! builder; [`SimRun::into_outcome`] harvests the cluster report:
//!
//! ```
//! use faro_core::baselines::FairShare;
//! use faro_core::types::JobSpec;
//! use faro_sim::{JobSetup, SimConfig, SimRun, Simulation};
//! use faro_telemetry::TraceSink;
//!
//! let jobs = vec![JobSetup {
//!     spec: JobSpec::resnet34("demo"),
//!     rates_per_minute: vec![300.0; 5],
//!     initial_replicas: 2,
//! }];
//! let outcome = Simulation::new(SimConfig::default(), jobs)
//!     .unwrap()
//!     .driver(Box::new(FairShare))
//!     .telemetry(TraceSink::new())
//!     .run()
//!     .into_outcome();
//! assert!(outcome.report.jobs[0].total_requests > 0);
//! assert_eq!(outcome.stats.rounds, 30, "one round per 10 s tick");
//! ```

use crate::backend::SimBackend;
use crate::faults::FaultPlan;
use crate::report::ClusterReport;
use crate::runtime::JobRuntime;
use crate::{Error, Result};
use faro_control::{Driver, DriverOutcome, RunStats};
use faro_core::admission::{Admission, OutageClamp};
use faro_core::policy::Policy;
use faro_core::types::{JobObservation, JobSpec, ResourceModel};
use faro_core::units::{DurationMs, RatePerMin};
use faro_metrics::AvailabilityTracker;

/// One job's simulation inputs.
#[derive(Debug, Clone)]
pub struct JobSetup {
    /// The job spec (SLO, nominal processing time, priority).
    pub spec: JobSpec,
    /// Per-minute arrival rates driving the load generator.
    pub rates_per_minute: Vec<f64>,
    /// Replicas at time zero.
    pub initial_replicas: u32,
}

/// Simulator configuration; defaults follow the paper's deployment
/// (Sec. 5 and 6). What no experiment varies is fixed in the
/// simulator: the 10 s policy tick, the router's tail-drop threshold
/// ([`QUEUE_THRESHOLD`](crate::runtime::QUEUE_THRESHOLD)), the 30 s
/// window of "recent" metrics, and the report's utility sharpness
/// (the default `RelaxedUtility`, Eq. 1).
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Total replica quota (Kubernetes resource quota).
    pub total_replicas: u32,
    /// Replica cold-start delay (paper: up to 70 s; 60 s default).
    pub cold_start: DurationMs,
    /// Coefficient of variation of service times (ML inference is
    /// near-deterministic).
    pub service_cv: f64,
    /// RNG seed.
    pub seed: u64,
    /// Heterogeneous cluster description. `None` (the default) keeps
    /// the homogeneous regime: `total_replicas` is the quota, every
    /// replica runs at reference speed, and every run stays
    /// byte-identical to the pre-class simulator. `Some` switches the
    /// backend to classed actuation: [`SimBackend::observe`] reports
    /// this model (so policies see the class table), per-replica
    /// service times are scaled by the class's `speed` multiplier, and
    /// cold starts use the class's `cold_start` instead of this
    /// config's. Node-outage quota shrinking is not modeled
    /// in this regime (fault plans that resize the cluster are
    /// rejected at setup).
    ///
    /// [`SimBackend::observe`]: crate::backend::SimBackend
    pub hetero_resources: Option<ResourceModel>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            total_replicas: 32,
            cold_start: DurationMs::from_secs(60.0),
            service_cv: 0.05,
            seed: 0,
            hetero_resources: None,
        }
    }
}

/// A configured simulation, ready to run one policy.
pub struct Simulation {
    pub(crate) config: SimConfig,
    pub(crate) jobs: Vec<JobRuntime>,
    pub(crate) rates: Vec<Vec<RatePerMin>>,
    pub(crate) duration_minutes: usize,
    /// Per-job `(mu, sigma)` of the lognormal service distribution.
    /// Sampled inline (Box–Muller with the spare normal cached in
    /// `SimBackend::spare_z`) instead of through a distribution
    /// object, so each request costs half a Box–Muller on average.
    pub(crate) service_params: Vec<(f64, f64)>,
    /// The unused second Box–Muller normal from the last service-time
    /// draw. `z` is parameter-free, so the spare is shared across jobs.
    pub(crate) spare_z: Option<f64>,
    /// Fault schedule; [`FaultPlan::none`] (the default) injects
    /// nothing and leaves the run byte-identical to the pre-fault-layer
    /// simulator.
    pub(crate) faults: FaultPlan,
    /// Quota visible to policies right now (shrinks during a node
    /// outage).
    pub(crate) effective_quota: u32,
    /// Last pre-outage observation per job (for stale metric delivery).
    pub(crate) stale_obs: Vec<Option<JobObservation>>,
    /// Per-job capacity availability / time-to-recover accounting.
    pub(crate) trackers: Vec<AvailabilityTracker>,
}

/// A cold start built from NaN seconds ([`DurationMs::from_secs`]) is
/// 0 ms and passes; a negative one, or `+∞` seconds saturated to
/// [`DurationMs::MAX`], is refused.
fn cold_start_valid(cold_start: DurationMs) -> bool {
    !cold_start.is_negative() && cold_start < DurationMs::MAX
}

fn validate_config(config: &SimConfig) -> Result<()> {
    if !cold_start_valid(config.cold_start) {
        return Err(Error::InvalidSetup(format!(
            "cold_start must be non-negative and finite, got {}",
            config.cold_start
        )));
    }
    if !config.service_cv.is_finite() || config.service_cv < 0.0 {
        return Err(Error::InvalidSetup(format!(
            "service_cv must be non-negative and finite, got {}",
            config.service_cv
        )));
    }
    if let Some(resources) = &config.hetero_resources {
        if !resources.has_classes() {
            return Err(Error::InvalidSetup(
                "hetero_resources must carry at least one replica class".into(),
            ));
        }
        for class in &resources.classes {
            if !class.speed.is_finite() || class.speed <= 0.0 {
                return Err(Error::InvalidSetup(format!(
                    "replica class {:?} has non-positive speed multiplier {}",
                    class.name, class.speed
                )));
            }
            if !cold_start_valid(class.cold_start) {
                return Err(Error::InvalidSetup(format!(
                    "replica class {:?} has invalid cold start {}",
                    class.name, class.cold_start
                )));
            }
        }
    }
    Ok(())
}

impl Simulation {
    /// Builds a simulation.
    ///
    /// # Errors
    ///
    /// Fails when no jobs are given, rates are empty or contain
    /// NaN/negative entries, a job starts with zero replicas, the
    /// quota cannot host one replica per job, or the [`SimConfig`]
    /// itself is out of domain (a negative or infinite `cold_start`, a
    /// negative or NaN `service_cv`, an invalid replica class).
    pub fn new(config: SimConfig, setups: Vec<JobSetup>) -> Result<Self> {
        validate_config(&config)?;
        if setups.is_empty() {
            return Err(Error::InvalidSetup("no jobs".into()));
        }
        if (config.total_replicas as usize) < setups.len() {
            return Err(Error::InvalidSetup(format!(
                "quota {} below one replica per job ({})",
                config.total_replicas,
                setups.len()
            )));
        }
        if let Some(resources) = &config.hetero_resources {
            if (resources.replica_quota().get() as usize) < setups.len() {
                return Err(Error::InvalidSetup(format!(
                    "heterogeneous quota {} below one replica per job ({})",
                    resources.replica_quota().get(),
                    setups.len()
                )));
            }
        }
        let duration_minutes = setups
            .iter()
            .map(|s| s.rates_per_minute.len())
            .max()
            .unwrap_or(0);
        if duration_minutes == 0 {
            return Err(Error::InvalidSetup("empty rate series".into()));
        }
        let mut jobs = Vec::with_capacity(setups.len());
        let mut rates = Vec::with_capacity(setups.len());
        let mut service_params = Vec::with_capacity(setups.len());
        for s in setups {
            if s.spec.processing_time.is_nan() || s.spec.processing_time <= 0.0 {
                return Err(Error::InvalidSetup(format!(
                    "job {} has non-positive processing time",
                    s.spec.name
                )));
            }
            if s.initial_replicas == 0 {
                return Err(Error::InvalidSetup(format!(
                    "job {} starts with zero replicas; every job keeps at least one",
                    s.spec.name
                )));
            }
            if let Some(&bad) = s.rates_per_minute.iter().find(|r| r.is_nan() || **r < 0.0) {
                return Err(Error::InvalidSetup(format!(
                    "job {} has an invalid rate entry {bad}",
                    s.spec.name
                )));
            }
            // Lognormal with the requested CV around the nominal mean.
            let cv = config.service_cv.max(1e-6);
            let sigma = (1.0 + cv * cv).ln().sqrt();
            let mu = s.spec.processing_time.ln() - sigma * sigma / 2.0;
            if !mu.is_finite() || !sigma.is_finite() {
                return Err(Error::InvalidSetup(format!(
                    "bad service dist for job {}: mu {mu}, sigma {sigma}",
                    s.spec.name
                )));
            }
            service_params.push((mu, sigma));
            jobs.push(JobRuntime::new(s.spec, s.initial_replicas));
            // Into the typed domain at the boundary: rates validated
            // finite and non-negative above.
            rates.push(
                s.rates_per_minute
                    .iter()
                    .copied()
                    .map(RatePerMin::new)
                    .collect(),
            );
        }
        let n_jobs = jobs.len();
        let effective_quota = config.total_replicas;
        Ok(Self {
            config,
            jobs,
            rates,
            duration_minutes,
            service_params,
            spare_z: None,
            faults: FaultPlan::none(),
            effective_quota,
            stale_obs: (0..n_jobs).map(|_| None).collect(),
            trackers: vec![AvailabilityTracker::new(); n_jobs],
        })
    }

    /// Validates and attaches a fault schedule. [`FaultPlan::none`]
    /// injects nothing and leaves the event stream byte-identical to
    /// a fault-free run.
    ///
    /// # Errors
    ///
    /// Fails when the plan references jobs outside this simulation or
    /// combines a node outage with a heterogeneous cluster.
    pub fn with_faults(mut self, plan: FaultPlan) -> Result<Self> {
        plan.validate(self.jobs.len())?;
        if self.config.hetero_resources.is_some() && plan.node_outage.is_some() {
            // A node outage shrinks the scalar quota; the classed
            // regime has no notion of which class's capacity the
            // lost node carried, so the combination is rejected
            // rather than silently mis-modeled.
            return Err(Error::InvalidSetup(
                "node outages are not modeled on heterogeneous clusters".into(),
            ));
        }
        self.faults = plan;
        Ok(self)
    }

    /// Primes this simulation's [`SimBackend`] and hands it, with
    /// `policy`, to the backend-generic [`faro_control::Driver`] with
    /// the simulator's default admission attached: an outage-aware
    /// [`OutageClamp`] at the configured total quota (the cluster can
    /// host what the policy asked for except during a node outage;
    /// the clamp engages only while the observed quota is below full
    /// capacity). Override with [`Driver::admission`]; harvest the
    /// cluster report from the outcome with [`SimRun::into_outcome`].
    pub fn driver(self, policy: Box<dyn Policy>) -> Driver<SimBackend> {
        let capacity = self.config.total_replicas;
        Driver::new(SimBackend::new(self), policy)
            .admission(Box::new(OutageClamp::new(capacity)) as Box<dyn Admission>)
    }

    /// Primes the discrete-event backend for this simulation without
    /// running it, for callers that drive the control loop themselves.
    ///
    /// # Errors
    ///
    /// Never: [`Simulation::new`] and [`Simulation::with_faults`] have
    /// refused everything that could fail. The `Result` stays only
    /// because the benchmark, whose sources are frozen, calls `.expect`
    /// on it; it goes with the benchmark re-base (ROADMAP item 1(e)).
    pub fn into_backend(self) -> Result<SimBackend> {
        Ok(SimBackend::new(self))
    }
}

/// Everything one simulated control-loop run produces: the cluster
/// report and the reconciler's round accounting. Telemetry lives in
/// the sink the caller handed to [`Driver::telemetry`].
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Per-job and cluster-level SLO/utility report.
    pub report: ClusterReport,
    /// Control-loop statistics (rounds, admission accounting,
    /// replicas started).
    pub stats: RunStats,
}

/// Sim-side harvesting of a [`Driver`] run: turns the generic
/// [`DriverOutcome`] (which hands the backend back) into the
/// simulator's [`RunOutcome`] by finishing the [`SimBackend`] into
/// its cluster report.
pub trait SimRun {
    /// Finishes the simulated backend and packages the run.
    fn into_outcome(self) -> RunOutcome;
}

impl SimRun for DriverOutcome<SimBackend> {
    fn into_outcome(self) -> RunOutcome {
        RunOutcome {
            report: self.backend.finish(&self.policy_name),
            stats: self.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faro_core::baselines::{Aiad, FairShare};
    use faro_core::cilantro::CilantroLike;
    use faro_core::types::{ClusterSnapshot, DesiredState, JobDecision, JobId};
    use faro_core::units::SimTimeMs;

    fn setup(rate: f64, minutes: usize, initial: u32) -> JobSetup {
        JobSetup {
            spec: JobSpec::resnet34("job"),
            rates_per_minute: vec![rate; minutes],
            initial_replicas: initial,
        }
    }

    #[test]
    fn validation_errors() {
        assert!(Simulation::new(SimConfig::default(), vec![]).is_err());
        let cfg = SimConfig {
            total_replicas: 1,
            ..Default::default()
        };
        assert!(Simulation::new(cfg, vec![setup(1.0, 1, 1), setup(1.0, 1, 1)]).is_err());
        let mut bad = setup(1.0, 1, 1);
        bad.spec.processing_time = 0.0;
        assert!(Simulation::new(SimConfig::default(), vec![bad]).is_err());
    }

    #[test]
    fn well_provisioned_job_meets_slo() {
        // 300 req/min = 5 req/s at 180 ms needs ~1-2 replicas; give 4.
        let cfg = SimConfig {
            total_replicas: 8,
            seed: 3,
            ..Default::default()
        };
        let report = Simulation::new(cfg, vec![setup(300.0, 20, 4)])
            .unwrap()
            .driver(Box::new(FairShare))
            .run()
            .into_outcome()
            .report;
        // FairShare gives all 8 replicas to the single job.
        let job = &report.jobs[0];
        assert!(job.total_requests > 4000, "requests {}", job.total_requests);
        assert!(
            job.violation_rate < 0.01,
            "violation {}",
            job.violation_rate
        );
        assert!(report.avg_lost_cluster_utility < 0.05);
    }

    #[test]
    fn overloaded_fixed_job_violates_slo() {
        // 40 req/s at 180 ms needs ~8 replicas; a fixed single replica
        // must drown (Figure 1's motivation).
        let cfg = SimConfig {
            total_replicas: 1,
            seed: 4,
            ..Default::default()
        };
        let report = Simulation::new(cfg, vec![setup(2400.0, 10, 1)])
            .unwrap()
            .driver(Box::new(FairShare))
            .run()
            .into_outcome()
            .report;
        let job = &report.jobs[0];
        assert!(job.violation_rate > 0.5, "violation {}", job.violation_rate);
        assert!(job.drops > 0, "queue must overflow");
    }

    #[test]
    fn autoscaler_improves_on_static_when_load_grows() {
        // Load ramps from light to heavy; AIAD should beat a fixed
        // 2-replica allocation.
        let mut rates = vec![120.0; 10];
        rates.extend(vec![1800.0; 50]);
        let mk = || JobSetup {
            spec: JobSpec::resnet34("ramp"),
            rates_per_minute: rates.clone(),
            initial_replicas: 2,
        };
        let cfg = SimConfig {
            total_replicas: 16,
            seed: 5,
            ..Default::default()
        };
        let fixed = Simulation::new(cfg.clone(), vec![mk()])
            .unwrap()
            .driver(Box::new(StaticPolicy(2)))
            .run()
            .into_outcome()
            .report;
        let scaled = Simulation::new(cfg, vec![mk()])
            .unwrap()
            .driver(Box::new(Aiad::default()))
            .run()
            .into_outcome()
            .report;
        assert!(
            scaled.cluster_violation_rate < fixed.cluster_violation_rate,
            "AIAD {} vs fixed {}",
            scaled.cluster_violation_rate,
            fixed.cluster_violation_rate
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = SimConfig {
            total_replicas: 8,
            seed: 11,
            ..Default::default()
        };
        let run = || {
            Simulation::new(cfg.clone(), vec![setup(600.0, 8, 2)])
                .unwrap()
                .driver(Box::new(Aiad::default()))
                .run()
                .into_outcome()
                .report
        };
        let a = run();
        let b = run();
        assert_eq!(a.cluster_violation_rate, b.cluster_violation_rate);
        assert_eq!(a.jobs[0].total_requests, b.jobs[0].total_requests);
        assert_eq!(a.cluster_utility_per_minute, b.cluster_utility_per_minute);
    }

    #[test]
    fn conservation_of_requests() {
        let cfg = SimConfig {
            total_replicas: 4,
            seed: 2,
            ..Default::default()
        };
        let report = Simulation::new(cfg, vec![setup(900.0, 12, 2)])
            .unwrap()
            .driver(Box::new(FairShare))
            .run()
            .into_outcome()
            .report;
        let job = &report.jobs[0];
        // All requests are either completed (possibly violating) or
        // dropped; the report's totals must be internally consistent.
        assert!(job.violations >= job.drops);
        assert!(job.total_requests >= job.violations);
        let arrived: f64 = job.arrivals_per_minute.iter().sum();
        // In-flight remainder at the end is at most quota + queue.
        assert!((arrived - job.total_requests as f64).abs() <= 60.0);
    }

    #[test]
    fn cold_start_delays_capacity() {
        // Policy immediately requests 8 replicas; during the first
        // cold_start seconds only 1 serves, so early latency suffers
        // under heavy load, then recovers.
        struct JumpPolicy;
        impl Policy for JumpPolicy {
            fn name(&self) -> &str {
                "jump"
            }
            fn decide(&mut self, s: &ClusterSnapshot) -> DesiredState {
                s.job_ids()
                    .map(|id| (id, JobDecision::replicas(8)))
                    .collect()
            }
        }
        let cfg = SimConfig {
            total_replicas: 8,
            seed: 6,
            cold_start: DurationMs::from_secs(120.0),
            ..Default::default()
        };
        let report = Simulation::new(cfg, vec![setup(2400.0, 8, 1)])
            .unwrap()
            .driver(Box::new(JumpPolicy))
            .run()
            .into_outcome()
            .report;
        let u = &report.jobs[0].utility_per_minute;
        let early: f64 = u[..2].iter().sum::<f64>() / 2.0;
        let late: f64 = u[4..].iter().sum::<f64>() / (u.len() - 4) as f64;
        assert!(
            late > early,
            "capacity should arrive after cold start: early {early} late {late}"
        );
        assert!(
            late > 0.9,
            "after warm-up the job should be healthy: {late}"
        );
    }

    struct StaticPolicy(u32);
    impl Policy for StaticPolicy {
        fn name(&self) -> &str {
            "static"
        }
        fn decide(&mut self, s: &ClusterSnapshot) -> DesiredState {
            s.job_ids()
                .map(|id| (id, JobDecision::replicas(self.0)))
                .collect()
        }
    }

    use crate::faults::{
        ColdStartSpike, MetricOutage, MetricOutageMode, NodeOutage, ReplicaCrashes,
    };
    use std::sync::{Arc, Mutex};

    /// Echoes each job's current target while recording what it saw.
    struct Probe {
        quotas: Arc<Mutex<Vec<u32>>>,
        rates: Arc<Mutex<Vec<(f64, f64)>>>,
    }
    impl Policy for Probe {
        fn name(&self) -> &str {
            "probe"
        }
        fn decide(&mut self, s: &ClusterSnapshot) -> DesiredState {
            self.quotas
                .lock()
                .unwrap()
                .push(s.resources.replica_quota().get());
            self.rates
                .lock()
                .unwrap()
                .push((s.now.as_secs(), s.jobs[0].recent_arrival_rate));
            s.job_ids()
                .zip(s.jobs.iter())
                .map(|(id, j)| (id, JobDecision::replicas(j.target_replicas)))
                .collect()
        }
    }

    #[test]
    fn config_validation_rejects_out_of_domain_values() {
        let run = |cfg: SimConfig| Simulation::new(cfg, vec![setup(60.0, 2, 1)]);
        for cfg in [
            SimConfig {
                cold_start: DurationMs::from_secs(-1.0),
                ..Default::default()
            },
            SimConfig {
                cold_start: DurationMs::from_secs(f64::INFINITY),
                ..Default::default()
            },
            SimConfig {
                service_cv: f64::NAN,
                ..Default::default()
            },
        ] {
            assert!(run(cfg).is_err());
        }
        // NaN seconds make a 0 ms cold start, which is in domain.
        let nan_cold = SimConfig {
            cold_start: DurationMs::from_secs(f64::NAN),
            ..Default::default()
        };
        assert_eq!(nan_cold.cold_start, DurationMs::ZERO);
        assert!(run(nan_cold).is_ok());
        // Invalid per-job inputs: NaN/negative rates, zero replicas.
        let mut bad_rate = setup(60.0, 3, 1);
        bad_rate.rates_per_minute[1] = f64::NAN;
        assert!(Simulation::new(SimConfig::default(), vec![bad_rate]).is_err());
        let mut neg_rate = setup(60.0, 3, 1);
        neg_rate.rates_per_minute[0] = -5.0;
        assert!(Simulation::new(SimConfig::default(), vec![neg_rate]).is_err());
        assert!(Simulation::new(SimConfig::default(), vec![setup(60.0, 3, 0)]).is_err());
    }

    #[test]
    fn explicit_none_plan_is_byte_identical() {
        let cfg = SimConfig {
            total_replicas: 8,
            seed: 21,
            ..Default::default()
        };
        let plain = Simulation::new(cfg.clone(), vec![setup(600.0, 6, 2)])
            .unwrap()
            .driver(Box::new(Aiad::default()))
            .run()
            .into_outcome()
            .report;
        let with_none = Simulation::new(cfg, vec![setup(600.0, 6, 2)])
            .unwrap()
            .with_faults(FaultPlan::none())
            .unwrap()
            .driver(Box::new(Aiad::default()))
            .run()
            .into_outcome()
            .report;
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&with_none).unwrap()
        );
    }

    fn full_plan() -> FaultPlan {
        FaultPlan {
            replica_crashes: Some(ReplicaCrashes {
                mttf: DurationMs::from_secs(240.0),
            }),
            node_outage: Some(NodeOutage {
                start: SimTimeMs::from_secs(120.0),
                duration: DurationMs::from_secs(120.0),
                quota_fraction: 0.5,
            }),
            cold_start_spike: Some(ColdStartSpike {
                start: SimTimeMs::from_secs(60.0),
                duration: DurationMs::from_secs(180.0),
                median_multiplier: 3.0,
                sigma: 0.5,
            }),
            metric_outage: Some(MetricOutage {
                start: SimTimeMs::from_secs(180.0),
                duration: DurationMs::from_secs(120.0),
                jobs: vec![JobId::new(0)],
                mode: MetricOutageMode::Missing,
            }),
        }
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let run = || {
            let cfg = SimConfig {
                total_replicas: 8,
                seed: 33,
                ..Default::default()
            };
            let report = Simulation::new(cfg, vec![setup(600.0, 8, 3)])
                .unwrap()
                .with_faults(full_plan())
                .unwrap()
                .driver(Box::new(Aiad::default()))
                .run()
                .into_outcome()
                .report;
            serde_json::to_string(&report).unwrap()
        };
        assert_eq!(run(), run(), "same seed and plan replay byte-identically");
    }

    #[test]
    fn crashes_reduce_availability_and_keep_conservation() {
        let cfg = SimConfig {
            total_replicas: 6,
            seed: 9,
            ..Default::default()
        };
        let plan = FaultPlan {
            replica_crashes: Some(ReplicaCrashes {
                mttf: DurationMs::from_secs(120.0),
            }),
            ..FaultPlan::none()
        };
        let report = Simulation::new(cfg, vec![setup(600.0, 10, 4)])
            .unwrap()
            .with_faults(plan)
            .unwrap()
            .driver(Box::new(FairShare))
            .run()
            .into_outcome()
            .report;
        let job = &report.jobs[0];
        assert!(report.crash_killed_total > 0, "busy replicas crashed");
        assert!(report.availability < 1.0, "crashes opened deficits");
        assert!(job.recoveries > 0, "reconciliation restored capacity");
        assert!(job.mean_time_to_recover_secs > 0.0);
        // Conservation via the report: every arrival is completed,
        // dropped, or crash-killed, modulo what is still in the system.
        let arrived: f64 = job.arrivals_per_minute.iter().sum();
        let slack = (cfg_slack()) as f64;
        assert!(
            (arrived - job.total_requests as f64).abs() <= slack,
            "arrived {arrived} vs accounted {}",
            job.total_requests
        );
    }

    /// An MTTF far past the run draws crash delays past `u64::MAX` µs:
    /// no replica crashes, and the run matches the fault-free one.
    #[test]
    fn an_mttf_past_the_clock_crashes_nothing() {
        let run = |plan: FaultPlan| {
            let cfg = SimConfig {
                total_replicas: 8,
                seed: 1,
                ..Default::default()
            };
            let report = Simulation::new(cfg, vec![setup(2400.0, 6, 1)])
                .unwrap()
                .with_faults(plan)
                .unwrap()
                .driver(Box::new(Aiad::default()))
                .run()
                .into_outcome()
                .report;
            serde_json::to_string(&report).unwrap()
        };
        let far = run(FaultPlan {
            replica_crashes: Some(ReplicaCrashes {
                mttf: DurationMs::from_secs(1e15),
            }),
            ..FaultPlan::none()
        });
        assert_eq!(far, run(FaultPlan::none()));
    }

    fn cfg_slack() -> usize {
        // Residual in-flight + queued requests at end of run.
        32 + crate::runtime::QUEUE_THRESHOLD
    }

    #[test]
    fn node_outage_caps_visible_quota_and_evicts() {
        let quotas = Arc::new(Mutex::new(Vec::new()));
        let rates = Arc::new(Mutex::new(Vec::new()));
        let probe = Probe {
            quotas: quotas.clone(),
            rates: rates.clone(),
        };
        let cfg = SimConfig {
            total_replicas: 8,
            seed: 13,
            ..Default::default()
        };
        let plan = FaultPlan {
            node_outage: Some(NodeOutage {
                start: SimTimeMs::from_secs(120.0),
                duration: DurationMs::from_secs(120.0),
                quota_fraction: 0.5,
            }),
            ..FaultPlan::none()
        };
        let report = Simulation::new(cfg, vec![setup(300.0, 8, 6)])
            .unwrap()
            .with_faults(plan)
            .unwrap()
            .driver(Box::new(probe))
            .run()
            .into_outcome()
            .report;
        let seen = quotas.lock().unwrap();
        assert!(seen.contains(&4), "policies see the shrunken quota");
        assert_eq!(*seen.last().unwrap(), 8, "quota restored after outage");
        // The eviction opens a (possibly instantly-reconciled) deficit:
        // ready drops below target until the clamped decision lands.
        assert!(report.jobs[0].recoveries >= 1, "eviction opened a deficit");
    }

    #[test]
    fn missing_metric_outage_delivers_nan_in_window() {
        let quotas = Arc::new(Mutex::new(Vec::new()));
        let rates = Arc::new(Mutex::new(Vec::new()));
        let probe = Probe {
            quotas: quotas.clone(),
            rates: rates.clone(),
        };
        let cfg = SimConfig {
            total_replicas: 4,
            seed: 17,
            ..Default::default()
        };
        let plan = FaultPlan {
            metric_outage: Some(MetricOutage {
                start: SimTimeMs::from_secs(120.0),
                duration: DurationMs::from_secs(120.0),
                jobs: vec![JobId::new(0)],
                mode: MetricOutageMode::Missing,
            }),
            ..FaultPlan::none()
        };
        Simulation::new(cfg, vec![setup(600.0, 6, 2)])
            .unwrap()
            .with_faults(plan)
            .unwrap()
            .driver(Box::new(probe))
            .run();
        let seen = rates.lock().unwrap();
        for &(t, r) in seen.iter() {
            if (120.0..240.0).contains(&t) {
                assert!(r.is_nan(), "rate at t={t} should be NaN, got {r}");
            } else if t >= 30.0 {
                assert!(r.is_finite(), "rate at t={t} should be finite");
            }
        }
    }

    /// Runs the Cilantro baseline and records every target it sets.
    struct RecordCilantro {
        inner: CilantroLike,
        targets: Arc<Mutex<Vec<u32>>>,
    }
    impl Policy for RecordCilantro {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn decide(&mut self, s: &ClusterSnapshot) -> DesiredState {
            let out = self.inner.decide(s);
            let mut targets = self.targets.lock().unwrap();
            targets.extend(out.iter().map(|(_, d)| d.target_replicas));
            out
        }
    }

    #[test]
    fn cilantro_survives_missing_metric_outage() {
        // The outage poisons the history's tail with NaN minutes while
        // the AR(8) refit at 900 s and 1200 s reads them.
        let targets = Arc::new(Mutex::new(Vec::new()));
        let policy = RecordCilantro {
            inner: CilantroLike::default(),
            targets: targets.clone(),
        };
        let cfg = SimConfig {
            total_replicas: 6,
            seed: 29,
            ..Default::default()
        };
        let plan = FaultPlan {
            metric_outage: Some(MetricOutage {
                start: SimTimeMs::from_secs(600.0),
                duration: DurationMs::from_secs(700.0),
                jobs: vec![JobId::new(0)],
                mode: MetricOutageMode::Missing,
            }),
            ..FaultPlan::none()
        };
        let report = Simulation::new(cfg, vec![setup(300.0, 25, 2), setup(200.0, 25, 2)])
            .unwrap()
            .with_faults(plan)
            .unwrap()
            .driver(Box::new(policy))
            .run()
            .into_outcome()
            .report;
        assert!(report.jobs.iter().all(|j| j.total_requests > 0));
        let targets = targets.lock().unwrap();
        assert!(!targets.is_empty());
        assert!(targets.iter().all(|&t| t >= 1), "{targets:?}");
    }

    #[test]
    fn stale_metric_outage_freezes_observations() {
        let quotas = Arc::new(Mutex::new(Vec::new()));
        let rates = Arc::new(Mutex::new(Vec::new()));
        let probe = Probe {
            quotas: quotas.clone(),
            rates: rates.clone(),
        };
        let cfg = SimConfig {
            total_replicas: 4,
            seed: 19,
            ..Default::default()
        };
        let plan = FaultPlan {
            metric_outage: Some(MetricOutage {
                start: SimTimeMs::from_secs(120.0),
                duration: DurationMs::from_secs(120.0),
                jobs: vec![JobId::new(0)],
                mode: MetricOutageMode::Stale,
            }),
            ..FaultPlan::none()
        };
        Simulation::new(cfg, vec![setup(600.0, 6, 2)])
            .unwrap()
            .with_faults(plan)
            .unwrap()
            .driver(Box::new(probe))
            .run();
        let seen = rates.lock().unwrap();
        let frozen: Vec<f64> = seen
            .iter()
            .filter(|&&(t, _)| (120.0..240.0).contains(&t))
            .map(|&(_, r)| r)
            .collect();
        assert!(frozen.len() > 5);
        assert!(
            frozen.windows(2).all(|w| w[0] == w[1]),
            "stale scrape repeats one value: {frozen:?}"
        );
    }

    #[test]
    fn with_faults_validates_the_plan() {
        let sim = Simulation::new(SimConfig::default(), vec![setup(60.0, 2, 1)]).unwrap();
        let plan = FaultPlan {
            metric_outage: Some(MetricOutage {
                start: SimTimeMs::from_secs(0.0),
                duration: DurationMs::from_secs(60.0),
                jobs: vec![JobId::new(7)],
                mode: MetricOutageMode::Missing,
            }),
            ..FaultPlan::none()
        };
        let err = match sim.with_faults(plan) {
            Err(err) => err,
            Ok(_) => panic!("an out-of-range fault plan must be rejected"),
        };
        assert!(err.to_string().contains("only 1 jobs exist"), "{err}");
    }

    #[test]
    fn cold_start_spike_lowers_availability() {
        let mk = || {
            let mut rates = vec![60.0; 2];
            rates.extend(vec![1800.0; 13]);
            JobSetup {
                spec: JobSpec::resnet34("spike"),
                rates_per_minute: rates,
                initial_replicas: 1,
            }
        };
        let cfg = SimConfig {
            total_replicas: 12,
            seed: 23,
            ..Default::default()
        };
        let base = Simulation::new(cfg.clone(), vec![mk()])
            .unwrap()
            .driver(Box::new(Aiad::default()))
            .run()
            .into_outcome()
            .report;
        let plan = FaultPlan {
            cold_start_spike: Some(ColdStartSpike {
                start: SimTimeMs::from_secs(0.0),
                duration: DurationMs::from_secs(900.0),
                median_multiplier: 8.0,
                sigma: 0.0,
            }),
            ..FaultPlan::none()
        };
        let spiked = Simulation::new(cfg, vec![mk()])
            .unwrap()
            .with_faults(plan)
            .unwrap()
            .driver(Box::new(Aiad::default()))
            .run()
            .into_outcome()
            .report;
        assert!(
            spiked.availability < base.availability,
            "spiked {} vs base {}",
            spiked.availability,
            base.availability
        );
    }
}
