//! A custom [`ClusterBackend`] driven by the stock run loop — no
//! simulator involved.
//!
//! The control plane only needs two things from a cluster: a snapshot
//! (`observe`) and an actuation surface (`apply`), paced by a `Clock`.
//! This example implements both over a toy in-memory "cluster" whose
//! load ramps up over time, then runs the same `Driver` the
//! discrete-event simulator uses — with a real policy (AIAD) and the
//! outage-aware quota clamp — against it. A kube-rs implementation of
//! the same trait would slot in identically.
//!
//! Run with: `cargo run --example custom_backend`

use faro::control::{ActuationReport, BackendError};
use faro::core::types::{JobObservation, ResourceModel};
use faro::core::units::DurationMs;
use faro::core::OutageClamp;
use faro::prelude::*;
use std::sync::Arc;

/// A toy cluster: per-job targets applied instantly, arrival rates
/// following a fixed ramp, latency rising when a job is under-provisioned.
struct RampBackend {
    now: SimTimeMs,
    tick: DurationMs,
    horizon: SimTimeMs,
    quota: ReplicaCount,
    specs: Vec<Arc<JobSpec>>,
    targets: Vec<u32>,
    drop_rates: Vec<f64>,
    history: Vec<Vec<RatePerMin>>,
}

impl RampBackend {
    fn new(quota: u32, names: &[&str]) -> Self {
        Self {
            now: SimTimeMs::from_secs(-10.0),
            tick: DurationMs::from_secs(10.0),
            horizon: SimTimeMs::from_secs(600.0),
            quota: ReplicaCount::new(quota),
            specs: names
                .iter()
                .map(|n| Arc::new(JobSpec::resnet34(*n)))
                .collect(),
            targets: vec![1; names.len()],
            drop_rates: vec![0.0; names.len()],
            history: vec![Vec::new(); names.len()],
        }
    }

    /// Offered load for job `j` at time `t`: a ramp that doubles over
    /// the run, phase-shifted per job.
    fn rate(&self, j: usize, t: f64) -> f64 {
        let base = 4.0 + 2.0 * j as f64;
        base * (1.0 + (t.max(0.0) / self.horizon.as_secs()) + 0.2 * j as f64)
    }
}

impl Clock for RampBackend {
    fn now(&self) -> SimTimeMs {
        self.now
    }

    fn advance(&mut self) -> Option<SimTimeMs> {
        let next = self.now + self.tick;
        if next >= self.horizon {
            return None;
        }
        self.now = next;
        Some(next)
    }
}

impl ClusterBackend for RampBackend {
    // An in-process mock never fails, so both calls always return Ok;
    // a backend fronting a real API would surface timeouts and partial
    // applies as typed BackendErrors here.
    fn observe(&mut self) -> Result<ClusterSnapshot, BackendError> {
        let now = self.now;
        let mut jobs = Vec::with_capacity(self.specs.len());
        for j in 0..self.specs.len() {
            let rate = self.rate(j, now.as_secs());
            self.history[j].push(RatePerMin::new(rate * 60.0));
            let spec = &self.specs[j];
            // One replica serves ~1/processing_time req/s; queueing
            // pushes the tail past the SLO once load nears capacity.
            let capacity = f64::from(self.targets[j]) / spec.processing_time;
            let utilization = (rate / capacity).min(0.99);
            let tail = spec.processing_time * (1.0 + 3.0 * utilization / (1.0 - utilization));
            jobs.push(JobObservation {
                spec: Arc::clone(spec),
                target_replicas: self.targets[j],
                ready_replicas: self.targets[j],
                queue_len: 0,
                arrival_rate_history: Arc::new(self.history[j].clone()),
                recent_arrival_rate: rate,
                mean_processing_time: spec.processing_time,
                recent_tail_latency: tail,
                drop_rate: self.drop_rates[j],
                class_target: None,
                class_ready: None,
            });
        }
        Ok(ClusterSnapshot {
            now,
            resources: ResourceModel::replicas(self.quota),
            jobs,
        })
    }

    fn apply(&mut self, desired: &DesiredState) -> Result<ActuationReport, BackendError> {
        let mut report = ActuationReport::default();
        for (id, d) in desired.iter() {
            let Some(t) = self.targets.get_mut(id.index()) else {
                report.jobs_failed += 1;
                continue;
            };
            report.replicas_started += d.target_replicas.saturating_sub(*t);
            *t = d.target_replicas;
            self.drop_rates[id.index()] = d.drop_rate;
            report.jobs_applied += 1;
        }
        Ok(report)
    }
}

fn main() {
    let backend = RampBackend::new(12, &["imagenet", "sentiment", "whisper"]);
    let out = Driver::new(backend, Box::new(Aiad::default()))
        .admission(Box::new(OutageClamp::new(12)))
        .run();
    let stats = out.stats;

    println!("policy:            {}", out.policy_name);
    println!("reconcile rounds:  {}", stats.rounds);
    println!("replicas started:  {}", stats.replicas_started);
    println!(
        "admission:         {} requested, {} granted ({} clamped, {} unsatisfiable rounds)",
        stats.admission.requested_replicas,
        stats.admission.granted_replicas,
        stats.admission.clamped_rounds,
        stats.admission.unsatisfiable_rounds,
    );
    println!("final targets:     {:?}", out.backend.targets);
    assert_eq!(stats.rounds, 60, "one round per 10 s tick over 600 s");
    assert!(
        out.backend.targets.iter().sum::<u32>() <= 12,
        "admission keeps the cluster within quota"
    );
}
