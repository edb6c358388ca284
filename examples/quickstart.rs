//! Quickstart: autoscale two ML inference jobs with Faro on a small
//! simulated cluster.
//!
//! Run with: `cargo run --release --example quickstart`

use faro::core::predictor::{FlatPredictor, RatePredictor};
use faro::prelude::*;

fn main() {
    // Two jobs: a steady light one and a ramping heavy one. Rates are
    // requests per minute; ResNet34 takes ~180 ms per request and its
    // SLO is a 720 ms 99th-percentile latency.
    let light = JobSetup {
        spec: JobSpec::resnet34("light"),
        rates_per_minute: vec![120.0; 40],
        initial_replicas: 1,
    };
    let mut ramp: Vec<f64> = (0..20).map(|i| 60.0 + f64::from(i) * 90.0).collect();
    ramp.extend(vec![1800.0; 20]);
    let heavy = JobSetup {
        spec: JobSpec::resnet34("heavy"),
        rates_per_minute: ramp,
        initial_replicas: 1,
    };

    // Faro with the Sum objective. In a real deployment the predictors
    // are N-HiTS models trained on history (see the forecasting
    // example); a flat recent-mean predictor keeps this demo instant.
    let predictors: Vec<Box<dyn RatePredictor>> = (0..2)
        .map(|_| {
            Box::new(FlatPredictor {
                lookback: 3,
                sigma_fraction: 0.2,
            }) as Box<dyn RatePredictor>
        })
        .collect();
    let faro = FaroAutoscaler::new(FaroConfig::new(ClusterObjective::Sum), predictors);
    println!("policy: {}", faro.name());

    let config = SimConfig {
        total_replicas: 12,
        seed: 42,
        ..Default::default()
    };
    // Attach a trace sink to capture the control loop's decision
    // records alongside the run report.
    let mut trace = TraceSink::new();
    let outcome = Simulation::new(config, vec![light, heavy])
        .expect("valid setup")
        .driver(Box::new(faro))
        .telemetry(&mut trace)
        .run()
        .into_outcome();
    let report = &outcome.report;

    println!(
        "control loop: {} rounds, {} replicas started, {} trace events",
        outcome.stats.rounds,
        outcome.stats.replicas_started,
        trace.len(),
    );
    println!(
        "\nper-job results over {} minutes:",
        report.jobs[0].utility_per_minute.len()
    );
    for job in &report.jobs {
        println!(
            "  {:<8} requests {:>7}  SLO violations {:>6} ({:>5.2}%)  drops {:>4}  mean utility {:.3}",
            job.name,
            job.total_requests,
            job.violations,
            100.0 * job.violation_rate,
            job.drops,
            job.mean_utility,
        );
    }
    println!(
        "\ncluster: violation rate {:.3}%  lost utility {:.3} (max {})",
        100.0 * report.cluster_violation_rate,
        report.avg_lost_cluster_utility,
        report.jobs.len(),
    );
}
