//! Heterogeneous mixed-pool sweep: Faro's class-aware solver vs the
//! class-blind baselines across GPU:CPU capacity ratios.
//!
//! The cluster holds a fixed pool of fast GPU replica slots and a
//! sweep-dependent pool of cheap CPU-only slots that serve every
//! request 5x slower. Tight-SLO jobs only meet their latency target on
//! the fast class (or a fast-heavy mix); loose-SLO jobs have enough
//! slack to live entirely on the slow class. A class-aware allocator
//! should therefore push the loose jobs onto CPUs and reserve the
//! scarce GPUs for the tight jobs. The class-blind baselines pick only
//! a replica *count*; the platform places it by spill-fill (fastest
//! class first, in job order — see `ResourceModel::spill_fill`), so
//! loose jobs burn GPU slots the tight jobs needed.
//!
//! Loose jobs come first in job-id order on purpose: that is the
//! adversarial placement for a class-blind policy and the natural one
//! for a cluster operator who onboarded the batch-ish services first.
//!
//! Claimed: Faro's SLO attainment is at least the best class-blind
//! baseline's on >= 2 of the 4 ratios.

use crate::Run;
use faro_bench::prelude::*;
use faro_core::admission::ClampToQuota;
use faro_core::baselines::{Aiad, Oneshot};
use faro_core::cilantro::CilantroLike;
use faro_core::faro::{FaroAutoscaler, FaroConfig};
use faro_core::policy::Policy;
use faro_core::predictor::{FlatPredictor, RatePredictor};
use faro_core::types::{JobSpec, ReplicaClass, ResourceModel};
use faro_sim::JobSetup;
use faro_sim::SimRun;

/// 5x service-time penalty for CPU-only replicas (ResNet-scale models
/// on AVX vs a data-center GPU land between 2x and 5x). At 5x the CPU
/// service time for the tight jobs (0.5 s) exceeds their 0.4 s SLO, so
/// slow-class capacity is structurally useless to them — the scenario
/// where class-aware placement matters most.
const CPU_SLOWDOWN: f64 = 5.0;

/// `gpus` fast slots + `cpu_slots` slow slots. The GPU class binds on
/// GPUs, the CPU class on vCPUs; memory never binds.
fn cluster(gpus: u32, cpu_slots: u32) -> ResourceModel {
    ResourceModel::heterogeneous(
        vec![
            ReplicaClass::gpu("gpu"),
            ReplicaClass::cpu("cpu", CPU_SLOWDOWN),
        ],
        f64::from(gpus + cpu_slots),
        f64::from(gpus),
        f64::from(4 * gpus + cpu_slots),
    )
}

/// A deterministic rate series: `base` req/min with a mild two-bump
/// diurnal shape so the autoscalers actually have to move.
fn rates(base: f64, minutes: usize, phase: usize) -> Vec<f64> {
    (0..minutes)
        .map(|m| {
            let t = ((m + 7 * phase) % 20) as f64 / 20.0;
            let bump = if t < 0.5 { t * 2.0 } else { 2.0 - t * 2.0 };
            base * (0.7 + 0.6 * bump)
        })
        .collect()
}

/// Three loose-SLO jobs first (adversarial for spill-fill), then two
/// tight-SLO jobs.
fn jobs(minutes: usize) -> Vec<JobSetup> {
    let mut setups = Vec::new();
    for i in 0..3 {
        let mut spec = JobSpec::resnet18(format!("loose-{i}"));
        // 4 s SLO: a 0.5 s CPU-class service time leaves a 7x wait
        // budget, so the slow class is fine.
        spec.slo.latency = 4.0;
        setups.push(JobSetup {
            spec,
            rates_per_minute: rates(420.0, minutes, i),
            initial_replicas: 2,
        });
    }
    for i in 0..2 {
        // ResNet18 defaults: 0.4 s SLO at 0.1 s processing. On the CPU
        // class the service time alone is 0.5 s — past the SLO before
        // any queueing — so only fast-class replicas count.
        setups.push(JobSetup {
            spec: JobSpec::resnet18(format!("tight-{i}")),
            rates_per_minute: rates(600.0, minutes, 3 + i),
            initial_replicas: 2,
        });
    }
    setups
}

fn faro_policy(n_jobs: usize) -> Box<dyn Policy> {
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

struct Cell {
    policy: &'static str,
    attainment: f64,
    effective_utility: f64,
}

fn run_cell(
    name: &'static str,
    policy: Box<dyn Policy>,
    gpus: u32,
    cpu_slots: u32,
    minutes: usize,
) -> Cell {
    let config = SimConfig {
        total_replicas: gpus + cpu_slots,
        seed: 42,
        hetero_resources: Some(cluster(gpus, cpu_slots)),
        ..Default::default()
    };
    let report = Simulation::new(config, jobs(minutes))
        .expect("hetero sweep setup is valid")
        .driver(policy)
        .unwrap()
        .admission(Box::new(ClampToQuota))
        .run()
        .expect("hetero sweep run completes")
        .into_outcome()
        .report;
    Cell {
        policy: name,
        attainment: 1.0 - report.cluster_violation_rate,
        effective_utility: report.avg_effective_cluster_utility,
    }
}

pub fn run() -> Run {
    let minutes = 40;
    // Fixed total slot count, sweeping how much of it is fast silicon.
    let ratios: &[(u32, u32)] = &[(12, 8), (8, 12), (6, 14), (4, 16)];

    let mut out = format!(
        "=== hetero_mixed: GPU:CPU ratio sweep ({CPU_SLOWDOWN}x CPU slowdown, {minutes} min) ===\n"
    );
    out += "3 loose jobs (4 s SLO) first, 2 tight jobs (0.4 s SLO) last; class-blind\n";
    out += "policies are placed by spill-fill, Faro places per class.\n\n";

    let mut faro_wins = 0usize;
    for &(gpus, cpu_slots) in ratios {
        let policies: [(&str, Box<dyn Policy>); 5] = [
            ("Faro-Sum", faro_policy(jobs(minutes).len())),
            ("FairShare", Box::new(FairShare)),
            ("Oneshot", Box::new(Oneshot::default())),
            ("AIAD", Box::new(Aiad::default())),
            ("Cilantro-like", Box::new(CilantroLike::default())),
        ];
        let cells: Vec<Cell> = policies
            .into_iter()
            .map(|(name, policy)| run_cell(name, policy, gpus, cpu_slots, minutes))
            .collect();
        let faro = cells[0].attainment;
        let best_blind = cells[1..]
            .iter()
            .map(|c| c.attainment)
            .fold(f64::NEG_INFINITY, f64::max);
        if faro >= best_blind {
            faro_wins += 1;
        }
        out += &format!("--- {gpus} GPU : {cpu_slots} CPU slots ---\n");
        out += &format!(
            "{:<16} {:>12} {:>14}\n",
            "policy", "attainment", "eff. utility"
        );
        for c in &cells {
            out += &format!(
                "{:<16} {:>12.4} {:>14.4}\n",
                c.policy, c.attainment, c.effective_utility
            );
        }
        out.push('\n');
    }

    out += &format!(
        "Faro >= best class-blind baseline on {faro_wins}/{} ratios\n",
        ratios.len()
    );
    let mut run = Run::default();
    run.claim(
        faro_wins >= 2,
        "Faro >= the best baseline on >= 2 ratios",
        faro_wins,
    );
    run.text(out)
}
