//! The trial runner: policy x cluster size x seed, in parallel.

use crate::policies::PolicyKind;
use crate::workloads::WorkloadSet;
use faro_forecast::nhits::NHits;
use faro_sim::{ClusterReport, FaultPlan, SimConfig, SimRun, Simulation};
use serde::Serialize;

/// One experiment's grid.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Policies under test.
    pub policies: Vec<PolicyKind>,
    /// Cluster sizes (total replicas) to sweep.
    pub cluster_sizes: Vec<u32>,
    /// Trial seeds (the paper averages 5 trials).
    pub trials: Vec<u64>,
    /// Base simulator configuration (size and seed are overridden per
    /// cell).
    pub sim: SimConfig,
    /// Fault schedule applied to every cell (default: no faults).
    pub faults: FaultPlan,
}

impl ExperimentSpec {
    /// The paper's default: 5 trials, no faults.
    pub fn new(policies: Vec<PolicyKind>, cluster_sizes: Vec<u32>) -> Self {
        Self {
            policies,
            cluster_sizes,
            trials: (0..5).collect(),
            sim: SimConfig::default(),
            faults: FaultPlan::none(),
        }
    }

    /// Sets the number of trials (seeds `0..n`).
    pub fn with_trials(mut self, n: usize) -> Self {
        self.trials = (0..n as u64).collect();
        self
    }

    /// Applies a fault schedule to every cell of the grid.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

/// Aggregated outcome for one (policy, cluster size) cell.
#[derive(Debug, Clone, Serialize)]
pub struct PolicyResult {
    /// Policy display name.
    pub policy: String,
    /// Cluster size (total replicas).
    pub cluster_size: u32,
    /// Mean lost cluster utility across trials.
    pub lost_utility_mean: f64,
    /// Standard deviation of lost cluster utility.
    pub lost_utility_sd: f64,
    /// Mean cluster SLO violation rate across trials.
    pub violation_mean: f64,
    /// Standard deviation of the violation rate.
    pub violation_sd: f64,
    /// Mean effective cluster utility (drop-penalized).
    pub effective_utility_mean: f64,
    /// Per-trial full reports (for plots and per-job fairness).
    #[serde(skip)]
    pub reports: Vec<ClusterReport>,
}

fn mean_sd(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Runs one trial: a policy at a cluster size with one seed.
fn run_trial(
    kind: &PolicyKind,
    size: u32,
    trial: u64,
    spec: &ExperimentSpec,
    set: &WorkloadSet,
    trained: Option<&[NHits]>,
) -> ClusterReport {
    let mut sim_cfg = spec.sim.clone();
    sim_cfg.total_replicas = size;
    sim_cfg.seed = trial
        .wrapping_mul(0x9e37_79b9)
        .wrapping_add(u64::from(size));
    let policy = kind.build(set, trained, sim_cfg.seed);
    Simulation::new(sim_cfg, set.setups(1))
        .expect("valid experiment setup")
        .with_faults(spec.faults.clone())
        .unwrap()
        .driver(policy)
        .run()
        .into_outcome()
        .report
}

/// Aggregates one (policy, size) cell from its per-trial reports.
fn aggregate_cell(kind: &PolicyKind, size: u32, reports: Vec<ClusterReport>) -> PolicyResult {
    let lost: Vec<f64> = reports.iter().map(|r| r.avg_lost_cluster_utility).collect();
    let viol: Vec<f64> = reports.iter().map(|r| r.cluster_violation_rate).collect();
    let eff: Vec<f64> = reports
        .iter()
        .map(|r| r.avg_effective_cluster_utility)
        .collect();
    let (lost_utility_mean, lost_utility_sd) = mean_sd(&lost);
    let (violation_mean, violation_sd) = mean_sd(&viol);
    let (effective_utility_mean, _) = mean_sd(&eff);
    PolicyResult {
        policy: kind.name(),
        cluster_size: size,
        lost_utility_mean,
        lost_utility_sd,
        violation_mean,
        violation_sd,
        effective_utility_mean,
        reports,
    }
}

/// Runs the full grid with scoped worker threads.
///
/// The work queue is flattened to (policy, size, **trial**) items —
/// trials of one cell are independent simulations, so a small grid
/// (one policy, one size, five trials) still fills every core instead
/// of serializing its trials behind a single (policy, size) cell.
/// Results are aggregated per cell in trial order afterwards, so the
/// output is identical to a serial sweep.
pub fn run_matrix(
    spec: &ExperimentSpec,
    set: &WorkloadSet,
    trained: Option<&[NHits]>,
) -> Vec<PolicyResult> {
    let cells: Vec<(&PolicyKind, u32)> = spec
        .policies
        .iter()
        .flat_map(|p| spec.cluster_sizes.iter().map(move |&s| (p, s)))
        .collect();
    let items: Vec<(&PolicyKind, u32, u64)> = cells
        .iter()
        .flat_map(|&(p, s)| spec.trials.iter().map(move |&t| (p, s, t)))
        .collect();
    let threads = std::thread::available_parallelism()
        .map_or(4, |n| n.get())
        .min(items.len().max(1));
    let mut reports: Vec<Option<ClusterReport>> = (0..items.len()).map(|_| None).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let reports_mutex = parking_lot::Mutex::new(&mut reports);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let (kind, size, trial) = items[i];
                let report = run_trial(kind, size, trial, spec, set, trained);
                reports_mutex.lock()[i] = Some(report);
            });
        }
    });

    // Items are cell-major, trial-minor: chunking restores each cell's
    // reports in trial order.
    let mut reports = reports.into_iter().map(|r| r.expect("every trial filled"));
    cells
        .into_iter()
        .map(|(kind, size)| {
            let cell_reports: Vec<ClusterReport> = (0..spec.trials.len())
                .map(|_| reports.next().expect("cell-major order"))
                .collect();
            aggregate_cell(kind, size, cell_reports)
        })
        .collect()
}

/// Formats results as an aligned text table, one row per (policy, size).
pub fn summarize(results: &[PolicyResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<28} {:>6} {:>12} {:>8} {:>12} {:>8} {:>10}\n",
        "policy", "size", "lost_util", "(sd)", "slo_viol", "(sd)", "eff_util"
    ));
    for r in results {
        out.push_str(&format!(
            "{:<28} {:>6} {:>12.3} {:>8.3} {:>12.4} {:>8.4} {:>10.3}\n",
            r.policy,
            r.cluster_size,
            r.lost_utility_mean,
            r.lost_utility_sd,
            r.violation_mean,
            r.violation_sd,
            r.effective_utility_mean,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use faro_core::ClusterObjective;

    #[test]
    fn mean_sd_math() {
        let (m, s) = mean_sd(&[1.0, 3.0]);
        assert_eq!(m, 2.0);
        assert_eq!(s, 1.0);
        assert_eq!(mean_sd(&[]), (0.0, 0.0));
    }

    #[test]
    fn tiny_matrix_runs() {
        // 2 jobs, 20 minutes, 2 policies, 1 size, 2 trials: seconds.
        let set = WorkloadSet::n_jobs(2, 9, 400.0).truncated_eval(20);
        let spec = ExperimentSpec::new(
            vec![
                PolicyKind::FairShare,
                PolicyKind::faro(ClusterObjective::Sum),
            ],
            vec![8],
        )
        .with_trials(2);
        let results = run_matrix(&spec, &set, None);
        assert_eq!(results.len(), 2);
        for r in &results {
            assert_eq!(r.reports.len(), 2);
            assert!(r.lost_utility_mean >= 0.0);
            assert!((0.0..=1.0).contains(&r.violation_mean));
        }
        let table = summarize(&results);
        assert!(table.contains("FairShare"));
        assert!(table.contains("Faro-Sum"));
    }

    #[test]
    fn deterministic_across_runs() {
        let set = WorkloadSet::n_jobs(2, 3, 300.0).truncated_eval(12);
        let spec = ExperimentSpec::new(vec![PolicyKind::Aiad], vec![6]).with_trials(2);
        let a = run_matrix(&spec, &set, None);
        let b = run_matrix(&spec, &set, None);
        assert_eq!(a[0].lost_utility_mean, b[0].lost_utility_mean);
        assert_eq!(a[0].violation_mean, b[0].violation_mean);
    }

    /// Golden determinism across the whole hot path: shared-history
    /// snapshots, the solver's memoized latency tables, and the
    /// work-stealing trial scheduler must leave every serialized
    /// report byte-identical between seed-matched sweeps.
    #[test]
    fn golden_reports_are_byte_identical() {
        let set = WorkloadSet::n_jobs(2, 5, 400.0).truncated_eval(15);
        let spec = ExperimentSpec::new(
            vec![PolicyKind::faro(ClusterObjective::Sum), PolicyKind::Aiad],
            vec![8],
        )
        .with_trials(2);
        let golden = |results: &[PolicyResult]| -> Vec<String> {
            results
                .iter()
                .flat_map(|r| {
                    r.reports
                        .iter()
                        .map(|rep| serde_json::to_string(rep).expect("report serializes"))
                })
                .collect()
        };
        let a = golden(&run_matrix(&spec, &set, None));
        let b = golden(&run_matrix(&spec, &set, None));
        assert!(!a.is_empty());
        assert_eq!(a, b, "seed-matched sweeps must replay byte-identically");
    }
}
