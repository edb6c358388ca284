//! Simulation reports: the paper's experimental metrics (Sec. 6,
//! "Metrics").
//!
//! Per job: the SLO violation rate (dropped requests count, with
//! infinite latency), per-minute utility from the inverse utility
//! function (Eq. 1), and effective utility with the drop penalty. Per
//! cluster: average lost utility (max minus actual) and the mean of the
//! per-job violation rates.

use faro_core::penalty::{phi, PenaltyShape};
use faro_core::utility::RelaxedUtility;
use serde::Serialize;

/// Per-job outcome of a simulation run.
#[derive(Debug, Clone, Serialize)]
pub struct JobReport {
    /// Job name.
    pub name: String,
    /// Total incoming requests (completed + dropped).
    pub total_requests: u64,
    /// Requests violating the SLO (including drops).
    pub violations: u64,
    /// Dropped requests (explicit + tail drop).
    pub drops: u64,
    /// SLO violation rate in `[0, 1]`.
    pub violation_rate: f64,
    /// Per-minute utility (Eq. 1 applied to the per-minute tail
    /// latency; idle minutes count as utility 1).
    pub utility_per_minute: Vec<f64>, // faro-lint: allow(raw-time-arith): serialized report wire format stays raw f64
    /// Per-minute effective utility (drop-penalized).
    pub effective_utility_per_minute: Vec<f64>, // faro-lint: allow(raw-time-arith): serialized report wire format stays raw f64
    /// Mean utility across minutes.
    pub mean_utility: f64,
    /// Mean effective utility across minutes.
    pub mean_effective_utility: f64,
    /// Per-minute arrivals (workload view).
    pub arrivals_per_minute: Vec<f64>, // faro-lint: allow(raw-time-arith): serialized report wire format stays raw f64
    /// In-flight requests killed by replica crashes/evictions (zero
    /// without fault injection).
    pub crash_killed: u64,
    /// Time-weighted fraction of the desired replica capacity that was
    /// ready (1 means every requested replica was always serving).
    pub availability: f64,
    /// Mean duration of ready-capacity deficits in seconds (0 when the
    /// job never had a deficit).
    pub mean_time_to_recover_secs: f64, // faro-lint: allow(raw-time-arith): serialized report wire format stays raw f64
    /// Number of completed deficit-recovery episodes.
    pub recoveries: u64,
}

impl JobReport {
    /// Mean lost utility (1 - mean utility).
    pub fn lost_utility(&self) -> f64 {
        (1.0 - self.mean_utility).max(0.0)
    }
}

/// Cluster-wide outcome of a simulation run.
#[derive(Debug, Clone, Serialize)]
pub struct ClusterReport {
    /// Policy that produced this run.
    pub policy: String,
    /// Total replica quota.
    pub quota: u32,
    /// Per-job reports.
    pub jobs: Vec<JobReport>,
    /// Cluster utility per minute (sum over jobs).
    pub cluster_utility_per_minute: Vec<f64>, // faro-lint: allow(raw-time-arith): serialized report wire format stays raw f64
    /// Average lost cluster utility (max = job count).
    pub avg_lost_cluster_utility: f64,
    /// Average of per-job SLO violation rates.
    pub cluster_violation_rate: f64,
    /// Average effective cluster utility per minute.
    pub avg_effective_cluster_utility: f64,
    /// Mean of the per-job capacity availabilities.
    pub availability: f64,
    /// Total in-flight requests killed by crashes/evictions.
    pub crash_killed_total: u64,
}

/// Builds per-minute utilities from tail-latency and drop series,
/// scored by the default [`RelaxedUtility`] (Eq. 1, alpha 4).
///
/// Minutes with no requests have utility 1 (the SLO is trivially met).
pub fn utilities_from_minutes(
    tail_latency: &[Option<f64>],
    arrivals: &[f64],
    drops: &[u64],
    slo: f64,
) -> (Vec<f64>, Vec<f64>) {
    let u = RelaxedUtility::default();
    let n = tail_latency.len().max(arrivals.len());
    let mut utility = Vec::with_capacity(n);
    let mut effective = Vec::with_capacity(n);
    for m in 0..n {
        let value = match tail_latency.get(m).copied().flatten() {
            Some(l) => u.value(l, slo),
            None => 1.0,
        };
        let arrived = arrivals.get(m).copied().unwrap_or(0.0);
        let dropped = drops.get(m).copied().unwrap_or(0) as f64;
        let drop_rate = if arrived > 0.0 {
            (dropped / arrived).clamp(0.0, 1.0)
        } else {
            0.0
        };
        utility.push(value);
        effective.push(phi(drop_rate, PenaltyShape::Step) * value);
    }
    (utility, effective)
}

/// Assembles the cluster report from per-job reports.
pub fn cluster_report(policy: &str, quota: u32, jobs: Vec<JobReport>) -> ClusterReport {
    let minutes = jobs
        .iter()
        .map(|j| j.utility_per_minute.len())
        .max()
        .unwrap_or(0);
    let mut cluster_utility = vec![0.0; minutes];
    let mut cluster_effective = vec![0.0; minutes];
    for j in &jobs {
        for m in 0..minutes {
            cluster_utility[m] += j.utility_per_minute.get(m).copied().unwrap_or(1.0);
            cluster_effective[m] += j
                .effective_utility_per_minute
                .get(m)
                .copied()
                .unwrap_or(1.0);
        }
    }
    let max_u = jobs.len() as f64;
    let avg_lost = if minutes == 0 {
        0.0
    } else {
        cluster_utility
            .iter()
            .map(|&u| (max_u - u).max(0.0))
            .sum::<f64>()
            / minutes as f64
    };
    let avg_eff = if minutes == 0 {
        0.0
    } else {
        cluster_effective.iter().sum::<f64>() / minutes as f64
    };
    let violation = if jobs.is_empty() {
        0.0
    } else {
        jobs.iter().map(|j| j.violation_rate).sum::<f64>() / jobs.len() as f64
    };
    let availability = if jobs.is_empty() {
        1.0
    } else {
        jobs.iter().map(|j| j.availability).sum::<f64>() / jobs.len() as f64
    };
    let crash_killed_total = jobs.iter().map(|j| j.crash_killed).sum();
    ClusterReport {
        policy: policy.to_string(),
        quota,
        jobs,
        cluster_utility_per_minute: cluster_utility,
        avg_lost_cluster_utility: avg_lost,
        cluster_violation_rate: violation,
        avg_effective_cluster_utility: avg_eff,
        availability,
        crash_killed_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_minutes_get_full_utility() {
        let (u, e) = utilities_from_minutes(&[None, Some(0.1)], &[0.0, 10.0], &[0, 0], 0.72);
        assert_eq!(u, vec![1.0, 1.0]);
        assert_eq!(e, vec![1.0, 1.0]);
    }

    #[test]
    fn violating_minutes_lose_utility() {
        let (u, _) = utilities_from_minutes(&[Some(1.44)], &[10.0], &[0], 0.72);
        assert!((u[0] - 0.0625).abs() < 1e-9); // (0.5)^4.
    }

    #[test]
    fn drops_reduce_effective_utility() {
        // 10% drops -> availability 90% -> penalty 50% -> phi 0.5.
        let (u, e) = utilities_from_minutes(&[Some(0.1)], &[100.0], &[10], 0.72);
        assert_eq!(u[0], 1.0);
        assert!((e[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn cluster_report_aggregates() {
        let job = |utils: Vec<f64>| JobReport {
            name: "j".into(),
            total_requests: 10,
            violations: 1,
            drops: 0,
            violation_rate: 0.1,
            effective_utility_per_minute: utils.clone(),
            mean_utility: utils.iter().sum::<f64>() / utils.len() as f64,
            mean_effective_utility: utils.iter().sum::<f64>() / utils.len() as f64,
            utility_per_minute: utils,
            arrivals_per_minute: vec![],
            crash_killed: 1,
            availability: 0.9,
            mean_time_to_recover_secs: 30.0,
            recoveries: 1,
        };
        let r = cluster_report("test", 8, vec![job(vec![1.0, 0.5]), job(vec![1.0, 1.0])]);
        assert_eq!(r.cluster_utility_per_minute, vec![2.0, 1.5]);
        assert!((r.avg_lost_cluster_utility - 0.25).abs() < 1e-9);
        assert!((r.cluster_violation_rate - 0.1).abs() < 1e-9);
        assert_eq!(r.jobs.len(), 2);
        assert!((r.jobs[0].lost_utility() - 0.25).abs() < 1e-9);
        assert!((r.availability - 0.9).abs() < 1e-9);
        assert_eq!(r.crash_killed_total, 2);
    }

    #[test]
    fn empty_cluster_report() {
        let r = cluster_report("x", 4, vec![]);
        assert_eq!(r.avg_lost_cluster_utility, 0.0);
        assert_eq!(r.cluster_violation_rate, 0.0);
    }
}
