//! The family of cluster objective functions (paper Sec. 3.2).
//!
//! The cluster administrator picks one of five goals; the autoscaler
//! maximizes it across jobs:
//!
//! - **Faro-Sum**: total (priority-weighted) utility.
//! - **Faro-Fair**: minimize the max-min utility spread.
//! - **Faro-FairSum**: sum minus `gamma` times the spread.
//! - **Faro-PenaltySum**: sum of *effective* utilities (drop-penalized).
//! - **Faro-PenaltyFairSum**: effective-utility FairSum.

/// One job's utility contribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobUtility {
    /// Plain utility `U` in `[0, 1]`.
    pub utility: f64,
    /// Effective utility `EU = phi(d) * U` in `[0, 1]`.
    pub effective_utility: f64,
    /// Priority coefficient `pi`.
    pub priority: f64,
}

/// A cluster objective to maximize.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClusterObjective {
    /// Maximize `sum_i pi_i U_i`.
    Sum,
    /// Minimize `max U - min U` (expressed as maximizing the negation).
    Fair,
    /// Maximize `sum_i pi_i U_i - gamma (max U - min U)`.
    FairSum {
        /// Fairness weight; the paper recommends the job count.
        gamma: f64,
    },
    /// Maximize `sum_i pi_i EU_i` with explicit request dropping.
    PenaltySum,
    /// Maximize `sum_i pi_i EU_i - gamma (max EU - min EU)`.
    PenaltyFairSum {
        /// Fairness weight; the paper recommends the job count.
        gamma: f64,
    },
}

impl ClusterObjective {
    /// Whether this objective optimizes explicit drop rates.
    pub fn uses_drop_rates(&self) -> bool {
        matches!(
            self,
            ClusterObjective::PenaltySum | ClusterObjective::PenaltyFairSum { .. }
        )
    }

    /// The drop-free counterpart of this objective: penalty variants
    /// map to their plain-utility twins, others are unchanged. The
    /// sharded solver's top-level quota split optimizes over per-shard
    /// pseudo-jobs where drop decisions are meaningless (they belong to
    /// the within-shard solves), so it strips the drop variables here.
    pub fn drop_free(&self) -> Self {
        match *self {
            ClusterObjective::PenaltySum => ClusterObjective::Sum,
            ClusterObjective::PenaltyFairSum { gamma } => ClusterObjective::FairSum { gamma },
            other => other,
        }
    }

    /// The recommended fairness weight for `n` jobs (paper: set `gamma`
    /// to the job count, normalizing both terms).
    pub fn recommended_gamma(n_jobs: usize) -> f64 {
        n_jobs as f64
    }

    /// Short display name matching the paper ("Faro-Sum", ...).
    pub fn name(&self) -> &'static str {
        match self {
            ClusterObjective::Sum => "Faro-Sum",
            ClusterObjective::Fair => "Faro-Fair",
            ClusterObjective::FairSum { .. } => "Faro-FairSum",
            ClusterObjective::PenaltySum => "Faro-PenaltySum",
            ClusterObjective::PenaltyFairSum { .. } => "Faro-PenaltyFairSum",
        }
    }

    /// Evaluates the objective (maximize convention) over per-job
    /// utilities. Returns 0 for an empty cluster.
    pub fn aggregate(&self, jobs: &[JobUtility]) -> f64 {
        if jobs.is_empty() {
            return 0.0;
        }
        let sum_u: f64 = jobs.iter().map(|j| j.priority * j.utility).sum();
        let sum_eu: f64 = jobs.iter().map(|j| j.priority * j.effective_utility).sum();
        let spread = |pick: fn(&JobUtility) -> f64| -> f64 {
            let mut min = f64::INFINITY;
            let mut max = f64::NEG_INFINITY;
            for j in jobs {
                let v = pick(j);
                min = min.min(v);
                max = max.max(v);
            }
            max - min
        };
        match self {
            ClusterObjective::Sum => sum_u,
            ClusterObjective::Fair => -spread(|j| j.utility),
            ClusterObjective::FairSum { gamma } => sum_u - gamma * spread(|j| j.utility),
            ClusterObjective::PenaltySum => sum_eu,
            ClusterObjective::PenaltyFairSum { gamma } => {
                sum_eu - gamma * spread(|j| j.effective_utility)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ju(u: f64, eu: f64) -> JobUtility {
        JobUtility {
            utility: u,
            effective_utility: eu,
            priority: 1.0,
        }
    }

    #[test]
    fn sum_adds_weighted_utilities() {
        let jobs = [
            JobUtility {
                utility: 0.5,
                effective_utility: 0.5,
                priority: 2.0,
            },
            ju(1.0, 1.0),
        ];
        assert!((ClusterObjective::Sum.aggregate(&jobs) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fair_prefers_equal_utilities() {
        let equal = [ju(0.6, 0.6), ju(0.6, 0.6)];
        let unequal = [ju(1.0, 1.0), ju(0.2, 0.2)];
        assert!(
            ClusterObjective::Fair.aggregate(&equal) > ClusterObjective::Fair.aggregate(&unequal)
        );
    }

    #[test]
    fn drop_free_strips_penalty_variants_only() {
        assert_eq!(
            ClusterObjective::PenaltySum.drop_free(),
            ClusterObjective::Sum
        );
        assert_eq!(
            ClusterObjective::PenaltyFairSum { gamma: 3.0 }.drop_free(),
            ClusterObjective::FairSum { gamma: 3.0 }
        );
        for o in [
            ClusterObjective::Sum,
            ClusterObjective::Fair,
            ClusterObjective::FairSum { gamma: 2.0 },
        ] {
            assert_eq!(o.drop_free(), o);
            assert!(!o.drop_free().uses_drop_rates());
        }
        assert!(!ClusterObjective::PenaltySum.drop_free().uses_drop_rates());
    }

    #[test]
    fn fairsum_trades_off() {
        let g = ClusterObjective::FairSum { gamma: 2.0 };
        // Sum 1.2 spread 0 vs sum 1.4 spread 0.6: fairness wins here.
        let balanced = [ju(0.6, 0.6), ju(0.6, 0.6)];
        let lopsided = [ju(1.0, 1.0), ju(0.4, 0.4)];
        assert!(g.aggregate(&balanced) > g.aggregate(&lopsided));
        // With tiny gamma the sum dominates.
        let g = ClusterObjective::FairSum { gamma: 0.01 };
        assert!(g.aggregate(&lopsided) > g.aggregate(&balanced));
    }

    #[test]
    fn penalty_variants_use_effective_utility() {
        let jobs = [ju(1.0, 0.5), ju(1.0, 1.0)];
        assert!((ClusterObjective::PenaltySum.aggregate(&jobs) - 1.5).abs() < 1e-12);
        let pf = ClusterObjective::PenaltyFairSum { gamma: 1.0 };
        // Sum EU = 1.5, spread EU = 0.5 -> 1.0.
        assert!((pf.aggregate(&jobs) - 1.0).abs() < 1e-12);
        assert!(ClusterObjective::PenaltySum.uses_drop_rates());
        assert!(!ClusterObjective::Sum.uses_drop_rates());
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(ClusterObjective::Sum.name(), "Faro-Sum");
        assert_eq!(
            ClusterObjective::FairSum { gamma: 1.0 }.name(),
            "Faro-FairSum"
        );
        assert_eq!(ClusterObjective::recommended_gamma(10), 10.0);
    }

    #[test]
    fn empty_cluster_is_zero() {
        assert_eq!(ClusterObjective::Sum.aggregate(&[]), 0.0);
        assert_eq!(ClusterObjective::Fair.aggregate(&[]), 0.0);
    }
}
