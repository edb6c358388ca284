//! The unified control-loop run report.
//!
//! Three overlapping stats types grew up independently —
//! [`RunStats`] (reconciler round accounting),
//! [`AdmissionStats`](crate::reconciler::AdmissionStats)
//! (quota accounting nested inside it), and [`DriverStats`] (the
//! resilient driver's failure accounting) — each with its own field
//! conventions, so answering "how did the run go?" meant knowing
//! which layer to ask. [`RunReport`] composes all three into one flat
//! record with consistent naming: round classifications end in
//! `*_rounds`, cumulative quantities end in `*_total`. The source
//! types remain the working state of their layers; the report is the
//! presentation view, equivalence-tested field-by-field against the
//! old accessors (see the tests in this module) so the composed view
//! can eventually replace ad-hoc drilling without a behavior change.

use crate::reconciler::RunStats;
use crate::resilient::DriverStats;
use serde::Serialize;

/// Everything one control-loop run did, in one flat record.
///
/// Built from a [`RunStats`] alone (plain reconciler runs) or from a
/// [`RunStats`] + [`DriverStats`] pair (resilient runs) via
/// [`RunReport::from_stats`] / [`RunReport::compose`]. Fields are
/// grouped by suffix: `*_rounds` classify rounds (a resilient round
/// is counted once per classification that applies), `*_total` sum
/// quantities across the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct RunReport {
    /// Rounds the loop saw, including degraded and skipped ones.
    /// Equals `DriverStats::rounds` on resilient runs and
    /// `RunStats::rounds` on plain runs (which cannot skip).
    pub total_rounds: u64,
    /// Rounds that completed the full observe→apply loop cleanly.
    pub ok_rounds: u64,
    /// Rounds planned on a stale (tolerated) snapshot.
    pub stale_tolerated_rounds: u64,
    /// Degraded rounds that re-applied the last desired state.
    pub carry_forward_rounds: u64,
    /// Rounds skipped entirely (breaker open, or nothing to act on).
    pub skipped_rounds: u64,
    /// Rounds in which admission trimmed at least one request.
    pub clamped_rounds: u64,
    /// Rounds in which the quota was unsatisfiable.
    pub unsatisfiable_rounds: u64,
    /// Replicas requested by the policy across all rounds.
    pub requested_replicas_total: u64,
    /// Replicas granted by admission across all rounds.
    pub granted_replicas_total: u64,
    /// Replicas started (entered cold start) across all rounds.
    pub replicas_started_total: u64,
    /// Job decisions that failed to apply across all rounds.
    pub jobs_failed_total: u64,
    /// `observe` retry attempts beyond the first, summed.
    pub observe_retries_total: u64,
    /// `apply` retry attempts beyond the first, summed.
    pub apply_retries_total: u64,
    /// Rounds in which `observe` exhausted its attempts/budget.
    pub observe_failures_total: u64,
    /// Rounds in which `apply` exhausted its attempts/budget.
    pub apply_failures_total: u64,
    /// Times the circuit breaker opened.
    pub breaker_opens_total: u64,
    /// Fresh snapshots whose targets disagreed with the last applied
    /// desired state and were repaired by that round's apply.
    pub drift_repairs_total: u64,
}

impl RunReport {
    /// The report of a plain (non-resilient) run: every reconciler
    /// round completed cleanly, so the driver-side counters are zero
    /// and `total_rounds == ok_rounds`.
    pub fn from_stats(stats: &RunStats) -> Self {
        Self {
            total_rounds: stats.rounds,
            ok_rounds: stats.rounds,
            clamped_rounds: stats.admission.clamped_rounds,
            unsatisfiable_rounds: stats.admission.unsatisfiable_rounds,
            requested_replicas_total: stats.admission.requested_replicas,
            granted_replicas_total: stats.admission.granted_replicas,
            replicas_started_total: stats.replicas_started,
            jobs_failed_total: stats.jobs_failed,
            ..Self::default()
        }
    }

    /// The report of a resilient run: reconciler accounting from
    /// `stats`, failure/degradation accounting from `driver`.
    pub fn compose(stats: &RunStats, driver: &DriverStats) -> Self {
        Self {
            total_rounds: driver.rounds,
            ok_rounds: driver.ok_rounds,
            stale_tolerated_rounds: driver.stale_tolerated_rounds,
            carry_forward_rounds: driver.carry_forward_rounds,
            skipped_rounds: driver.skipped_rounds,
            observe_retries_total: driver.observe_retries,
            apply_retries_total: driver.apply_retries,
            observe_failures_total: driver.observe_failures,
            apply_failures_total: driver.apply_failures,
            breaker_opens_total: driver.breaker_opens,
            drift_repairs_total: driver.drift_repairs,
            ..Self::from_stats(stats)
        }
    }

    /// Replicas requested but never granted, across the whole run
    /// (mirrors `AdmissionStats::shortfall`).
    pub fn shortfall_total(&self) -> u64 {
        self.requested_replicas_total
            .saturating_sub(self.granted_replicas_total)
    }

    /// Rounds that did not complete the full loop cleanly.
    pub fn degraded_rounds(&self) -> u64 {
        self.total_rounds.saturating_sub(self.ok_rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reconciler::AdmissionStats;

    fn sample_stats() -> RunStats {
        RunStats {
            rounds: 40,
            admission: AdmissionStats {
                requested_replicas: 310,
                granted_replicas: 290,
                clamped_rounds: 6,
                unsatisfiable_rounds: 1,
            },
            replicas_started: 55,
            jobs_failed: 2,
        }
    }

    fn sample_driver() -> DriverStats {
        DriverStats {
            rounds: 50,
            ok_rounds: 40,
            stale_tolerated_rounds: 3,
            carry_forward_rounds: 4,
            skipped_rounds: 3,
            observe_retries: 7,
            apply_retries: 5,
            observe_failures: 2,
            apply_failures: 1,
            breaker_opens: 1,
            drift_repairs: 2,
        }
    }

    /// Field-by-field equivalence against the legacy accessors: the
    /// unified report must be a pure renaming, never a recomputation,
    /// so the shims can be dropped without a numeric change.
    #[test]
    fn report_matches_legacy_accessors() {
        let stats = sample_stats();
        let driver = sample_driver();
        let r = RunReport::compose(&stats, &driver);

        assert_eq!(r.total_rounds, driver.rounds);
        assert_eq!(r.ok_rounds, driver.ok_rounds);
        assert_eq!(r.stale_tolerated_rounds, driver.stale_tolerated_rounds);
        assert_eq!(r.carry_forward_rounds, driver.carry_forward_rounds);
        assert_eq!(r.skipped_rounds, driver.skipped_rounds);
        assert_eq!(r.clamped_rounds, stats.admission.clamped_rounds);
        assert_eq!(r.unsatisfiable_rounds, stats.admission.unsatisfiable_rounds);
        assert_eq!(
            r.requested_replicas_total,
            stats.admission.requested_replicas
        );
        assert_eq!(r.granted_replicas_total, stats.admission.granted_replicas);
        assert_eq!(r.replicas_started_total, stats.replicas_started);
        assert_eq!(r.jobs_failed_total, stats.jobs_failed);
        assert_eq!(r.observe_retries_total, driver.observe_retries);
        assert_eq!(r.apply_retries_total, driver.apply_retries);
        assert_eq!(r.observe_failures_total, driver.observe_failures);
        assert_eq!(r.apply_failures_total, driver.apply_failures);
        assert_eq!(r.breaker_opens_total, driver.breaker_opens);
        assert_eq!(r.drift_repairs_total, driver.drift_repairs);
        assert_eq!(r.shortfall_total(), stats.admission.shortfall());
        assert_eq!(r.degraded_rounds(), 10);
    }

    /// A plain run is the degenerate composition: no driver counters,
    /// every round ok.
    #[test]
    fn plain_run_is_all_ok_rounds() {
        let stats = sample_stats();
        let r = RunReport::from_stats(&stats);
        assert_eq!(r.total_rounds, stats.rounds);
        assert_eq!(r.ok_rounds, stats.rounds);
        assert_eq!(r.degraded_rounds(), 0);
        assert_eq!(r.skipped_rounds, 0);
        assert_eq!(r.observe_retries_total, 0);
        assert_eq!(r.shortfall_total(), 20);
    }

    /// Composing with an all-zero `DriverStats` must still carry the
    /// reconciler side through unchanged.
    #[test]
    fn compose_is_from_stats_plus_driver_fields() {
        let stats = sample_stats();
        let zero = DriverStats::default();
        let composed = RunReport::compose(&stats, &zero);
        let plain = RunReport::from_stats(&stats);
        // Only the round classification differs: a zero driver saw
        // zero rounds.
        assert_eq!(
            RunReport {
                total_rounds: plain.total_rounds,
                ok_rounds: plain.ok_rounds,
                ..composed
            },
            plain
        );
    }

    /// The report serializes with its consistent field names, so
    /// downstream JSON consumers see `*_rounds` / `*_total` only.
    #[test]
    fn serialized_names_are_consistent() {
        let r = RunReport::compose(&sample_stats(), &sample_driver());
        let json = serde_json::to_string(&r).expect("report serializes");
        assert!(json.contains("\"total_rounds\":50"));
        assert!(json.contains("\"drift_repairs_total\":2"));
        assert!(!json.contains("\"admission\""), "no nested sub-reports");
    }
}
