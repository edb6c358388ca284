//! SLO violation and utility accounting (paper Sec. 6, "Metrics").
//!
//! The paper's main metric is a job's *SLO violation rate*: the ratio of
//! requests that violate the latency SLO (dropped requests count, with
//! infinite latency) to all incoming requests. The *cluster* SLO
//! violation rate averages the per-job rates. Utility is derived by
//! plugging the measured per-minute 99th-percentile latency into the
//! inverse utility function; *lost utility* is max utility minus actual.

use crate::percentile::PercentileBuffer;
use serde::Serialize;

/// Per-job counter of SLO-violating requests.
#[derive(Debug, Clone, Serialize)]
pub struct SloAccounting {
    slo: f64,
    total: u64,
    violations: u64,
    drops: u64,
}

impl SloAccounting {
    /// Creates an accounting for a latency SLO target in seconds.
    pub fn new(slo: f64) -> Self {
        Self {
            slo,
            total: 0,
            violations: 0,
            drops: 0,
        }
    }

    /// The SLO target.
    pub fn slo(&self) -> f64 {
        self.slo
    }

    /// Records one completed request with the given latency.
    pub fn record_latency(&mut self, latency: f64) {
        self.total += 1;
        if latency.is_nan() || latency > self.slo {
            self.violations += 1;
        }
    }

    /// Records one dropped request (infinite latency; always a violation).
    pub fn record_drop(&mut self) {
        self.total += 1;
        self.violations += 1;
        self.drops += 1;
    }

    /// Total incoming requests (completed + dropped).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Requests that violated the SLO (including drops).
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Dropped requests.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Violation rate in `[0, 1]`; zero when no requests arrived.
    pub fn violation_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.violations as f64 / self.total as f64
        }
    }

    /// Drop rate in `[0, 1]`; zero when no requests arrived.
    pub fn drop_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.drops as f64 / self.total as f64
        }
    }
}

/// Accumulates request latencies into per-minute buckets and reports the
/// per-minute tail percentile, matching the paper's "measurements taken
/// every minute".
#[derive(Debug, Clone, Default)]
pub struct MinuteSeries {
    /// One buffer per elapsed minute.
    buckets: Vec<PercentileBuffer>,
}

impl MinuteSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a latency observed at absolute time `t` seconds.
    /// Dropped requests should be recorded as [`f64::INFINITY`].
    pub fn record(&mut self, t: f64, latency: f64) {
        if !t.is_finite() || t < 0.0 {
            return;
        }
        let minute = (t / 60.0) as usize;
        if self.buckets.len() <= minute {
            self.buckets.resize_with(minute + 1, PercentileBuffer::new);
        }
        self.buckets[minute].record(latency);
    }

    /// Number of minute buckets (including empty interior minutes).
    pub fn minutes(&self) -> usize {
        self.buckets.len()
    }

    /// The `k`-th percentile latency for a given minute, or `None` if the
    /// minute saw no requests.
    pub fn percentile(&mut self, minute: usize, k: f64) -> Option<f64> {
        self.buckets.get_mut(minute).and_then(|b| b.percentile(k))
    }

    /// Per-minute `k`-th percentile series. Minutes without requests
    /// yield `None`.
    pub fn percentile_series(&mut self, k: f64) -> Vec<Option<f64>> {
        (0..self.buckets.len())
            .map(|m| self.buckets[m].percentile(k))
            .collect()
    }

    /// Requests recorded in a given minute.
    pub fn count(&self, minute: usize) -> usize {
        self.buckets.get(minute).map_or(0, PercentileBuffer::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_rates() {
        let mut a = SloAccounting::new(0.5);
        assert_eq!(a.violation_rate(), 0.0);
        a.record_latency(0.4);
        a.record_latency(0.5); // Boundary: meeting the SLO exactly is OK.
        a.record_latency(0.6);
        a.record_drop();
        assert_eq!(a.total(), 4);
        assert_eq!(a.violations(), 2);
        assert_eq!(a.drops(), 1);
        assert!((a.violation_rate() - 0.5).abs() < 1e-12);
        assert!((a.drop_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn nan_latency_counts_as_violation() {
        let mut a = SloAccounting::new(0.5);
        a.record_latency(f64::NAN);
        assert_eq!(a.violations(), 1);
    }

    #[test]
    fn minute_series_buckets_by_minute() {
        let mut s = MinuteSeries::new();
        for i in 0..100 {
            s.record(10.0, 0.1 + f64::from(i) * 0.001);
        }
        s.record(65.0, 9.9);
        assert_eq!(s.minutes(), 2);
        assert_eq!(s.count(0), 100);
        assert_eq!(s.count(1), 1);
        let p99 = s.percentile(0, 0.99).unwrap();
        assert!((p99 - 0.198).abs() < 1e-9);
        assert_eq!(s.percentile(1, 0.99), Some(9.9));
        assert_eq!(s.percentile(5, 0.99), None);
    }

    #[test]
    fn minute_series_handles_gaps() {
        let mut s = MinuteSeries::new();
        s.record(0.0, 0.1);
        s.record(200.0, 0.2); // Minute 3; minutes 1-2 empty.
        let series = s.percentile_series(0.5);
        assert_eq!(series.len(), 4);
        assert_eq!(series[0], Some(0.1));
        assert_eq!(series[1], None);
        assert_eq!(series[3], Some(0.2));
    }
}
