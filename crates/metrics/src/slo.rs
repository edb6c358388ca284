//! SLO violation and utility accounting (paper Sec. 6, "Metrics").
//!
//! The paper's main metric is a job's *SLO violation rate*: the ratio of
//! requests that violate the latency SLO (dropped requests count, with
//! infinite latency) to all incoming requests. The *cluster* SLO
//! violation rate averages the per-job rates. Utility is derived by
//! plugging the measured per-minute 99th-percentile latency into the
//! inverse utility function; *lost utility* is max utility minus actual.

use crate::percentile::percentile_by_selection;

/// Per-job counter of SLO-violating requests.
#[derive(Debug, Clone)]
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

/// Reduces request latencies to one tail percentile per minute,
/// matching the paper's "measurements taken every minute".
///
/// Only the open (latest) minute keeps its samples. A sample for a
/// later minute closes it to its nearest-rank `k`-th percentile, the
/// same order statistic sorting the minute and calling
/// [`percentile_of_sorted`](crate::percentile_of_sorted) reads, so
/// memory is one value per elapsed minute plus the busiest minute's
/// samples, not one value per request.
///
/// Precondition: samples arrive in non-decreasing time, as a
/// discrete-event simulator records them (checked in debug builds).
#[derive(Debug, Clone)]
pub struct MinuteSeries {
    k: f64,
    /// Tail of every minute before the open one.
    closed: Vec<Option<f64>>,
    /// Samples of minute `closed.len()`, reused across minutes.
    open: Vec<f64>,
    /// Whether any sample has opened a minute yet.
    started: bool,
}

impl MinuteSeries {
    /// Creates an empty series reporting the `k`-th percentile
    /// (`0 <= k <= 1`) of each minute.
    pub fn new(k: f64) -> Self {
        Self {
            k,
            closed: Vec::new(),
            open: Vec::new(),
            started: false,
        }
    }

    /// Records a latency observed at absolute time `t` seconds.
    /// Dropped requests should be recorded as [`f64::INFINITY`]. A NaN
    /// latency still opens its minute but is not a sample.
    pub fn record(&mut self, t: f64, latency: f64) {
        if !t.is_finite() || t < 0.0 {
            return;
        }
        let minute = (t / 60.0) as usize;
        debug_assert!(
            minute >= self.closed.len(),
            "sample for minute {minute} after minute {} opened",
            self.closed.len()
        );
        if !self.started {
            self.started = true;
            self.closed.resize(minute, None);
        } else if minute > self.closed.len() {
            self.close_open();
            self.closed.resize(minute, None);
        }
        if !latency.is_nan() {
            self.open.push(latency);
        }
    }

    /// Samples held for the open minute: all this series keeps beyond
    /// one value per minute.
    pub fn retained(&self) -> usize {
        self.open.len()
    }

    /// Per-minute percentile series, the open minute closed on read.
    /// Minutes without requests yield `None`.
    pub fn percentile_series(&mut self) -> Vec<Option<f64>> {
        let mut series = self.closed.clone();
        if self.started {
            series.push(percentile_by_selection(&mut self.open, self.k));
        }
        series
    }

    fn close_open(&mut self) {
        let tail = percentile_by_selection(&mut self.open, self.k);
        self.closed.push(tail);
        self.open.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::percentile::percentile_of_sorted;

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
        let mut s = MinuteSeries::new(0.99);
        for i in 0..100 {
            s.record(10.0, 0.1 + f64::from(i) * 0.001);
        }
        assert_eq!(s.retained(), 100);
        s.record(65.0, 9.9);
        assert_eq!(s.retained(), 1, "minute 0 closed to one value");
        let series = s.percentile_series();
        assert_eq!(series.len(), 2);
        assert!((series[0].unwrap() - 0.198).abs() < 1e-9);
        assert_eq!(series[1], Some(9.9));
    }

    #[test]
    fn minute_series_handles_gaps() {
        let mut s = MinuteSeries::new(0.5);
        s.record(0.0, 0.1);
        s.record(200.0, 0.2); // Minute 3; minutes 1-2 empty.
        let series = s.percentile_series();
        assert_eq!(series.len(), 4);
        assert_eq!(series[0], Some(0.1));
        assert_eq!(series[1], None);
        assert_eq!(series[3], Some(0.2));
    }

    /// The reference the series replaces: every sample kept, each
    /// minute sorted once at the end and read by nearest rank. On
    /// seeded streams with empty leading and interior minutes, drops
    /// (+inf), NaN (also alone in a minute), one-sample minutes and a
    /// final partial minute, the reduced series equals it bit for bit
    /// at every `k`.
    #[test]
    fn minute_series_equals_keep_everything_and_sort() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let (mut leading_empty, mut interior_empty, mut one_sample) = (false, false, false);
        let (mut infinite_tail, mut nan) = (false, false);
        for stream in 0..40 {
            let mut samples: Vec<(f64, f64)> = Vec::new();
            // Start past minute 0 on some streams: empty leading minutes.
            let mut t = (next() % 4) as f64 * 60.0 + 0.5;
            let end = t + 60.0 * (1 + next() % 9) as f64 + (next() % 59) as f64;
            while t < end {
                let latency = match next() % 50 {
                    0 => f64::INFINITY,
                    1 => f64::NAN,
                    _ => (next() % 10_000) as f64 / 4096.0,
                };
                samples.push((t, latency));
                // Mostly dense, with gaps that skip whole minutes and
                // steps that leave a minute one sample.
                t += match next() % 40 {
                    0 => 150.0,
                    1 => 61.0,
                    _ => (next() % 2_000) as f64 / 1000.0,
                };
            }
            // A minute whose only sample is NaN still counts as a
            // minute: last on odd streams, interior on every fourth.
            if stream % 2 == 1 {
                samples.push((end + 120.0, f64::NAN));
            }
            if stream % 4 == 3 {
                samples.push((end + 200.0, 0.25));
            }
            for k in [0.0, 0.5, 0.99, 1.0] {
                let mut buckets: Vec<Vec<f64>> = Vec::new();
                let mut series = MinuteSeries::new(k);
                for &(t, latency) in &samples {
                    let minute = (t / 60.0) as usize;
                    if buckets.len() <= minute {
                        buckets.resize_with(minute + 1, Vec::new);
                    }
                    if !latency.is_nan() {
                        buckets[minute].push(latency);
                    }
                    series.record(t, latency);
                }
                let expect: Vec<Option<u64>> = buckets
                    .iter_mut()
                    .map(|b| {
                        b.sort_by(|x, y| x.partial_cmp(y).unwrap());
                        percentile_of_sorted(b, k).map(f64::to_bits)
                    })
                    .collect();
                let got: Vec<Option<u64>> = series
                    .percentile_series()
                    .into_iter()
                    .map(|p| p.map(f64::to_bits))
                    .collect();
                assert_eq!(got, expect, "stream {stream}, k={k}");
                leading_empty |= buckets[0].is_empty();
                interior_empty |= buckets[1..].iter().any(Vec::is_empty);
                one_sample |= buckets.iter().any(|b| b.len() == 1);
                infinite_tail |= expect.contains(&Some(f64::INFINITY.to_bits()));
            }
            nan |= samples.iter().any(|&(_, l)| l.is_nan());
        }
        assert!(leading_empty && interior_empty && one_sample && infinite_tail && nan);
    }
}
