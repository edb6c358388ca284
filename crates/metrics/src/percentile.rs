//! Exact nearest-rank percentiles.
//!
//! The paper tracks 99th-percentile latency measured every minute
//! (Sec. 6, "Metrics"). Within a minute the request count is small enough
//! for exact nearest-rank percentiles;
//! [`MinuteSeries`](crate::slo::MinuteSeries) selects one per minute.

/// Returns the `k`-th percentile (`0 <= k <= 1`) of an **ascending
/// sorted** slice using the nearest-rank method, or `None` when empty.
///
/// Infinite values (used by the paper for dropped requests) participate
/// normally: enough drops push the tail percentile to infinity.
///
/// # Examples
///
/// ```
/// use faro_metrics::percentile_of_sorted;
///
/// let v = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(percentile_of_sorted(&v, 0.5), Some(2.0));
/// assert_eq!(percentile_of_sorted(&v, 0.99), Some(4.0));
/// assert_eq!(percentile_of_sorted(&[], 0.5), None);
/// ```
pub fn percentile_of_sorted(sorted: &[f64], k: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let k = k.clamp(0.0, 1.0);
    // Nearest-rank: index ceil(k * n) - 1, clamped into range.
    let n = sorted.len();
    let rank = (k * n as f64).ceil() as usize;
    let idx = rank.saturating_sub(1).min(n - 1);
    Some(sorted[idx])
}

/// Returns the `k`-th percentile of an **unsorted** slice by nearest
/// rank, or `None` when empty, without fully sorting: the slice is
/// partitioned in place around the rank index (`select_nth_unstable`),
/// which is O(n) instead of O(n log n).
///
/// Agrees with sorting the slice and calling [`percentile_of_sorted`]
/// for every input without NaN (the selected element *is* the order
/// statistic the sorted path would read).
///
/// # Panics
///
/// Panics if the slice contains NaN (latency samples never do).
///
/// # Examples
///
/// ```
/// use faro_metrics::percentile_by_selection;
///
/// let mut v = [4.0, 1.0, 3.0, 2.0];
/// assert_eq!(percentile_by_selection(&mut v, 0.5), Some(2.0));
/// assert_eq!(percentile_by_selection(&mut [], 0.5), None);
/// ```
pub fn percentile_by_selection(samples: &mut [f64], k: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let k = k.clamp(0.0, 1.0);
    // Same nearest-rank index as `percentile_of_sorted`.
    let n = samples.len();
    let rank = (k * n as f64).ceil() as usize;
    let idx = rank.saturating_sub(1).min(n - 1);
    let (_, nth, _) =
        samples.select_nth_unstable_by(idx, |a, b| a.partial_cmp(b).expect("no NaN samples"));
    Some(*nth)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_examples() {
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        // Classic nearest-rank example: 30th percentile of this set is 20.
        assert_eq!(percentile_of_sorted(&v, 0.30), Some(20.0));
        assert_eq!(percentile_of_sorted(&v, 1.0), Some(50.0));
        assert_eq!(percentile_of_sorted(&v, 0.0), Some(15.0));
    }

    #[test]
    fn selection_matches_sorted_path_on_examples() {
        let data = [0.3, f64::INFINITY, 0.1, 0.1, 2.5, 0.0, f64::INFINITY];
        for k in [0.0, 0.3, 0.5, 0.9, 0.99, 1.0] {
            let mut sorted = data.to_vec();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut scratch = data.to_vec();
            assert_eq!(
                percentile_by_selection(&mut scratch, k),
                percentile_of_sorted(&sorted, k),
                "k={k}"
            );
        }
    }

    proptest::proptest! {
        #[test]
        fn selection_matches_sorted_path(
            values in proptest::prop::collection::vec(0.0f64..10.0, 0..200),
            inf_count in 0usize..5,
            k in 0.0f64..=1.0,
        ) {
            let mut data = values;
            data.extend(std::iter::repeat_n(f64::INFINITY, inf_count));
            let mut sorted = data.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let expect = percentile_of_sorted(&sorted, k);
            let got = percentile_by_selection(&mut data, k);
            proptest::prop_assert_eq!(got, expect);
        }
    }

    #[test]
    fn drops_push_tail_to_infinity() {
        let mut b = vec![0.1; 98];
        b.extend([f64::INFINITY; 2]);
        assert_eq!(percentile_by_selection(&mut b, 0.99), Some(f64::INFINITY));
        assert_eq!(percentile_by_selection(&mut b, 0.97), Some(0.1));
    }
}
