//! Property-based tests for metric primitives.

use faro_metrics::{kendall_tau_distance, percentile_of_sorted};
use proptest::prelude::*;

proptest! {
    /// Percentiles are monotone in k and bracketed by min/max.
    #[test]
    fn percentile_monotone(mut values in prop::collection::vec(-1e3f64..1e3, 2..100)) {
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=10 {
            let k = f64::from(i) / 10.0;
            let p = percentile_of_sorted(&values, k).unwrap();
            prop_assert!(p >= prev);
            prop_assert!(p >= values[0] && p <= values[values.len() - 1]);
            prev = p;
        }
    }

    /// Kendall-Tau is zero iff identical, symmetric, and in [0, 1].
    #[test]
    fn kendall_axioms(perm in prop::sample::subsequence((0..12usize).collect::<Vec<_>>(), 2..12)) {
        let identity: Vec<usize> = perm.clone();
        prop_assert_eq!(kendall_tau_distance(&identity, &identity), Some(0.0));
        let mut reversed = perm.clone();
        reversed.reverse();
        let d = kendall_tau_distance(&identity, &reversed).unwrap();
        prop_assert!((d - 1.0).abs() < 1e-12);
        let d1 = kendall_tau_distance(&identity, &reversed);
        let d2 = kendall_tau_distance(&reversed, &identity);
        prop_assert_eq!(d1, d2);
    }
}
