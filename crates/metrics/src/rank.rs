//! Rank-correlation statistics.
//!
//! The paper validates its matched simulator against cluster deployments
//! by comparing *policy rankings* with the Kendall-Tau metric (Table 7):
//! 0 indicates identical rankings and 1 complete divergence.

/// Normalized Kendall-Tau distance between two rankings of the same item
/// set: the fraction of discordant pairs, in `[0, 1]`.
///
/// Each slice lists item identifiers best-first. Returns `None` when the
/// slices are not permutations of each other or have fewer than two
/// items.
///
/// # Examples
///
/// ```
/// use faro_metrics::kendall_tau_distance;
///
/// let a = ["faro", "aiad", "oneshot"];
/// assert_eq!(kendall_tau_distance(&a, &a), Some(0.0));
/// let rev = ["oneshot", "aiad", "faro"];
/// assert_eq!(kendall_tau_distance(&a, &rev), Some(1.0));
/// ```
pub fn kendall_tau_distance<T: Ord>(a: &[T], b: &[T]) -> Option<f64> {
    let n = a.len();
    if n < 2 || b.len() != n {
        return None;
    }
    // Map each item to its rank in `b`. Ordered map: lookups only, but
    // keeping the module free of HashMap means its behavior can never
    // grow an iteration-order dependence (what `disallowed-types` in
    // the determinism-critical crates' `clippy.toml` enforces there).
    let rank_b: std::collections::BTreeMap<&T, usize> =
        b.iter().enumerate().map(|(i, x)| (x, i)).collect();
    if rank_b.len() != n {
        return None; // Duplicates in b.
    }
    // Permutation of b-ranks in a's order; error if any item is missing.
    let mut perm = Vec::with_capacity(n);
    for x in a {
        perm.push(*rank_b.get(x)?);
    }
    {
        let mut seen = vec![false; n];
        for &p in &perm {
            if seen[p] {
                return None; // Duplicates in a.
            }
            seen[p] = true;
        }
    }
    // Count discordant pairs (inversions in perm).
    let mut discordant = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            if perm[i] > perm[j] {
                discordant += 1;
            }
        }
    }
    let pairs = n * (n - 1) / 2;
    Some(discordant as f64 / pairs as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_is_zero() {
        let a = [1, 2, 3, 4, 5];
        assert_eq!(kendall_tau_distance(&a, &a), Some(0.0));
    }

    #[test]
    fn reversed_is_one() {
        let a = [1, 2, 3, 4];
        let b = [4, 3, 2, 1];
        assert_eq!(kendall_tau_distance(&a, &b), Some(1.0));
    }

    #[test]
    fn one_adjacent_swap() {
        // One swap among n=4 items: 1 discordant pair of 6.
        let a = [1, 2, 3, 4];
        let b = [2, 1, 3, 4];
        let d = kendall_tau_distance(&a, &b).unwrap();
        assert!((d - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn paper_rs_value() {
        // Table 7 reports 0.083 = 3/36 for RS with 9 policies: exactly
        // 3 discordant pairs of 36.
        let a = [0, 1, 2, 3, 4, 5, 6, 7, 8];
        let b = [1, 2, 3, 0, 4, 5, 6, 7, 8]; // Item 0 demoted 3 places.
        let d = kendall_tau_distance(&a, &b).unwrap();
        assert!((d - 3.0 / 36.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_mismatched_sets() {
        assert_eq!(kendall_tau_distance(&[1, 2], &[1, 3]), None);
        assert_eq!(kendall_tau_distance(&[1], &[1]), None);
        assert_eq!(kendall_tau_distance(&[1, 2, 3], &[1, 2]), None);
        assert_eq!(kendall_tau_distance(&[1, 1, 2], &[1, 2, 2]), None);
    }

    #[test]
    fn symmetric() {
        let a = ["w", "x", "y", "z"];
        let b = ["x", "w", "z", "y"];
        assert_eq!(kendall_tau_distance(&a, &b), kendall_tau_distance(&b, &a));
    }
}
