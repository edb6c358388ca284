//! Latency estimation for a *mixed* replica pool: `n_c` replicas of
//! each hardware class `c`, where class `c` serves a request in
//! `p * m_c` seconds (`m_c` is the class's service-time multiplier).
//!
//! The pool is reduced to an *effective* homogeneous M/D/c queue via
//! capacity aggregation: with total head count `N = sum_c n_c` and
//! total service rate `R = sum_c n_c / (p * m_c)`, the effective
//! deterministic service time is `p_eff = N / R` — the harmonic
//! (capacity-weighted) mean of the per-class service times. The pool
//! is then scored as M/D/N with service time `p_eff`: the relaxed
//! estimate is [`relaxed_latency`], and the plain one is
//! [`crate::mdc::latency_percentile`] at the pool's `service_time` and
//! `servers`. The classed optimization reduces fractional counts the
//! same way, to the bit at whole counts.
//!
//! This is exact for the total throughput of the pool and a standard
//! engineering approximation for its waiting-time distribution (a
//! least-loaded router keeps fast and slow replicas near-equally
//! utilized). Two properties the optimizer relies on:
//!
//! - **Single-class exactness**: a pool drawn from one class computes
//!   `p_eff = p * m_c` directly (no aggregation round-trip), so a
//!   class-0 pool with `m_0 = 1.0` is *bit-identical* to the
//!   homogeneous estimator (`p * 1.0 == p` in IEEE arithmetic).
//! - **Monotonicity in the mix**: replacing a slow replica with a fast
//!   one strictly increases `R`, so `p_eff` falls and the estimated
//!   latency never rises.

use crate::error::{self, Result};
use crate::relaxed::RelaxedLatency;
use crate::ReplicaCount;

/// An effective homogeneous view of a mixed pool: total head count and
/// effective deterministic service time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EffectivePool {
    /// Total replicas across all classes.
    pub servers: ReplicaCount,
    /// Effective per-request service time (seconds).
    pub service_time: f64,
}

/// Reduces a mixed pool to its effective homogeneous view.
///
/// `multipliers[c]` is class `c`'s service-time multiplier; `counts[c]`
/// its replica count. Classes beyond `multipliers.len()` default to a
/// multiplier of 1.0 (reference speed).
///
/// # Errors
///
/// Rejects a non-positive base processing time or multiplier and an
/// all-zero pool.
pub fn effective_pool(p: f64, multipliers: &[f64], counts: &[u32]) -> Result<EffectivePool> {
    let p = error::positive("p", p)?;
    let m_of = |c: usize| multipliers.get(c).copied().unwrap_or(1.0);
    let mut total = 0u32;
    let mut first_nonzero = None;
    let mut mixed = false;
    for (c, &n) in counts.iter().enumerate() {
        error::positive("multiplier", m_of(c))?;
        if n > 0 {
            total += n;
            if first_nonzero.is_some() {
                mixed = true;
            } else {
                first_nonzero = Some(c);
            }
        }
    }
    let Some(single) = first_nonzero else {
        return Err(crate::Error::ZeroReplicas);
    };
    let service_time = if !mixed {
        // Single-class pools skip the aggregation round-trip so the
        // reference class stays bit-identical to the homogeneous path.
        p * m_of(single)
    } else {
        let mut rate = 0.0;
        for (c, &n) in counts.iter().enumerate() {
            if n > 0 {
                rate += f64::from(n) / (p * m_of(c));
            }
        }
        f64::from(total) / rate
    };
    Ok(EffectivePool {
        servers: ReplicaCount::new(total),
        service_time,
    })
}

/// The relaxed (plateau-free) latency of a mixed pool: the
/// [`RelaxedLatency`] estimator applied to the [`effective_pool`].
///
/// # Errors
///
/// Same domain errors as [`effective_pool`] and
/// [`RelaxedLatency::latency`].
///
/// # Examples
///
/// ```
/// use faro_queueing::{mixed, RelaxedLatency};
/// let est = RelaxedLatency::default();
/// let at = |counts: &[u32]| {
///     mixed::relaxed_latency(&est, 0.99, 0.150, 10.0, &[1.0, 3.0], counts).unwrap()
/// };
/// // 2 reference replicas + 4 replicas that are 3x slower: faster than
/// // the all-slow pool, slower than the all-fast pool.
/// assert!(at(&[6, 0]) <= at(&[2, 4]) && at(&[2, 4]) <= at(&[0, 6]));
/// ```
pub fn relaxed_latency(
    est: &RelaxedLatency,
    k: f64,
    p: f64,
    lambda: f64,
    multipliers: &[f64],
    counts: &[u32],
) -> Result<f64> {
    let pool = effective_pool(p, multipliers, counts)?;
    est.latency(k, pool.service_time, lambda, pool.servers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mdc;

    /// The plain M/D/c latency of the pool's effective queue.
    fn latency_percentile(
        k: f64,
        p: f64,
        lambda: f64,
        multipliers: &[f64],
        counts: &[u32],
    ) -> Result<f64> {
        let pool = effective_pool(p, multipliers, counts)?;
        mdc::latency_percentile(k, pool.service_time, lambda, pool.servers)
    }

    #[test]
    fn single_reference_class_is_bit_identical_to_homogeneous() {
        for n in [1u32, 3, 8, 17] {
            for lambda in [0.0, 4.0, 25.0, 80.0] {
                let direct =
                    mdc::latency_percentile(0.99, 0.150, lambda, ReplicaCount::new(n)).unwrap();
                let via_pool =
                    latency_percentile(0.99, 0.150, lambda, &[1.0, 3.0], &[n, 0]).unwrap();
                assert!(
                    direct == via_pool || (direct.is_infinite() && via_pool.is_infinite()),
                    "n={n} lambda={lambda}: {direct} != {via_pool}"
                );
            }
        }
    }

    #[test]
    fn single_slow_class_scales_the_service_time() {
        let pool = effective_pool(0.150, &[1.0, 3.0], &[0, 5]).unwrap();
        assert_eq!(pool.servers, ReplicaCount::new(5));
        assert!((pool.service_time - 0.450).abs() < 1e-15);
    }

    #[test]
    fn mixed_pool_is_the_harmonic_mean() {
        // 2 fast (p) + 2 slow (2p): R = 2/p + 2/(2p) = 3/p,
        // p_eff = 4 / (3/p) = 4p/3.
        let pool = effective_pool(0.3, &[1.0, 2.0], &[2, 2]).unwrap();
        assert_eq!(pool.servers, ReplicaCount::new(4));
        assert!((pool.service_time - 0.4).abs() < 1e-12);
    }

    #[test]
    fn swapping_slow_for_fast_never_hurts() {
        let mut last = f64::INFINITY;
        for fast in 0..=6u32 {
            let l = latency_percentile(0.99, 0.2, 8.0, &[1.0, 4.0], &[fast, 6 - fast]).unwrap();
            assert!(
                l <= last + 1e-12,
                "fast={fast}: latency {l} rose above {last}"
            );
            last = l;
        }
    }

    #[test]
    fn rejects_empty_and_invalid_pools() {
        assert!(effective_pool(0.1, &[1.0], &[0, 0]).is_err());
        assert!(effective_pool(0.1, &[1.0], &[]).is_err());
        assert!(effective_pool(-0.1, &[1.0], &[1]).is_err());
        assert!(effective_pool(0.1, &[0.0], &[1]).is_err());
        // A class past the multiplier table defaults to reference speed.
        let pool = effective_pool(0.1, &[], &[3]).unwrap();
        assert!((pool.service_time - 0.1).abs() < 1e-15);
    }
}
