//! Property-based tests for the queueing estimators.

use faro_queueing::{erlang, mdc, mixed, mmc, upper_bound, RelaxedLatency, ReplicaCount};
use proptest::prelude::*;

fn rc(n: u32) -> ReplicaCount {
    ReplicaCount::new(n)
}

/// The plain M/D/c latency of a mixed pool's effective queue.
fn mixed_latency(
    k: f64,
    p: f64,
    lambda: f64,
    multipliers: &[f64],
    counts: &[u32],
) -> faro_queueing::Result<f64> {
    let pool = mixed::effective_pool(p, multipliers, counts)?;
    mdc::latency_percentile(k, pool.service_time, lambda, pool.servers)
}

proptest! {
    /// Erlang-C is a probability and dominates Erlang-B.
    #[test]
    fn erlang_c_is_probability(servers in 1u32..64, load in 0.0f64..100.0) {
        let c = erlang::erlang_c(rc(servers), load).unwrap();
        prop_assert!((0.0..=1.0).contains(&c));
        let b = erlang::erlang_b(rc(servers), load).unwrap();
        prop_assert!((0.0..=1.0).contains(&b));
        prop_assert!(c >= b - 1e-12, "C({servers},{load})={c} < B={b}");
    }

    /// Waiting percentiles are non-negative and monotone in k.
    #[test]
    fn wait_percentile_monotone(
        servers in 1u32..32,
        lambda in 0.0f64..100.0,
        p in 0.01f64..1.0,
        k1 in 0.01f64..0.98,
        dk in 0.001f64..0.01,
    ) {
        let k2 = k1 + dk;
        let w1 = mmc::wait_percentile(k1, p, lambda, rc(servers)).unwrap();
        let w2 = mmc::wait_percentile(k2, p, lambda, rc(servers)).unwrap();
        prop_assert!(w1 >= 0.0);
        prop_assert!(w2 >= w1 || (w1.is_infinite() && w2.is_infinite()));
    }

    /// The M/D/c latency never exceeds the M/M/c wait plus the service
    /// time.
    #[test]
    fn mdc_below_mmc(
        servers in 1u32..32,
        lambda in 0.1f64..50.0,
        p in 0.01f64..0.5,
        k in 0.5f64..0.999,
    ) {
        let mdc_l = mdc::latency_percentile(k, p, lambda, rc(servers)).unwrap();
        let mmc_w = mmc::wait_percentile(k, p, lambda, rc(servers)).unwrap();
        if mmc_w.is_finite() {
            prop_assert!(mdc_l <= mmc_w + p + 1e-12);
        }
    }

    /// The relaxed estimator is always finite, at least the service time,
    /// and never below the exact estimate where the exact one is finite
    /// and the queue is below the knee.
    #[test]
    fn relaxed_finite_and_bounded(
        servers in 1u32..32,
        lambda in 0.0f64..500.0,
        p in 0.01f64..0.5,
    ) {
        let est = RelaxedLatency::default();
        let l = est.latency(0.99, p, lambda, rc(servers)).unwrap();
        prop_assert!(l.is_finite());
        prop_assert!(l >= p - 1e-12);
    }

    /// Fractional latency is sandwiched by its integer neighbours.
    #[test]
    fn fractional_sandwich(
        x_times_4 in 4u32..128,
        lambda in 0.0f64..200.0,
        p in 0.01f64..0.5,
    ) {
        let x = f64::from(x_times_4) / 4.0;
        let est = RelaxedLatency::default();
        let l = est.latency_fractional(0.99, p, lambda, x).unwrap();
        let lo = est.latency(0.99, p, lambda, rc(x.floor() as u32)).unwrap();
        let hi = est.latency(0.99, p, lambda, rc(x.ceil() as u32)).unwrap();
        prop_assert!(l <= lo + 1e-9 && l >= hi - 1e-9, "x={x} l={l} lo={lo} hi={hi}");
    }

    /// The upper-bound replica estimate always meets the SLO.
    #[test]
    fn upper_bound_meets_slo(
        p in 0.01f64..0.5,
        kappa in 0.0f64..2000.0,
        slo in 0.05f64..2.0,
    ) {
        let n = upper_bound::replicas_for_slo(p, kappa, slo).unwrap();
        prop_assert!(n >= ReplicaCount::ONE);
        let t = upper_bound::completion_time(p, kappa, n).unwrap();
        prop_assert!(t <= slo + 1e-9);
    }

    /// A single-class mixed pool is *bit-identical* to the homogeneous
    /// M/D/c estimator: the reference class (multiplier 1.0) must not
    /// perturb a single committed byte, and any lone class `c` must
    /// equal the homogeneous estimate at `p * m_c` exactly — no
    /// aggregation round-trip allowed.
    #[test]
    fn single_class_mixed_pool_is_bit_identical(
        servers in 1u32..32,
        lambda in 0.1f64..50.0,
        p in 0.01f64..0.5,
        m in 0.5f64..8.0,
        class in 0usize..3,
        k in 0.5f64..0.999,
    ) {
        let mut multipliers = [1.0f64; 3];
        multipliers[class] = m;
        let mut counts = [0u32; 3];
        counts[class] = servers;
        let mixed = mixed_latency(k, p, lambda, &multipliers, &counts);
        let homo = mdc::latency_percentile(k, p * m, lambda, rc(servers));
        match (mixed, homo) {
            (Ok(a), Ok(b)) => prop_assert!(
                a.to_bits() == b.to_bits(),
                "single-class mix diverged: {a} vs {b}"
            ),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "domain mismatch: {a:?} vs {b:?}"),
        }
    }

    /// Swapping a slow replica for a fast one never raises the mixed
    /// pool's estimated latency (the monotonicity the class-aware
    /// solver's shrink step relies on).
    #[test]
    fn mixed_pool_monotone_in_the_mix(
        fast in 0u32..8,
        slow in 1u32..8,
        lambda in 0.1f64..20.0,
        p in 0.01f64..0.3,
        m in 1.0f64..6.0,
    ) {
        let before = mixed_latency(0.99, p, lambda, &[1.0, m], &[fast, slow]);
        let after = mixed_latency(0.99, p, lambda, &[1.0, m], &[fast + 1, slow - 1]);
        if let (Ok(b), Ok(a)) = (before, after) {
            prop_assert!(a <= b + 1e-9, "faster mix got slower: {b} -> {a}");
        }
    }

    /// `replicas_for_slo` returns a feasible, minimal count when it
    /// succeeds.
    #[test]
    fn mdc_replicas_feasible(
        p in 0.05f64..0.3,
        lambda in 0.1f64..100.0,
        slo_mult in 2.0f64..10.0,
    ) {
        let slo = p * slo_mult;
        if let Ok(n) = mdc::replicas_for_slo(0.99, p, lambda, slo, rc(256)) {
            let l = mdc::latency_percentile(0.99, p, lambda, n).unwrap();
            prop_assert!(l <= slo);
            if n > ReplicaCount::ONE {
                let l_prev =
                    mdc::latency_percentile(0.99, p, lambda, n - ReplicaCount::ONE).unwrap();
                prop_assert!(l_prev > slo);
            }
        }
    }
}
