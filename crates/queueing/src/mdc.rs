//! The M/D/c queue: Poisson arrivals, deterministic service, `c` servers.
//!
//! ML inference has remarkably stable per-request processing times, so
//! M/D/c is the natural model (paper Sec. 3.3). Exact M/D/c waiting-time
//! distributions exist (Franx 2001) but are expensive; Faro adopts the
//! common engineering approximation (Tijms 2006) of treating the M/D/c
//! waiting time as half the M/M/c waiting time, which this module applies
//! to the waiting-time percentiles.
//!
//! Every estimate here is one walk up the server counts from one
//! server, which reads each count's Erlang-B value off a single
//! recurrence and takes that count's M/M/c waiting percentile in
//! closed form: one count ([`latency_percentile`], the walk's last
//! step), a whole table row ([`latency_percentile_sweep`], the
//! optimizer's tables) or the two counts bracketing a fractional head
//! count ([`crate::RelaxedLatency::bracket_with_knees`]) through
//! [`latency_percentile_range_into`], and the replica need through
//! [`replicas_for_slo`], which stops at the first count within the SLO.
//! [`crate::mmc::wait_percentile`] over [`crate::erlang`] stays as the
//! definition the tests hold the walk to, bit for bit.
//!
//! A row stops at its first count whose wait is zero. The probability
//! of waiting falls as servers are added, so from there on every
//! count's latency is exactly `p` (`0.5 * 0.0 + p`): a row is written
//! only as far as it waits, about `lambda * p + O(sqrt(lambda * p))`
//! servers in, however long it is, and a caller that wants the rest
//! writes `p` there itself.

use crate::error::Result;
use crate::ReplicaCount;

/// The `k`-th percentile of M/D/c *latency*: approximate waiting
/// percentile (half the M/M/c one) plus the deterministic service time
/// `p`.
///
/// This is the `latency_{M/D/c}(k, p, lambda, N)` estimator of the paper
/// (Sec. 3.3): finite for a stable queue (`rho < 1`), infinite otherwise.
/// It walks the Erlang-B recurrence from one server to `servers`.
///
/// # Errors
///
/// In this order: a `k` outside `(0, 1)`, a zero `servers`
/// ([`crate::Error::ZeroReplicas`]), a negative or non-finite `lambda`,
/// and a non-positive or non-finite `p`.
///
/// # Examples
///
/// ```
/// use faro_queueing::ReplicaCount;
/// let l = faro_queueing::mdc::latency_percentile(0.99, 0.150, 40.0, ReplicaCount::new(8)).unwrap();
/// assert!(l.is_finite() && l >= 0.150);
/// ```
pub fn latency_percentile(k: f64, p: f64, lambda: f64, servers: ReplicaCount) -> Result<f64> {
    let mut walk = Walk::checked(k, p, lambda, servers)?;
    for _ in 1..servers.get() {
        walk.step();
    }
    Ok(0.5 * walk.next_wait() + p)
}

/// The `k`-th percentile M/D/c latency for **every** server count
/// `1..=max_servers` in one pass: entry `n - 1` equals
/// `latency_percentile(k, p, lambda, n)` bit-for-bit.
///
/// One walk yields `B(n, a)` for all `n` at once, so the whole table
/// costs the same O(max) arithmetic as one direct call at
/// `max_servers`, and less where the wait ends first: the row from
/// [`latency_percentile_range_into`], its unwritten tail filled with
/// `p`.
///
/// # Errors
///
/// Same domain errors as [`latency_percentile_range_into`].
///
/// # Examples
///
/// ```
/// use faro_queueing::ReplicaCount;
/// let table =
///     faro_queueing::mdc::latency_percentile_sweep(0.99, 0.150, 40.0, ReplicaCount::new(16))
///         .unwrap();
/// for (i, &l) in table.iter().enumerate() {
///     let direct =
///         faro_queueing::mdc::latency_percentile(0.99, 0.150, 40.0, ReplicaCount::new(i as u32 + 1))
///             .unwrap();
///     assert!(l == direct || (l.is_infinite() && direct.is_infinite()));
/// }
/// ```
pub fn latency_percentile_sweep(
    k: f64,
    p: f64,
    lambda: f64,
    max_servers: ReplicaCount,
) -> Result<Vec<f64>> {
    let mut out = vec![0.0; max_servers.get() as usize];
    let waiting = latency_percentile_range_into(k, p, lambda, ReplicaCount::ONE, &mut out)?;
    out[waiting..].fill(p);
    Ok(out)
}

/// The `k`-th percentile M/D/c latency at the consecutive server counts
/// `first..first + out.len()`, into a caller-owned row, as far as they
/// wait: `out[i]` equals `latency_percentile(k, p, lambda, first + i)`
/// bit-for-bit for every `i` under the returned offset.
///
/// Returns the offset in `out` of the first count whose wait is zero
/// (`out.len()` when every count waits). The walk stops there and
/// leaves `out[offset..]` as it was: every count from there on is
/// exactly `p`, and a caller that reads them writes `p` itself. The
/// Erlang-B recurrence has to climb through every count under `first`
/// anyway, so the row costs at most one recurrence of length
/// `first + out.len() - 1`: a whole table row from `first = 1`, or the
/// two counts bracketing a fractional head count for the price of the
/// larger.
///
/// # Errors
///
/// In this order: a `k` outside `(0, 1)`, a non-positive or non-finite
/// `p`, a negative or non-finite `lambda`; a `first` of zero or an empty
/// row is [`crate::Error::ZeroReplicas`], and a row reaching past
/// `u32::MAX` servers is [`crate::Error::InvalidParameter`]. `out` is
/// left untouched on error.
pub fn latency_percentile_range_into(
    k: f64,
    p: f64,
    lambda: f64,
    first: ReplicaCount,
    out: &mut [f64],
) -> Result<usize> {
    let k = crate::error::percentile(k)?;
    let p = crate::error::positive("p", p)?;
    let lambda = crate::error::non_negative("lambda", lambda)?;
    if first.is_zero() || out.is_empty() {
        return Err(crate::Error::ZeroReplicas);
    }
    let last = u64::from(first.get()) + out.len() as u64 - 1;
    if last > u64::from(u32::MAX) {
        return Err(crate::Error::InvalidParameter {
            name: "servers",
            value: last as f64,
        });
    }
    let mut walk = Walk::new(k, p, lambda);
    for _ in 1..first.get() {
        walk.step();
    }
    for (i, out) in out.iter_mut().enumerate() {
        let wait = walk.next_wait();
        if wait == 0.0 {
            // Utilization and the Erlang-C probability of waiting only
            // fall from here, so no later count waits either.
            return Ok(i);
        }
        *out = 0.5 * wait + p;
    }
    Ok(out.len())
}

/// Smallest replica count `N <= max_replicas` whose estimated `k`-th
/// percentile latency meets the SLO target `slo`.
///
/// One walk up the counts from one server, stopped at the first count
/// within `slo`: O(answer) recurrence steps however large
/// `max_replicas` is. The latency never rises as servers are added, so
/// that count is the smallest feasible one. The walk gives up at
/// `max_replicas`, or at the first count whose wait is zero, since
/// from there on every latency is exactly `p`: whichever comes first
/// is what an infeasible target costs.
///
/// # Errors
///
/// An invalid `slo` first, then whatever
/// `latency_percentile(k, p, lambda, max_replicas)` would return
/// ([`crate::Error::ZeroReplicas`] for a zero `max_replicas`).
/// Returns [`crate::Error::Infeasible`] when even `max_replicas` replicas
/// cannot meet the target.
///
/// # Examples
///
/// ```
/// use faro_queueing::ReplicaCount;
/// // Paper Sec. 3.3: p = 150 ms, lambda = 40 req/s, SLO 600 ms.
/// // M/D/c estimates ~8 replicas at the 99.99th percentile, fewer than
/// // the upper-bound model's 10.
/// let n = faro_queueing::mdc::replicas_for_slo(0.9999, 0.150, 40.0, 0.600, ReplicaCount::new(32))
///     .unwrap();
/// assert!(n.get() <= 10);
/// ```
pub fn replicas_for_slo(
    k: f64,
    p: f64,
    lambda: f64,
    slo: f64,
    max_replicas: ReplicaCount,
) -> Result<ReplicaCount> {
    crate::error::positive("slo", slo)?;
    let mut walk = Walk::checked(k, p, lambda, max_replicas)?;
    for n in 1..=max_replicas.get() {
        let wait = walk.next_wait();
        if 0.5 * wait + p <= slo {
            return Ok(ReplicaCount::new(n));
        }
        if wait == 0.0 {
            break;
        }
    }
    Err(crate::Error::Infeasible {
        max_replicas: max_replicas.get(),
    })
}

/// A walk up the server counts from one server: one Erlang-B
/// recurrence step per count, and on request that count's M/M/c `k`-th
/// waiting percentile.
struct Walk {
    lambda: f64,
    p: f64,
    /// The offered load `lambda * p`.
    a: f64,
    /// `1 - k`.
    tail: f64,
    /// `erlang_b(c, a)`.
    b: f64,
    /// The count reached (whole numbers, exact in `f64`); zero before
    /// the first step.
    c: f64,
}

impl Walk {
    /// A walk over validated inputs.
    fn new(k: f64, p: f64, lambda: f64) -> Self {
        Self {
            lambda,
            p,
            a: lambda * p,
            tail: 1.0 - k,
            b: 1.0,
            c: 0.0,
        }
    }

    /// A walk towards `servers`, its inputs checked in the direct
    /// call's order: `k`, a zero `servers`, `lambda`, `p`.
    fn checked(k: f64, p: f64, lambda: f64, servers: ReplicaCount) -> Result<Self> {
        let k = crate::error::percentile(k)?;
        if servers.is_zero() {
            return Err(crate::Error::ZeroReplicas);
        }
        let lambda = crate::error::non_negative("lambda", lambda)?;
        let p = crate::error::positive("p", p)?;
        Ok(Self::new(k, p, lambda))
    }

    /// Advances to the next count.
    #[inline]
    fn step(&mut self) {
        self.c += 1.0;
        self.b = self.a * self.b / (self.c + self.a * self.b);
    }

    /// Advances to the next count and returns its M/M/c waiting
    /// percentile: [`crate::mmc::wait_percentile`]'s closed form, with
    /// the Erlang-B value the walk holds in place of a recurrence of
    /// its own. The tests hold the two equal bit for bit.
    #[inline]
    fn next_wait(&mut self) -> f64 {
        self.step();
        let Self {
            lambda,
            p,
            a,
            tail,
            b,
            c,
        } = *self;
        let rho = lambda * p / c;
        if rho >= 1.0 {
            f64::INFINITY
        } else if lambda == 0.0 {
            0.0
        } else {
            let ec = b / (1.0 - (a / c) * (1.0 - b));
            if ec <= tail {
                0.0
            } else {
                (ec / tail).ln() / (c / p - lambda)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mmc, upper_bound};
    use rand::prelude::*;
    use rand_distr::Exp;

    fn rc(n: u32) -> ReplicaCount {
        ReplicaCount::new(n)
    }

    /// The estimator's definition, which shares no code with the walk:
    /// half the closed-form M/M/c waiting percentile, its Erlang-B value
    /// from a recurrence of its own, plus `p`.
    fn closed_form(k: f64, p: f64, lambda: f64, servers: ReplicaCount) -> Result<f64> {
        Ok(0.5 * mmc::wait_percentile(k, p, lambda, servers)? + p)
    }

    /// What a result compares as: its bits, or its error (as text: a NaN
    /// in an error is not equal to itself).
    fn bits(r: Result<f64>) -> std::result::Result<u64, String> {
        r.map(f64::to_bits).map_err(|e| format!("{e:?}"))
    }

    #[test]
    fn paper_example_mdc_beats_upper_bound() {
        // p = 150 ms, lambda = 40 req/s, s = 600 ms (paper Sec. 3.3):
        // upper bound says 10 replicas, M/D/c says ~8 at the 99.99th pct.
        let ub = upper_bound::replicas_for_slo(0.150, 40.0, 0.600).unwrap();
        assert_eq!(ub, rc(10));
        let mdc = replicas_for_slo(0.9999, 0.150, 40.0, 0.600, rc(32)).unwrap();
        assert!(
            mdc < ub,
            "M/D/c ({mdc}) should need fewer than upper bound ({ub})"
        );
        assert!((7..=9).contains(&mdc.get()), "expected ~8, got {mdc}");
    }

    #[test]
    fn latency_monotone_in_lambda_and_replicas() {
        let mut prev = 0.0;
        for i in 1..50 {
            let lambda = f64::from(i);
            let l = latency_percentile(0.99, 0.15, lambda, rc(8)).unwrap();
            assert!(l >= prev, "latency must not decrease with load");
            prev = l;
        }
        let mut prev = f64::INFINITY;
        for n in 4..32 {
            let l = latency_percentile(0.99, 0.15, 25.0, rc(n)).unwrap();
            assert!(l <= prev, "latency must not increase with replicas");
            prev = l;
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(if cfg!(miri) { 8 } else { 512 }))]

        /// The direct call, a walk of `servers` steps, is the closed form
        /// bit for bit and error for error: server counts log-uniform up
        /// to 16,000, from idle through the knee to past saturation
        /// (`load` is the utilization), exactly at `rho = 1`, and inputs
        /// with two or three invalid parameters, whose first error in
        /// the closed form's order is the one returned.
        #[test]
        fn the_direct_call_is_the_closed_form_bitwise(
            load in 0.0f64..1.6,
            p in 0.01f64..0.5,
            k in 0.5f64..0.9999,
            log_servers in 0.0f64..(if cfg!(miri) { 48f64 } else { 16_000f64 }).ln(),
            shape in 0u32..16,
        ) {
            let servers = log_servers.exp().round() as u32;
            let n = f64::from(servers);
            let (k, p, lambda, servers) = match shape {
                0 => (k, p, 0.0, servers),
                // `lambda * p` is `n` exactly: `rho = 1`.
                1 => (k, 0.125, 8.0 * n, servers),
                2 => (k, p, n / p, servers),
                3 => (1.5, 0.0, -1.0, servers),
                4 => (f64::NAN, p, load, 0),
                5 => (k, 0.0, f64::NAN, servers),
                6 => (k, -p, load * n / p, 0),
                7 => (k, f64::INFINITY, f64::INFINITY, servers),
                8 => (0.0, p, -1.0, 0),
                _ => (k, p, load * n / p, servers),
            };
            let walked = latency_percentile(k, p, lambda, rc(servers));
            let want = closed_form(k, p, lambda, rc(servers));
            proptest::prop_assert_eq!(
                bits(walked),
                bits(want),
                "k={} p={} lambda={} servers={}",
                k,
                p,
                lambda,
                servers
            );
        }
    }

    proptest::proptest! {
        /// The one-pass sweep must be indistinguishable from the
        /// closed form per server count — bit-for-bit, so the
        /// optimizer's memo tables cannot drift from the definition.
        #[test]
        fn sweep_matches_direct_calls_bitwise(
            lambda in 0.0f64..500.0,
            p in 0.01f64..0.5,
            k in 0.5f64..0.9999,
            max in 1u32..80,
        ) {
            let sweep = latency_percentile_sweep(k, p, lambda, rc(max)).unwrap();
            for n in 1..=max {
                let direct = closed_form(k, p, lambda, rc(n)).unwrap();
                let got = sweep[(n - 1) as usize];
                proptest::prop_assert_eq!(
                    got.to_bits(),
                    direct.to_bits(),
                    "n={} sweep={} direct={}",
                    n,
                    got,
                    direct
                );
            }
        }
    }

    #[test]
    fn sweep_handles_zero_rate_and_saturation() {
        let table = latency_percentile_sweep(0.99, 0.15, 0.0, rc(4)).unwrap();
        assert!(table.iter().all(|&l| l == 0.15), "{table:?}");
        // 100 req/s at 150 ms saturates below 15 replicas.
        let table = latency_percentile_sweep(0.99, 0.15, 100.0, rc(20)).unwrap();
        assert!(table[..15].iter().all(|l| l.is_infinite()), "{table:?}");
        assert!(table[15..].iter().all(|l| l.is_finite()), "{table:?}");
        assert!(latency_percentile_sweep(0.99, 0.15, 1.0, ReplicaCount::ZERO).is_err());
    }

    /// A row ends at its first zero-wait count: the count before it
    /// waits, it and every count after it are exactly `p`, and none of
    /// them is written, however long the row (the recurrence past it is
    /// not run).
    #[test]
    fn a_row_ends_at_its_first_zero_wait_count() {
        for (k, p, lambda, first) in [
            (0.99, 0.15, 40.0, 1),
            (0.9999, 0.05, 900.0, 1),
            (0.5, 0.05, 3e4, 1),
            (0.99, 0.15, 40.0, 7),
        ] {
            let mut row = vec![f64::NAN; if cfg!(miri) { 2_000 } else { 16_000 }];
            let waiting = latency_percentile_range_into(k, p, lambda, rc(first), &mut row).unwrap();
            assert!(
                waiting > 0 && waiting < row.len(),
                "lambda={lambda}: {waiting}"
            );
            let at = |i: usize| closed_form(k, p, lambda, rc(first + i as u32)).unwrap();
            assert!(
                at(waiting - 1) > p,
                "lambda={lambda}: the count before waits"
            );
            assert_eq!(at(waiting).to_bits(), p.to_bits(), "lambda={lambda}");
            assert_eq!(row[waiting - 1].to_bits(), at(waiting - 1).to_bits());
            assert!(row[waiting..].iter().all(|l| l.is_nan()), "wrote the tail");
        }
        // An idle row waits nowhere and writes nothing; a saturated one
        // waits everywhere.
        let mut row = [f64::NAN; 8];
        assert_eq!(
            latency_percentile_range_into(0.99, 0.15, 0.0, rc(1), &mut row),
            Ok(0)
        );
        assert!(row.iter().all(|l| l.is_nan()), "{row:?}");
        assert_eq!(
            latency_percentile_range_into(0.99, 0.15, 1e3, rc(1), &mut row),
            Ok(8)
        );
        assert!(row.iter().all(|l| l.is_infinite()), "{row:?}");
    }

    /// A row filled from one server is the sweep up to its first
    /// zero-wait count, and unwritten from there on, where the sweep
    /// holds `p`.
    #[test]
    fn sweep_into_fills_exactly_what_the_sweep_returns() {
        for max in [1usize, 32, 3_200] {
            for (k, p, lambda) in [(0.99, 0.18, 0.0), (0.99, 0.18, 40.0), (0.5, 0.05, 3e4)] {
                let sweep = latency_percentile_sweep(k, p, lambda, rc(max as u32)).unwrap();
                let mut row = vec![f64::NAN; max];
                let waiting =
                    latency_percentile_range_into(k, p, lambda, ReplicaCount::ONE, &mut row)
                        .unwrap();
                assert_eq!(sweep.len(), max);
                let direct = closed_form(k, p, lambda, rc(max as u32)).unwrap();
                assert_eq!(sweep[max - 1].to_bits(), direct.to_bits(), "max={max}");
                for (n, (got, want)) in row.iter().zip(&sweep).enumerate() {
                    if n < waiting {
                        assert_eq!(got.to_bits(), want.to_bits(), "max={max} n={}", n + 1);
                    } else {
                        assert!(got.is_nan(), "max={max} n={}: wrote the tail", n + 1);
                        assert_eq!(want.to_bits(), p.to_bits(), "max={max} n={}", n + 1);
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 256 }))]

        /// A row from any first count is, entry for entry, the closed
        /// form at that count as far as it waits, and unwritten from its
        /// first zero-wait count on, where the closed form is `p`: from
        /// idle through the knee to past saturation (`load` is the
        /// utilization at `first`).
        #[test]
        fn range_matches_direct_calls_bitwise(
            load in 0.0f64..1.6,
            p in 0.01f64..0.5,
            k in 0.5f64..0.9999,
            first in 1u32..(if cfg!(miri) { 48 } else { 4096 }),
            len in 1usize..=3,
            shape in 0u32..8,
        ) {
            let lambda = match shape {
                0 => 0.0,
                // Exactly at `rho = 1` for the first count.
                1 => f64::from(first) / p,
                _ => load * f64::from(first) / p,
            };
            let mut row = [f64::NAN; 3];
            let waiting =
                latency_percentile_range_into(k, p, lambda, rc(first), &mut row[..len]).unwrap();
            proptest::prop_assert!(waiting <= len);
            proptest::prop_assert!(row[waiting..].iter().all(|l| l.is_nan()), "wrote past the wait");
            for (i, &written) in row[..len].iter().enumerate() {
                let n = first + i as u32;
                let direct = closed_form(k, p, lambda, rc(n)).unwrap();
                let got = if i < waiting { written } else { p };
                proptest::prop_assert_eq!(
                    got.to_bits(),
                    direct.to_bits(),
                    "n={} row={} direct={}",
                    n,
                    got,
                    direct
                );
            }
        }
    }

    #[test]
    fn a_rejected_range_leaves_the_row_as_it_was() {
        let mut row = [7.0; 4];
        for (k, p, lambda) in [
            (1.5, 0.18, 40.0),
            (f64::NAN, 0.18, 40.0),
            (0.99, 0.0, 40.0),
            (0.99, f64::INFINITY, 40.0),
            (0.99, 0.18, f64::NAN),
            (0.99, 0.18, f64::INFINITY),
            (0.99, 0.18, -1.0),
        ] {
            let got = latency_percentile_range_into(k, p, lambda, rc(3), &mut row);
            let direct = closed_form(k, p, lambda, rc(3));
            // Compared as text: a NaN in an error is not equal to itself.
            assert_eq!(
                format!("{:?}", got.unwrap_err()),
                format!("{:?}", direct.unwrap_err()),
                "k={k} p={p} lambda={lambda}"
            );
            assert_eq!(row, [7.0; 4]);
        }
        assert_eq!(
            latency_percentile_range_into(0.99, 0.18, 40.0, ReplicaCount::ZERO, &mut row),
            Err(crate::Error::ZeroReplicas)
        );
        assert_eq!(
            latency_percentile_range_into(0.99, 0.18, 40.0, rc(3), &mut []),
            Err(crate::Error::ZeroReplicas)
        );
        assert_eq!(row, [7.0; 4]);
    }

    /// A row whose last count is past `u32::MAX` has no reference to
    /// equal, and is refused before its `u32::MAX`-step recurrence.
    #[test]
    fn a_row_past_the_last_count_is_refused_before_any_work() {
        let mut row = [7.0; 2];
        assert_eq!(
            latency_percentile_range_into(0.99, 0.18, 40.0, ReplicaCount::MAX, &mut row),
            Err(crate::Error::InvalidParameter {
                name: "servers",
                value: 4_294_967_296.0
            })
        );
        assert_eq!(row, [7.0; 2]);
    }

    #[test]
    fn infeasible_when_saturated() {
        // 1000 req/s at 150 ms needs at least 150 replicas.
        let err = replicas_for_slo(0.99, 0.150, 1000.0, 0.3, rc(100)).unwrap_err();
        assert_eq!(err, crate::Error::Infeasible { max_replicas: 100 });
    }

    #[test]
    fn replicas_for_slo_is_minimal() {
        let n = replicas_for_slo(0.99, 0.150, 40.0, 0.600, rc(64)).unwrap();
        assert!(closed_form(0.99, 0.150, 40.0, n).unwrap() <= 0.600);
        if n > ReplicaCount::ONE {
            assert!(closed_form(0.99, 0.150, 40.0, n - ReplicaCount::ONE).unwrap() > 0.600);
        }
    }

    /// The binary search over `[1, max_replicas]` that the walk
    /// replaced, probing the closed form: the reference the walk must
    /// equal wherever the latency is monotone in the count.
    fn searched_replicas_for_slo(
        k: f64,
        p: f64,
        lambda: f64,
        slo: f64,
        max_replicas: ReplicaCount,
    ) -> Result<ReplicaCount> {
        crate::error::positive("slo", slo)?;
        let feasible = |n: u32| -> Result<bool> { Ok(closed_form(k, p, lambda, rc(n))? <= slo) };
        if !feasible(max_replicas.get())? {
            return Err(crate::Error::Infeasible {
                max_replicas: max_replicas.get(),
            });
        }
        let (mut lo, mut hi) = (1u32, max_replicas.get());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if feasible(mid)? {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Ok(rc(lo))
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 512 }))]

        /// The walk answers exactly what the binary search answers, over
        /// the paper's shapes (p 50–500 ms, up to 200 req/s, quotas up
        /// to 64), a sharded 1,000-job round's (p 50 ms, 10–50 req/s,
        /// quotas ~200 and 3,200) and a 5,000-job quota (16,000), from
        /// idle through saturation at the quota, with SLOs under,
        /// around and well over the service time, and exactly at the
        /// service time or at one count's latency.
        #[test]
        fn the_walk_answers_what_the_search_answers(
            shape in 0u32..3,
            k_at in 0usize..6,
            p_paper in 0.05f64..0.5,
            rate in 0.0f64..1.0,
            load in 0.0f64..1.2,
            slo_over_p in 0.8f64..6.0,
            slo_shape in 0u32..4,
            quota_jitter in 0u32..64,
        ) {
            let (p, lambda, quota) = match shape {
                0 => (p_paper, 200.0 * rate, 1 + quota_jitter),
                1 => (
                    0.05,
                    10.0 + 40.0 * rate,
                    if quota_jitter % 2 == 0 && !cfg!(miri) { 3_200 } else { 168 + quota_jitter },
                ),
                _ if cfg!(miri) => (0.05, load * 64.0 / 0.05, 64),
                _ => (0.05, load * 16_000.0 / 0.05, 16_000),
            };
            let k = [0.5, 0.9, 0.95, 0.99, 0.999, 0.9999][k_at];
            let slo = match slo_shape {
                0 => p,
                1 => {
                    let n = ((lambda * p) as u32 + quota_jitter % 8).clamp(1, quota);
                    Some(closed_form(k, p, lambda, rc(n)).unwrap())
                        .filter(|l| l.is_finite())
                        .unwrap_or(slo_over_p * p)
                }
                _ => slo_over_p * p,
            };
            let walked = replicas_for_slo(k, p, lambda, slo, rc(quota));
            let searched = searched_replicas_for_slo(k, p, lambda, slo, rc(quota));
            proptest::prop_assert_eq!(
                walked,
                searched,
                "k={} p={} lambda={} slo={} quota={}",
                k,
                p,
                lambda,
                slo,
                quota
            );
        }
    }

    /// A small job at the largest quota is answered at once: the walk
    /// stops at its answer, where the search's first probe alone is a
    /// recurrence over every count up to `u32::MAX`.
    #[test]
    fn a_small_job_at_the_largest_quota_is_answered_at_once() {
        for (k, p, lambda, slo) in [(0.99, 0.05, 20.0, 0.1), (0.9999, 0.15, 40.0, 0.6)] {
            assert_eq!(
                replicas_for_slo(k, p, lambda, slo, ReplicaCount::MAX),
                searched_replicas_for_slo(k, p, lambda, slo, rc(64)),
            );
        }
        // Past its first zero-wait count every latency is `p`, over the
        // SLO here: infeasible, without walking to the quota.
        assert_eq!(
            replicas_for_slo(0.99, 0.15, 40.0, 0.1, ReplicaCount::MAX),
            Err(crate::Error::Infeasible {
                max_replicas: u32::MAX
            })
        );
    }

    /// The walk refuses what the search refused, with the same error:
    /// an invalid SLO first, then what the direct call at the quota
    /// returns, in its own order.
    #[test]
    fn the_walk_refuses_what_the_direct_call_refuses() {
        let nan = f64::NAN;
        for (k, p, lambda, slo, quota) in [
            (0.99, 0.15, 40.0, 0.0, 8),
            (0.99, 0.15, 40.0, nan, 8),
            (0.99, 0.15, 40.0, f64::INFINITY, 8),
            (1.5, 0.0, -1.0, -1.0, 0),
            (1.5, 0.0, -1.0, 0.6, 0),
            (nan, 0.15, 40.0, 0.6, 8),
            (0.99, 0.0, -1.0, 0.6, 0),
            (0.99, 0.0, -1.0, 0.6, 8),
            (0.99, 0.0, nan, 0.6, 8),
            (0.99, 0.15, f64::INFINITY, 0.6, 8),
            (0.99, 0.0, 40.0, 0.6, 8),
            (0.99, f64::INFINITY, 40.0, 0.6, 8),
            (0.99, -0.15, 0.0, 0.6, 8),
        ] {
            let walked = replicas_for_slo(k, p, lambda, slo, rc(quota));
            let searched = searched_replicas_for_slo(k, p, lambda, slo, rc(quota));
            // Compared as text: a NaN in an error is not equal to itself.
            assert_eq!(
                format!("{walked:?}"),
                format!("{searched:?}"),
                "k={k} p={p} lambda={lambda} slo={slo} quota={quota}"
            );
            assert!(walked.is_err());
        }
    }

    /// Monte Carlo M/D/c: deterministic service, Poisson arrivals.
    fn simulate_mdc_waits(lambda: f64, p: f64, servers: usize, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let inter = Exp::new(lambda).unwrap();
        let mut server_free = vec![0.0f64; servers];
        let mut t = 0.0;
        let mut waits = Vec::with_capacity(n);
        for _ in 0..n {
            t += inter.sample(&mut rng);
            let (idx, &free) = server_free
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap();
            let start = free.max(t);
            waits.push(start - t);
            server_free[idx] = start + p;
        }
        waits
    }

    #[test]
    fn half_mmc_approximation_is_sane() {
        // The Tijms rule is an engineering approximation; check it is in
        // the right ballpark (within ~35%) at moderate load.
        let (lambda, p, servers) = (20.0, 0.15, rc(4));
        let mut waits = simulate_mdc_waits(lambda, p, servers.get() as usize, 300_000, 11);
        waits.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mean_emp: f64 = waits.iter().sum::<f64>() / waits.len() as f64;
        let mean_est = 0.5 * mmc::mean_wait(lambda, p, servers).unwrap();
        assert!(
            (mean_est - mean_emp).abs() < 0.35 * mean_emp.max(0.005),
            "mean: est={mean_est} emp={mean_emp}"
        );
        let p99_emp = waits[(waits.len() as f64 * 0.99) as usize];
        let p99_est = 0.5 * mmc::wait_percentile(0.99, p, lambda, servers).unwrap();
        assert!(
            (p99_est - p99_emp).abs() < 0.35 * p99_emp.max(0.01),
            "p99: est={p99_est} emp={p99_emp}"
        );
    }
}
