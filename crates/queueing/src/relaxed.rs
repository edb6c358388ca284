//! Plateau-free ("sloppified") latency estimation (paper Sec. 3.4).
//!
//! The exact M/D/c estimate is infinite whenever the queue is unstable
//! (`rho >= 1`). A constant-infinity region is a *plateau*: a local solver
//! probing inside it sees no gradient and cannot tell how overloaded the
//! job is. Faro removes the plateau by evaluating the estimator at the
//! stability knee `rho_max` and scaling the result by how fast the queue
//! grows (`lambda / lambda_at_rho_max`), which is strictly increasing in
//! `lambda` and strictly decreasing in the replica count.
//!
//! One count at one rate is [`RelaxedLatency::latency`] (or
//! [`RelaxedLatency::latency_with_knee`], which holds the
//! rate-independent knee latency between calls); these are the
//! references. The many-count readers are built on them and equal
//! them bit for bit. A row is [`RelaxedLatency::row_into`], the one
//! place a relaxed row is built: the M/D/c row
//! ([`mdc::latency_percentile_range_into`]) as far as it waits, with
//! the head of counts the rate is past the knee at written over it in
//! place from held knee latencies, and the rest, exactly `p`, left
//! unwritten. [`RelaxedLatency::latency_sweep`] is that row with its
//! tail filled. [`RelaxedLatency::bracket_with_knees`] gives the two
//! consecutive counts bracketing a fractional head count, which under
//! the knee it reads off one Erlang recurrence.

use crate::error::{percentile, positive, Error, Result};
use crate::mdc;
use crate::ReplicaCount;

/// Relaxed M/D/c latency estimator with a configurable stability knee.
///
/// `rho_max` close to `1.0` tracks the true queue more closely but
/// re-introduces near-plateau behaviour; the paper uses `0.95`.
///
/// # Examples
///
/// ```
/// use faro_queueing::{RelaxedLatency, ReplicaCount};
///
/// let est = RelaxedLatency::default(); // rho_max = 0.95
/// // Past saturation the estimate is finite and grows with load.
/// let a = est.latency(0.99, 0.150, 60.0, ReplicaCount::new(4)).unwrap();
/// let b = est.latency(0.99, 0.150, 120.0, ReplicaCount::new(4)).unwrap();
/// assert!(a.is_finite() && b > a);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelaxedLatency {
    rho_max: f64,
}

impl Default for RelaxedLatency {
    /// The paper's default knee, `rho_max = 0.95`.
    fn default() -> Self {
        Self { rho_max: 0.95 }
    }
}

impl RelaxedLatency {
    /// Creates an estimator with the given stability knee.
    ///
    /// # Errors
    ///
    /// `rho_max` must lie strictly inside `(0, 1)`.
    pub fn new(rho_max: f64) -> Result<Self> {
        if !(rho_max.is_finite() && rho_max > 0.0 && rho_max < 1.0) {
            return Err(Error::InvalidParameter {
                name: "rho_max",
                value: rho_max,
            });
        }
        Ok(Self { rho_max })
    }

    /// The configured stability knee.
    pub fn rho_max(&self) -> f64 {
        self.rho_max
    }

    /// Relaxed `k`-th percentile latency estimate. Always finite.
    ///
    /// For `rho <= rho_max` this equals the plain M/D/c estimate. Past the
    /// knee, the estimate at the knee is scaled by `lambda / lambda_knee`,
    /// penalizing latency proportionally to the queue growth rate.
    pub fn latency(&self, k: f64, p: f64, lambda: f64, servers: ReplicaCount) -> Result<f64> {
        self.latency_with_knee(k, p, lambda, servers, &mut None)
    }

    /// [`RelaxedLatency::latency`] for a caller that asks about one
    /// `(k, p, servers)` at many arrival rates: bit-for-bit the same
    /// value, with the latency at the knee — which does not depend on
    /// `lambda` — kept in `knee` between calls. Start with `None`; the
    /// first call past the knee computes and stores it, later ones read
    /// it, and calls under the knee never touch it. A `knee` filled
    /// under one `(k, p, servers)` must not be passed with another.
    ///
    /// # Errors
    ///
    /// Same domain errors as [`RelaxedLatency::latency`]; `knee` is left
    /// as it was.
    pub fn latency_with_knee(
        &self,
        k: f64,
        p: f64,
        lambda: f64,
        servers: ReplicaCount,
        knee: &mut Option<f64>,
    ) -> Result<f64> {
        let k = percentile(k)?;
        let p = positive("p", p)?;
        let lambda = crate::error::non_negative("lambda", lambda)?;
        if servers.is_zero() {
            return Err(Error::ZeroReplicas);
        }
        let n = servers.get();
        if self.below_knee(p, lambda, n) {
            return mdc::latency_percentile(k, p, lambda, servers);
        }
        let knee_latency = match *knee {
            Some(held) => held,
            None => *knee.insert(self.knee_latency(k, p, n)?),
        };
        Ok(self.past_knee(p, lambda, n, knee_latency))
    }

    /// [`RelaxedLatency::latency_with_knee`] at the two consecutive
    /// counts `lo` and `lo + 1`, `knees[0]` held for `lo` and `knees[1]`
    /// for `lo + 1`: bit for bit and slot for slot what the two calls
    /// return and hold, for the price of one when `lo` is under the
    /// knee.
    ///
    /// Utilization falls as servers are added (`lambda * p / (lo + 1)
    /// <= lambda * p / lo` under correctly rounded division), so when
    /// `lo` is at or under the knee so is `lo + 1`, and both are plain
    /// M/D/c latencies: one Erlang recurrence of length `lo + 1`
    /// ([`mdc::latency_percentile_range_into`]) yields the pair, where
    /// the two calls would run one of length `lo` and one of `lo + 1`.
    /// Otherwise each count is asked on its own, exactly as the two
    /// calls do.
    ///
    /// # Errors
    ///
    /// Those of the two calls, the lower count's first. A `lo` of
    /// `u32::MAX` has no count above it and is
    /// [`Error::InvalidParameter`]. Either way `knees` changes only as
    /// the two calls would change it.
    pub fn bracket_with_knees(
        &self,
        k: f64,
        p: f64,
        lambda: f64,
        lo: ReplicaCount,
        knees: &mut [Option<f64>; 2],
    ) -> Result<[f64; 2]> {
        let Some(hi) = lo.checked_add(ReplicaCount::ONE) else {
            return Err(Error::InvalidParameter {
                name: "servers",
                value: lo.as_f64() + 1.0,
            });
        };
        // A `k`, `p` or `lambda` the estimator rejects is rejected by
        // the range too, with the same error and before it writes.
        if !lo.is_zero() && self.below_knee(p, lambda, lo.get()) {
            // A count the range leaves unwritten waits nowhere: it is `p`.
            let mut pair = [p; 2];
            mdc::latency_percentile_range_into(k, p, lambda, lo, &mut pair)?;
            return Ok(pair);
        }
        let [lo_knee, hi_knee] = knees;
        let l_lo = self.latency_with_knee(k, p, lambda, lo, lo_knee);
        let l_hi = self.latency_with_knee(k, p, lambda, hi, hi_knee);
        Ok([l_lo?, l_hi?])
    }

    /// Whether `lambda` is at or under the stability knee at `servers`
    /// — the one float predicate every path of this estimator branches
    /// on (a NaN utilization is not).
    fn below_knee(&self, p: f64, lambda: f64, servers: u32) -> bool {
        lambda * p / f64::from(servers) <= self.rho_max
    }

    /// The arrival rate that puts `servers` servers exactly at the knee.
    fn knee_rate(&self, p: f64, servers: u32) -> f64 {
        self.rho_max * f64::from(servers) / p
    }

    /// The M/D/c latency of `servers` servers at their knee rate.
    fn knee_latency(&self, k: f64, p: f64, servers: u32) -> Result<f64> {
        let lambda_knee = self.knee_rate(p, servers);
        mdc::latency_percentile(k, p, lambda_knee, ReplicaCount::new(servers))
    }

    /// The estimate past the knee: the knee latency scaled by how fast
    /// the queue grows.
    fn past_knee(&self, p: f64, lambda: f64, servers: u32, knee_latency: f64) -> f64 {
        lambda / self.knee_rate(p, servers) * knee_latency
    }

    /// How many of the server counts `1..=max_servers` the rate
    /// `lambda` is past the knee at. Utilization falls as servers are
    /// added, so those are exactly the counts `1..=knee_count`, and the
    /// only ones whose knee latency [`RelaxedLatency::latency`] and
    /// [`RelaxedLatency::row_into`] read; a smaller rate never has
    /// a larger count. About `lambda * p / rho_max`, capped at
    /// `max_servers` — so a caller that tabulates
    /// [`RelaxedLatency::knee_latencies`] (one recurrence of length `n`
    /// per count, quadratic in all) needs that many, not `max_servers`.
    pub fn knee_count(&self, p: f64, lambda: f64, max_servers: ReplicaCount) -> u32 {
        (1..=max_servers.get())
            .find(|&n| self.below_knee(p, lambda, n))
            .map_or(max_servers.get(), |n| n - 1)
    }

    /// The latency at the stability knee for every server count
    /// `1..=max_servers`: entry `n - 1` is
    /// `mdc::latency_percentile(k, p, rho_max * n / p, n)`, the value
    /// [`RelaxedLatency::latency`] scales past the knee.
    ///
    /// The knee latency is independent of `lambda` (the knee rate is a
    /// function of `n` alone), so callers can compute this table once
    /// per job and reuse it across every arrival rate in a solve.
    ///
    /// # Errors
    ///
    /// Same domain errors as [`RelaxedLatency::latency`].
    pub fn knee_latencies(&self, k: f64, p: f64, max_servers: ReplicaCount) -> Result<Vec<f64>> {
        let k = percentile(k)?;
        let p = positive("p", p)?;
        if max_servers.is_zero() {
            return Err(Error::ZeroReplicas);
        }
        (1..=max_servers.get())
            .map(|n| self.knee_latency(k, p, n))
            .collect()
    }

    /// Relaxed latency for every server count `1..=knees.len()` at one
    /// arrival rate: entry `n - 1` equals
    /// `self.latency(k, p, lambda, n)` bit-for-bit. `knees` must come
    /// from [`RelaxedLatency::knee_latencies`] with the same `k`/`p`.
    /// The row of [`RelaxedLatency::row_into`], its tail filled with
    /// `p`.
    ///
    /// # Errors
    ///
    /// Those of [`RelaxedLatency::row_into`].
    pub fn latency_sweep(&self, k: f64, p: f64, lambda: f64, knees: &[f64]) -> Result<Vec<f64>> {
        let mut out = vec![0.0; knees.len()];
        let stored = self.row_into(k, p, lambda, knees, &mut out)?;
        out[stored..].fill(p);
        Ok(out)
    }

    /// The relaxed row at rate `lambda` over the counts `1..=out.len()`,
    /// into a caller-owned row, as far as it differs from `p`: returns
    /// a length `len` such that `out[n - 1]` equals
    /// `self.latency(k, p, lambda, n)` bit for bit at every `n <= len`,
    /// and the estimate at every count past it is exactly `p`, left
    /// unwritten in `out`.
    ///
    /// The M/D/c row ([`mdc::latency_percentile_range_into`]) is
    /// written up to its first zero-wait count. Then the first
    /// [`RelaxedLatency::knee_count`] counts, those `lambda` is past the
    /// knee at, are written over it in place: `knees[n - 1]` scaled by
    /// how fast the queue grows at `n` servers, with no recurrence.
    /// `len` is the larger of the two. `knees` must come from
    /// [`RelaxedLatency::knee_latencies`] with the same `k`/`p`, and
    /// reach at least the knee count; entries past it are not read.
    ///
    /// # Errors
    ///
    /// Those of [`mdc::latency_percentile_range_into`] from one server,
    /// which leave `out` untouched. A `knees` shorter than the knee
    /// count is [`Error::InvalidParameter`] (`knees`, its length), with
    /// `out` holding nothing of use.
    pub fn row_into(
        &self,
        k: f64,
        p: f64,
        lambda: f64,
        knees: &[f64],
        out: &mut [f64],
    ) -> Result<usize> {
        let waiting = mdc::latency_percentile_range_into(k, p, lambda, ReplicaCount::ONE, out)?;
        // The range refuses a row past `u32::MAX` counts.
        let past_knee = self.knee_count(p, lambda, ReplicaCount::new(out.len() as u32)) as usize;
        let Some(knees) = knees.get(..past_knee) else {
            return Err(Error::InvalidParameter {
                name: "knees",
                value: knees.len() as f64,
            });
        };
        for (n, (out, &knee)) in (1..).zip(out.iter_mut().zip(knees)) {
            *out = self.past_knee(p, lambda, n, knee);
        }
        Ok(waiting.max(past_knee))
    }

    /// Relaxed latency with a *fractional* replica count, for use inside
    /// continuous optimization.
    ///
    /// The M/D/c closed form needs an integer server count; following the
    /// paper's continuous formulation we interpolate linearly between the
    /// estimates at `floor(x)` and `ceil(x)` (each already relaxed), which
    /// preserves monotonicity in `x` and keeps the function plateau-free.
    pub fn latency_fractional(&self, k: f64, p: f64, lambda: f64, x: f64) -> Result<f64> {
        if !x.is_finite() || x < 1.0 {
            return Err(Error::InvalidParameter {
                name: "x",
                value: x,
            });
        }
        let lo = x.floor();
        let hi = x.ceil();
        let l_lo = self.latency(k, p, lambda, ReplicaCount::new(lo as u32))?;
        if lo == hi {
            return Ok(l_lo);
        }
        let l_hi = self.latency(k, p, lambda, ReplicaCount::new(hi as u32))?;
        let frac = x - lo;
        Ok(l_lo + (l_hi - l_lo) * frac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mmc;

    fn rc(n: u32) -> ReplicaCount {
        ReplicaCount::new(n)
    }

    /// The M/D/c estimator's definition, which shares no code with its
    /// walk: half the closed-form M/M/c waiting percentile plus `p`.
    fn closed_form(k: f64, p: f64, lambda: f64, servers: ReplicaCount) -> Result<f64> {
        Ok(0.5 * mmc::wait_percentile(k, p, lambda, servers)? + p)
    }

    /// The relaxed estimator's definition over the closed-form M/D/c
    /// latency, for inputs it accepts: the latency itself at or under
    /// the knee, and past it the knee's latency scaled by the rate over
    /// the knee rate.
    fn definition(est: &RelaxedLatency, k: f64, p: f64, lambda: f64, servers: u32) -> f64 {
        let n = f64::from(servers);
        if lambda * p / n <= est.rho_max() {
            closed_form(k, p, lambda, rc(servers)).unwrap()
        } else {
            let knee_rate = est.rho_max() * n / p;
            lambda / knee_rate * closed_form(k, p, knee_rate, rc(servers)).unwrap()
        }
    }

    #[test]
    fn matches_mdc_below_knee() {
        let est = RelaxedLatency::default();
        for lambda in [1.0, 10.0, 20.0] {
            let relaxed = est.latency(0.99, 0.15, lambda, rc(8)).unwrap();
            let exact = closed_form(0.99, 0.15, lambda, rc(8)).unwrap();
            assert_eq!(relaxed.to_bits(), exact.to_bits());
        }
    }

    #[test]
    fn finite_and_increasing_past_knee() {
        let est = RelaxedLatency::default();
        let mut prev = 0.0;
        for i in 1..100 {
            let lambda = 5.0 * f64::from(i); // Goes far past saturation.
            let l = est.latency(0.99, 0.15, lambda, rc(4)).unwrap();
            assert!(l.is_finite(), "lambda={lambda}");
            assert!(l >= prev, "lambda={lambda}: {l} < {prev}");
            prev = l;
        }
    }

    #[test]
    fn no_plateau_strictly_increasing_when_overloaded() {
        let est = RelaxedLatency::default();
        let l1 = est.latency(0.99, 0.15, 100.0, rc(4)).unwrap();
        let l2 = est.latency(0.99, 0.15, 101.0, rc(4)).unwrap();
        assert!(l2 > l1, "overload region must have non-zero slope");
    }

    #[test]
    fn decreasing_in_replicas() {
        let est = RelaxedLatency::default();
        let mut prev = f64::INFINITY;
        for n in 1..64 {
            let l = est.latency(0.99, 0.15, 100.0, rc(n)).unwrap();
            assert!(l <= prev, "n={n}");
            prev = l;
        }
    }

    proptest::proptest! {
        /// The relaxed sweep (shared Erlang pass + knee scaling) must
        /// match the estimator's definition at every server count
        /// bit-for-bit.
        #[test]
        fn relaxed_sweep_matches_direct_calls_bitwise(
            lambda in 0.0f64..500.0,
            p in 0.01f64..0.5,
            k in 0.5f64..0.9999,
            max in 1u32..60,
        ) {
            let est = RelaxedLatency::default();
            let knees = est.knee_latencies(k, p, rc(max)).unwrap();
            let sweep = est.latency_sweep(k, p, lambda, &knees).unwrap();
            for n in 1..=max {
                let direct = definition(&est, k, p, lambda, n);
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

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(if cfg!(miri) { 2 } else { 24 }))]

        /// A row built from `knee_count` knee latencies is `latency` and
        /// the estimator's definition at every count up to the length it
        /// returns, bit for bit, is `p` past it, and is unwritten there,
        /// from idle through the knee to past saturation (`load` is the
        /// utilization at `max`). One knee latency fewer is refused.
        #[test]
        fn a_knee_prefix_row_is_latency_at_every_count(
            load in 0.0f64..1.6,
            p in 0.01f64..0.5,
            k in 0.5f64..0.9999,
            max in 1u32..(if cfg!(miri) { 48 } else { 4096 }),
            idle in 0u32..8,
        ) {
            let est = RelaxedLatency::default();
            let lambda = if idle == 0 { 0.0 } else { load * f64::from(max) / p };
            let past = est.knee_count(p, lambda, rc(max)) as usize;
            let knees = if past == 0 {
                Vec::new()
            } else {
                est.knee_latencies(k, p, rc(past as u32)).unwrap()
            };
            let mut row = vec![f64::NAN; max as usize];
            let len = est.row_into(k, p, lambda, &knees, &mut row).unwrap();
            proptest::prop_assert!(len >= past && len <= row.len());
            proptest::prop_assert!(row[len..].iter().all(|l| l.is_nan()), "wrote past {}", len);
            for n in 1..=max {
                let got = if n as usize <= len { row[n as usize - 1] } else { p };
                let want = definition(&est, k, p, lambda, n);
                let latency = est.latency(k, p, lambda, rc(n)).unwrap();
                proptest::prop_assert_eq!(
                    (got.to_bits(), latency.to_bits()),
                    (want.to_bits(), want.to_bits()),
                    "n={} of {} lambda={} past={} len={}",
                    n,
                    max,
                    lambda,
                    past,
                    len
                );
            }
            if let Some(short) = knees.len().checked_sub(1) {
                proptest::prop_assert_eq!(
                    est.row_into(k, p, lambda, &knees[..short], &mut row),
                    Err(Error::InvalidParameter { name: "knees", value: short as f64 })
                );
            }
        }
    }

    /// What a result compares as: its bits, or its error.
    fn bits(r: Result<f64>) -> std::result::Result<u64, String> {
        r.map(f64::to_bits).map_err(|e| format!("{e:?}"))
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(if cfg!(miri) { 2 } else { 64 }))]

        /// One knee slot held across many rates at one `(k, p, servers)`
        /// answers every rate as `latency` and as the estimator's
        /// definition do, bit for bit or error for error — idle, under
        /// the knee, past it, saturated, rates and parameters the
        /// estimator rejects — and holds the knee latency from the
        /// first accepted rate past the knee on, never before.
        #[test]
        fn held_knee_matches_latency_bitwise(
            p in 0.01f64..0.5,
            k in 0.5f64..0.9999,
            servers in 1u32..(if cfg!(miri) { 48 } else { 4096 }),
            loads in proptest::prop::collection::vec(0.0f64..3.0, 1..24),
            invalid in 0u32..8,
        ) {
            let est = RelaxedLatency::default();
            let (k, p) = match invalid {
                1 => (1.0, p),
                2 => (f64::NAN, p),
                3 => (k, 0.0),
                4 => (k, f64::INFINITY),
                _ => (k, p),
            };
            let n = f64::from(servers);
            let lambda_knee = est.rho_max() * n / p;
            let knee_latency = closed_form(k, p, lambda_knee, rc(servers));
            let mut rates: Vec<f64> = loads.iter().map(|load| load * n / p).collect();
            rates.extend([0.0, f64::NAN, f64::INFINITY, -1.0]);
            let mut knee = None;
            for lambda in rates {
                let held = knee;
                let got = est.latency_with_knee(k, p, lambda, rc(servers), &mut knee);
                let want = est.latency(k, p, lambda, rc(servers));
                proptest::prop_assert_eq!(
                    bits(got.clone()),
                    bits(want),
                    "k={} p={} servers={} lambda={} held={:?}",
                    k, p, servers, lambda, held
                );
                let Ok(got) = got else {
                    proptest::prop_assert_eq!(knee, held, "a rejected call moved the knee");
                    continue;
                };
                if lambda * p / n <= est.rho_max() {
                    let plain = closed_form(k, p, lambda, rc(servers));
                    proptest::prop_assert_eq!(Ok(got.to_bits()), bits(plain));
                    proptest::prop_assert_eq!(knee, held, "a call under the knee moved it");
                } else {
                    let knee_latency = knee_latency.clone().unwrap();
                    let scaled = lambda / lambda_knee * knee_latency;
                    proptest::prop_assert_eq!(got.to_bits(), scaled.to_bits());
                    proptest::prop_assert_eq!(knee.map(f64::to_bits), Some(knee_latency.to_bits()));
                }
            }
        }
    }

    /// What a pair compares as: both bits, or the lower count's error
    /// first — the pair two separate calls make.
    fn pair_bits(lo: Result<f64>, hi: Result<f64>) -> std::result::Result<[u64; 2], String> {
        bits(lo).and_then(|lo| Ok([lo, bits(hi)?]))
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(if cfg!(miri) { 2 } else { 64 }))]

        /// A bracket is two `latency_with_knee` calls, one a count with
        /// a slot of its own: bit for bit or error for error, and slot
        /// for slot — the same knees filled, none touched at a rate
        /// under the lower count's knee — across idle, under both
        /// knees, past the lower count's knee but under the upper's,
        /// past both, saturated, rates the estimator rejects (NaN,
        /// infinite, negative), parameters it rejects, a zero lower
        /// count and slots that arrive already held.
        #[test]
        fn a_bracket_is_two_held_knee_calls_bitwise(
            p in 0.01f64..0.5,
            k in 0.5f64..0.9999,
            lo in 0u32..(if cfg!(miri) { 48 } else { 4096 }),
            loads in proptest::prop::collection::vec(0.0f64..3.0, 1..16),
            invalid in 0u32..8,
            held in 0u32..4,
        ) {
            let est = RelaxedLatency::default();
            let (k, p) = match invalid {
                1 => (1.0, p),
                2 => (f64::NAN, p),
                3 => (k, 0.0),
                4 => (k, -p),
                _ => (k, p),
            };
            let n = f64::from(lo);
            let mut rates: Vec<f64> = loads.iter().map(|load| load * n.max(1.0) / p).collect();
            rates.extend([
                0.0,
                // Between the two counts' knees.
                est.rho_max() * (n + 0.5) / p,
                // On each count's knee.
                est.rho_max() * n / p,
                est.rho_max() * (n + 1.0) / p,
                f64::NAN,
                f64::INFINITY,
                -1.0,
            ]);
            // A slot may arrive held by an earlier evaluation at the
            // same count.
            let mut knees = [None; 2];
            let mut reference = [None; 2];
            if held & 1 == 1 && lo > 0 {
                knees[0] = Some(f64::from(lo) * 0.25);
                reference[0] = knees[0];
            }
            if held & 2 == 2 {
                knees[1] = Some(f64::from(lo) * 0.5 + 1.0);
                reference[1] = knees[1];
            }
            for lambda in rates {
                let before = knees;
                let got = est.bracket_with_knees(k, p, lambda, rc(lo), &mut knees);
                let [lo_knee, hi_knee] = &mut reference;
                let want = pair_bits(
                    est.latency_with_knee(k, p, lambda, rc(lo), lo_knee),
                    est.latency_with_knee(k, p, lambda, rc(lo + 1), hi_knee),
                );
                proptest::prop_assert_eq!(
                    got.map(|pair| pair.map(f64::to_bits)).map_err(|e| format!("{e:?}")),
                    want,
                    "k={} p={} lo={} lambda={} held={:?}",
                    k, p, lo, lambda, before
                );
                proptest::prop_assert_eq!(
                    knees.map(|h| h.map(f64::to_bits)),
                    reference.map(|h| h.map(f64::to_bits)),
                    "k={} p={} lo={} lambda={}",
                    k, p, lo, lambda
                );
                if lo > 0 && lambda * p / n <= est.rho_max() {
                    proptest::prop_assert_eq!(knees, before, "a rate under the knee moved a slot");
                }
            }
        }
    }

    /// The top of the count range: a pair ending at `u32::MAX` is two
    /// calls there too (past the knee, with the knee latencies held, so
    /// no `u32::MAX`-step recurrence runs), and a pair that would end
    /// past it is refused with its slots as they were.
    #[test]
    fn a_bracket_at_the_last_counts() {
        let est = RelaxedLatency::default();
        let lo = rc(u32::MAX - 1);
        for lambda in [1e12, 3.5e12, f64::NAN, f64::INFINITY, -1.0] {
            let mut knees = [Some(0.75), Some(0.5)];
            let mut reference = knees;
            let got = est.bracket_with_knees(0.99, 0.15, lambda, lo, &mut knees);
            let [lo_knee, hi_knee] = &mut reference;
            let want = pair_bits(
                est.latency_with_knee(0.99, 0.15, lambda, lo, lo_knee),
                est.latency_with_knee(0.99, 0.15, lambda, ReplicaCount::MAX, hi_knee),
            );
            assert_eq!(
                got.map(|pair| pair.map(f64::to_bits))
                    .map_err(|e| format!("{e:?}")),
                want,
                "lambda={lambda}"
            );
            assert_eq!(knees, reference);
        }
        let mut knees = [Some(0.75), None];
        assert_eq!(
            est.bracket_with_knees(0.99, 0.15, 1e12, ReplicaCount::MAX, &mut knees),
            Err(Error::InvalidParameter {
                name: "servers",
                value: 4_294_967_296.0
            })
        );
        assert_eq!(knees, [Some(0.75), None]);
    }

    #[test]
    fn a_held_knee_is_read_not_recomputed() {
        let est = RelaxedLatency::default();
        // Four servers at 150 ms reach the knee at 25.3 req/s.
        let mut knee = Some(42.0);
        let l = est
            .latency_with_knee(0.99, 0.15, 100.0, rc(4), &mut knee)
            .unwrap();
        assert_eq!(l, 100.0 / (0.95 * 4.0 / 0.15) * 42.0);
        assert_eq!(knee, Some(42.0));
        let under = est
            .latency_with_knee(0.99, 0.15, 10.0, rc(4), &mut knee)
            .unwrap();
        assert_eq!(under, est.latency(0.99, 0.15, 10.0, rc(4)).unwrap());
        assert_eq!(knee, Some(42.0));
    }

    #[test]
    fn knee_count_is_monotone_in_the_rate_and_capped() {
        let est = RelaxedLatency::default();
        assert_eq!(est.knee_count(0.15, 0.0, rc(64)), 0);
        // 1,875 req/s at 50 ms: past the knee up to 93.75 / 0.95 = 98.7.
        assert_eq!(est.knee_count(0.05, 1875.0, rc(3200)), 98);
        assert_eq!(est.knee_count(0.05, 1875.0, rc(40)), 40);
        let mut prev = 0;
        for i in 0..200 {
            let count = est.knee_count(0.05, 10.0 * f64::from(i), rc(3200));
            assert!(count >= prev, "rate step {i}: {count} < {prev}");
            prev = count;
        }
    }

    #[test]
    fn fractional_interpolates() {
        let est = RelaxedLatency::default();
        let l4 = est.latency(0.99, 0.15, 30.0, rc(4)).unwrap();
        let l5 = est.latency(0.99, 0.15, 30.0, rc(5)).unwrap();
        let l45 = est.latency_fractional(0.99, 0.15, 30.0, 4.5).unwrap();
        assert!((l45 - 0.5 * (l4 + l5)).abs() < 1e-12);
        let l4f = est.latency_fractional(0.99, 0.15, 30.0, 4.0).unwrap();
        assert_eq!(l4f, l4);
    }

    #[test]
    fn fractional_monotone_in_x() {
        let est = RelaxedLatency::default();
        let mut prev = f64::INFINITY;
        let mut x = 1.0;
        while x < 16.0 {
            let l = est.latency_fractional(0.99, 0.15, 60.0, x).unwrap();
            assert!(l <= prev + 1e-12, "x={x}");
            prev = l;
            x += 0.25;
        }
    }

    #[test]
    fn knee_validation() {
        assert!(RelaxedLatency::new(0.0).is_err());
        assert!(RelaxedLatency::new(1.0).is_err());
        assert!(RelaxedLatency::new(f64::NAN).is_err());
        assert!(RelaxedLatency::new(0.5).is_ok());
        assert!(RelaxedLatency::default()
            .latency_fractional(0.99, 0.1, 1.0, 0.5)
            .is_err());
    }
}
