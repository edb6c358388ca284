//! Per-job utility functions distilled from SLOs (paper Sec. 3.1).
//!
//! The original utility is a step function — 1 when the tail latency
//! meets the SLO target, 0 otherwise. Step functions create plateaus
//! that defeat optimization solvers, so Faro relaxes them to
//! `U = min((s / l)^alpha, 1)`, which approaches the step as
//! `alpha -> infinity` (Figure 4a) and lower-bounds the SLO satisfaction
//! rate (Figure 4b).

/// The original step utility: 1 iff the latency meets the target.
///
/// # Examples
///
/// ```
/// use faro_core::utility::step_utility;
///
/// assert_eq!(step_utility(0.5, 0.72), 1.0);
/// assert_eq!(step_utility(0.9, 0.72), 0.0);
/// ```
pub fn step_utility(latency: f64, slo: f64) -> f64 {
    if latency <= slo {
        1.0
    } else {
        0.0
    }
}

/// The relaxed inverse-power utility of Eq. 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelaxedUtility {
    /// Sharpness exponent; the relaxed utility approaches the step
    /// function as `alpha` grows.
    pub alpha: f64,
}

impl Default for RelaxedUtility {
    /// A moderate sharpness that keeps usable gradients (see
    /// `DESIGN.md`).
    fn default() -> Self {
        Self { alpha: 4.0 }
    }
}

impl RelaxedUtility {
    /// Creates a relaxed utility with the given exponent.
    ///
    /// # Panics
    ///
    /// Panics when `alpha` is not finite and positive.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha.is_finite() && alpha > 0.0, "alpha must be positive");
        Self { alpha }
    }

    /// `U(l, s) = min((s/l)^alpha, 1)`; 0 for infinite latency, 1 for
    /// non-positive latency (instantaneous response) and for a latency
    /// that meets the target, which costs a comparison, not a `powf`.
    #[inline]
    pub fn value(&self, latency: f64, slo: f64) -> f64 {
        if latency <= self.met_threshold(slo) || latency <= 0.0 {
            return 1.0;
        }
        if latency.is_infinite() || latency.is_nan() {
            return 0.0;
        }
        #[cfg(test)]
        POWF_CALLS.with(|n| n.set(n.get() + 1));
        (slo / latency).powf(self.alpha).min(1.0)
    }

    /// The latency at or under which [`RelaxedUtility::value`] is
    /// exactly 1 without evaluating the power: `slo` when `alpha > 0`
    /// and the target is finite, otherwise NaN, which no latency is at
    /// or under. For `0 < l <= s` the quotient `s / l` is at least 1
    /// (division is correctly rounded and monotone), no positive power
    /// of it is under 1, and the `min` returns exactly 1 whatever `powf`
    /// computed. The argument fails where the threshold is NaN: `alpha`
    /// is a public field, so it may be zero, negative or NaN, and
    /// against an infinite target an infinite latency is "met" yet
    /// scores 0.
    #[inline]
    fn met_threshold(&self, slo: f64) -> f64 {
        if self.alpha > 0.0 && slo < f64::INFINITY {
            slo
        } else {
            f64::NAN
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Scores this thread has had to compute with `powf`.
    pub(crate) static POWF_CALLS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_is_binary() {
        assert_eq!(step_utility(0.72, 0.72), 1.0); // Boundary meets SLO.
        assert_eq!(step_utility(0.721, 0.72), 0.0);
        assert_eq!(step_utility(f64::INFINITY, 0.72), 0.0);
    }

    #[test]
    fn relaxed_is_one_at_or_below_slo() {
        let u = RelaxedUtility::default();
        for l in [0.0, 0.1, 0.5, 0.72] {
            assert_eq!(u.value(l, 0.72), 1.0, "latency {l}");
        }
    }

    #[test]
    fn relaxed_decreases_beyond_slo() {
        let u = RelaxedUtility::default();
        let mut prev = 1.0;
        for i in 1..20 {
            let l = 0.72 + 0.1 * f64::from(i);
            let v = u.value(l, 0.72);
            assert!(v < prev, "latency {l}");
            assert!(v > 0.0);
            prev = v;
        }
        assert_eq!(u.value(f64::INFINITY, 0.72), 0.0);
    }

    #[test]
    fn higher_alpha_approaches_step() {
        // Figure 4a: larger alpha hugs the step function.
        let l = 1.0;
        let s = 0.5;
        let mut prev = 1.0;
        for alpha in [1.0, 2.0, 4.0, 8.0, 32.0] {
            let v = RelaxedUtility::new(alpha).value(l, s);
            assert!(v < prev, "alpha {alpha}");
            prev = v;
        }
        assert!(RelaxedUtility::new(64.0).value(l, s) < 1e-15);
    }

    #[test]
    fn relaxed_lower_bounds_step_beyond_slo_only() {
        // For l > s the relaxed utility is positive where the step is 0;
        // for l <= s both are 1. The *step* utility of a met SLO never
        // exceeds relaxed utility.
        let u = RelaxedUtility::default();
        for l in [0.1, 0.5, 0.72, 0.9, 2.0] {
            assert!(u.value(l, 0.72) >= step_utility(l, 0.72));
        }
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_alpha_panics() {
        let _ = RelaxedUtility::new(0.0);
    }

    /// What the met-SLO shortcut rests on, as a test of this platform's
    /// `powf`: for `0 < l <= s` and `alpha > 0` the quotient is at least
    /// 1, no power of it is under 1, and `min` returns exactly 1.
    #[test]
    #[cfg_attr(
        miri,
        ignore = "a million libm calls; the platform's libm is the subject"
    )]
    fn a_met_slo_scores_one_whatever_powf_computes() {
        let mut rng = crate::rng::SplitMix64::new(23);
        let alphas = [1e-300, 0.5, 1.0, 4.0, 64.0, 1e300, f64::INFINITY];
        let ulps_below = |s: f64, ulps: u64| f64::from_bits(s.to_bits() - ulps);
        for case in 0..1_000_000usize {
            // Targets from the SLO's range and from the whole exponent
            // range, by turns.
            let s = if case % 2 == 0 {
                0.01 + 10.0 * rng.fraction()
            } else {
                f64::from_bits(rng.next_u64() >> 2).max(f64::MIN_POSITIVE)
            };
            let l = match case % 7 {
                0 => s,
                1 => ulps_below(s, 1),
                2 => ulps_below(s, 2),
                // Quotients that round to 1.
                3 => s * (1.0 - f64::EPSILON * rng.fraction()),
                // Subnormal latencies.
                4 => f64::from_bits(1 + (rng.next_u64() >> 12)).min(s),
                5 => s * (1.0 - rng.fraction()).max(f64::MIN_POSITIVE),
                _ => s * 0.5f64.powi(rng.below(1_000) as i32),
            };
            let l = if l > 0.0 { l } else { s };
            let alpha = match case % 3 {
                0 => alphas[rng.below(alphas.len())],
                1 => 8.0 * rng.fraction() + f64::MIN_POSITIVE,
                _ => f64::from_bits(rng.next_u64() >> 2).max(f64::MIN_POSITIVE),
            };
            let u = RelaxedUtility { alpha };
            assert!(0.0 < l && l <= u.met_threshold(s), "case {case}");
            let raw = (s / l).powf(alpha).min(1.0);
            assert_eq!(
                raw.to_bits(),
                1.0f64.to_bits(),
                "l={l:e} s={s:e} alpha={alpha:e}"
            );
            let asked = u.value(l, s);
            assert_eq!(
                asked.to_bits(),
                1.0f64.to_bits(),
                "l={l:e} s={s:e} alpha={alpha:e}"
            );
        }
    }

    /// Where the argument fails the threshold is never met; everywhere
    /// `value` equals the formula evaluated through `powf`, bit for bit.
    #[test]
    fn the_threshold_stands_aside_where_the_argument_fails() {
        let through_powf = |u: RelaxedUtility, l: f64, s: f64| {
            if l <= 0.0 {
                1.0
            } else if l.is_infinite() || l.is_nan() {
                0.0
            } else {
                (s / l).powf(u.alpha).min(1.0)
            }
        };
        let latencies = [
            -1.0,
            0.0,
            1e-300,
            0.3,
            0.72,
            1.5,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ];
        let targets = [0.72, 0.0, -0.5, f64::INFINITY, f64::NAN];
        for alpha in [4.0, 0.5, 0.0, -0.0, -1.0, f64::NAN, f64::INFINITY] {
            let u = RelaxedUtility { alpha };
            for s in targets {
                if !(alpha > 0.0 && s < f64::INFINITY) {
                    assert!(u.met_threshold(s).is_nan(), "alpha={alpha} s={s}");
                }
                for l in latencies {
                    assert_eq!(
                        u.value(l, s).to_bits(),
                        through_powf(u, l, s).to_bits(),
                        "alpha={alpha} l={l} s={s}"
                    );
                }
            }
        }
    }
}
