//! The M/M/c queue: Poisson arrivals, exponential service, `c` servers.
//!
//! Faro uses M/M/c as a stepping stone to M/D/c: by Tijms' engineering
//! approximation, the M/D/c waiting time is about half the M/M/c waiting
//! time (see [`crate::mdc`]). [`wait_percentile`] is the closed form
//! that defines that estimate; [`crate::mdc`] computes it by walking one
//! Erlang-B recurrence up the server counts, and its tests hold the walk
//! to this function bit for bit.
//!
//! The waiting-time distribution of a stable M/M/c queue is
//! `P(W <= t) = 1 - C(c, a) * exp(-(c*mu - lambda) * t)` where `C` is the
//! Erlang-C probability of waiting, `mu = 1/p`, and `a = lambda * p`.

use crate::erlang::erlang_c;
use crate::error::{percentile, positive, Error, Result};
use crate::ReplicaCount;

/// Utilization `rho = lambda * p / c` of a `c`-server queue.
///
/// # Examples
///
/// ```
/// use faro_queueing::ReplicaCount;
/// let rho = faro_queueing::mmc::utilization(40.0, 0.150, ReplicaCount::new(8)).unwrap();
/// assert!((rho - 0.75).abs() < 1e-12);
/// ```
pub fn utilization(lambda: f64, p: f64, servers: ReplicaCount) -> Result<f64> {
    if servers.is_zero() {
        return Err(Error::ZeroReplicas);
    }
    let lambda = crate::error::non_negative("lambda", lambda)?;
    let p = positive("p", p)?;
    Ok(lambda * p / servers.as_f64())
}

/// Mean waiting time (time in queue, excluding service) of a stable
/// M/M/c queue. Returns [`f64::INFINITY`] when `rho >= 1`.
pub fn mean_wait(lambda: f64, p: f64, servers: ReplicaCount) -> Result<f64> {
    let rho = utilization(lambda, p, servers)?;
    if rho >= 1.0 {
        return Ok(f64::INFINITY);
    }
    if lambda == 0.0 {
        return Ok(0.0);
    }
    let c = erlang_c(servers, lambda * p)?;
    let cmu_minus_lambda = servers.as_f64() / p - lambda;
    Ok(c / cmu_minus_lambda)
}

/// The `k`-th percentile (`0 < k < 1`) of the waiting time of a stable
/// M/M/c queue. Returns [`f64::INFINITY`] when `rho >= 1`.
///
/// Derived from the closed-form distribution: the percentile is `0` when
/// `C <= 1 - k` (enough arrivals do not wait at all), otherwise
/// `ln(C / (1-k)) / (c*mu - lambda)`.
///
/// # Examples
///
/// ```
/// use faro_queueing::ReplicaCount;
/// // Lightly loaded queue: the median wait is zero.
/// let w = faro_queueing::mmc::wait_percentile(0.5, 0.1, 1.0, ReplicaCount::new(4)).unwrap();
/// assert_eq!(w, 0.0);
/// ```
pub fn wait_percentile(k: f64, p: f64, lambda: f64, servers: ReplicaCount) -> Result<f64> {
    let k = percentile(k)?;
    let rho = utilization(lambda, p, servers)?;
    if rho >= 1.0 {
        return Ok(f64::INFINITY);
    }
    if lambda == 0.0 {
        return Ok(0.0);
    }
    let c = erlang_c(servers, lambda * p)?;
    let tail = 1.0 - k;
    if c <= tail {
        return Ok(0.0);
    }
    let cmu_minus_lambda = servers.as_f64() / p - lambda;
    Ok((c / tail).ln() / cmu_minus_lambda)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand_distr::Exp;

    fn rc(n: u32) -> ReplicaCount {
        ReplicaCount::new(n)
    }

    #[test]
    fn zero_lambda_waits_zero() {
        assert_eq!(mean_wait(0.0, 0.2, rc(2)).unwrap(), 0.0);
        assert_eq!(wait_percentile(0.99, 0.2, 0.0, rc(2)).unwrap(), 0.0);
    }

    #[test]
    fn saturated_queue_is_infinite() {
        assert_eq!(mean_wait(100.0, 0.1, rc(4)).unwrap(), f64::INFINITY);
        assert_eq!(
            wait_percentile(0.9, 0.1, 100.0, rc(4)).unwrap(),
            f64::INFINITY
        );
    }

    #[test]
    fn mm1_mean_wait_matches_closed_form() {
        // M/M/1: Wq = rho / (mu - lambda).
        let (lambda, p) = (4.0, 0.2);
        let mu = 1.0 / p;
        let rho = lambda / mu;
        let expect = rho / (mu - lambda);
        let got = mean_wait(lambda, p, rc(1)).unwrap();
        assert!((got - expect).abs() < 1e-12);
    }

    #[test]
    fn percentile_monotone_in_k() {
        let mut prev = -1.0;
        for i in 1..20 {
            let k = f64::from(i) / 20.0;
            let w = wait_percentile(k, 0.15, 45.0, rc(8)).unwrap();
            assert!(w >= prev);
            prev = w;
        }
    }

    #[test]
    fn percentile_decreases_with_more_servers() {
        let w8 = wait_percentile(0.99, 0.15, 40.0, rc(8)).unwrap();
        let w12 = wait_percentile(0.99, 0.15, 40.0, rc(12)).unwrap();
        assert!(w12 <= w8);
    }

    /// Event-driven M/M/c Monte Carlo to validate the closed form.
    fn simulate_mmc_waits(lambda: f64, p: f64, servers: usize, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let inter = Exp::new(lambda).unwrap();
        let service = Exp::new(1.0 / p).unwrap();
        let mut server_free = vec![0.0f64; servers];
        let mut t = 0.0;
        let mut waits = Vec::with_capacity(n);
        for _ in 0..n {
            t += inter.sample(&mut rng);
            // Earliest-free server (FIFO discipline equivalence for waits).
            let (idx, &free) = server_free
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap();
            let start = free.max(t);
            waits.push(start - t);
            server_free[idx] = start + service.sample(&mut rng);
        }
        waits
    }

    #[test]
    fn closed_form_matches_monte_carlo() {
        let (lambda, p, servers) = (20.0, 0.15, rc(4));
        let mut waits = simulate_mmc_waits(lambda, p, servers.get() as usize, 200_000, 7);
        waits.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for k in [0.5, 0.9, 0.99] {
            let analytic = wait_percentile(k, p, lambda, servers).unwrap();
            let empirical = waits[((waits.len() as f64) * k) as usize];
            let tol = 0.10 * analytic.max(0.01);
            assert!(
                (analytic - empirical).abs() < tol,
                "k={k}: analytic={analytic} empirical={empirical}"
            );
        }
        let mean_analytic = mean_wait(lambda, p, servers).unwrap();
        let mean_emp: f64 = waits.iter().sum::<f64>() / waits.len() as f64;
        assert!((mean_analytic - mean_emp).abs() < 0.1 * mean_analytic.max(0.01));
    }
}
