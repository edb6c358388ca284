//! How one job is scored: the model's knobs and the one evaluator every
//! organization of the solve shares.
//!
//! Everything below the shape of the decision vector lives here.
//! [`crate::opt::MultiTenantProblem`] reduces job `i`'s variables to a
//! pool — an effective per-request service time and a head count — and
//! asks [`Model::expected_utility`], the one evaluator, which scores
//! every step of every read: at C ≥ 2 classes with the harmonic
//! reduction of the class mix, at C = 1 with `(p × speed, x)`. A step's
//! latency has two sources, one arm of the evaluator each; both arms
//! share one interpolation and one step score. In the table arm, a C = 1
//! problem's per-solve latency tables ([`Rows`], filled by
//! [`Model::fill_latency_row`]) hold the estimator's answer at every
//! whole count for every trajectory rate, so a zero-drop read inside the
//! quota takes two row reads a step. In the estimator arm, every other
//! read (a drop rate, a count past the quota, a problem past its table
//! budget, the upper-bound estimator, C ≥ 2) asks the estimator.
//!
//! Work that does not depend on the trajectory step is done once per
//! evaluation: the head count is bracketed between two integer server
//! counts, and each count's knee latency (a function of the count
//! alone) is held from the first step past the knee on. What does
//! depend on it is done in one pass per step: the two consecutive
//! counts bracketing a fractional head count are one row pair or one
//! estimator call ([`RelaxedLatency::bracket_with_knees`], one Erlang
//! recurrence for both wherever the lower count is under its knee),
//! one interpolation between them, and a step that meets its SLO is
//! scored 1 by a comparison, not by `powf` ([`RelaxedUtility::value`]).
//!
//! Drop-adjusted rates are *asked*, not looked up: a solve visits each
//! `lambda * (1 - d)` about once (a keyed memo in front of this path
//! answered 27% of a paper-shaped `PenaltySum` solve's reads and cost
//! more than the few-step recurrence it saved), so nothing here is
//! shared between evaluations and nothing sits under a lock.

use crate::error::{Error, Result};
use crate::objective::JobUtility;
use crate::opt::{Fidelity, JobWorkload, LatencyModel};
use crate::penalty::{phi, PenaltyShape};
use crate::types::{ResourceModel, MAX_CLASSES};
use crate::units::ReplicaCount;
use crate::utility::{step_utility, RelaxedUtility};
use faro_queueing::{mdc, upper_bound, RelaxedLatency};

#[cfg(test)]
thread_local! {
    /// Knee latencies this thread's evaluations have had computed.
    pub(crate) static KNEE_RECURRENCES: std::cell::Cell<usize> =
        const { std::cell::Cell::new(0) };
    /// Calls this thread's evaluations have made into the latency
    /// estimator: one per count asked alone, one per bracket.
    pub(crate) static ESTIMATOR_CALLS: std::cell::Cell<usize> =
        const { std::cell::Cell::new(0) };
    /// Trajectory steps this thread's evaluations have scored.
    pub(crate) static STEPS_SCORED: std::cell::Cell<usize> =
        const { std::cell::Cell::new(0) };
}

/// The modelling knobs of a solve: which formulation is evaluated,
/// which estimator feeds it, and how the relaxation is shaped. Built
/// once per long-term round from [`crate::faro::FaroConfig`] and handed
/// to whichever organization of the solve runs, so none can drop one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Model {
    pub(crate) fidelity: Fidelity,
    pub(crate) latency_model: LatencyModel,
    pub(crate) relaxed_utility: RelaxedUtility,
    pub(crate) relaxed_latency: RelaxedLatency,
}

/// One job's latency table, as the evaluator reads it: the estimator's
/// answer at every whole count from one up to `width`, one row per
/// distinct trajectory rate, and which row each step reads. A row
/// stores the prefix [`Model::fill_latency_row`] returns; every count
/// past it and up to `width` is exactly the service time `p`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Rows<'a> {
    /// The stored prefixes back to back; entry `n - 1` of a row is the
    /// latency at `n` replicas.
    pub(crate) rows: &'a [f64],
    /// Row `id` is `rows[starts[id]..starts[id + 1]]`: one start per
    /// row, and one past the last.
    pub(crate) starts: &'a [u32],
    /// One row id per trajectory step, in `lambda_trajectories` order.
    pub(crate) steps: &'a [u32],
    /// The largest count a row answers for, stored or not.
    pub(crate) width: usize,
}

impl<'a> Rows<'a> {
    /// The stored prefix of row `id`.
    #[inline]
    pub(crate) fn row(&self, id: u32) -> &'a [f64] {
        let id = id as usize;
        &self.rows[self.starts[id] as usize..self.starts[id + 1] as usize]
    }
}

/// A pool as every trajectory step of one utility evaluation reads it:
/// an effective M/D/c queue at the integer head counts bracketing the
/// fractional one.
struct Pool {
    /// Effective per-request service time.
    p_eff: f64,
    /// `floor` and `ceil` of the head count; equal when it is whole, and
    /// wherever the estimator rounds it.
    servers: [ReplicaCount; 2],
    /// How far the head count is from `servers[0]` towards `servers[1]`.
    frac: f64,
    /// The knee latency at each of `servers`, from the first step past
    /// that count's knee on.
    knees: [Option<f64>; 2],
}

impl Model {
    /// The paper's defaults at the given fidelity: M/D/c, `alpha = 4`,
    /// `rho_max = 0.95`.
    pub(crate) fn new(fidelity: Fidelity) -> Self {
        Self {
            fidelity,
            latency_model: LatencyModel::MDc,
            relaxed_utility: RelaxedUtility::default(),
            relaxed_latency: RelaxedLatency::default(),
        }
    }

    /// Utility of one step's latency against the SLO target.
    #[inline]
    fn step_value(&self, latency: f64, slo_latency: f64) -> f64 {
        match self.fidelity {
            Fidelity::Precise => step_utility(latency, slo_latency),
            Fidelity::Relaxed => self.relaxed_utility.value(latency, slo_latency),
        }
    }

    /// The `phi(d) * u` record of a job at expected utility `utility`.
    #[inline]
    pub(crate) fn record(&self, job: &JobWorkload, utility: f64, drop_rate: f64) -> JobUtility {
        let shape = match self.fidelity {
            Fidelity::Precise => PenaltyShape::Step,
            Fidelity::Relaxed => PenaltyShape::Relaxed,
        };
        JobUtility {
            utility,
            effective_utility: phi(drop_rate, shape) * utility,
            priority: job.priority,
        }
    }

    /// Expected utility of `job` served by `x` (fractional) replicas of
    /// effective service time `p_eff`, averaged over trajectories and
    /// window steps (Sec. 4.1), before the drop multiplier. Each step's
    /// latency is read from `table` when its width reaches the upper
    /// bracketing count (`p_eff` past a row's stored prefix), and asked
    /// of the estimator otherwise. A table holds undropped rates at
    /// `p_eff`, so it is given for zero-drop reads only.
    #[inline]
    pub(crate) fn expected_utility(
        &self,
        job: &JobWorkload,
        p_eff: f64,
        x: f64,
        drop_rate: f64,
        table: Option<Rows<'_>>,
    ) -> f64 {
        let Some(mut pool) = self.bracket(p_eff, x) else {
            return 0.0; // Infinite latency at every step.
        };
        let kept = 1.0 - drop_rate.clamp(0.0, 1.0);
        debug_assert!(
            table.is_none() || kept == 1.0,
            "a table read at drop {drop_rate}"
        );
        let slo_latency = job.slo.latency;
        let mut sum = 0.0;
        let mut count = 0usize;
        let [lo, hi] = pool.servers.map(|n| n.get() as usize);
        if let Some(t) = table.filter(|t| hi <= t.width) {
            for &id in t.steps {
                let row = t.row(id);
                let at = |n: usize| row.get(n - 1).copied().unwrap_or(p_eff);
                let l = interpolate([at(lo), at(hi)], pool.frac);
                sum += self.step_value(l, slo_latency);
            }
            count = t.steps.len();
        } else {
            for traj in &job.lambda_trajectories {
                for &lambda in traj {
                    let l = self.latencies(job.slo.percentile, lambda * kept, &mut pool);
                    sum += self.step_value(interpolate(l, pool.frac), slo_latency);
                    count += 1;
                }
            }
        }
        #[cfg(test)]
        {
            // A knee slot is filled by the one call that computes it.
            KNEE_RECURRENCES.with(|n| n.set(n.get() + pool.knees.iter().flatten().count()));
            STEPS_SCORED.with(|n| n.set(n.get() + count));
        }
        sum / count.max(1) as f64
    }

    /// Brackets the head count `x` (at least one replica). The relaxed
    /// M/D/c bracket mirrors `RelaxedLatency::latency_fractional`; the
    /// precise and upper-bound estimators round. `None` for a head count
    /// the relaxation cannot bracket: its latency is infinite at every
    /// rate.
    #[inline]
    fn bracket(&self, p_eff: f64, x: f64) -> Option<Pool> {
        let x = x.max(1.0);
        let (lo, hi) = match (self.latency_model, self.fidelity) {
            (LatencyModel::UpperBound, _) | (LatencyModel::MDc, Fidelity::Precise) => {
                (x.round(), x.round())
            }
            (LatencyModel::MDc, Fidelity::Relaxed) if x.is_finite() => (x.floor(), x.ceil()),
            (LatencyModel::MDc, Fidelity::Relaxed) => return None,
        };
        Some(Pool {
            p_eff,
            servers: [lo, hi].map(|n| ReplicaCount::new(n as u32)),
            // Zero exactly when `lo == hi`: a whole or a rounded count.
            frac: if lo == hi { 0.0 } else { x - lo },
            knees: [None; 2],
        })
    }

    /// Estimated latencies of `pool` at percentile `k` and arrival rate
    /// `lambda` (already drop-adjusted) at its two bracketing counts:
    /// one estimate for a whole or rounded head count, one bracket
    /// otherwise.
    #[inline]
    fn latencies(&self, k: f64, lambda: f64, pool: &mut Pool) -> [f64; 2] {
        let lambda = lambda.max(0.0);
        if pool.frac == 0.0 {
            let l = self.estimate(k, lambda, pool, 0);
            return [l, l];
        }
        // Only the relaxed M/D/c estimator brackets a fractional count,
        // and its two counts are consecutive unless the head count is
        // past `u32::MAX`, where both saturate.
        let [lo, hi] = pool.servers;
        if lo.checked_add(ReplicaCount::ONE) == Some(hi) {
            #[cfg(test)]
            ESTIMATOR_CALLS.with(|n| n.set(n.get() + 1));
            self.relaxed_latency
                .bracket_with_knees(k, pool.p_eff, lambda, lo, &mut pool.knees)
                .unwrap_or([f64::INFINITY; 2])
        } else {
            [
                self.estimate(k, lambda, pool, 0),
                self.estimate(k, lambda, pool, 1),
            ]
        }
    }

    /// The configured estimator at `pool.servers[side]`; infinite where
    /// it rejects its input.
    #[inline]
    fn estimate(&self, k: f64, lambda: f64, pool: &mut Pool, side: usize) -> f64 {
        #[cfg(test)]
        ESTIMATOR_CALLS.with(|n| n.set(n.get() + 1));
        let (p_eff, servers) = (pool.p_eff, pool.servers[side]);
        match (self.latency_model, self.fidelity) {
            // One second's arrivals treated as a simultaneous burst (the
            // paper's kappa; Sec. 3.3's example uses kappa = lambda = 40
            // with p = 150 ms and 600 ms SLO -> 10 replicas), never
            // faster than one service time.
            (LatencyModel::UpperBound, _) => {
                upper_bound::completion_time(p_eff, lambda, servers).map(|w| w.max(p_eff))
            }
            (LatencyModel::MDc, Fidelity::Precise) => {
                mdc::latency_percentile(k, p_eff, lambda, servers)
            }
            (LatencyModel::MDc, Fidelity::Relaxed) => self.relaxed_latency.latency_with_knee(
                k,
                p_eff,
                lambda,
                servers,
                &mut pool.knees[side],
            ),
        }
        .unwrap_or(f64::INFINITY)
    }

    /// The job's knee latencies at replica counts `1..=len`, as far as
    /// its largest trajectory rate is past the knee — the only counts a
    /// knee latency is read at, so every row of the job is covered. The
    /// knee latency is rate-independent: computed once per job, shared
    /// by every trajectory rate. Empty under precise fidelity.
    pub(crate) fn knee_prefix(&self, job: &JobWorkload, quota: ReplicaCount) -> Vec<f64> {
        if self.fidelity == Fidelity::Precise {
            return Vec::new();
        }
        // Non-finite rates are rejected by the estimator whatever the
        // knee, so they ask for none.
        let peak = job
            .rates()
            .map(|raw| raw.max(0.0))
            .filter(|lambda| lambda.is_finite())
            .fold(0.0, f64::max);
        let p = job.processing_time;
        match self.relaxed_latency.knee_count(p, peak, quota) {
            0 => Vec::new(),
            // An error here is an invalid k/p, which fails every row of
            // the job as well.
            count => self
                .relaxed_latency
                .knee_latencies(job.slo.percentile, p, ReplicaCount::new(count))
                .unwrap_or_default(),
        }
    }

    /// One table row at rate `lambda` over the counts `1..=row.len()`:
    /// fills `row[..len]` with what [`Self::estimate`] answers at counts
    /// `1..=len` and returns `len`; at every count past `len` the answer
    /// is exactly `p`, and `row[len..]` is left unwritten. Under precise
    /// fidelity the row is [`mdc::latency_percentile_range_into`]'s,
    /// under relaxed fidelity [`RelaxedLatency::row_into`]'s over the
    /// job's knee prefix ([`Self::knee_prefix`]). A row the estimator
    /// rejects is infinite throughout, so `len` is `row.len()`.
    pub(crate) fn fill_latency_row(
        &self,
        k: f64,
        p: f64,
        lambda: f64,
        row: &mut [f64],
        knees: &[f64],
    ) -> usize {
        let stored = match self.fidelity {
            Fidelity::Precise => {
                mdc::latency_percentile_range_into(k, p, lambda, ReplicaCount::ONE, row)
            }
            Fidelity::Relaxed => self.relaxed_latency.row_into(k, p, lambda, knees, row),
        };
        stored.unwrap_or_else(|_| {
            // Invalid k/p/rate: the direct path errors at every count.
            // (`knees` reaches the job's largest rate's knee count, so it
            // falls short only where its own k/p were invalid.)
            row.fill(f64::INFINITY);
            row.len()
        })
    }
}

/// The latency `frac` of the way from the lower bracketing count's
/// to the upper one's. At a whole count both are the same entry or
/// estimate, returned as it is (a finite one plus a zero difference: a
/// negative zero comes back positive, which scores the same). The
/// relaxed estimate is finite on valid input, so a non-finite side of a
/// fractional count means the estimator rejected the call as a whole.
/// The finiteness test comes first because it is the one a step pays.
#[inline]
fn interpolate([l_lo, l_hi]: [f64; 2], frac: f64) -> f64 {
    if l_lo.is_infinite() || l_hi.is_infinite() {
        if frac == 0.0 {
            l_lo
        } else {
            f64::INFINITY
        }
    } else {
        l_lo + (l_hi - l_lo) * frac
    }
}

/// What every organization of the solve requires of its input.
///
/// # Errors
///
/// Fails when there are no jobs, a job has no trajectory or processing
/// time, the class table is longer than the [`MAX_CLASSES`] a decision
/// can carry or has a non-positive service-time multiplier, or the
/// quota cannot host one replica per job.
pub(crate) fn validate(jobs: &[JobWorkload], resources: &ResourceModel) -> Result<()> {
    if resources.n_classes() > MAX_CLASSES {
        return Err(Error::InvalidSnapshot(format!(
            "{} replica classes exceed the {MAX_CLASSES} a decision can carry",
            resources.n_classes()
        )));
    }
    if let Some(class) = resources
        .classes
        .iter()
        .find(|c| !(c.speed.is_finite() && c.speed > 0.0))
    {
        return Err(Error::InvalidSnapshot(format!(
            "class {} has service-time multiplier {}",
            class.name, class.speed
        )));
    }
    if jobs.is_empty() {
        return Err(Error::InvalidSnapshot("no jobs to optimize".into()));
    }
    for (i, j) in jobs.iter().enumerate() {
        if j.lambda_trajectories.is_empty() || j.lambda_trajectories.iter().any(Vec::is_empty) {
            return Err(Error::InvalidSnapshot(format!("job {i} has no trajectory")));
        }
        if j.processing_time.is_nan() || j.processing_time <= 0.0 {
            return Err(Error::InvalidSnapshot(format!(
                "job {i} has no processing time"
            )));
        }
    }
    if (resources.replica_quota().get() as usize) < jobs.len() {
        return Err(Error::InvalidSnapshot(format!(
            "quota {} cannot host one replica for each of {} jobs",
            resources.replica_quota(),
            jobs.len()
        )));
    }
    Ok(())
}

/// C = 1 is the scalar problem at the one class's speed: folds a
/// one-class table's service-time multiplier into every job's
/// processing time and leaves the class at speed 1, so that folding
/// twice is folding once. Anything else is left as it is.
pub(crate) fn fold_class_speed(jobs: &mut [JobWorkload], resources: &mut ResourceModel) {
    if let [class] = resources.classes.as_mut_slice() {
        for job in jobs {
            job.processing_time *= class.speed;
        }
        class.speed = 1.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Slo;

    /// Row `lambda` of a job at `(k, p)` under `model`, filled into a
    /// full-width scratch row of NaN, which past the stored prefix must
    /// stay unwritten: the prefix's length, and the row read the way the
    /// evaluator reads it, `p` past the prefix.
    fn stored_row(model: Model, k: f64, p: f64, lambda: f64, quota: u32) -> (usize, Vec<f64>) {
        let job = JobWorkload::constant(
            lambda,
            p,
            Slo {
                latency: 0.5,
                percentile: k,
            },
            1.0,
        );
        let knees = model.knee_prefix(&job, ReplicaCount::new(quota));
        let mut scratch = vec![f64::NAN; quota as usize];
        let len = model.fill_latency_row(k, p, lambda, &mut scratch, &knees);
        assert!(len <= scratch.len());
        assert!(
            scratch[len..].iter().all(|l| l.is_nan()),
            "wrote past {len}"
        );
        scratch[len..].fill(p);
        (len, scratch)
    }

    /// The estimator a row stands for, asked directly at count `n`.
    fn direct(model: Model, k: f64, p: f64, lambda: f64, n: u32) -> f64 {
        let n = ReplicaCount::new(n);
        match model.fidelity {
            Fidelity::Relaxed => model.relaxed_latency.latency(k, p, lambda, n),
            Fidelity::Precise => mdc::latency_percentile(k, p, lambda, n),
        }
        .unwrap_or(f64::INFINITY)
    }

    fn assert_row_is_direct(model: Model, k: f64, p: f64, lambda: f64, row: &[f64]) {
        for (i, got) in row.iter().enumerate() {
            let want = direct(model, k, p, lambda, i as u32 + 1);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{:?} k={k} p={p} lambda={lambda} n={}: row {got} vs direct {want}",
                model.fidelity,
                i + 1
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(if cfg!(miri) { 2 } else { 16 }))]

        /// A stored prefix plus its `p` tail is the direct estimator at
        /// every count up to the quota, bit for bit, under both
        /// fidelities, from idle through the zero-wait crossing to past
        /// saturation (`load` is the utilization at the quota). Quotas
        /// are log-uniform up to 16,000: the reference costs a
        /// recurrence per count.
        #[test]
        fn a_stored_row_and_its_tail_are_the_direct_estimator_bitwise(
            load in 0.0f64..1.6,
            idle in 0u32..8,
            p in 0.01f64..0.5,
            k in 0.5f64..0.9999,
            log_quota in 0.0f64..(if cfg!(miri) { 24f64 } else { 16_000f64 }).ln(),
        ) {
            let quota = log_quota.exp().round().max(1.0) as u32;
            let lambda = if idle == 0 { 0.0 } else { load * f64::from(quota) / p };
            for fidelity in [Fidelity::Relaxed, Fidelity::Precise] {
                let model = Model::new(fidelity);
                let (_, row) = stored_row(model, k, p, lambda, quota);
                assert_row_is_direct(model, k, p, lambda, &row);
            }
        }
    }

    /// Under a rate that leaves most of a wide pool idle, a row stores
    /// up to its first zero-wait count and not the quota.
    #[test]
    fn a_row_stores_up_to_its_first_zero_wait_count() {
        let (k, p, lambda, quota) = (0.99, 0.05, 400.0, 2_000);
        for fidelity in [Fidelity::Relaxed, Fidelity::Precise] {
            let model = Model::new(fidelity);
            let (len, row) = stored_row(model, k, p, lambda, quota);
            assert!(len > 20 && len < 60, "{fidelity:?}: stored {len}");
            assert!(
                row[len - 1] > p,
                "{fidelity:?}: the last stored count waits"
            );
            assert_row_is_direct(model, k, p, lambda, &row);
        }
    }

    /// At the median of a large pool the wait is zero while the rate is
    /// still past the knee (1,000 Erlangs: zero wait from about 1,016
    /// servers, under the knee from 1,053), so the stored length is the
    /// knee prefix.
    #[test]
    fn a_knee_prefix_past_the_zero_wait_count_is_stored_whole() {
        let (k, p, lambda, quota) = (0.5, 0.05, 20_000.0, 2_000);
        let model = Model::new(Fidelity::Relaxed);
        let mut mdc_row = vec![0.0; quota as usize];
        let waiting =
            mdc::latency_percentile_range_into(k, p, lambda, ReplicaCount::ONE, &mut mdc_row)
                .unwrap();
        let knee = model
            .relaxed_latency
            .knee_count(p, lambda, ReplicaCount::new(quota)) as usize;
        assert!(waiting < knee, "zero wait at {waiting}, knee at {knee}");
        let (len, row) = stored_row(model, k, p, lambda, quota);
        assert_eq!(len, knee);
        assert_row_is_direct(model, k, p, lambda, &row);
        // Precise fidelity has no knee: the M/D/c prefix alone.
        let (len, row) = stored_row(Model::new(Fidelity::Precise), k, p, lambda, quota);
        assert_eq!(len, waiting);
        assert_row_is_direct(Model::new(Fidelity::Precise), k, p, lambda, &row);
    }

    /// An idle row stores nothing. A rate, percentile or service time
    /// the estimator rejects is infinite at every count, and its row is
    /// stored whole, since no count of it is `p`.
    #[test]
    fn idle_rows_store_nothing_and_rejected_rows_store_everything() {
        let quota = 64;
        for fidelity in [Fidelity::Relaxed, Fidelity::Precise] {
            let model = Model::new(fidelity);
            let (len, row) = stored_row(model, 0.99, 0.18, 0.0, quota);
            assert_eq!(len, 0, "{fidelity:?}");
            assert_row_is_direct(model, 0.99, 0.18, 0.0, &row);
            for (k, p, lambda) in [
                (0.99, 0.18, f64::NAN),
                (0.99, 0.18, f64::INFINITY),
                (0.99, 0.18, -3.0),
                (1.5, 0.18, 40.0),
                (f64::NAN, 0.18, 0.0),
                (0.99, f64::INFINITY, 40.0),
                (0.99, 0.0, 0.0),
            ] {
                let (len, row) = stored_row(model, k, p, lambda, quota);
                assert_eq!(
                    len, quota as usize,
                    "{fidelity:?} k={k} p={p} lambda={lambda}"
                );
                assert!(row.iter().all(|l| l.is_infinite()), "{row:?}");
                assert_row_is_direct(model, k, p, lambda, &row);
            }
        }
    }
}
