//! The simulator as a [`ClusterBackend`]: the first backend behind the
//! backend-agnostic control plane.
//!
//! [`SimBackend`] owns the discrete-event state of a run — the event
//! queue, per-job runtimes, arrival calendars, fault injector, and
//! RNG — and exposes it through the two `faro-control` traits:
//!
//! * [`Clock::advance`] drains events (arrivals, completions, replica
//!   readiness, crashes, outage windows, minute boundaries) until the
//!   next [`Event::PolicyTick`] pops, then schedules the following tick
//!   (a fixed 10 s later, Faro's reactive interval) and returns its
//!   time. The reconciler never sees an event; it only sees reconcile
//!   rounds — and because the tick cadence is owned by
//!   the clock, not by actuation, a round whose `apply` is retried,
//!   skipped (circuit breaker open), or repeated (degraded
//!   carry-forward) neither stalls nor double-schedules the loop.
//! * [`ClusterBackend::observe`] builds the same [`ClusterSnapshot`]
//!   the old monolithic loop handed to policies, including fault-plan
//!   metric degradation (stale/missing scrapes). A stale scrape replays
//!   the job's whole frozen observation, target included, so the
//!   resilient driver's drift check reports those rounds as drift.
//! * [`ClusterBackend::apply`] actuates a [`DesiredState`]: sets drop
//!   rates and scales each listed job toward its target (new replicas
//!   enter cold start and get a crash time). Jobs absent from the
//!   desired state are untouched, and re-applying a state the cluster
//!   already satisfies is a no-op — which is what makes retrying a
//!   partial apply safe. The simulator itself never returns a
//!   [`BackendError`]; wrap it in `faro_control::ChaosBackend` to
//!   exercise the failure paths.
//!
//! Event and RNG-draw ordering are bit-for-bit identical to the former
//! in-loop actuation: `apply` pushes readiness/crash events in
//! ascending [`JobId`] order, and the insertion-sequence tie-break for
//! a cold start landing exactly on a tick is preserved — the readiness
//! event is pushed during an apply at least one full round before the
//! pop that schedules that tick (cold-start delays exceed the tick
//! interval in every config), so it keeps the smaller sequence number
//! and pops first, exactly as when applies scheduled ticks themselves.

use crate::events::{micros, seconds, Event, EventQueue, Micros};
use crate::faults::{FaultInjector, MetricOutageMode};
use crate::report::{cluster_report, utilities_from_minutes, ClusterReport, JobReport};
use crate::runtime::{ArrivalOutcome, JobRuntime};
use crate::simulator::{SimConfig, Simulation};
use faro_control::{ActuationReport, BackendError, Clock, ClusterBackend};
use faro_core::types::{ClusterSnapshot, DesiredState, JobId, JobObservation, ResourceModel};
use faro_core::units::{RatePerMin, ReplicaCount, SimTimeMs};
use faro_metrics::AvailabilityTracker;
use faro_telemetry::{Counter, NoopSink, Sample, TelemetryEvent, TelemetrySink};
use rand::prelude::*;

/// The policy tick: Faro's 10 s reactive interval.
const TICK: Micros = 10_000_000;

/// The discrete-event simulator behind the [`ClusterBackend`] surface.
///
/// Built by [`Simulation::into_backend`]; consumed by
/// [`SimBackend::finish`], which flushes the final partial minute and
/// builds the [`ClusterReport`].
pub struct SimBackend {
    config: SimConfig,
    jobs: Vec<JobRuntime>,
    rates: Vec<Vec<RatePerMin>>,
    duration_minutes: usize,
    service_params: Vec<(f64, f64)>,
    spare_z: Option<f64>,
    effective_quota: u32,
    stale_obs: Vec<Option<JobObservation>>,
    trackers: Vec<AvailabilityTracker>,
    injector: Option<FaultInjector>,
    queue: EventQueue,
    rng: StdRng,
    /// Per-job calendar of the current minute's arrival times, sorted
    /// ascending (exponential inter-arrival gaps generate them in
    /// order). Arrivals never enter the heap: [`Clock::advance`] merges
    /// the earliest calendar entry against the heap's earliest event,
    /// so the heap's standing population stays at O(busy replicas +
    /// control events) and every push and pop is shallow and
    /// cache-resident.
    minute_arrivals: Vec<Vec<Micros>>,
    arrival_idx: Vec<usize>,
    /// `next_arrival[j]`: the job's earliest pending arrival time,
    /// `Micros::MAX` when its calendar is exhausted.
    next_arrival: Vec<Micros>,
    /// Cached argmin over `next_arrival`: recomputed only when a
    /// calendar entry changes, so completion-heavy stretches pay a
    /// single comparison per event instead of a per-job scan.
    arr_at: Micros,
    arr_job: usize,
    end: Micros,
    cold: Micros,
    now: Micros,
    finished: bool,
    /// Whether the last policy tick fell inside the metric-outage
    /// window — telemetry-only state for emitting the begin/end
    /// transition events; never read by the simulation itself.
    metric_outage_active: bool,
}

impl SimBackend {
    /// Primes a backend from a configured simulation: schedules
    /// initial-fleet crash times and the outage window (when a fault
    /// plan is attached), records the t=0 availability samples, and
    /// seeds the queue with the first minute boundary and policy tick.
    pub(crate) fn new(sim: Simulation) -> Self {
        let Simulation {
            config,
            mut jobs,
            rates,
            duration_minutes,
            service_params,
            spare_z,
            faults,
            effective_quota,
            stale_obs,
            mut trackers,
        } = sim;
        let mut queue = EventQueue::new();
        let rng = StdRng::seed_from_u64(config.seed ^ 0x51b0_11fe);
        let end: Micros = duration_minutes as u64 * 60_000_000; // faro-lint: allow(raw-time-arith): micros-domain event-loop horizon, minutes->micros at the boundary
        let cold = micros(config.cold_start_secs);

        // The fault layer is strictly opt-in: with an empty plan no
        // injector exists, no fault events are scheduled, and no extra
        // RNG stream is created.
        let mut injector = if faults.is_none() {
            None
        } else {
            Some(FaultInjector::new(faults.clone(), config.seed))
        };
        if let Some(inj) = injector.as_mut() {
            // Every replica gets its crash time at creation, in creation
            // order; the initial fleet counts as created at time zero.
            for (j, job) in jobs.iter().enumerate() {
                for replica in job.live_replica_ids() {
                    if let Some(dt) = inj.crash_after() {
                        queue.push(
                            dt,
                            Event::ReplicaCrash {
                                job: JobId::new(j),
                                replica,
                            },
                        );
                    }
                }
            }
            if let Some((start, outage_end, _)) = inj.outage_window() {
                queue.push(start, Event::NodeOutageStart);
                queue.push(outage_end, Event::NodeOutageEnd);
            }
        }
        for (job, tracker) in jobs.iter_mut().zip(trackers.iter_mut()) {
            tracker.observe(0.0, job.ready_replicas(), job.target());
        }

        // Prime the event queue.
        queue.push(0, Event::MinuteBoundary { minute: 0 });
        queue.push(0, Event::PolicyTick);

        let n = jobs.len();
        Self {
            config,
            jobs,
            rates,
            duration_minutes,
            service_params,
            spare_z,
            effective_quota,
            stale_obs,
            trackers,
            injector,
            queue,
            rng,
            minute_arrivals: vec![Vec::new(); n],
            arrival_idx: vec![0; n],
            next_arrival: vec![Micros::MAX; n],
            arr_at: Micros::MAX,
            arr_job: 0,
            end,
            cold,
            now: 0,
            finished: false,
            metric_outage_active: false,
        }
    }

    /// Recomputes the cached earliest pending arrival.
    #[inline]
    fn refresh_arrival_cursor(&mut self) {
        let mut at = Micros::MAX;
        let mut aj = 0usize;
        for (j, &t) in self.next_arrival.iter().enumerate() {
            if t < at {
                at = t;
                aj = j;
            }
        }
        self.arr_at = at;
        self.arr_job = aj;
    }

    #[inline]
    fn dispatch_job(&mut self, job: usize, now: Micros) {
        while let Some(d) = self.jobs[job].dispatch_one(now) {
            // Box–Muller produces two independent normals per pair of
            // uniforms; the spare is parameter-free, so consecutive
            // draws (across jobs) each cost half a transform.
            let z = match self.spare_z.take() {
                Some(z) => z,
                None => {
                    let u1 = 1.0 - self.rng.gen::<f64>(); // (0, 1]: safe for ln().
                    let u2 = self.rng.gen::<f64>();
                    let r = (-2.0 * u1.ln()).sqrt();
                    let (sin, cos) = (core::f64::consts::TAU * u2).sin_cos();
                    self.spare_z = Some(r * sin);
                    r * cos
                }
            };
            let (mu, sigma) = self.service_params[job];
            let service = (mu + sigma * z).exp().max(1e-6);
            // Classed replicas run `speed`x slower on the wall clock,
            // but the completion payload keeps the reference-class
            // service time: `mean_processing_time` must stay the
            // solver's base `p` (the optimizer applies class
            // multipliers itself; measured slow-class times would
            // double-count them).
            let wall = match &self.config.hetero_resources {
                Some(res) => {
                    service
                        * res
                            .classes
                            .get(d.class as usize)
                            .map_or(1.0, |class| class.speed)
                }
                None => service,
            };
            self.queue.push(
                now + micros(wall),
                Event::Completion {
                    job: JobId::new(job),
                    replica: d.replica,
                    service,
                },
            );
        }
    }

    /// Records a `(ready, target)` availability sample for `job`.
    #[inline]
    fn observe_tracker(&mut self, job: usize, now: Micros) {
        let ready = self.jobs[job].ready_replicas();
        let target = self.jobs[job].target();
        self.trackers[job].observe(seconds(now), ready, target);
    }

    /// Shrinks the effective quota and evicts replicas that no longer
    /// fit, taking one at a time from the job with the most live
    /// replicas (ties break toward the lowest index) and never leaving
    /// any job below one replica.
    fn begin_node_outage(&mut self, now: Micros) {
        let Some((_, _, fraction)) = self.injector.as_ref().and_then(|i| i.outage_window()) else {
            return;
        };
        let total = self.config.total_replicas;
        let lost = (fraction * f64::from(total)).floor() as u32;
        self.effective_quota = total.saturating_sub(lost).max(self.jobs.len() as u32);
        loop {
            let live_total: u32 = self.jobs.iter().map(|j| j.live_replicas()).sum();
            if live_total <= self.effective_quota {
                break;
            }
            let victim = self
                .jobs
                .iter()
                .enumerate()
                .filter(|(_, j)| j.live_replicas() > 1)
                .max_by_key(|(i, j)| (j.live_replicas(), std::cmp::Reverse(*i)))
                .map(|(i, _)| i);
            let Some(v) = victim else {
                break;
            };
            self.jobs[v].evict_newest(now, 1);
        }
        for j in 0..self.jobs.len() {
            self.observe_tracker(j, now);
        }
    }

    /// Generates one minute's arrival calendars and schedules the next
    /// boundary.
    fn on_minute_boundary(&mut self, now: Micros, minute: usize) {
        // Finalize the minute that just ended (skip t=0).
        if minute > 0 {
            for job in &mut self.jobs {
                job.on_minute_boundary();
            }
        }
        // Generate this minute's arrivals per job: a Poisson process as
        // exponential inter-arrival gaps, which yields the calendar
        // already sorted (no separate count draw, offset pass, or
        // sort).
        for (j, rates) in self.rates.iter().enumerate() {
            let rate = rates.get(minute).map_or(0.0, |r| r.get());
            let buf = &mut self.minute_arrivals[j];
            debug_assert_eq!(
                self.arrival_idx[j],
                buf.len(),
                "all of last minute's arrivals precede its boundary"
            );
            buf.clear();
            self.arrival_idx[j] = 0;
            if rate > 0.0 && rate.is_finite() {
                let gap_scale = 60e6 / rate; // faro-lint: allow(raw-time-arith): per-minute rate to micros gap, hot arrival-generation path
                let mut t = now as f64;
                loop {
                    t += -(1.0 - self.rng.gen::<f64>()).ln() * gap_scale;
                    // faro-lint: allow(raw-time-arith): minute boundary in the micros domain
                    if t >= (now + 60_000_000) as f64 {
                        break;
                    }
                    buf.push(t as Micros);
                }
            }
            self.next_arrival[j] = buf.first().copied().unwrap_or(Micros::MAX);
        }
        self.refresh_arrival_cursor();
        if minute + 1 < self.duration_minutes {
            self.queue.push(
                now + 60_000_000, // faro-lint: allow(raw-time-arith): next minute boundary in the micros event clock
                Event::MinuteBoundary { minute: minute + 1 },
            );
        }
    }

    /// Emits the metric-outage begin/end transition event when the
    /// window state changed since the last policy tick. Telemetry-only:
    /// the observation degradation itself lives in `observe`.
    fn emit_metric_outage_transition<S: TelemetrySink + ?Sized>(
        &mut self,
        now: Micros,
        sink: &mut S,
    ) {
        let Some(inj) = self.injector.as_ref() else {
            return;
        };
        let active = inj.metric_outage_at(now).is_some();
        if active == self.metric_outage_active {
            return;
        }
        self.metric_outage_active = active;
        let event = if active {
            inj.metric_outage_began_event()
        } else {
            inj.metric_outage_ended_event()
        };
        if let Some(event) = event {
            sink.event(SimTimeMs::from_micros(now), &event);
        }
    }

    /// [`Clock::advance`] with telemetry: drains the event stream until
    /// the next policy tick pops, streaming per-request drop counters
    /// and replica/fault lifecycle events into `sink` as they happen.
    ///
    /// Monomorphized per sink: with [`NoopSink`] every emission is an
    /// inlined empty body and the event stream, RNG draws, and cluster
    /// state are bit-for-bit those of [`Clock::advance`].
    // Inline so every caller's codegen unit gets its own copy of the
    // event loop: as a shared generic the instantiation can land in a
    // sibling unit, turning the per-event helpers into calls (~10% on
    // the sweep).
    #[inline]
    pub fn advance_telemetry<S: TelemetrySink + ?Sized>(
        &mut self,
        sink: &mut S,
    ) -> Option<SimTimeMs> {
        if self.finished {
            return None;
        }
        loop {
            if self.arr_at < self.queue.peek_time().unwrap_or(Micros::MAX) {
                let (at, aj) = (self.arr_at, self.arr_job);
                if at >= self.end {
                    self.finished = true;
                    return None;
                }
                let idx = self.arrival_idx[aj] + 1;
                self.arrival_idx[aj] = idx;
                self.next_arrival[aj] = self.minute_arrivals[aj]
                    .get(idx)
                    .copied()
                    .unwrap_or(Micros::MAX);
                self.refresh_arrival_cursor();
                // The explicit-drop decision only needs randomness when
                // a drop rate is actually in force; most policies never
                // set one, so skipping the draw saves a generator call
                // per request.
                let sample = if self.jobs[aj].drop_rate() > 0.0 {
                    self.rng.gen::<f64>()
                } else {
                    1.0
                };
                match self.jobs[aj].on_arrival(at, sample) {
                    ArrivalOutcome::Queued => self.dispatch_job(aj, at),
                    ArrivalOutcome::ExplicitDrop => {
                        sink.counter(SimTimeMs::from_micros(at), Counter::ExplicitDrops, 1);
                    }
                    ArrivalOutcome::TailDrop => {
                        sink.counter(SimTimeMs::from_micros(at), Counter::TailDrops, 1);
                    }
                }
                continue;
            }
            let Some((now, event)) = self.queue.pop() else {
                self.finished = true;
                return None;
            };
            if now >= self.end {
                self.finished = true;
                return None;
            }
            match event {
                Event::MinuteBoundary { minute } => self.on_minute_boundary(now, minute),
                Event::Completion {
                    job,
                    replica,
                    service,
                } => {
                    let j = job.index();
                    let _alive = self.jobs[j].on_completion(now, replica, service);
                    self.dispatch_job(j, now);
                }
                Event::ReplicaReady { job, replica } => {
                    let j = job.index();
                    if self.jobs[j].on_replica_ready(replica) {
                        self.dispatch_job(j, now);
                    }
                    self.observe_tracker(j, now);
                    sink.event(
                        SimTimeMs::from_micros(now),
                        &TelemetryEvent::ReplicaReady { job: j, replica },
                    );
                }
                Event::ReplicaCrash { job, replica } => {
                    // A no-op when the replica was already retired or
                    // evicted; the replacement is re-requested by the
                    // desired-vs-ready reconciliation at the next tick.
                    let j = job.index();
                    let outcome = self.jobs[j].crash_replica(now, replica);
                    if outcome.removed {
                        if let Some(inj) = self.injector.as_ref() {
                            sink.event(
                                SimTimeMs::from_micros(now),
                                &inj.crash_event(job, replica, outcome),
                            );
                        }
                    }
                    self.observe_tracker(j, now);
                }
                Event::NodeOutageStart => {
                    self.begin_node_outage(now);
                    if let Some(inj) = self.injector.as_ref() {
                        sink.event(
                            SimTimeMs::from_micros(now),
                            &inj.outage_began_event(self.effective_quota),
                        );
                    }
                }
                Event::NodeOutageEnd => {
                    self.effective_quota = self.config.total_replicas;
                    for j in 0..self.jobs.len() {
                        self.observe_tracker(j, now);
                    }
                    if let Some(inj) = self.injector.as_ref() {
                        sink.event(
                            SimTimeMs::from_micros(now),
                            &inj.outage_ended_event(self.effective_quota),
                        );
                    }
                }
                Event::PolicyTick => {
                    self.now = now;
                    // The clock owns the tick cadence: scheduling the
                    // next tick here (not in `apply`) keeps the loop
                    // alive through skipped or retried applies and
                    // makes re-applying idempotent. Pushed before the
                    // round's actuation events, but readiness events
                    // colliding with a future tick were pushed at least
                    // a round earlier still, so the tie-break order is
                    // unchanged.
                    self.queue.push(now + TICK, Event::PolicyTick);
                    if sink.enabled() {
                        self.emit_metric_outage_transition(now, sink);
                    }
                    return Some(SimTimeMs::from_micros(now));
                }
            }
        }
    }

    /// [`ClusterBackend::apply`] with telemetry: every replica entering
    /// cold start emits a [`TelemetryEvent::ColdStartBegan`] event and
    /// a cold-start-delay sample (seconds). State transition, event
    /// ordering, and RNG draws are identical to `apply`.
    pub fn apply_impl<S: TelemetrySink + ?Sized>(
        &mut self,
        desired: &DesiredState,
        sink: &mut S,
    ) -> ActuationReport {
        let now = self.now;
        let mut report = ActuationReport::default();
        // Classed actuation: clone the class table out of the config so
        // the per-job loop can borrow `self` mutably. One clone per
        // apply (once a tick), not per replica.
        let hetero = self.config.hetero_resources.clone();
        // Capacity budget for spill-filling class-blind decisions:
        // classed decisions and jobs absent from this desired state
        // keep the capacity they hold; classless decisions fill what
        // remains, fastest class first, in `JobId` order.
        let mut used = [0.0; faro_core::types::RESOURCE_DIMS];
        if let Some(res) = &hetero {
            for (j, job) in self.jobs.iter().enumerate() {
                if !desired.contains(JobId::new(j)) {
                    let held = res.usage_of(&job.class_alloc(res.n_classes()));
                    for (u, h) in used.iter_mut().zip(held) {
                        *u += h;
                    }
                }
            }
            for (_, d) in desired.iter() {
                if let Some(alloc) = d.classes {
                    let held = res.usage_of(&alloc);
                    for (u, h) in used.iter_mut().zip(held) {
                        *u += h;
                    }
                }
            }
        }
        for (id, d) in desired.iter() {
            let j = id.index();
            if j >= self.jobs.len() {
                report.jobs_failed += 1;
                continue;
            }
            self.jobs[j].set_drop_rate(d.drop_rate);
            // scale_to re-adds any crashed replicas up to the target:
            // the reconciliation loop.
            let started: Vec<(u64, u8)> = match &hetero {
                Some(res) => {
                    let mut alloc = match d.classes {
                        Some(a) => a,
                        None => res.spill_fill(d.target_replicas.max(1), &mut used),
                    };
                    if alloc.total() == 0 {
                        // Every job keeps one replica, matching the
                        // scalar path's floor in `scale_to`.
                        alloc = faro_core::types::ClassAlloc::single(0, 1, res.n_classes());
                    }
                    self.jobs[j].scale_to_classed(alloc)
                }
                None => self.jobs[j]
                    .scale_to(d.target_replicas)
                    .into_iter()
                    .map(|replica| (replica, 0u8))
                    .collect(),
            };
            for (replica, class) in started {
                let base_cold = match &hetero {
                    Some(res) => res
                        .classes
                        .get(class as usize)
                        .map_or(self.config.cold_start_secs, |c| c.cold_start.as_secs()),
                    None => self.config.cold_start_secs,
                };
                let delay = match self.injector.as_mut() {
                    Some(inj) => micros(base_cold * inj.cold_start_multiplier(now)),
                    None if hetero.is_some() => micros(base_cold),
                    None => self.cold,
                };
                self.queue
                    .push(now + delay, Event::ReplicaReady { job: id, replica });
                report.replicas_started += 1;
                sink.event(
                    SimTimeMs::from_micros(now),
                    &TelemetryEvent::ColdStartBegan {
                        job: j,
                        replica,
                        delay_ms: (delay / 1000) as i64,
                    },
                );
                sink.sample(
                    SimTimeMs::from_micros(now),
                    Sample::ColdStartDelay,
                    Some(j),
                    seconds(delay),
                );
                if let Some(inj) = self.injector.as_mut() {
                    if let Some(dt) = inj.crash_after() {
                        self.queue
                            .push(now + dt, Event::ReplicaCrash { job: id, replica });
                    }
                }
            }
            // Scale-down may have freed capacity... no dispatch needed:
            // removals only shrink.
            self.observe_tracker(j, now);
            report.jobs_applied += 1;
        }
        report
    }

    /// Flushes the final partial minute and builds the run report.
    ///
    /// Call after the clock has run out ([`Clock::advance`] returned
    /// `None`); calling earlier reports the truncated run as-is.
    pub fn finish(mut self, policy_name: &str) -> ClusterReport {
        // Final partial-minute flush for accounting consistency.
        for job in &mut self.jobs {
            job.on_minute_boundary();
        }
        let end_secs = self.duration_minutes as f64 * 60.0;
        let mut trackers = std::mem::take(&mut self.trackers);
        let mut jobs = Vec::with_capacity(self.jobs.len());
        for (job, tracker) in self.jobs.iter_mut().zip(trackers.iter_mut()) {
            tracker.finish(end_secs);
            let slo = job.spec.slo;
            let tails = job.minute_percentiles();
            let arrivals: Vec<f64> = job.arrivals_per_minute().iter().map(|r| r.get()).collect();
            let drops = job.drops_per_minute().to_vec();
            let (utility, effective) =
                utilities_from_minutes(&tails, &arrivals, &drops, slo.latency);
            let minutes = utility.len().max(1) as f64;
            let acc = job.slo_accounting();
            jobs.push(JobReport {
                name: job.spec.name.clone(),
                total_requests: acc.total(),
                violations: acc.violations(),
                drops: acc.drops(),
                violation_rate: acc.violation_rate(),
                mean_utility: utility.iter().sum::<f64>() / minutes,
                mean_effective_utility: effective.iter().sum::<f64>() / minutes,
                utility_per_minute: utility,
                effective_utility_per_minute: effective,
                arrivals_per_minute: arrivals,
                crash_killed: job.crash_killed(),
                availability: tracker.availability(),
                mean_time_to_recover_secs: tracker.mean_time_to_recover().unwrap_or(0.0),
                recoveries: tracker.recovery_count() as u64,
            });
        }
        cluster_report(policy_name, self.config.total_replicas, jobs)
    }
}

impl Clock for SimBackend {
    fn now(&self) -> SimTimeMs {
        SimTimeMs::from_micros(self.now)
    }

    /// Drains the event stream until the next policy tick pops,
    /// merging per-job arrival calendars against the heap at each
    /// step. Returns `None` once the run horizon is reached or the
    /// event stream is exhausted.
    fn advance(&mut self) -> Option<SimTimeMs> {
        self.advance_telemetry(&mut NoopSink)
    }

    fn advance_with(&mut self, sink: &mut dyn TelemetrySink) -> Option<SimTimeMs> {
        self.advance_telemetry(sink)
    }
}

impl ClusterBackend for SimBackend {
    /// Infallible in practice: the in-process simulator always has a
    /// fresh snapshot. Inject [`BackendError`]s by wrapping the backend
    /// in `faro_control::ChaosBackend`.
    fn observe(&mut self) -> Result<ClusterSnapshot, BackendError> {
        let now = self.now;
        let active_outage = self.injector.as_ref().and_then(|i| i.metric_outage_at(now));
        // While a stale-mode outage has not started yet, keep caching
        // the freshest observation so the frozen scrape has something
        // to replay.
        let stale_pending = self
            .injector
            .as_ref()
            .and_then(|i| i.plan().metric_outage.as_ref())
            .filter(|m| m.mode == MetricOutageMode::Stale && now < micros(m.start_secs));
        let mut jobs = Vec::with_capacity(self.jobs.len());
        for (j, job) in self.jobs.iter_mut().enumerate() {
            let id = JobId::new(j);
            let mut obs = job.observe(now);
            if let Some(m) = stale_pending {
                if m.jobs.contains(&id) {
                    self.stale_obs[j] = Some(obs.clone());
                }
            }
            if let Some(m) = active_outage {
                if m.jobs.contains(&id) {
                    match m.mode {
                        MetricOutageMode::Stale => {
                            if let Some(cached) = &self.stale_obs[j] {
                                obs = cached.clone();
                            }
                        }
                        MetricOutageMode::Missing => {
                            obs.recent_arrival_rate = f64::NAN;
                            obs.recent_tail_latency = f64::NAN;
                            let cut = (m.start_secs / 60.0).floor() as usize;
                            // Detach from the runtime's shared history
                            // before poisoning the outage window.
                            let history = std::sync::Arc::make_mut(&mut obs.arrival_rate_history);
                            for v in history.iter_mut().skip(cut) {
                                *v = RatePerMin::NAN;
                            }
                        }
                    }
                }
            }
            jobs.push(obs);
        }
        // Classed clusters report the configured class table verbatim
        // (node-outage quota shrink is rejected at setup in that
        // regime); scalar clusters report the outage-adjusted quota.
        let resources = match &self.config.hetero_resources {
            Some(res) => res.clone(),
            None => ResourceModel::replicas(ReplicaCount::new(self.effective_quota)),
        };
        Ok(ClusterSnapshot {
            now: SimTimeMs::from_micros(now),
            resources,
            jobs,
        })
    }

    fn apply(&mut self, desired: &DesiredState) -> Result<ActuationReport, BackendError> {
        Ok(self.apply_impl(desired, &mut NoopSink))
    }

    fn apply_with(
        &mut self,
        desired: &DesiredState,
        sink: &mut dyn TelemetrySink,
    ) -> Result<ActuationReport, BackendError> {
        Ok(self.apply_impl(desired, sink))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::QUEUE_THRESHOLD;
    use crate::simulator::JobSetup;
    use faro_core::baselines::FairShare;
    use faro_core::policy::Policy;
    use faro_core::types::JobSpec;
    use faro_trace::generator::MINUTES_PER_DAY;
    use faro_trace::{TraceKind, TraceSpec};

    /// `n` jobs replaying `days` of seeded traces (every tenth
    /// Twitter-like, as in Table 8's duplicated set).
    fn traced_jobs(n: usize, days: usize, max_rate: f64) -> Vec<JobSetup> {
        (0..n)
            .map(|i| {
                let kind = if (i + 1) % 10 == 0 {
                    TraceKind::TwitterLike
                } else {
                    TraceKind::AzureLike
                };
                let trace = TraceSpec {
                    kind,
                    seed: 42 + i as u64 * 7919,
                    days,
                    min_rate: 1.0,
                    max_rate,
                }
                .generate();
                JobSetup {
                    spec: JobSpec::resnet34(format!("job-{i}")),
                    rates_per_minute: trace.rates_per_minute,
                    initial_replicas: 1,
                }
            })
            .collect()
    }

    /// Runs FairShare tick by tick, handing the backend to `at_tick`
    /// after every round.
    fn run_fair_share(
        setups: Vec<JobSetup>,
        total_replicas: u32,
        mut at_tick: impl FnMut(&SimBackend),
    ) -> SimBackend {
        let config = SimConfig {
            total_replicas,
            seed: 7,
            ..SimConfig::default()
        };
        let mut backend = SimBackend::new(Simulation::new(config, setups).unwrap());
        let mut policy = FairShare;
        while backend.advance().is_some() {
            let snapshot = backend.observe().unwrap();
            backend.apply(&policy.decide(&snapshot)).unwrap();
            at_tick(&backend);
        }
        backend
    }

    /// The per-minute series keeps one open minute: over a two-day run
    /// no job ever holds more latency samples than its busiest minute's
    /// arrivals plus the requests a minute can inherit from the one
    /// before (a full queue and every replica busy).
    #[test]
    fn latency_samples_held_never_exceed_the_busiest_minute() {
        let quota = 12;
        let mut peak = [0usize; 3];
        let backend = run_fair_share(traced_jobs(3, 2, 600.0), quota, |b| {
            for (p, job) in peak.iter_mut().zip(&b.jobs) {
                *p = (*p).max(job.retained_latencies());
            }
        });
        for (p, job) in peak.iter().zip(&backend.jobs) {
            let busiest = job
                .arrivals_per_minute()
                .iter()
                .map(|r| r.get() as usize)
                .max()
                .unwrap();
            let bound = busiest + QUEUE_THRESHOLD + quota as usize;
            assert!(*p > 0 && *p <= bound, "{p} samples held, bound {bound}");
            assert!(job.slo_accounting().total() > 100 * bound as u64);
        }
    }

    /// `VmHWM` (peak resident set) of this process in kB.
    fn peak_rss_kb() -> u64 {
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .unwrap()
    }

    /// A simulated week at Table 8's 100 jobs under FairShare: the
    /// latency samples held and the peak resident set after day 7 stay
    /// within a band of day 1. The band on memory is what the run's
    /// per-minute stores (arrivals, drops, tails: 32 bytes a job-minute)
    /// may add, with room for vector doubling; storing every latency
    /// instead adds about 8 bytes per request, over 1 KB a job-minute
    /// here. Run with `cargo test --release -p faro-sim --lib --
    /// --ignored --exact backend::tests::a_simulated_week_stays_within_its_day_one_band`.
    #[test]
    #[ignore = "a simulated week: about 35 s in release on 2 vCPUs"]
    fn a_simulated_week_stays_within_its_day_one_band() {
        const JOBS: usize = 100;
        const DAYS: usize = 7;
        const BYTES_PER_JOB_MINUTE: u64 = 128;
        let mut held_by_day = [0usize; DAYS];
        let mut rss_kb_by_day = [0u64; DAYS];
        run_fair_share(traced_jobs(JOBS, DAYS, 400.0), 320, |b| {
            let day = (seconds(b.now) / 60.0) as usize / MINUTES_PER_DAY;
            let held = b.jobs.iter().map(JobRuntime::retained_latencies).sum();
            held_by_day[day] = held_by_day[day].max(held);
            rss_kb_by_day[day] = peak_rss_kb();
        });
        let (held_1, held_7) = (held_by_day[0], held_by_day[DAYS - 1]);
        assert!(
            held_7 <= 2 * held_1,
            "samples held: day 1 {held_1}, day 7 {held_7}"
        );
        let (rss_1, rss_7) = (rss_kb_by_day[0], rss_kb_by_day[DAYS - 1]);
        let growth_kb = (JOBS * (DAYS - 1) * MINUTES_PER_DAY) as u64 * BYTES_PER_JOB_MINUTE / 1024;
        assert!(
            rss_7 <= rss_1 + growth_kb,
            "VmHWM: day 1 {rss_1} kB, day 7 {rss_7} kB, band {growth_kb} kB"
        );
    }
}
