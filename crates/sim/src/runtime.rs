//! Per-job runtime: the Ray-Serve-like router and its replicas.
//!
//! Each job owns a FIFO router queue with tail drop (threshold 50,
//! paper Sec. 5), an explicit drop rate set by the autoscaler
//! (Faro-Penalty variants), and a set of single-request replicas with
//! cold-start delays. The router continually collects the metrics the
//! paper's modified Ray router exports: arrival rates, average
//! per-request processing time, and recent tail latency.

use crate::events::{seconds, Micros};
use faro_core::types::{ClassAlloc, JobObservation, JobSpec};
use faro_core::units::RatePerMin;
use faro_metrics::percentile::percentile_by_selection;
use faro_metrics::slo::{MinuteSeries, SloAccounting};
use std::collections::VecDeque;
use std::sync::Arc;

/// Router tail-drop threshold (paper Sec. 5; values in [20, 100]
/// behaved similarly).
pub const QUEUE_THRESHOLD: usize = 50;

/// Metrics window for "recent" observations: 30 s.
const RECENT_WINDOW: Micros = 30_000_000;

/// State of one replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReplicaState {
    /// Cold-starting; becomes idle at the recorded time.
    Cold,
    /// Ready and waiting for work.
    Idle,
    /// Serving one request. Carrying the request's arrival time here
    /// (instead of a side map keyed by replica id) saves a map insert
    /// and remove on every request.
    Busy {
        /// Arrival time of the request being served.
        arrival: Micros,
    },
}

#[derive(Debug, Clone)]
struct Replica {
    state: ReplicaState,
    /// Marked for removal; disappears as soon as it is not busy.
    retiring: bool,
    /// Replica class index (always 0 on homogeneous backends).
    class: u8,
}

/// What the router did with an arriving request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalOutcome {
    /// Queued for service.
    Queued,
    /// Dropped by the explicit drop rate (autoscaler-instructed).
    ExplicitDrop,
    /// Tail-dropped: the queue hit its threshold (HTTP 503).
    TailDrop,
}

/// Result of a [`JobRuntime::crash_replica`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashOutcome {
    /// The replica existed and was removed.
    pub removed: bool,
    /// An in-flight request died with the replica.
    pub killed_request: bool,
}

/// A dispatched request: serve it on `replica`, completing after the
/// service time chosen by the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dispatch {
    /// Replica now serving the request.
    pub replica: u64,
    /// The request's arrival time (for latency accounting).
    pub arrival: Micros,
    /// Class of the serving replica (0 on homogeneous backends); the
    /// caller applies the class's service-time multiplier.
    pub class: u8,
}

/// Per-job runtime state and metrics.
#[derive(Debug)]
pub struct JobRuntime {
    /// Static spec, interned so each observation shares it instead of
    /// deep-copying the name/SLO every tick.
    pub spec: Arc<JobSpec>,
    queue: VecDeque<Micros>,
    /// Live replicas, sorted ascending by id. Ids are handed out
    /// monotonically so inserts are pushes; lookups are binary searches
    /// over a few dozen contiguous entries, which beats a `BTreeMap`'s
    /// pointer-chasing at this size on the two map hits every request
    /// pays (dispatch and completion).
    replicas: Vec<(u64, Replica)>,
    /// Ids of idle, non-retiring replicas — the dispatchable set,
    /// sorted ascending. Kept in lockstep with `replicas` so the
    /// per-request dispatch path is O(dispatched), not O(all
    /// replicas). A sorted `Vec` beats a `BTreeSet` at replica-count
    /// sizes (a few dozen ids, one cache line or two); ascending order
    /// preserves the lowest-id-first assignment the full scan had.
    idle: Vec<u64>,
    /// Count of live (non-retiring) replicas, cold included. Cached so
    /// the per-completion excess-capacity check is O(1).
    live_count: u32,
    next_replica: u64,
    target: u32,
    /// Per-class breakdown of `target` (heterogeneous backends only;
    /// `None` and untouched on homogeneous runs).
    class_target: Option<ClassAlloc>,
    drop_rate: f64,

    // Metrics.
    minute_latencies: MinuteSeries,
    slo: SloAccounting,
    /// Finalized per-minute arrival counts, shared copy-on-write with
    /// the observations built by [`JobRuntime::observe`]: a snapshot
    /// clones the `Arc` (O(1)); the once-a-minute push copies the
    /// backing vector only while a policy still holds a reference.
    /// One-minute buckets make the count per minute a rate per minute.
    arrivals_per_minute: Arc<Vec<RatePerMin>>,
    drops_per_minute: Vec<u64>,
    current_minute_arrivals: u64,
    current_minute_drops: u64,
    /// (time, latency or +inf) of recently finished/dropped requests.
    recent: VecDeque<(Micros, f64)>,
    /// Scratch for the recent window's tail selection, reused across
    /// observations.
    recent_scratch: Vec<f64>,
    recent_arrivals: VecDeque<Micros>,
    proc_sum: f64,
    proc_count: u64,
    /// In-flight requests killed by replica crashes/evictions.
    crash_killed: u64,
}

impl JobRuntime {
    /// Creates a runtime with `initial` ready replicas.
    ///
    /// Invariant: `initial >= 1`. Every job keeps at least one replica
    /// at all times ([`JobRuntime::scale_to`] floors its target at 1),
    /// so a zero-replica start would silently disagree with the rest of
    /// the runtime. Callers must validate — [`crate::Simulation::new`]
    /// rejects `initial_replicas == 0` with a typed error instead of
    /// clamping it here.
    pub fn new(spec: JobSpec, initial: u32) -> Self {
        debug_assert!(initial >= 1, "initial replicas must be >= 1");
        let mut rt = Self {
            slo: SloAccounting::new(spec.slo.latency),
            minute_latencies: MinuteSeries::new(spec.slo.percentile),
            spec: Arc::new(spec),
            queue: VecDeque::new(),
            replicas: Vec::new(),
            idle: Vec::new(),
            live_count: 0,
            next_replica: 0,
            target: initial,
            class_target: None,
            drop_rate: 0.0,
            arrivals_per_minute: Arc::new(Vec::new()),
            drops_per_minute: Vec::new(),
            current_minute_arrivals: 0,
            current_minute_drops: 0,
            recent: VecDeque::new(),
            recent_scratch: Vec::new(),
            recent_arrivals: VecDeque::new(),
            proc_sum: 0.0,
            proc_count: 0,
            crash_killed: 0,
        };
        for _ in 0..initial {
            let id = rt.next_replica;
            rt.next_replica += 1;
            rt.replicas.push((
                id,
                Replica {
                    state: ReplicaState::Idle,
                    retiring: false,
                    class: 0,
                },
            ));
            rt.idle.push(id);
            rt.live_count += 1;
        }
        rt
    }

    /// Current autoscale target.
    pub fn target(&self) -> u32 {
        self.target
    }

    /// Explicit drop rate in force.
    #[inline]
    pub fn drop_rate(&self) -> f64 {
        self.drop_rate
    }

    /// Replicas able to serve (idle or busy, not cold, not retiring).
    pub fn ready_replicas(&self) -> u32 {
        self.replicas
            .iter()
            .filter(|(_, r)| !r.retiring && r.state != ReplicaState::Cold)
            .count() as u32
    }

    /// All live replicas including cold-starting ones. O(1): the count
    /// is maintained across every insert/remove/retire.
    pub fn live_replicas(&self) -> u32 {
        debug_assert_eq!(
            self.live_count,
            self.replicas.iter().filter(|(_, r)| !r.retiring).count() as u32,
            "cached live count drifted from the replica set"
        );
        self.live_count
    }

    /// Router queue length.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Handles an arrival; the caller supplies a uniform sample in
    /// `[0, 1)` for the explicit-drop decision.
    #[inline]
    pub fn on_arrival(&mut self, now: Micros, drop_sample: f64) -> ArrivalOutcome {
        self.current_minute_arrivals += 1;
        self.recent_arrivals.push_back(now);
        if drop_sample < self.drop_rate {
            self.record_drop(now);
            return ArrivalOutcome::ExplicitDrop;
        }
        if self.queue.len() >= QUEUE_THRESHOLD {
            self.record_drop(now);
            return ArrivalOutcome::TailDrop;
        }
        self.queue.push_back(now);
        ArrivalOutcome::Queued
    }

    /// Assigns one queued request to the lowest-id idle replica, if
    /// both exist. O(log idle): no per-call scan of the replica map and
    /// no output allocation — the hot loop in the simulator calls this
    /// until it returns `None`.
    pub fn dispatch_one(&mut self, _now: Micros) -> Option<Dispatch> {
        if self.queue.is_empty() {
            return None;
        }
        if self.idle.is_empty() {
            return None;
        }
        let id = self.idle.remove(0);
        #[expect(
            clippy::expect_used,
            reason = "invariant: queue checked non-empty above"
        )]
        let arrival = self
            .queue
            .pop_front()
            .expect("invariant: queue checked non-empty above");
        #[expect(
            clippy::expect_used,
            reason = "invariant: idle set mirrors the live replica set"
        )]
        let pos = self
            .replica_pos(id)
            .expect("invariant: idle set mirrors the live replica set");
        self.replicas[pos].1.state = ReplicaState::Busy { arrival };
        Some(Dispatch {
            replica: id,
            arrival,
            class: self.replicas[pos].1.class,
        })
    }

    /// Assigns queued requests to idle replicas; returns the dispatches
    /// (the caller schedules completions after sampling service times).
    pub fn dispatch(&mut self, now: Micros) -> Vec<Dispatch> {
        std::iter::from_fn(|| self.dispatch_one(now)).collect()
    }

    /// Completes the request on `replica`, recording its latency and the
    /// measured service time. Returns `true` if the replica stays alive.
    #[inline]
    pub fn on_completion(&mut self, now: Micros, replica: u64, service_time: f64) -> bool {
        // Stale completions (the replica crashed or was evicted since
        // dispatch) fall through both lookups harmlessly.
        let Some(pos) = self.replica_pos(replica) else {
            return true;
        };
        let (arrival, alive, class) = {
            let r = &mut self.replicas[pos].1;
            let ReplicaState::Busy { arrival } = r.state else {
                return true;
            };
            r.state = ReplicaState::Idle;
            (arrival, !r.retiring && self.target >= 1, r.class)
        };
        let latency = seconds(now.saturating_sub(arrival));
        self.minute_latencies.record(seconds(now), latency);
        self.slo.record_latency(latency);
        self.recent.push_back((now, latency));
        self.proc_sum += service_time;
        self.proc_count += 1;

        if !alive {
            // Retiring replicas were already dropped from `live_count`
            // when they were marked.
            self.replicas.remove(pos);
            return false;
        }
        // Excess capacity after a scale-down: retire this now-idle one
        // (in classed mode, only when its own class is over target).
        if self.live_count > self.target && self.class_over(class) {
            self.replicas.remove(pos);
            self.live_count -= 1;
            return false;
        }
        self.idle_insert(replica);
        true
    }

    /// Applies a new target; returns the ids of replicas that started
    /// cold (the caller schedules their `ReplicaReady` events).
    pub fn scale_to(&mut self, target: u32) -> Vec<u64> {
        let target = target.max(1);
        self.target = target;
        self.class_target = None;
        self.scale_pool(None, self.live_replicas(), target)
    }

    /// Applies a per-class target; returns `(id, class)` pairs for the
    /// replicas that started cold so the caller can schedule their
    /// `ReplicaReady` events with per-class cold-start delays. The
    /// victim priority of [`JobRuntime::scale_to`], applied class by
    /// class.
    pub fn scale_to_classed(&mut self, alloc: ClassAlloc) -> Vec<(u64, u8)> {
        debug_assert!(alloc.total() >= 1, "classed target must keep >= 1 replica");
        self.target = alloc.total().max(1);
        self.class_target = Some(alloc);
        let mut new_ids = Vec::new();
        for c in 0..alloc.n_classes() {
            let class = c as u8;
            let live = self.live_of_class(class);
            let started = self.scale_pool(Some(class), live, alloc.count(c));
            new_ids.extend(started.into_iter().map(|id| (id, class)));
        }
        new_ids
    }

    /// Moves one pool — the replicas of `class`, or every replica when
    /// `None` — from `live` to `want` and returns the ids started cold
    /// (on class 0 in scalar mode). Scale-down removes cold replicas
    /// first, then idle ones, each by ascending id, then marks busy
    /// ones retiring.
    fn scale_pool(&mut self, class: Option<u8>, live: u32, want: u32) -> Vec<u64> {
        let in_pool = |r: &Replica| !r.retiring && class.is_none_or(|c| r.class == c);
        let mut new_ids = Vec::new();
        for _ in live..want {
            let id = self.next_replica;
            self.next_replica += 1;
            self.replicas.push((
                id,
                Replica {
                    state: ReplicaState::Cold,
                    retiring: false,
                    class: class.unwrap_or(0),
                },
            ));
            new_ids.push(id);
            self.live_count += 1;
        }
        let mut excess = live.saturating_sub(want);
        if excess == 0 {
            return new_ids;
        }
        let mut removable: Vec<(u64, ReplicaState)> = self
            .replicas
            .iter()
            .filter(|(_, r)| in_pool(r) && !matches!(r.state, ReplicaState::Busy { .. }))
            .map(|&(id, ref r)| (id, r.state))
            .collect();
        removable.sort_by_key(|&(id, state)| (state != ReplicaState::Cold, id));
        for (id, _) in removable {
            if excess == 0 {
                break;
            }
            if let Some(pos) = self.replica_pos(id) {
                self.replicas.remove(pos);
            }
            self.idle_remove(id);
            self.live_count -= 1;
            excess -= 1;
        }
        if excess > 0 {
            let busy: Vec<u64> = self
                .replicas
                .iter()
                .filter(|(_, r)| in_pool(r) && matches!(r.state, ReplicaState::Busy { .. }))
                .map(|&(id, _)| id)
                .collect();
            for id in busy {
                if excess == 0 {
                    break;
                }
                #[expect(
                    clippy::expect_used,
                    reason = "invariant: busy id came from the replica set"
                )]
                let pos = self
                    .replica_pos(id)
                    .expect("invariant: busy id came from the replica set");
                // A retiring replica no longer counts as live: it
                // vanishes at its next completion.
                self.replicas[pos].1.retiring = true;
                self.live_count -= 1;
                excess -= 1;
            }
        }
        new_ids
    }

    /// The job's current per-class allocation: its classed target when
    /// one is set, otherwise the scalar target parked on class 0 (the
    /// class every replica carries until a classed scale assigns one).
    /// Used by the backend to price the capacity a job already holds
    /// when spill-filling class-blind decisions.
    pub(crate) fn class_alloc(&self, n_classes: usize) -> ClassAlloc {
        match self.class_target {
            Some(t) => t,
            None => ClassAlloc::single(0, self.target, n_classes),
        }
    }

    /// Live (non-retiring) replicas of one class, cold included.
    fn live_of_class(&self, class: u8) -> u32 {
        self.replicas
            .iter()
            .filter(|(_, r)| !r.retiring && r.class == class)
            .count() as u32
    }

    /// Whether a replica of `class` is over its target: always true in
    /// scalar mode (the total check already fired), per-class in
    /// classed mode so a scale-down never retires the wrong hardware.
    fn class_over(&self, class: u8) -> bool {
        match &self.class_target {
            None => true,
            Some(t) => self.live_of_class(class) > t.count(class as usize),
        }
    }

    /// Per-class breakdown of ready replicas (`None` in scalar mode).
    fn class_ready(&self) -> Option<ClassAlloc> {
        let target = self.class_target?;
        let mut ready = ClassAlloc::zero(target.n_classes());
        for (_, r) in &self.replicas {
            if !r.retiring && r.state != ReplicaState::Cold {
                ready.add(r.class as usize, 1);
            }
        }
        Some(ready)
    }

    /// Sets the explicit drop rate.
    pub fn set_drop_rate(&mut self, d: f64) {
        self.drop_rate = d.clamp(0.0, 1.0);
    }

    /// Marks a cold replica ready. Returns `true` if it joined service.
    pub fn on_replica_ready(&mut self, replica: u64) -> bool {
        let Some(pos) = self.replica_pos(replica) else {
            return false;
        };
        let r = &self.replicas[pos].1;
        if r.retiring {
            self.replicas.remove(pos);
            return false;
        }
        if r.state != ReplicaState::Cold {
            return false;
        }
        // A scale-down may have landed while cold-starting.
        let class = r.class;
        if self.live_count > self.target && self.class_over(class) {
            self.replicas.remove(pos);
            self.live_count -= 1;
            return false;
        }
        self.replicas[pos].1.state = ReplicaState::Idle;
        self.idle_insert(replica);
        true
    }

    /// Kills a replica outright (fault injection). The quota slot is
    /// freed immediately; any in-flight request dies with the replica
    /// and is accounted as an SLO violation with infinite latency,
    /// tracked separately from drops (see [`JobRuntime::crash_killed`]).
    /// A no-op for replicas that no longer exist (a crash scheduled for
    /// a replica that was since retired or evicted).
    pub fn crash_replica(&mut self, now: Micros, replica: u64) -> CrashOutcome {
        let Some(pos) = self.replica_pos(replica) else {
            return CrashOutcome {
                removed: false,
                killed_request: false,
            };
        };
        let (_, victim) = self.replicas.remove(pos);
        self.idle_remove(replica);
        if !victim.retiring {
            self.live_count -= 1;
        }
        let killed_request = matches!(victim.state, ReplicaState::Busy { .. });
        if killed_request {
            self.crash_killed += 1;
            // Mirrors record_drop's latency accounting (the requester
            // never got a response) without counting it as a drop.
            self.slo.record_latency(f64::INFINITY);
            self.minute_latencies.record(seconds(now), f64::INFINITY);
            self.recent.push_back((now, f64::INFINITY));
        }
        CrashOutcome {
            removed: true,
            killed_request,
        }
    }

    /// Evicts up to `n` live replicas, newest first regardless of state
    /// (a node outage does not pick victims politely); busy victims
    /// lose their in-flight request as in [`JobRuntime::crash_replica`].
    /// Returns how many were evicted.
    pub fn evict_newest(&mut self, now: Micros, n: u32) -> u32 {
        let mut ids: Vec<u64> = self
            .replicas
            .iter()
            .filter(|(_, r)| !r.retiring)
            .map(|&(id, _)| id)
            .collect();
        ids.sort_unstable_by(|a, b| b.cmp(a));
        let mut evicted = 0;
        for id in ids {
            if evicted == n {
                break;
            }
            if self.crash_replica(now, id).removed {
                evicted += 1;
            }
        }
        evicted
    }

    /// In-flight requests killed by crashes/evictions so far.
    pub fn crash_killed(&self) -> u64 {
        self.crash_killed
    }

    /// Identifiers of all live (non-retiring) replicas, ascending.
    pub fn live_replica_ids(&self) -> Vec<u64> {
        self.replicas
            .iter()
            .filter(|(_, r)| !r.retiring)
            .map(|&(id, _)| id)
            .collect()
    }

    /// Finalizes the minute that just ended.
    pub fn on_minute_boundary(&mut self) {
        // Copy-on-write: clones the backing vector only when an
        // observation from a previous tick still shares it.
        Arc::make_mut(&mut self.arrivals_per_minute)
            .push(RatePerMin::new(self.current_minute_arrivals as f64));
        self.drops_per_minute.push(self.current_minute_drops);
        self.current_minute_arrivals = 0;
        self.current_minute_drops = 0;
    }

    /// Builds the policy-facing observation. O(recent window), not
    /// O(elapsed trace): the spec and arrival history are shared via
    /// `Arc`, and the tail percentile uses O(n) selection in a reused
    /// buffer instead of a full sort.
    pub fn observe(&mut self, now: Micros) -> JobObservation {
        self.trim_recent(now);
        self.recent_scratch.clear();
        self.recent_scratch
            .extend(self.recent.iter().map(|&(_, l)| l));
        let tail = percentile_by_selection(&mut self.recent_scratch, self.spec.slo.percentile)
            .unwrap_or(0.0);
        let window_secs = seconds(RECENT_WINDOW);
        JobObservation {
            spec: Arc::clone(&self.spec),
            target_replicas: self.target,
            ready_replicas: self.ready_replicas(),
            queue_len: self.queue.len(),
            arrival_rate_history: Arc::clone(&self.arrivals_per_minute),
            recent_arrival_rate: self.recent_arrivals.len() as f64 / window_secs,
            mean_processing_time: if self.proc_count > 0 {
                self.proc_sum / self.proc_count as f64
            } else {
                self.spec.processing_time
            },
            recent_tail_latency: tail,
            drop_rate: self.drop_rate,
            class_target: self.class_target,
            class_ready: self.class_ready(),
        }
    }

    /// SLO accounting so far.
    pub fn slo_accounting(&self) -> &SloAccounting {
        &self.slo
    }

    /// Per-minute tail latency at the job's SLO percentile (drops
    /// count as infinite latency).
    pub fn minute_percentiles(&mut self) -> Vec<Option<f64>> {
        self.minute_latencies.percentile_series()
    }

    /// Latency samples held for the open minute (test-only
    /// introspection of the series' memory).
    #[cfg(test)]
    pub(crate) fn retained_latencies(&self) -> usize {
        self.minute_latencies.retained()
    }

    /// Finalized per-minute arrival counts.
    pub fn arrivals_per_minute(&self) -> &[RatePerMin] {
        &self.arrivals_per_minute
    }

    /// Finalized per-minute drop counts.
    pub fn drops_per_minute(&self) -> &[u64] {
        &self.drops_per_minute
    }

    fn record_drop(&mut self, now: Micros) {
        self.current_minute_drops += 1;
        self.slo.record_drop();
        self.minute_latencies.record(seconds(now), f64::INFINITY);
        self.recent.push_back((now, f64::INFINITY));
    }

    /// Ids of replicas currently serving a request, ascending
    /// (test-only introspection; the hot path never needs the list).
    #[cfg(test)]
    fn busy_ids(&self) -> Vec<u64> {
        self.replicas
            .iter()
            .filter(|(_, r)| matches!(r.state, ReplicaState::Busy { .. }))
            .map(|&(id, _)| id)
            .collect()
    }

    /// Index of `id` in the sorted replica vector, if present.
    fn replica_pos(&self, id: u64) -> Option<usize> {
        self.replicas.binary_search_by_key(&id, |&(i, _)| i).ok()
    }

    /// Inserts `id` into the sorted idle set (no-op when present).
    fn idle_insert(&mut self, id: u64) {
        if let Err(pos) = self.idle.binary_search(&id) {
            self.idle.insert(pos, id);
        }
    }

    /// Removes `id` from the sorted idle set (no-op when absent).
    fn idle_remove(&mut self, id: u64) {
        if let Ok(pos) = self.idle.binary_search(&id) {
            self.idle.remove(pos);
        }
    }

    /// Drops window-expired entries from the recent deques. Called
    /// from [`JobRuntime::observe`] (which reads them) rather than on
    /// every arrival/completion: between ticks the deques grow by at
    /// most one tick's worth of requests beyond the window, and the
    /// observation is identical because it trims before reading.
    fn trim_recent(&mut self, now: Micros) {
        let cutoff = now.saturating_sub(RECENT_WINDOW);
        while matches!(self.recent.front(), Some(&(t, _)) if t < cutoff) {
            self.recent.pop_front();
        }
        while matches!(self.recent_arrivals.front(), Some(&t) if t < cutoff) {
            self.recent_arrivals.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::micros;

    fn rt(initial: u32) -> JobRuntime {
        JobRuntime::new(JobSpec::resnet34("t"), initial)
    }

    #[test]
    fn arrival_queue_dispatch_completion_cycle() {
        let mut j = rt(1);
        assert_eq!(j.on_arrival(0, 0.9), ArrivalOutcome::Queued);
        let d = j.dispatch(0);
        assert_eq!(d.len(), 1);
        assert_eq!(j.queue_len(), 0);
        // Second arrival waits: the only replica is busy.
        assert_eq!(j.on_arrival(1000, 0.9), ArrivalOutcome::Queued);
        assert!(j.dispatch(1000).is_empty());
        // Complete the first: latency is 180 ms.
        let alive = j.on_completion(micros(0.18), d[0].replica, 0.18);
        assert!(alive);
        let d2 = j.dispatch(micros(0.18));
        assert_eq!(d2.len(), 1, "queued request dispatched after completion");
        assert_eq!(j.slo_accounting().total(), 1);
        assert_eq!(j.slo_accounting().violations(), 0);
    }

    #[test]
    fn tail_drop_at_threshold() {
        let mut j = rt(1);
        // Make the replica busy first.
        assert_eq!(j.on_arrival(0, 0.9), ArrivalOutcome::Queued);
        let _ = j.dispatch(0);
        // Fill the queue to its threshold.
        for i in 0..QUEUE_THRESHOLD as u64 {
            assert_eq!(j.on_arrival(i, 0.9), ArrivalOutcome::Queued, "i={i}");
        }
        assert_eq!(j.on_arrival(10, 0.9), ArrivalOutcome::TailDrop);
        assert_eq!(j.slo_accounting().drops(), 1);
    }

    #[test]
    fn explicit_drop_rate() {
        let mut j = rt(1);
        j.set_drop_rate(0.5);
        assert_eq!(j.on_arrival(0, 0.4), ArrivalOutcome::ExplicitDrop);
        assert_eq!(j.on_arrival(0, 0.6), ArrivalOutcome::Queued);
        assert_eq!(j.drop_rate(), 0.5);
    }

    #[test]
    fn scale_up_goes_through_cold_start() {
        let mut j = rt(1);
        let new = j.scale_to(3);
        assert_eq!(new.len(), 2);
        assert_eq!(j.ready_replicas(), 1, "cold replicas not ready yet");
        assert_eq!(j.live_replicas(), 3);
        for id in new {
            assert!(j.on_replica_ready(id));
        }
        assert_eq!(j.ready_replicas(), 3);
    }

    #[test]
    fn scale_down_removes_idle_immediately() {
        let mut j = rt(4);
        assert!(j.scale_to(2).is_empty());
        assert_eq!(j.live_replicas(), 2);
        assert_eq!(j.ready_replicas(), 2);
    }

    #[test]
    fn scale_down_drains_busy_replicas() {
        let mut j = rt(2);
        j.on_arrival(0, 0.9);
        j.on_arrival(0, 0.9);
        let d = j.dispatch(0);
        assert_eq!(d.len(), 2);
        j.scale_to(1);
        // Both busy: one is marked retiring, none removed yet.
        assert_eq!(j.replicas.len(), 2);
        // Completion of the retiring replica removes it.
        let retiring_id = j
            .replicas
            .iter()
            .find(|(_, r)| r.retiring)
            .map(|&(id, _)| id)
            .expect("one retiring");
        let alive = j.on_completion(micros(0.2), retiring_id, 0.18);
        assert!(!alive);
        assert_eq!(j.live_replicas(), 1);
    }

    #[test]
    fn cold_replica_cancelled_by_scale_down() {
        let mut j = rt(1);
        let new = j.scale_to(2);
        assert_eq!(new.len(), 1);
        j.scale_to(1);
        assert!(!j.on_replica_ready(new[0]), "cancelled cold replica");
        assert_eq!(j.live_replicas(), 1);
    }

    #[test]
    fn minute_metrics_finalize() {
        let mut j = rt(1);
        j.on_arrival(0, 0.9);
        let d = j.dispatch(0);
        j.on_completion(micros(0.1), d[0].replica, 0.1);
        j.on_minute_boundary();
        assert_eq!(j.arrivals_per_minute(), &[RatePerMin::new(1.0)]);
        assert_eq!(j.drops_per_minute(), &[0]);
        let p = j.minute_percentiles();
        assert!((p[0].unwrap() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn observation_reflects_state() {
        let mut j = rt(2);
        j.on_arrival(0, 0.9);
        let d = j.dispatch(0);
        j.on_completion(micros(0.5), d[0].replica, 0.2);
        let obs = j.observe(micros(1.0));
        assert_eq!(obs.target_replicas, 2);
        assert_eq!(obs.ready_replicas, 2);
        // One completed request at 500 ms latency in the window.
        assert!((obs.recent_tail_latency - 0.5).abs() < 1e-9);
        assert!((obs.mean_processing_time - 0.2).abs() < 1e-9);
        assert!(obs.recent_arrival_rate > 0.0);
    }

    #[test]
    fn crash_kills_in_flight_and_frees_slot() {
        let mut j = rt(2);
        j.on_arrival(0, 0.9);
        let d = j.dispatch(0);
        assert_eq!(d.len(), 1);
        let out = j.crash_replica(micros(0.05), d[0].replica);
        assert!(out.removed && out.killed_request);
        assert_eq!(j.crash_killed(), 1);
        assert_eq!(j.live_replicas(), 1, "slot freed");
        // The killed request counts as a violation but not a drop.
        assert_eq!(j.slo_accounting().violations(), 1);
        assert_eq!(j.slo_accounting().drops(), 0);
        // The stale completion event is ignored cleanly.
        assert!(j.on_completion(micros(0.2), d[0].replica, 0.18));
        assert_eq!(j.slo_accounting().total(), 1, "no double count");
        // Crashing an unknown replica is a no-op.
        let again = j.crash_replica(micros(0.3), d[0].replica);
        assert!(!again.removed && !again.killed_request);
    }

    #[test]
    fn crashed_replica_is_replaced_through_cold_start() {
        let mut j = rt(2);
        j.crash_replica(0, 0);
        assert_eq!(j.live_replicas(), 1);
        // The reconciliation path: scale_to(target) re-requests the
        // missing replica, which re-enters cold start.
        let new = j.scale_to(j.target());
        assert_eq!(new.len(), 1);
        assert_eq!(j.ready_replicas(), 1);
        assert!(j.on_replica_ready(new[0]));
        assert_eq!(j.ready_replicas(), 2);
    }

    #[test]
    fn eviction_removes_newest_first() {
        let mut j = rt(3);
        // Make replica 0 busy; eviction of 2 should take ids 2 and 1.
        j.on_arrival(0, 0.9);
        let d = j.dispatch(0);
        assert_eq!(d[0].replica, 0);
        assert_eq!(j.evict_newest(0, 2), 2);
        assert_eq!(j.live_replica_ids(), vec![0]);
        assert_eq!(j.crash_killed(), 0, "idle evictions kill nothing");
        // Evicting more than exists stops at the floor.
        assert_eq!(j.evict_newest(0, 5), 1);
        assert_eq!(j.crash_killed(), 1, "busy victim loses its request");
    }

    #[test]
    fn conservation_holds_under_crashes() {
        let mut j = rt(3);
        let mut arrivals = 0u64;
        let mut completions = 0u64;
        for i in 0..300u64 {
            let t = i * 40_000;
            j.on_arrival(t, 0.9);
            arrivals += 1;
            let _ = j.dispatch(t);
            if i % 3 == 1 {
                if let Some(&id) = j.busy_ids().first() {
                    j.on_completion(t + 10_000, id, 0.18);
                    completions += 1;
                }
            }
            // Periodically crash a busy replica and re-request it.
            if i % 17 == 5 {
                if let Some(&id) = j.busy_ids().last() {
                    assert!(j.crash_replica(t + 20_000, id).removed);
                    for r in j.scale_to(j.target()) {
                        j.on_replica_ready(r);
                    }
                }
            }
        }
        let drops = j.slo_accounting().drops();
        assert!(j.crash_killed() > 0, "the scenario crashed busy replicas");
        assert_eq!(
            arrivals,
            completions
                + drops
                + j.crash_killed()
                + j.queue_len() as u64
                + j.busy_ids().len() as u64,
            "arrivals = completions + drops + crash-killed + queued + in-flight"
        );
    }

    #[test]
    fn conservation_arrivals_eq_done_plus_drops_plus_inflight() {
        let mut j = rt(2);
        let mut arrivals = 0u64;
        let mut completions = 0u64;
        for i in 0..200u64 {
            let t = i * 50_000;
            j.on_arrival(t, 0.9);
            arrivals += 1;
            for d in j.dispatch(t) {
                let _ = d;
            }
            // Complete any busy replica every other step.
            if i % 2 == 1 {
                if let Some(&id) = j.busy_ids().first() {
                    j.on_completion(t + 10_000, id, 0.18);
                    completions += 1;
                }
            }
        }
        let drops = j.slo_accounting().drops();
        let in_queue = j.queue_len() as u64;
        let in_service = j.busy_ids().len() as u64;
        assert_eq!(arrivals, completions + drops + in_queue + in_service);
    }
}
