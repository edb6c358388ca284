//! The telemetry vocabulary: phases, counters, samples, and events.
//!
//! Everything here is plain data stamped with [`SimTimeMs`] by the
//! emitter. Nothing reads a wall clock, draws randomness, or iterates
//! an unordered container, so a seeded replay re-emits the identical
//! stream (see the crate docs for the determinism contract).

use faro_core::units::SimTimeMs;

/// One phase of a reconcile round (Observe → Decide → Admit →
/// Actuate).
///
/// Phase spans measure *deterministic work units*, not wall-clock
/// durations: wall clocks are banned from the determinism scope
/// (`clippy::disallowed_types`, per-crate `clippy.toml`), and work
/// units replay byte-identically while still showing where a round's
/// effort went.
/// The unit per phase is documented on [`TelemetrySink::span`].
///
/// [`TelemetrySink::span`]: crate::TelemetrySink::span
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Building the cluster snapshot (work = jobs observed).
    Observe,
    /// The policy's decision (work = solver objective evaluations).
    Decide,
    /// Quota admission (work = replicas trimmed from the request).
    Admit,
    /// Actuating the desired state (work = replicas started).
    Actuate,
    /// One shard's solve inside a sharded decide (work = solver
    /// objective evaluations). Emitted once per *solved* shard — clean
    /// cache-hit shards emit nothing.
    ShardSolve,
}

impl Phase {
    /// All phases in loop order.
    pub const ALL: [Phase; 5] = [
        Phase::Observe,
        Phase::Decide,
        Phase::Admit,
        Phase::Actuate,
        Phase::ShardSolve,
    ];

    /// Stable lowercase name (Prometheus label value).
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Observe => "observe",
            Phase::Decide => "decide",
            Phase::Admit => "admit",
            Phase::Actuate => "actuate",
            Phase::ShardSolve => "shard_solve",
        }
    }
}

impl core::fmt::Display for Phase {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A monotonically increasing count.
///
/// Hot-path facts (per-request drops) are emitted *only* as counters;
/// discrete lifecycle facts (crashes, cold starts) are emitted as
/// [`TelemetryEvent`]s and sinks derive their counts, so every fact is
/// reported exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Counter {
    /// Requests tail-dropped at the router queue threshold.
    TailDrops,
    /// Requests dropped by an explicit policy drop rate.
    ExplicitDrops,
    /// In-flight requests killed by a replica crash.
    CrashKills,
    /// Reconcile rounds executed.
    Rounds,
    /// Rounds in which admission trimmed the request.
    ClampedRounds,
    /// Rounds in which the quota was unsatisfiable.
    UnsatisfiableRounds,
    /// Replicas that entered cold start.
    ReplicasStarted,
    /// Replicas that became ready.
    ReplicasReady,
    /// Replicas killed by fault injection.
    ReplicaCrashes,
    /// Solver objective evaluations.
    SolverEvals,
    /// Long-term solves whose result was discarded in favor of the
    /// carried-forward allocation.
    CarryForwards,
    /// Corrupt history samples repaired before forecasting.
    SanitizedSamples,
}

impl Counter {
    /// Every counter, in serialization order.
    pub const ALL: [Counter; 12] = [
        Counter::TailDrops,
        Counter::ExplicitDrops,
        Counter::CrashKills,
        Counter::Rounds,
        Counter::ClampedRounds,
        Counter::UnsatisfiableRounds,
        Counter::ReplicasStarted,
        Counter::ReplicasReady,
        Counter::ReplicaCrashes,
        Counter::SolverEvals,
        Counter::CarryForwards,
        Counter::SanitizedSamples,
    ];

    /// Stable snake_case name (Prometheus metric stem).
    pub fn as_str(self) -> &'static str {
        match self {
            Counter::TailDrops => "tail_drops",
            Counter::ExplicitDrops => "explicit_drops",
            Counter::CrashKills => "crash_kills",
            Counter::Rounds => "rounds",
            Counter::ClampedRounds => "clamped_rounds",
            Counter::UnsatisfiableRounds => "unsatisfiable_rounds",
            Counter::ReplicasStarted => "replicas_started",
            Counter::ReplicasReady => "replicas_ready",
            Counter::ReplicaCrashes => "replica_crashes",
            Counter::SolverEvals => "solver_evals",
            Counter::CarryForwards => "carry_forwards",
            Counter::SanitizedSamples => "sanitized_samples",
        }
    }
}

impl core::fmt::Display for Counter {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A distribution observation ([`TelemetrySink::sample`]).
///
/// [`TelemetrySink::sample`]: crate::TelemetrySink::sample
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Sample {
    /// Router queue depth at a policy tick (per job).
    QueueDepth,
    /// Cold-start delay of a started replica, in seconds (per job).
    ColdStartDelay,
    /// Solver objective evaluations per long-term solve.
    SolveEvals,
}

impl Sample {
    /// Stable snake_case name (Prometheus metric stem).
    pub fn as_str(self) -> &'static str {
        match self {
            Sample::QueueDepth => "queue_depth",
            Sample::ColdStartDelay => "cold_start_delay",
            Sample::SolveEvals => "solve_evals",
        }
    }
}

impl core::fmt::Display for Sample {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One job's slice of a reconcile round: what the policy asked for,
/// what admission granted, and what the job looked like at the time.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRound {
    /// Job index ([`faro_core::JobId`] position).
    pub job: usize,
    /// Replicas the policy requested (pre-admission).
    pub requested_replicas: u32,
    /// Replicas admission granted (what actuation applied).
    pub granted_replicas: u32,
    /// Replicas actually serving at observation time.
    pub ready_replicas: u32,
    /// Router queue depth at observation time.
    pub queue_depth: u64,
    /// Recent tail latency observed, in seconds (NaN during a missing
    /// metric outage; serialized as `null`).
    pub tail_latency: f64,
    /// The job's SLO latency target, in seconds.
    pub slo_latency: f64,
    /// Whether the observed tail met the SLO (`false` when the tail
    /// was NaN — an unknown tail is not an attained one).
    pub slo_attained: bool,
    /// The granted explicit drop rate.
    pub drop_rate: f64,
}

impl serde::Serialize for JobRound {
    fn serialize_json(&self, out: &mut String) {
        serde::object!(out;
            job: self.job,
            requested_replicas: self.requested_replicas,
            granted_replicas: self.granted_replicas,
            ready_replicas: self.ready_replicas,
            queue_depth: self.queue_depth,
            tail_latency: self.tail_latency,
            slo_latency: self.slo_latency,
            slo_attained: self.slo_attained,
            drop_rate: self.drop_rate,
        );
    }
}

/// The full record of one reconcile round — the decision trace entry
/// that makes "why did the policy misallocate at minute 4,213?"
/// answerable without printf archaeology.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRecord {
    /// Round number (1-based, matches `RunStats::rounds`).
    pub round: u64,
    /// Simulation time of the round.
    pub at: SimTimeMs,
    /// Replica quota visible to the policy (shrinks during outages).
    pub quota: u32,
    /// Total replicas requested across jobs (pre-admission).
    pub requested_replicas: u32,
    /// Total replicas granted across jobs (post-admission).
    pub granted_replicas: u32,
    /// Whether admission trimmed at least one request.
    pub clamped: bool,
    /// Whether the quota was unsatisfiable (all jobs at the 1-replica
    /// floor, total still above quota).
    pub unsatisfiable: bool,
    /// Replicas that entered cold start this round.
    pub replicas_started: u32,
    /// Jobs whose decision was applied.
    pub jobs_applied: u32,
    /// Solver objective evaluations consumed by this round's decide.
    pub solver_evals: u64,
    /// Whether this round ran a long-term solve.
    pub long_term_solve: bool,
    /// Whether the solve failed/was invalid and the previous good
    /// allocation was carried forward.
    pub carried_forward: bool,
    /// Corrupt history samples repaired before forecasting.
    pub sanitized_samples: u64,
    /// Per-job requested-vs-granted detail, ascending job order.
    pub jobs: Vec<JobRound>,
}

impl serde::Serialize for DecisionRecord {
    fn serialize_json(&self, out: &mut String) {
        serde::object!(out;
            round: self.round,
            at: self.at,
            quota: self.quota,
            requested_replicas: self.requested_replicas,
            granted_replicas: self.granted_replicas,
            clamped: self.clamped,
            unsatisfiable: self.unsatisfiable,
            replicas_started: self.replicas_started,
            jobs_applied: self.jobs_applied,
            solver_evals: self.solver_evals,
            long_term_solve: self.long_term_solve,
            carried_forward: self.carried_forward,
            sanitized_samples: self.sanitized_samples,
            jobs: self.jobs,
        );
    }
}

/// A discrete telemetry event.
///
/// Each variant is written as `{"Variant":{...}}`, its fields in
/// declaration order, and carries job *indices* rather than `JobId`s
/// so traces serialize as plain integers.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryEvent {
    /// One reconcile round's decision record.
    Decision {
        /// The record.
        record: DecisionRecord,
    },
    /// A cold-starting replica became ready.
    ReplicaReady {
        /// Job index.
        job: usize,
        /// Replica identifier within the job.
        replica: u64,
    },
    /// Fault injection killed a replica.
    ReplicaCrashed {
        /// Job index.
        job: usize,
        /// Replica identifier within the job.
        replica: u64,
        /// Whether an in-flight request died with it.
        killed_request: bool,
    },
    /// A replica entered cold start.
    ColdStartBegan {
        /// Job index.
        job: usize,
        /// Replica identifier within the job.
        replica: u64,
        /// Cold-start delay in whole milliseconds.
        delay_ms: i64,
    },
    /// A correlated node outage began; the quota shrank.
    NodeOutageBegan {
        /// Effective quota during the outage.
        quota: u32,
    },
    /// The node outage ended; the quota was restored.
    NodeOutageEnded {
        /// Restored quota.
        quota: u32,
    },
    /// A metric outage began degrading observations.
    MetricOutageBegan {
        /// Delivery mode (`"stale"` or `"missing"`).
        mode: String,
        /// Affected job indices.
        jobs: Vec<usize>,
    },
    /// The metric outage ended; observations are fresh again.
    MetricOutageEnded {
        /// Delivery mode that just ended (`"stale"` or `"missing"`).
        mode: String,
    },
    /// A backend call failed and the resilient driver scheduled a
    /// retry after a virtual backoff delay.
    BackendRetry {
        /// Which call failed (`"observe"` or `"apply"`).
        phase: String,
        /// The attempt (1-based) that just failed.
        attempt: u32,
        /// Virtual backoff before the next attempt, whole milliseconds.
        backoff_ms: i64,
        /// Rendered backend error.
        error: String,
    },
    /// The resilient driver's circuit breaker changed state.
    BreakerTransition {
        /// State left (`"closed"`, `"open"`, or `"half-open"`).
        from: String,
        /// State entered.
        to: String,
    },
    /// A round could not run the full observe→apply loop and degraded.
    DegradedRound {
        /// Degradation taken (`"stale-snapshot"`, `"carry-forward"`,
        /// `"breaker-open"`, or `"skipped"`).
        kind: String,
    },
    /// A fresh snapshot's per-job targets disagreed with the last
    /// applied desired state; this round's apply is the repair.
    DriftDetected {
        /// Drifted job indices, ascending.
        jobs: Vec<usize>,
    },
    /// A wall-clock driver pinned one logical round to the host's
    /// physical clock. Only live (wall-clock) backends emit this —
    /// simulated runs never do, which keeps sim traces byte-identical
    /// — so a trace line carrying it marks the run as wall-paced and
    /// lets round latency be recovered from consecutive ticks.
    WallClockTick {
        /// Host wall time at the tick, milliseconds since the Unix
        /// epoch. Deliberately a raw integer: the logical timeline in
        /// the record key stays `SimTimeMs`, and the two never mix.
        wall_ms: i64,
        /// The logical round this tick pinned.
        round: u64,
    },
    /// What a sharded decide round did: how much of the cluster
    /// re-entered the solver and how much was served from cache.
    ShardSolve {
        /// Total shards in the partition.
        shards: u32,
        /// Shards that entered the solver this round.
        solved: u32,
        /// Clean shards that reused their cached allocation.
        skipped: u32,
        /// Jobs served from a cached shard allocation.
        cache_hit_jobs: u32,
        /// Solver objective evaluations across solved shards.
        evals: u64,
        /// Evaluations spent on the top-level quota split.
        split_evals: u64,
    },
}

impl TelemetryEvent {
    /// Stable variant name, for filtering traces without parsing JSON.
    pub fn kind(&self) -> &'static str {
        match self {
            TelemetryEvent::Decision { .. } => "Decision",
            TelemetryEvent::ReplicaReady { .. } => "ReplicaReady",
            TelemetryEvent::ReplicaCrashed { .. } => "ReplicaCrashed",
            TelemetryEvent::ColdStartBegan { .. } => "ColdStartBegan",
            TelemetryEvent::NodeOutageBegan { .. } => "NodeOutageBegan",
            TelemetryEvent::NodeOutageEnded { .. } => "NodeOutageEnded",
            TelemetryEvent::MetricOutageBegan { .. } => "MetricOutageBegan",
            TelemetryEvent::MetricOutageEnded { .. } => "MetricOutageEnded",
            TelemetryEvent::BackendRetry { .. } => "BackendRetry",
            TelemetryEvent::BreakerTransition { .. } => "BreakerTransition",
            TelemetryEvent::DegradedRound { .. } => "DegradedRound",
            TelemetryEvent::DriftDetected { .. } => "DriftDetected",
            TelemetryEvent::WallClockTick { .. } => "WallClockTick",
            TelemetryEvent::ShardSolve { .. } => "ShardSolve",
        }
    }
}

impl serde::Serialize for TelemetryEvent {
    fn serialize_json(&self, out: &mut String) {
        use TelemetryEvent as E;
        out.push_str("{\"");
        out.push_str(self.kind());
        out.push_str("\":");
        match self {
            E::Decision { record } => serde::object!(out; record: record),
            E::ReplicaReady { job, replica } => serde::object!(out; job: job, replica: replica),
            E::ReplicaCrashed {
                job,
                replica,
                killed_request,
            } => serde::object!(out; job: job, replica: replica, killed_request: killed_request),
            E::ColdStartBegan {
                job,
                replica,
                delay_ms,
            } => serde::object!(out; job: job, replica: replica, delay_ms: delay_ms),
            E::NodeOutageBegan { quota } | E::NodeOutageEnded { quota } => {
                serde::object!(out; quota: quota)
            }
            E::MetricOutageBegan { mode, jobs } => serde::object!(out; mode: mode, jobs: jobs),
            E::MetricOutageEnded { mode } => serde::object!(out; mode: mode),
            E::BackendRetry {
                phase,
                attempt,
                backoff_ms,
                error,
            } => serde::object!(out;
                phase: phase,
                attempt: attempt,
                backoff_ms: backoff_ms,
                error: error,
            ),
            E::BreakerTransition { from, to } => serde::object!(out; from: from, to: to),
            E::DegradedRound { kind } => serde::object!(out; kind: kind),
            E::DriftDetected { jobs } => serde::object!(out; jobs: jobs),
            E::WallClockTick { wall_ms, round } => {
                serde::object!(out; wall_ms: wall_ms, round: round)
            }
            E::ShardSolve {
                shards,
                solved,
                skipped,
                cache_hit_jobs,
                evals,
                split_evals,
            } => serde::object!(out;
                shards: shards,
                solved: solved,
                skipped: skipped,
                cache_hit_jobs: cache_hit_jobs,
                evals: evals,
                split_evals: split_evals,
            ),
        }
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(Phase::Observe.as_str(), "observe");
        assert_eq!(Counter::TailDrops.to_string(), "tail_drops");
        assert_eq!(Sample::QueueDepth.to_string(), "queue_depth");
        assert_eq!(Phase::ShardSolve.as_str(), "shard_solve");
        assert_eq!(Phase::ALL.len(), 5);
        assert_eq!(Counter::ALL.len(), 12);
    }
}
