//! The autoscaling-policy interface shared by Faro and every baseline.
//!
//! The reconciler (driving a simulated or real control plane) calls
//! [`Policy::decide`] at a fixed tick (Faro's reactive interval, 10 s);
//! each policy applies its own internal cadence on top. Quota
//! enforcement is not part of this interface: policies that clamp or
//! admit their own output compose with an
//! [`Admission`](crate::admission::Admission) strategy internally, and
//! the reconciler applies a cluster-level admission on top.

use crate::sharded::{ShardSolveRecord, ShardSpan};
use crate::types::{ClusterSnapshot, DesiredState};

/// What a policy's last [`Policy::decide`] round did internally —
/// solver effort and resilience triggers that the telemetry layer
/// records into per-round decision traces.
///
/// The default (all zeros / false / empty) is correct for policies with
/// no solver: the baselines never override [`Policy::introspect`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PolicyIntrospection {
    /// Solver objective evaluations consumed by the round (0 when no
    /// solve ran).
    pub solver_evals: u64,
    /// Whether the round ran a long-term solve.
    pub long_term_solve: bool,
    /// Whether the solve failed or produced junk and the previous
    /// allocation was kept instead.
    pub carried_forward: bool,
    /// Corrupt history samples repaired before forecasting.
    pub sanitized_samples: u64,
    /// What the sharded solve did, when the round ran one (`None` for a
    /// one-shard round, the global plan's, and for reactive rounds).
    pub shard_record: Option<ShardSolveRecord>,
    /// Per-solved-shard spans (ascending shard index) from the round's
    /// sharded solve, empty otherwise.
    pub shard_spans: Vec<ShardSpan>,
}

/// An autoscaling policy.
pub trait Policy: Send {
    /// Display name (matches the paper's policy names).
    fn name(&self) -> &str;

    /// Produces the desired cluster state for this round. Jobs absent
    /// from the returned state keep their current allocation; the
    /// policies shipped here always cover every job in the snapshot.
    fn decide(&mut self, snapshot: &ClusterSnapshot) -> DesiredState;

    /// Introspection for the most recent [`Policy::decide`] round.
    /// Purely observational: the reconciler only feeds it to telemetry
    /// sinks, never back into control decisions.
    fn introspect(&self) -> PolicyIntrospection {
        PolicyIntrospection::default()
    }
}
