//! Output checks that ride along on every run, traced or not.
//!
//! The control plane hides the applied [`DesiredState`] and the
//! policy's introspection inside the reconciler, so the checks sit on
//! the two boundaries that do see them: [`Audit`] around the backend
//! (every applied state: floor, quota, digest; every observation: SLO
//! attainment) and [`Watched`] around the policy (which rounds ran a
//! long-term solve; shard accounting). Both forward every call
//! unchanged and read no clock — they check outputs, they time nothing.

use faro::control::{ActuationReport, BackendError, Clock, ClusterBackend};
use faro::core::policy::{Policy, PolicyIntrospection};
use faro::core::types::{ClusterSnapshot, DesiredState, ResourceModel};
use faro::core::units::SimTimeMs;
use faro::telemetry::TelemetrySink;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// What every decision digest starts from (the FNV-1a offset basis).
pub const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over 64-bit words: the decision digest's fold step.
pub fn fold(digest: u64, word: u64) -> u64 {
    let mut h = digest;
    for byte in word.to_le_bytes() {
        h = (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// What [`Audit`] has seen so far.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditLog {
    /// Hash over every successfully applied desired state, in order.
    pub digest: u64,
    /// Applied states that broke the floor (target >= 1) or the quota
    /// (`ResourceModel::fits`).
    pub violations: u64,
    /// (job, observation) pairs seen.
    pub observed: u64,
    /// Of those, pairs with `recent_tail_latency <= slo.latency`.
    pub attained: u64,
    /// Target per job after the last successful apply.
    pub last_targets: Vec<u32>,
}

impl Default for AuditLog {
    fn default() -> Self {
        Self {
            digest: DIGEST_SEED,
            violations: 0,
            observed: 0,
            attained: 0,
            last_targets: Vec::new(),
        }
    }
}

impl AuditLog {
    fn saw(&mut self, snapshot: &ClusterSnapshot) {
        self.observed += snapshot.jobs.len() as u64;
        self.attained += snapshot
            .jobs
            .iter()
            .filter(|j| j.recent_tail_latency <= j.spec.slo.latency)
            .count() as u64;
    }

    fn applied(&mut self, desired: &DesiredState, resources: &ResourceModel) {
        let mut digest = fold(self.digest, desired.len() as u64);
        let mut total = 0u32;
        let mut floor_held = true;
        for (id, d) in desired.iter() {
            digest = fold(digest, id.index() as u64);
            digest = fold(digest, u64::from(d.target_replicas));
            digest = fold(digest, d.drop_rate.to_bits());
            if let Some(alloc) = &d.classes {
                for &count in alloc.as_slice() {
                    digest = fold(digest, u64::from(count));
                }
            }
            floor_held &= d.target_replicas >= 1;
            total += d.target_replicas;
            if self.last_targets.len() <= id.index() {
                self.last_targets.resize(id.index() + 1, 0);
            }
            self.last_targets[id.index()] = d.target_replicas;
        }
        self.digest = digest;
        let usage = if resources.n_classes() > 1 {
            resources.usage_of(&desired.class_totals(resources.n_classes()))
        } else {
            let t = f64::from(total);
            [
                t * resources.cpu_per_replica,
                0.0,
                t * resources.mem_per_replica,
            ]
        };
        if !floor_held || !resources.fits(&usage) {
            self.violations += 1;
        }
    }
}

/// Checks every applied state against `resources` and digests it.
pub struct Audit<B> {
    inner: B,
    resources: ResourceModel,
    log: AuditLog,
}

impl<B> Audit<B> {
    /// Audits `inner` against the cluster's resource model.
    pub fn new(inner: B, resources: ResourceModel) -> Self {
        Self {
            inner,
            resources,
            log: AuditLog::default(),
        }
    }

    /// What has been seen so far.
    pub fn log(&self) -> &AuditLog {
        &self.log
    }

    /// The audited backend and the final log.
    pub fn into_parts(self) -> (B, AuditLog) {
        (self.inner, self.log)
    }
}

impl<B: Clock> Clock for Audit<B> {
    fn now(&self) -> SimTimeMs {
        self.inner.now()
    }

    fn advance(&mut self) -> Option<SimTimeMs> {
        self.inner.advance()
    }

    fn advance_with(&mut self, sink: &mut dyn TelemetrySink) -> Option<SimTimeMs> {
        self.inner.advance_with(sink)
    }
}

impl<B: ClusterBackend> ClusterBackend for Audit<B> {
    fn observe(&mut self) -> Result<ClusterSnapshot, BackendError> {
        let snapshot = self.inner.observe()?;
        self.log.saw(&snapshot);
        Ok(snapshot)
    }

    fn apply(&mut self, desired: &DesiredState) -> Result<ActuationReport, BackendError> {
        let report = self.inner.apply(desired)?;
        self.log.applied(desired, &self.resources);
        Ok(report)
    }

    fn apply_with(
        &mut self,
        desired: &DesiredState,
        sink: &mut dyn TelemetrySink,
    ) -> Result<ActuationReport, BackendError> {
        let report = self.inner.apply_with(desired, sink)?;
        self.log.applied(desired, &self.resources);
        Ok(report)
    }
}

/// What [`Watched`] publishes about the policy's rounds.
#[derive(Debug, Default)]
pub struct PolicyWatch {
    long_term: AtomicBool,
    shard_mismatches: AtomicU64,
}

impl PolicyWatch {
    /// Whether the most recent `decide` ran a long-term solve.
    pub fn last_was_long_term(&self) -> bool {
        // A statistic read on the thread that wrote it.
        self.long_term.load(Ordering::Relaxed)
    }

    /// Forgets the last round, so a round that never reaches the
    /// policy (breaker open, carry-forward) does not inherit its flag.
    pub fn reset(&self) {
        self.long_term.store(false, Ordering::Relaxed);
    }

    /// Sharded rounds where `solved + skipped != shards`.
    pub fn shard_mismatches(&self) -> u64 {
        self.shard_mismatches.load(Ordering::Relaxed)
    }
}

/// Forwards to the policy and publishes, after each round, whether it
/// ran a long-term solve (the reconciler owns the policy, so nothing
/// else can ask) and whether its shard record adds up.
pub struct Watched {
    inner: Box<dyn Policy>,
    watch: Arc<PolicyWatch>,
}

impl Watched {
    /// Wraps `inner`, publishing into `watch`.
    pub fn new(inner: Box<dyn Policy>, watch: Arc<PolicyWatch>) -> Self {
        Self { inner, watch }
    }
}

impl Policy for Watched {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, snapshot: &ClusterSnapshot) -> DesiredState {
        let desired = self.inner.decide(snapshot);
        let intro = self.inner.introspect();
        self.watch
            .long_term
            .store(intro.long_term_solve, Ordering::Relaxed);
        if let Some(rec) = intro.shard_record {
            if rec.solved + rec.skipped != rec.shards {
                self.watch.shard_mismatches.fetch_add(1, Ordering::Relaxed);
            }
        }
        desired
    }

    fn introspect(&self) -> PolicyIntrospection {
        self.inner.introspect()
    }
}
