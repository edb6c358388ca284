//! Quota admission: the pluggable gate between a policy's desired
//! state and what the cluster backend is allowed to actuate.
//!
//! The paper's control loop admits scale decisions through a Kubernetes
//! resource quota (Sec. 4.1); different policies interact with that
//! quota differently. Each strategy here is an [`Admission`]
//! implementation the [`Reconciler`](https://docs.rs/faro-control)
//! (or a policy internally) composes with any decider:
//!
//! * [`ClampToQuota`] — trim over-quota allocations largest-first
//!   (Faro, CilantroLike, FairShare clamp their own output this way).
//! * [`RotatingQuota`] — first-come-first-served admission of replica
//!   increases in rotating job order, holding the rotation counter that
//!   used to live inside each baseline policy (Oneshot, AIAD, Mark).
//! * [`OutageClamp`] — pass-through at full capacity, largest-first
//!   trim while a node outage has shrunk the visible quota.
//! * [`Unlimited`] — pass-through (mock backends, tests).
//!
//! Every strategy reports an [`AdmissionOutcome`] so the silent
//! "everyone is already at 1 replica and the total still exceeds
//! quota" case is observable instead of being dropped on the floor.

use crate::types::{
    ClassAlloc, ClusterSnapshot, DesiredState, JobId, ResourceModel, RESOURCE_DIMS,
};

/// What admission did to one round of decisions: how much was asked
/// for, how much was granted, and against which quota.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionOutcome {
    /// Total replicas requested (after flooring each job at 1).
    pub requested_replicas: u32,
    /// Total replicas granted after admission.
    pub granted_replicas: u32,
    /// The replica quota admission enforced against.
    pub quota: u32,
}

impl AdmissionOutcome {
    fn pass_through(desired: &DesiredState, quota: u32) -> Self {
        let total = desired.total_replicas();
        Self {
            requested_replicas: total,
            granted_replicas: total,
            quota,
        }
    }

    /// Replicas requested but not granted.
    pub fn shortfall(&self) -> u32 {
        self.requested_replicas
            .saturating_sub(self.granted_replicas)
    }

    /// Whether any request was trimmed.
    pub fn clamped(&self) -> bool {
        self.granted_replicas < self.requested_replicas
    }

    /// Whether the quota was unsatisfiable: every job already sits at
    /// the 1-replica floor and the total still exceeds the quota (the
    /// case the old `enforce_quota` loop swallowed with a silent
    /// `break`).
    pub fn unsatisfiable(&self) -> bool {
        self.granted_replicas > self.quota
    }
}

/// A quota-admission strategy: mutates the desired state into what the
/// cluster will actually grant and reports what happened.
pub trait Admission: Send {
    /// Admits one round of decisions against the snapshot's quota.
    fn admit(&mut self, snapshot: &ClusterSnapshot, desired: &mut DesiredState)
        -> AdmissionOutcome;
}

/// Largest-first trim into the snapshot's replica quota: targets are
/// floored at 1 and, if the total exceeds the quota, reduced starting
/// from the largest allocation.
///
/// When the cluster has two or more replica classes *and* the
/// decisions carry per-class allocations, the scalar trim is replaced
/// by the vector-quota trim of `clamp_to_capacities` — decisions
/// without class data (class-blind policies) keep the scalar path
/// against the binding-resource replica quota, byte-identical to the
/// homogeneous behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClampToQuota;

impl Admission for ClampToQuota {
    fn admit(
        &mut self,
        snapshot: &ClusterSnapshot,
        desired: &mut DesiredState,
    ) -> AdmissionOutcome {
        if snapshot.resources.n_classes() > 1 && desired.iter().any(|(_, d)| d.classes.is_some()) {
            clamp_to_capacities(desired, &snapshot.resources)
        } else {
            clamp_to_quota(desired, snapshot.replica_quota().get())
        }
    }
}

/// Pass-through at full capacity; largest-first trim only while the
/// observed quota has dropped below the configured capacity (a node
/// outage). This reproduces the simulator's historical behavior of
/// applying policy output verbatim except during an outage window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutageClamp {
    capacity: u32,
}

impl OutageClamp {
    /// `capacity` is the cluster's full (healthy) replica quota.
    pub fn new(capacity: u32) -> Self {
        Self { capacity }
    }
}

impl Admission for OutageClamp {
    fn admit(
        &mut self,
        snapshot: &ClusterSnapshot,
        desired: &mut DesiredState,
    ) -> AdmissionOutcome {
        let quota = snapshot.replica_quota().get();
        if quota < self.capacity {
            clamp_to_quota(desired, quota)
        } else {
            AdmissionOutcome::pass_through(desired, quota)
        }
    }
}

/// No admission at all: decisions pass through untouched (mock
/// backends and tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Unlimited;

impl Admission for Unlimited {
    fn admit(
        &mut self,
        snapshot: &ClusterSnapshot,
        desired: &mut DesiredState,
    ) -> AdmissionOutcome {
        AdmissionOutcome::pass_through(desired, snapshot.replica_quota().get())
    }
}

/// Kubernetes-style quota admission for reactive policies: each job
/// keeps `min(desired, previous)` replicas unconditionally (downscales
/// always succeed), and requested increases are admitted in rotating
/// job order while quota remains — mirroring pods racing into a
/// resource quota. This is what lets an aggressive scaler (Oneshot)
/// starve its neighbours, as the paper observes. The rotation counter
/// lives here, advancing once per admitted round.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RotatingQuota {
    rounds: usize,
}

impl RotatingQuota {
    /// Fresh rotation state (first round starts at offset 1, matching
    /// the historical per-policy tick counters).
    pub fn new() -> Self {
        Self::default()
    }
}

impl Admission for RotatingQuota {
    fn admit(
        &mut self,
        snapshot: &ClusterSnapshot,
        desired: &mut DesiredState,
    ) -> AdmissionOutcome {
        self.rounds += 1;
        admit_rotating(desired, snapshot, self.rounds)
    }
}

/// Floors every target at 1 (clamping drop rates alongside) and trims
/// the total into `quota` largest-first.
///
/// Unlike the historical one-decrement-per-scan loop (O(excess × n),
/// kept as a test reference below), this computes the over-quota
/// amount once and finds the final "water level" in a single sorted
/// pass: every target above level `L` is cut to `L`, except that the
/// `r` lowest-id jobs keep `L + 1` when the excess does not divide
/// evenly. The resulting allocation is identical to running the old
/// loop to completion (proptest `water_level_trim_matches_reference`).
fn clamp_to_quota(desired: &mut DesiredState, quota: u32) -> AdmissionOutcome {
    for (_, d) in desired.iter_mut() {
        d.target_replicas = d.target_replicas.max(1);
        d.drop_rate = d.drop_rate.clamp(0.0, 1.0);
    }
    let requested = desired.total_replicas();
    if requested <= quota {
        return AdmissionOutcome {
            requested_replicas: requested,
            granted_replicas: requested,
            quota,
        };
    }
    let n = desired.len() as u32;
    let excess = requested - quota;
    // Each job keeps at least 1 replica, so at most `requested - n`
    // replicas can be trimmed. If the excess is at least that, the
    // quota is unsatisfiable: everyone drops to the floor.
    if excess >= requested - n {
        for (_, d) in desired.iter_mut() {
            d.target_replicas = 1;
        }
        return AdmissionOutcome {
            requested_replicas: requested,
            granted_replicas: n,
            quota,
        };
    }
    // Find the water level: the largest L >= 1 such that cutting every
    // target above L down to L removes at least `excess` replicas.
    // Walk distinct values in descending order, tracking the count and
    // sum of targets strictly above the current band.
    let mut vals: Vec<u32> = desired.targets().collect();
    vals.sort_unstable_by(|a, b| b.cmp(a));
    let mut above_sum: u64 = 0;
    let mut above_cnt: u64 = 0;
    let mut level: Option<u64> = None;
    let mut i = 0;
    while i < vals.len() {
        let v = u64::from(vals[i]);
        if above_sum - above_cnt * v >= u64::from(excess) {
            // L lies in [v, previous distinct value): solve the band.
            level = Some((above_sum - u64::from(excess)) / above_cnt);
            break;
        }
        let mut j = i;
        while j < vals.len() && u64::from(vals[j]) == v {
            j += 1;
        }
        above_sum += v * (j - i) as u64;
        above_cnt += (j - i) as u64;
        i = j;
    }
    // No band triggered: L sits below the smallest target, with all n
    // jobs above it. The unsatisfiable case was handled, so L >= 1.
    let level = level.unwrap_or_else(|| (above_sum - u64::from(excess)) / above_cnt) as u32;
    // Cutting to `level` removes slightly more than `excess` unless it
    // divides evenly; the leftover jobs stay one above the level. The
    // reference loop decrements the highest-id job among the current
    // maxima first, so the survivors at `level + 1` are the lowest-id
    // trimmed jobs.
    let removed: u64 = desired
        .targets()
        .filter(|&t| t > level)
        .map(|t| u64::from(t - level))
        .sum();
    let mut keep_above = (removed - u64::from(excess)) as u32;
    for (_, d) in desired.iter_mut() {
        if d.target_replicas > level {
            if keep_above > 0 {
                keep_above -= 1;
                d.target_replicas = level + 1;
            } else {
                d.target_replicas = level;
            }
        }
    }
    AdmissionOutcome {
        requested_replicas: requested,
        granted_replicas: quota,
        quota,
    }
}

/// Vector-quota trim for classed decisions: floors every job at one
/// replica (classless decisions and empty allocations count as class
/// 0), then while any capacity dimension `[vCPU, GPU, memory]` is
/// overcommitted removes one replica at a time — from the largest
/// allocation (ties to the higher job id, matching the scalar
/// reference loop), taking the class that consumes the most of the
/// overcommitted dimension (ties to the higher class index).
///
/// The scalar fields of the returned [`AdmissionOutcome`] are reported
/// against the summed [`ResourceModel::replica_quota`]; in the vector
/// regime that quota is an upper bound, so [`ResourceModel::fits`] on
/// the trimmed totals — not [`AdmissionOutcome::unsatisfiable`] — is
/// the ground truth this function enforces.
fn clamp_to_capacities(desired: &mut DesiredState, resources: &ResourceModel) -> AdmissionOutcome {
    let nc = resources.n_classes();
    for (_, d) in desired.iter_mut() {
        d.drop_rate = d.drop_rate.clamp(0.0, 1.0);
        let mut alloc = d
            .classes
            .unwrap_or_else(|| ClassAlloc::single(0, d.target_replicas, nc));
        if alloc.total() == 0 {
            alloc.set(0, 1);
        }
        d.classes = Some(alloc);
        d.target_replicas = alloc.total();
    }
    let requested = desired.total_replicas();
    let quota = resources.replica_quota().get();
    loop {
        let totals = desired.class_totals(nc);
        let usage = resources.usage_of(&totals);
        if resources.fits(&usage) {
            break;
        }
        let caps = resources.capacities();
        let dim = (0..RESOURCE_DIMS)
            .max_by(|&a, &b| {
                (usage[a] - caps[a])
                    .partial_cmp(&(usage[b] - caps[b]))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .unwrap_or(0);
        let mut victim: Option<(JobId, usize, u32)> = None;
        for (id, d) in desired.iter() {
            if d.target_replicas <= 1 {
                continue;
            }
            let Some(alloc) = d.classes else { continue };
            let mut best_class: Option<usize> = None;
            for c in 0..nc {
                if alloc.count(c) == 0 {
                    continue;
                }
                let cost = resources.classes[c].cost()[dim];
                if cost <= 0.0 {
                    continue;
                }
                let better = match best_class {
                    None => true,
                    Some(b) => cost >= resources.classes[b].cost()[dim],
                };
                if better {
                    best_class = Some(c);
                }
            }
            let Some(c) = best_class else { continue };
            let take = match victim {
                None => true,
                Some((_, _, t)) => d.target_replicas >= t,
            };
            if take {
                victim = Some((id, c, d.target_replicas));
            }
        }
        // No job above the floor consumes the overcommitted dimension:
        // the floor itself is unsatisfiable, observable via `fits`.
        let Some((id, c, _)) = victim else { break };
        if let Some(d) = desired.get_mut(id) {
            if let Some(alloc) = d.classes.as_mut() {
                alloc.add(c, -1);
                d.target_replicas = alloc.total();
            }
        }
    }
    AdmissionOutcome {
        requested_replicas: requested,
        granted_replicas: desired.total_replicas(),
        quota,
    }
}

/// Rotating first-come-first-served admission (see [`RotatingQuota`]).
/// `rotate` selects which job's increases are admitted first this
/// round; previous holdings come from the snapshot's current targets.
fn admit_rotating(
    desired: &mut DesiredState,
    snapshot: &ClusterSnapshot,
    rotate: usize,
) -> AdmissionOutcome {
    let n = desired.len();
    let quota = snapshot.replica_quota().get();
    if n == 0 {
        return AdmissionOutcome {
            requested_replicas: 0,
            granted_replicas: 0,
            quota,
        };
    }
    let prev_of = |id: JobId| snapshot.job(id).map_or(0, |j| j.target_replicas);
    let wants: Vec<(JobId, u32)> = desired
        .iter()
        .map(|(id, d)| (id, d.target_replicas.max(1)))
        .collect();
    // Downscales (and holdings up to the previous target) succeed
    // unconditionally.
    let mut granted: Vec<u32> = desired
        .iter()
        .map(|(id, d)| d.target_replicas.clamp(1, prev_of(id).max(1)))
        .collect();
    let mut total: u32 = granted.iter().sum();
    for k in 0..n {
        let i = (rotate + k) % n;
        let want = wants[i].1;
        while granted[i] < want && total < quota {
            granted[i] += 1;
            total += 1;
        }
    }
    let requested: u32 = wants.iter().map(|(_, w)| *w).sum();
    for ((_, d), g) in desired.iter_mut().zip(granted) {
        d.target_replicas = g;
        d.drop_rate = d.drop_rate.clamp(0.0, 1.0);
    }
    AdmissionOutcome {
        requested_replicas: requested,
        granted_replicas: total,
        quota,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{JobDecision, JobObservation, JobSpec, ResourceModel};
    use proptest::prelude::*;
    use std::sync::Arc;

    fn d(n: u32) -> JobDecision {
        JobDecision::replicas(n)
    }

    fn state(targets: &[u32]) -> DesiredState {
        targets
            .iter()
            .enumerate()
            .map(|(i, &t)| (JobId::new(i), d(t)))
            .collect()
    }

    fn targets(ds: &DesiredState) -> Vec<u32> {
        ds.targets().collect()
    }

    /// A snapshot whose jobs currently hold `prev` targets under a
    /// cluster quota of `quota` replicas.
    fn snap(prev: &[u32], quota: u32) -> ClusterSnapshot {
        let jobs = prev
            .iter()
            .map(|&p| JobObservation {
                spec: Arc::new(JobSpec::resnet34("t")),
                target_replicas: p,
                ready_replicas: p,
                queue_len: 0,
                arrival_rate_history: Arc::new(vec![]),
                recent_arrival_rate: 0.0,
                mean_processing_time: 0.18,
                recent_tail_latency: 0.1,
                drop_rate: 0.0,
                class_target: None,
                class_ready: None,
            })
            .collect();
        ClusterSnapshot {
            now: crate::units::SimTimeMs::ZERO,
            resources: ResourceModel::replicas(crate::units::ReplicaCount::new(quota)),
            jobs,
        }
    }

    /// The historical trim loop, verbatim: one decrement per scan of
    /// the currently-largest allocation (`max_by_key` keeps the LAST
    /// maximum on ties). The single-pass water-level trim must match
    /// this exactly.
    fn enforce_quota_reference(decisions: &mut [JobDecision], quota: u32) {
        for d in decisions.iter_mut() {
            d.target_replicas = d.target_replicas.max(1);
            d.drop_rate = d.drop_rate.clamp(0.0, 1.0);
        }
        let mut total: u32 = decisions.iter().map(|d| d.target_replicas).sum();
        while total > quota {
            let Some(max_idx) = decisions
                .iter()
                .enumerate()
                .filter(|(_, d)| d.target_replicas > 1)
                .max_by_key(|(_, d)| d.target_replicas)
                .map(|(i, _)| i)
            else {
                break;
            };
            decisions[max_idx].target_replicas -= 1;
            total -= 1;
        }
    }

    #[test]
    fn admission_is_first_come_first_served() {
        // Quota 10, both jobs at 2, both want 8: the rotation-first job
        // gets its full request, the other only the remainder.
        let mut rot = RotatingQuota::default();
        let mut ds = state(&[8, 8]);
        // RotatingQuota pre-increments, so fresh state admits with
        // rotate = 1; use admit_rotating directly to pin the offsets.
        let out = admit_rotating(&mut ds, &snap(&[2, 2], 10), 0);
        assert_eq!(targets(&ds), vec![8, 2]);
        assert_eq!(out.requested_replicas, 16);
        assert_eq!(out.granted_replicas, 10);
        assert!(out.clamped());
        let mut ds = state(&[8, 8]);
        admit_rotating(&mut ds, &snap(&[2, 2], 10), 1);
        assert_eq!(targets(&ds), vec![2, 8]);
        // The trait object advances rotation once per round.
        let mut ds = state(&[8, 8]);
        rot.admit(&snap(&[2, 2], 10), &mut ds);
        assert_eq!(targets(&ds), vec![2, 8]);
        let mut ds = state(&[8, 8]);
        rot.admit(&snap(&[2, 2], 10), &mut ds);
        assert_eq!(targets(&ds), vec![8, 2]);
    }

    #[test]
    fn admission_allows_downscale_and_reuses_freed_quota() {
        // Job 0 shrinks 6 -> 1, freeing room for job 1 to grow 4 -> 9.
        let mut ds = state(&[1, 12]);
        let out = admit_rotating(&mut ds, &snap(&[6, 4], 10), 0);
        assert_eq!(targets(&ds), vec![1, 9]);
        assert_eq!(out.granted_replicas, 10);
    }

    #[test]
    fn admission_preserves_existing_holdings() {
        // A job never loses replicas it already holds unless it asks.
        let mut ds = state(&[6, 6]);
        let out = admit_rotating(&mut ds, &snap(&[6, 6], 8), 0);
        assert_eq!(targets(&ds), vec![6, 6]);
        // Over quota, and reported as such.
        assert!(out.unsatisfiable());
        assert_eq!(out.granted_replicas, 12);
    }

    #[test]
    fn quota_trims_largest_first() {
        let mut ds = state(&[10, 2, 4]);
        let out = ClampToQuota.admit(&snap(&[0, 0, 0], 12), &mut ds);
        assert_eq!(ds.total_replicas(), 12);
        // The largest allocation absorbed the cuts.
        assert_eq!(targets(&ds), vec![6, 2, 4]);
        assert_eq!(out.requested_replicas, 16);
        assert_eq!(out.granted_replicas, 12);
        assert_eq!(out.shortfall(), 4);
    }

    #[test]
    fn quota_keeps_minimum_one() {
        let mut ds = state(&[1, 1, 1]);
        let out = ClampToQuota.admit(&snap(&[0, 0, 0], 2), &mut ds);
        // Cannot go below 1 each; total stays 3 (quota unsatisfiable).
        assert_eq!(targets(&ds), vec![1, 1, 1]);
        assert!(out.unsatisfiable());
        assert_eq!(out.granted_replicas, 3);
        assert_eq!(out.quota, 2);
    }

    #[test]
    fn zero_targets_raised_to_one() {
        let mut ds = state(&[0, 5]);
        let out = ClampToQuota.admit(&snap(&[0, 0], 6), &mut ds);
        assert_eq!(targets(&ds), vec![1, 5]);
        assert!(!out.clamped());
    }

    #[test]
    fn drop_rates_clamped() {
        let mut ds = DesiredState::new();
        ds.set(JobId::new(0), JobDecision::replicas(1).with_drop_rate(1.7));
        ClampToQuota.admit(&snap(&[1], 4), &mut ds);
        assert!((ds.get(JobId::new(0)).unwrap().drop_rate - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn uneven_trim_keeps_lowest_ids_one_above_level() {
        // [7, 5, 5] into quota 13: level 4 with one survivor at 5 —
        // the lowest-id candidate, matching the reference loop.
        let mut ds = state(&[7, 5, 5]);
        ClampToQuota.admit(&snap(&[0, 0, 0], 13), &mut ds);
        assert_eq!(targets(&ds), vec![5, 4, 4]);
    }

    /// A two-class snapshot: `gpus` GPUs plus `extra_cpu` CPU-only
    /// replica slots (GPU replicas need 1 vCPU + 4 GB each).
    fn hetero_snap(gpus: u32, extra_cpu: u32) -> ClusterSnapshot {
        let g = f64::from(gpus);
        let e = f64::from(extra_cpu);
        ClusterSnapshot {
            now: crate::units::SimTimeMs::ZERO,
            resources: ResourceModel::heterogeneous(
                vec![
                    crate::types::ReplicaClass::gpu("gpu"),
                    crate::types::ReplicaClass::cpu("cpu", 3.0),
                ],
                g + e,
                g,
                4.0 * g + e,
            ),
            jobs: Vec::new(),
        }
    }

    fn classed(counts: &[u32]) -> JobDecision {
        JobDecision::classed(ClassAlloc::from_counts(counts).unwrap())
    }

    #[test]
    fn vector_trim_lands_inside_every_dimension() {
        // 4 GPUs + 6 CPU slots; ask for 6 GPU + 2 CPU and 2 GPU + 6
        // CPU. GPU is overcommitted by 4, vCPU by 2.
        let snap = hetero_snap(4, 6);
        let mut ds: DesiredState = [
            (JobId::new(0), classed(&[6, 2])),
            (JobId::new(1), classed(&[2, 6])),
        ]
        .into_iter()
        .collect();
        let out = ClampToQuota.admit(&snap, &mut ds);
        let totals = ds.class_totals(2);
        assert!(
            snap.resources.fits(&snap.resources.usage_of(&totals)),
            "still over capacity: {totals}"
        );
        assert!(out.clamped());
        // Every job keeps its floor.
        for (_, d) in ds.iter() {
            assert!(d.target_replicas >= 1);
            assert_eq!(d.classes.unwrap().total(), d.target_replicas);
        }
    }

    #[test]
    fn scalar_decisions_keep_the_scalar_path_under_classes() {
        // A class-blind policy's output (no class data) is clamped
        // against the summed replica quota exactly as before.
        let snap = hetero_snap(4, 2);
        let mut ds = state(&[8, 2]);
        let out = ClampToQuota.admit(&snap, &mut ds);
        assert_eq!(out.quota, snap.resources.replica_quota().get());
        assert_eq!(ds.total_replicas(), out.quota);
        assert!(ds.iter().all(|(_, d)| d.classes.is_none()));
    }

    #[test]
    fn outage_clamp_is_pass_through_at_full_capacity() {
        let mut oc = OutageClamp::new(16);
        // Quota intact: decisions pass through untouched (even zeros).
        let mut ds = state(&[0, 9, 9]);
        let out = oc.admit(&snap(&[1, 1, 1], 16), &mut ds);
        assert_eq!(targets(&ds), vec![0, 9, 9]);
        assert!(!out.clamped());
        // Outage shrank the visible quota: largest-first trim kicks in.
        let mut ds = state(&[2, 9, 9]);
        let out = oc.admit(&snap(&[1, 1, 1], 8), &mut ds);
        assert_eq!(ds.total_replicas(), 8);
        assert_eq!(targets(&ds), vec![2, 3, 3]);
        assert_eq!(out.quota, 8);
        assert!(out.clamped());
    }

    #[test]
    fn unlimited_reports_pass_through() {
        let mut ds = state(&[4, 4]);
        let out = Unlimited.admit(&snap(&[1, 1], 2), &mut ds);
        assert_eq!(targets(&ds), vec![4, 4]);
        assert_eq!(out.requested_replicas, 8);
        assert_eq!(out.granted_replicas, 8);
    }

    proptest! {
        /// Satellite: the single-pass water-level trim produces the
        /// exact allocation of the historical O(excess * n) loop.
        #[test]
        fn water_level_trim_matches_reference(
            targets_in in prop::collection::vec(0u32..40, 1..12),
            quota in 0u32..80,
        ) {
            let mut reference: Vec<JobDecision> =
                targets_in.iter().map(|&t| d(t)).collect();
            enforce_quota_reference(&mut reference, quota);

            let mut ds = state(&targets_in);
            let out = clamp_to_quota(&mut ds, quota);
            let got: Vec<u32> = targets(&ds);
            let want: Vec<u32> = reference.iter().map(|x| x.target_replicas).collect();
            prop_assert_eq!(&got, &want);
            // Outcome accounting is consistent with the final state.
            prop_assert_eq!(out.granted_replicas, got.iter().sum::<u32>());
            prop_assert_eq!(
                out.requested_replicas,
                targets_in.iter().map(|&t| t.max(1)).sum::<u32>()
            );
            prop_assert_eq!(out.unsatisfiable(), got.iter().sum::<u32>() > quota);
        }

        /// Satellite: vector-quota admission never over-commits any
        /// capacity dimension — after the trim, either the usage vector
        /// fits or every job sits at the one-replica floor (the
        /// explicitly unsatisfiable case).
        #[test]
        fn vector_quota_admission_never_overcommits(
            asks in prop::collection::vec((0u32..10, 0u32..10), 1..8),
            gpus in 1u32..8,
            extra_cpu in 0u32..12,
        ) {
            let snap = hetero_snap(gpus, extra_cpu);
            let mut ds: DesiredState = asks
                .iter()
                .enumerate()
                .map(|(i, &(g, c))| (JobId::new(i), classed(&[g, c])))
                .collect();
            let out = ClampToQuota.admit(&snap, &mut ds);
            let totals = ds.class_totals(2);
            let fits = snap.resources.fits(&snap.resources.usage_of(&totals));
            let at_floor = ds.iter().all(|(_, d)| d.target_replicas == 1);
            prop_assert!(fits || at_floor, "over capacity off the floor: {}", totals);
            // Invariants: floors hold and the classed totals stay in
            // sync with the scalar targets.
            for (_, d) in ds.iter() {
                prop_assert!(d.target_replicas >= 1);
                prop_assert_eq!(d.classes.unwrap().total(), d.target_replicas);
            }
            prop_assert_eq!(out.granted_replicas, ds.total_replicas());
        }

        /// Rotating admission through the trait matches the historical
        /// free function driven with a pre-incremented tick counter.
        #[test]
        fn rotating_admission_contract(
            wants in prop::collection::vec(0u32..20, 1..8),
            prev in prop::collection::vec(0u32..20, 1..8),
            quota in 0u32..60,
            rotate in 0usize..8,
        ) {
            let n = wants.len().min(prev.len());
            let snapshot = snap(&prev[..n], quota);
            let mut ds = state(&wants[..n]);
            let out = admit_rotating(&mut ds, &snapshot, rotate);
            let got = targets(&ds);
            // Every job keeps at least min(want, prev) and 1.
            for i in 0..n {
                let want = wants[i].max(1);
                let floor = want.min(prev[i].max(1));
                prop_assert!(got[i] >= floor);
                prop_assert!(got[i] <= want);
            }
            // Total never exceeds max(quota, what was already held).
            let held: u32 = (0..n).map(|i| wants[i].clamp(1, prev[i].max(1))).sum();
            prop_assert!(got.iter().sum::<u32>() <= quota.max(held));
            prop_assert_eq!(out.granted_replicas, got.iter().sum::<u32>());
        }
    }
}
