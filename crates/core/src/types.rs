//! Shared vocabulary types: jobs, SLOs, resources, snapshots, and scale
//! decisions.
//!
//! # Replica classes
//!
//! A cluster may serve from more than one kind of hardware (GPU pods,
//! CPU pods, ...). Each kind is a [`ReplicaClass`]: a service-time
//! multiplier, a cold-start delay, and a multi-dimensional quota cost.
//! When [`ResourceModel::classes`] is empty the cluster is the paper's
//! homogeneous one and every wire format, decision, and solve path is
//! byte-identical to the single-class original; the `(class, count)`
//! machinery ([`ClassAlloc`], vector quotas, per-class actuation) only
//! engages when a class table is configured.

use crate::units::{DurationMs, RatePerMin, ReplicaCount, SimTimeMs};
use std::collections::btree_map;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Capacity of the fixed-size per-class allocation vector. Four covers
/// realistic on-prem mixes (e.g. A100 / T4 / CPU-AVX / CPU) without
/// heap-allocating every [`JobDecision`].
pub const MAX_CLASSES: usize = 4;

/// Number of resource dimensions in the vector quota (vCPU, GPU,
/// memory).
pub const RESOURCE_DIMS: usize = 3;

/// Typed identifier of a job (one pre-trained model receiving queries).
///
/// Wraps the job's position in the cluster's job list so a decision can
/// never be applied to the wrong job through positional off-by-one:
/// every control-plane API keys on `JobId`, not slice order. Reports
/// key jobs by name; the only wire format that carries a `JobId` is
/// the v1 actuation schema, where [`DesiredState`] entries serialize
/// it as the raw `"job"` index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(usize);

impl JobId {
    /// Wraps a raw job index.
    pub const fn new(index: usize) -> Self {
        Self(index)
    }

    /// The raw index, for slicing into per-job storage.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// A latency service-level objective: a target and a percentile
/// (paper Sec. 3.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slo {
    /// Latency target in seconds (e.g. 0.720).
    pub latency: f64,
    /// Percentile in `(0, 1)` (e.g. 0.99 for the 99th percentile).
    pub percentile: f64,
}

impl serde::Serialize for Slo {
    fn serialize_json(&self, out: &mut String) {
        serde::object!(out; latency: self.latency, percentile: self.percentile);
    }
}

impl Slo {
    /// The paper's default evaluation SLO: 720 ms at the 99th percentile
    /// (4x the ResNet34 processing time of 180 ms).
    pub fn paper_default() -> Self {
        Self {
            latency: 0.720,
            percentile: 0.99,
        }
    }

    /// Parses an SLO from its wire format (`{"latency":..,
    /// "percentile":..}`). Returns `None` on a shape mismatch.
    pub fn from_json(v: &serde_json::Value) -> Option<Self> {
        Some(Self {
            latency: v.get("latency")?.as_f64()?,
            percentile: v.get("percentile")?.as_f64()?,
        })
    }
}

/// Static description of one inference job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Human-readable name (e.g. "resnet34-azure-3").
    pub name: String,
    /// The job's SLO.
    pub slo: Slo,
    /// Priority coefficient `pi` in cluster objectives (default 1).
    pub priority: f64,
    /// Nominal per-request processing time in seconds (e.g. 0.180 for
    /// ResNet34 on CPU). Used as the initial estimate before
    /// measurements arrive.
    pub processing_time: f64,
    /// Names of [`ReplicaClass`]es this job may run on; empty (the
    /// default) means any class. Lets operators pin e.g. a
    /// quantization-sensitive model to GPU classes only.
    pub class_affinity: Vec<String>,
}

impl serde::Serialize for JobSpec {
    /// `class_affinity` is written only when set, so specs without one
    /// (every single-class workload) keep the pre-class wire format.
    fn serialize_json(&self, out: &mut String) {
        serde::object!(out;
            name: self.name,
            slo: self.slo,
            priority: self.priority,
            processing_time: self.processing_time,
            class_affinity?: (!self.class_affinity.is_empty()).then_some(&self.class_affinity),
        );
    }
}

impl JobSpec {
    /// A ResNet34-shaped job with the paper's default SLO.
    pub fn resnet34(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            slo: Slo::paper_default(),
            priority: 1.0,
            processing_time: 0.180,
            class_affinity: Vec::new(),
        }
    }

    /// A ResNet18-shaped job: 100 ms processing, 400 ms SLO (paper
    /// Sec. 6.3).
    pub fn resnet18(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            slo: Slo {
                latency: 0.400,
                percentile: 0.99,
            },
            priority: 1.0,
            processing_time: 0.100,
            class_affinity: Vec::new(),
        }
    }

    /// Whether this job may run on the class named `class_name`.
    pub fn allows_class(&self, class_name: &str) -> bool {
        self.class_affinity.is_empty() || self.class_affinity.iter().any(|c| c == class_name)
    }

    /// Parses a spec from its wire format. `class_affinity` is
    /// optional, so pre-class JSON (every committed trace) parses to a
    /// run-anywhere spec. Returns `None` on a shape mismatch.
    pub fn from_json(v: &serde_json::Value) -> Option<Self> {
        let class_affinity = match v.get("class_affinity") {
            None => Vec::new(),
            Some(arr) => arr
                .as_array()?
                .iter()
                .map(|c| c.as_str().map(String::from))
                .collect::<Option<Vec<_>>>()?,
        };
        Some(Self {
            name: v.get("name")?.as_str()?.to_string(),
            slo: Slo::from_json(v.get("slo")?)?,
            priority: v.get("priority")?.as_f64()?,
            processing_time: v.get("processing_time")?.as_f64()?,
            class_affinity,
        })
    }
}

/// One kind of serving hardware a replica can run on.
///
/// `speed` is a service-time *multiplier* relative to the job's nominal
/// processing time: a class with `speed = 3.0` serves each request three
/// times slower than the reference hardware (class 0 by convention,
/// typically the GPU class at `speed = 1.0`).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaClass {
    /// Human-readable name (e.g. "gpu-a100", "cpu-avx").
    pub name: String,
    /// Service-time multiplier applied to every job's processing time
    /// when served from this class (1.0 = reference speed).
    pub speed: f64,
    /// Cold-start delay for a replica of this class.
    pub cold_start: DurationMs,
    /// vCPU consumed per replica of this class.
    pub cpu: f64,
    /// GPUs consumed per replica of this class.
    pub gpu: f64,
    /// Memory (GB) consumed per replica of this class.
    pub mem: f64,
}

impl serde::Serialize for ReplicaClass {
    fn serialize_json(&self, out: &mut String) {
        serde::object!(out;
            name: self.name,
            speed: self.speed,
            cold_start: self.cold_start,
            cpu: self.cpu,
            gpu: self.gpu,
            mem: self.mem,
        );
    }
}

impl ReplicaClass {
    /// A reference-speed GPU class: 1 GPU + 1 vCPU + 4 GB, 60 s cold
    /// start (model load + CUDA warm-up).
    pub fn gpu(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            speed: 1.0,
            cold_start: DurationMs::from_secs(60.0),
            cpu: 1.0,
            gpu: 1.0,
            mem: 4.0,
        }
    }

    /// A CPU-only class, `slowdown` times slower than the reference
    /// class: 1 vCPU + 1 GB, 30 s cold start (no device init).
    pub fn cpu(name: impl Into<String>, slowdown: f64) -> Self {
        Self {
            name: name.into(),
            speed: slowdown,
            cold_start: DurationMs::from_secs(30.0),
            cpu: 1.0,
            gpu: 0.0,
            mem: 1.0,
        }
    }

    /// The quota cost of one replica of this class, by resource
    /// dimension `[vCPU, GPU, memory]`.
    pub fn cost(&self) -> [f64; RESOURCE_DIMS] {
        [self.cpu, self.gpu, self.mem]
    }

    /// Parses a class from its wire format (`cold_start` is `f64`
    /// seconds, matching [`DurationMs`]'s serialization). Returns
    /// `None` on a shape mismatch.
    pub fn from_json(v: &serde_json::Value) -> Option<Self> {
        Some(Self {
            name: v.get("name")?.as_str()?.to_string(),
            speed: v.get("speed")?.as_f64()?,
            cold_start: DurationMs::from_secs(v.get("cold_start")?.as_f64()?),
            cpu: v.get("cpu")?.as_f64()?,
            gpu: v.get("gpu")?.as_f64()?,
            mem: v.get("mem")?.as_f64()?,
        })
    }
}

/// A per-class replica allocation: `counts[c]` replicas of class `c`.
///
/// Fixed capacity ([`MAX_CLASSES`]) so decisions stay `Copy` and the
/// solver's hot path never heap-allocates. `len` tracks the cluster's
/// configured class count; indices at or beyond it are always zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClassAlloc {
    counts: [u32; MAX_CLASSES],
    len: u8,
}

impl serde::Serialize for ClassAlloc {
    /// Writes a plain JSON array of the per-class counts.
    fn serialize_json(&self, out: &mut String) {
        self.as_slice().serialize_json(out);
    }
}

impl ClassAlloc {
    /// An all-zero allocation over `n_classes` classes (capped at
    /// [`MAX_CLASSES`]).
    pub fn zero(n_classes: usize) -> Self {
        Self {
            counts: [0; MAX_CLASSES],
            len: n_classes.min(MAX_CLASSES) as u8,
        }
    }

    /// An allocation from explicit per-class counts. Returns `None`
    /// when more than [`MAX_CLASSES`] counts are given.
    pub fn from_counts(counts: &[u32]) -> Option<Self> {
        if counts.len() > MAX_CLASSES {
            return None;
        }
        let mut alloc = Self::zero(counts.len());
        alloc.counts[..counts.len()].copy_from_slice(counts);
        Some(alloc)
    }

    /// `count` replicas of a single class in a `n_classes`-class table.
    pub fn single(class: usize, count: u32, n_classes: usize) -> Self {
        let mut alloc = Self::zero(n_classes);
        alloc.set(class, count);
        alloc
    }

    /// Number of classes this allocation spans.
    pub fn n_classes(&self) -> usize {
        self.len as usize
    }

    /// Replicas of class `class` (zero when out of range).
    pub fn count(&self, class: usize) -> u32 {
        if class < self.len as usize {
            self.counts[class]
        } else {
            0
        }
    }

    /// Sets the replica count of one class (ignored when out of range).
    pub fn set(&mut self, class: usize, count: u32) {
        if class < self.len as usize {
            self.counts[class] = count;
        }
    }

    /// Adds `delta` replicas of one class, saturating at zero.
    pub fn add(&mut self, class: usize, delta: i64) {
        if class < self.len as usize {
            let next = i64::from(self.counts[class]) + delta;
            self.counts[class] = next.clamp(0, i64::from(u32::MAX)) as u32;
        }
    }

    /// Total replicas across all classes.
    pub fn total(&self) -> u32 {
        self.as_slice().iter().sum()
    }

    /// The per-class counts as a slice of length [`Self::n_classes`].
    pub fn as_slice(&self) -> &[u32] {
        &self.counts[..self.len as usize]
    }

    /// Parses an allocation from its wire format (a plain count
    /// array). Returns `None` on a shape mismatch or more than
    /// [`MAX_CLASSES`] entries.
    pub fn from_json(v: &serde_json::Value) -> Option<Self> {
        let counts = v
            .as_array()?
            .iter()
            .map(|n| n.as_u64().and_then(|n| u32::try_from(n).ok()))
            .collect::<Option<Vec<_>>>()?;
        Self::from_counts(&counts)
    }
}

impl fmt::Display for ClassAlloc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (c, n) in self.as_slice().iter().enumerate() {
            if c > 0 {
                write!(f, ",")?;
            }
            write!(f, "{n}")?;
        }
        write!(f, "]")
    }
}

/// Per-replica resource demand and cluster capacity.
///
/// Two regimes share this type:
///
/// * **Homogeneous** (paper Sec. 6: 1 vCPU + 1 GB per Ray Serve
///   replica): `classes` is empty and the scalar
///   `cpu_per_replica`/`mem_per_replica` fields describe every replica.
///   This is the default everywhere and serializes byte-identically to
///   the pre-class wire format.
/// * **Heterogeneous**: `classes` lists the available hardware kinds
///   and capacity is the vector `[cluster_cpu, cluster_gpu,
///   cluster_mem]`; the scalar per-replica fields are ignored.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceModel {
    /// vCPU per replica (homogeneous regime).
    pub cpu_per_replica: f64,
    /// Memory (GB) per replica (homogeneous regime).
    pub mem_per_replica: f64,
    /// Total vCPU available for replicas.
    pub cluster_cpu: f64,
    /// Total memory (GB) available for replicas.
    pub cluster_mem: f64,
    /// Total GPUs available for replicas (heterogeneous regime; zero
    /// and unserialized in the homogeneous one).
    pub cluster_gpu: f64,
    /// Replica class table; empty means homogeneous.
    pub classes: Vec<ReplicaClass>,
}

impl serde::Serialize for ResourceModel {
    /// The GPU/class fields are written only when a class table is
    /// configured, so the homogeneous wire format stays the pre-class
    /// one byte for byte.
    fn serialize_json(&self, out: &mut String) {
        let classed = self.has_classes();
        serde::object!(out;
            cpu_per_replica: self.cpu_per_replica,
            mem_per_replica: self.mem_per_replica,
            cluster_cpu: self.cluster_cpu,
            cluster_mem: self.cluster_mem,
            cluster_gpu?: classed.then_some(self.cluster_gpu),
            classes?: classed.then_some(&self.classes),
        );
    }
}

impl ResourceModel {
    /// A cluster sized in whole replicas (the paper's framing: "total
    /// replicas" via Kubernetes resource quota).
    pub fn replicas(total: ReplicaCount) -> Self {
        Self {
            cpu_per_replica: 1.0,
            mem_per_replica: 1.0,
            cluster_cpu: total.as_f64(),
            cluster_mem: total.as_f64(),
            cluster_gpu: 0.0,
            classes: Vec::new(),
        }
    }

    /// A heterogeneous cluster with the given class table and capacity
    /// vector. The scalar per-replica fields are set to the class-0
    /// costs so legacy consumers that ignore classes see something
    /// sensible rather than garbage.
    pub fn heterogeneous(
        classes: Vec<ReplicaClass>,
        cluster_cpu: f64,
        cluster_gpu: f64,
        cluster_mem: f64,
    ) -> Self {
        let (cpu0, mem0) = classes
            .first()
            .map(|c| (c.cpu, c.mem))
            .unwrap_or((1.0, 1.0));
        Self {
            cpu_per_replica: cpu0,
            mem_per_replica: mem0,
            cluster_cpu,
            cluster_mem,
            cluster_gpu,
            classes,
        }
    }

    /// Whether a replica class table is configured (heterogeneous
    /// regime).
    pub fn has_classes(&self) -> bool {
        !self.classes.is_empty()
    }

    /// Number of replica classes (zero in the homogeneous regime).
    pub fn n_classes(&self) -> usize {
        self.classes.len()
    }

    /// The capacity vector `[vCPU, GPU, memory]`.
    pub fn capacities(&self) -> [f64; RESOURCE_DIMS] {
        [self.cluster_cpu, self.cluster_gpu, self.cluster_mem]
    }

    /// The resource usage vector of one per-class allocation.
    pub fn usage_of(&self, alloc: &ClassAlloc) -> [f64; RESOURCE_DIMS] {
        let mut usage = [0.0; RESOURCE_DIMS];
        for (c, class) in self.classes.iter().enumerate() {
            let n = f64::from(alloc.count(c));
            let cost = class.cost();
            for (u, k) in usage.iter_mut().zip(cost) {
                *u += n * k;
            }
        }
        usage
    }

    /// Whether `usage` fits inside the capacity vector (with a small
    /// relative tolerance for float accumulation).
    pub fn fits(&self, usage: &[f64; RESOURCE_DIMS]) -> bool {
        usage
            .iter()
            .zip(self.capacities())
            .all(|(&u, cap)| u <= cap * (1.0 + 1e-9) + 1e-9)
    }

    /// Maximum replicas of one class alone, over every resource
    /// dimension that class consumes.
    pub fn class_quota(&self, class: usize) -> ReplicaCount {
        let Some(c) = self.classes.get(class) else {
            return ReplicaCount::new(0);
        };
        let mut quota = f64::INFINITY;
        for (cost, cap) in c.cost().into_iter().zip(self.capacities()) {
            if cost > 0.0 {
                quota = quota.min(cap / cost);
            }
        }
        if quota.is_finite() {
            ReplicaCount::new(quota.floor().max(0.0) as u32)
        } else {
            ReplicaCount::new(0)
        }
    }

    /// The class indices, fastest (lowest service-time multiplier)
    /// first, ties on the lower index; `[0]` without a class table, the
    /// one class a scalar decision stands for.
    pub fn classes_by_speed(&self) -> Vec<usize> {
        let speed = |c: usize| self.classes.get(c).map_or(1.0, |class| class.speed);
        let mut order: Vec<usize> = (0..self.n_classes().max(1)).collect();
        order.sort_by(|&a, &b| {
            speed(a)
                .partial_cmp(&speed(b))
                .unwrap_or(core::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        order
    }

    /// Assigns a *class-blind* replica target to classes by spill-fill:
    /// fill the fastest class (lowest service-time multiplier, ties by
    /// lower index) as far as the remaining vector capacity allows,
    /// then spill the rest into the next-fastest class, and so on.
    ///
    /// `used` is the capacity already committed (by classed decisions
    /// or earlier spill-fills) and is advanced in place so successive
    /// calls share one budget. Replicas that fit nowhere are parked on
    /// the slowest class — admission ([`fits`](Self::fits)) is the
    /// ground truth that trims them later, exactly as a scalar
    /// over-quota target is trimmed.
    ///
    /// This is the documented class-assignment rule for class-blind
    /// baselines on heterogeneous clusters: they pick a *count* and the
    /// platform places it greedily, so they consume scarce fast
    /// capacity first regardless of each job's SLO slack.
    pub fn spill_fill(&self, target: u32, used: &mut [f64; RESOURCE_DIMS]) -> ClassAlloc {
        let nc = self.n_classes();
        let mut alloc = ClassAlloc::zero(nc);
        if nc == 0 {
            return alloc;
        }
        let order = self.classes_by_speed();
        let caps = self.capacities();
        let mut remaining = target;
        for &c in &order {
            if remaining == 0 {
                break;
            }
            let cost = self.classes[c].cost();
            let mut headroom = f64::INFINITY;
            for ((&u, cap), k) in used.iter().zip(caps).zip(cost) {
                if k > 0.0 {
                    headroom = headroom.min((cap - u) / k);
                }
            }
            let take = if headroom.is_finite() {
                (headroom.floor().max(0.0) as u32).min(remaining)
            } else {
                remaining
            };
            if take > 0 {
                alloc.add(c, i64::from(take));
                for (u, k) in used.iter_mut().zip(cost) {
                    *u += f64::from(take) * k;
                }
                remaining -= take;
            }
        }
        if remaining > 0 {
            // Park the overflow on the slowest class; admission trims it.
            let slowest = *order.last().unwrap_or(&0);
            alloc.add(slowest, i64::from(remaining));
            for (u, k) in used.iter_mut().zip(self.classes[slowest].cost()) {
                *u += f64::from(remaining) * k;
            }
        }
        alloc
    }

    /// The replica quota implied by the binding resource.
    ///
    /// Homogeneous regime: the quota is `floor(min_d cap_d / cost_d)` —
    /// the **binding** (scarcest) resource is identified on fractional
    /// replicas first and floored once. Since `floor` is monotone,
    /// this equals `min_d floor(cap_d / cost_d)`; with fractional
    /// per-replica costs (e.g. 0.5 vCPU/replica) the division happens
    /// before any rounding, so 10 vCPU at 0.5 vCPU/replica yields 20
    /// replicas, not 10.
    ///
    /// Heterogeneous regime: the sum of single-class quotas. Exact
    /// when class costs are dimension-disjoint (e.g. a GPU class
    /// binding on GPUs and a CPU class binding on vCPU); an upper
    /// bound otherwise — [`Self::fits`] remains the ground truth that
    /// admission enforces.
    pub fn replica_quota(&self) -> ReplicaCount {
        if self.has_classes() {
            return (0..self.n_classes()).map(|c| self.class_quota(c)).sum();
        }
        let by_cpu = self.cluster_cpu / self.cpu_per_replica;
        let by_mem = self.cluster_mem / self.mem_per_replica;
        ReplicaCount::new(by_cpu.min(by_mem).floor().max(0.0) as u32)
    }

    /// Parses a model from its wire format. `cluster_gpu` and
    /// `classes` are optional, so pre-class JSON parses to the
    /// homogeneous regime. Returns `None` on a shape mismatch.
    pub fn from_json(v: &serde_json::Value) -> Option<Self> {
        let classes = match v.get("classes") {
            None => Vec::new(),
            Some(arr) => arr
                .as_array()?
                .iter()
                .map(ReplicaClass::from_json)
                .collect::<Option<Vec<_>>>()?,
        };
        Some(Self {
            cpu_per_replica: v.get("cpu_per_replica")?.as_f64()?,
            mem_per_replica: v.get("mem_per_replica")?.as_f64()?,
            cluster_cpu: v.get("cluster_cpu")?.as_f64()?,
            cluster_mem: v.get("cluster_mem")?.as_f64()?,
            cluster_gpu: v.get("cluster_gpu").and_then(|g| g.as_f64()).unwrap_or(0.0),
            classes,
        })
    }
}

/// Per-job observation delivered to policies at every tick.
#[derive(Debug, Clone, PartialEq)]
pub struct JobObservation {
    /// The job's static spec, shared with the runtime (interned so a
    /// snapshot does not deep-copy the spec on every tick).
    pub spec: Arc<JobSpec>,
    /// Current autoscale target (replicas the job is entitled to).
    pub target_replicas: u32,
    /// Replicas actually serving (excludes cold-starting ones).
    pub ready_replicas: u32,
    /// Router queue length right now.
    pub queue_len: usize,
    /// Completed per-minute arrival counts, oldest first (the metric the
    /// Faro router exports continually). Shared copy-on-write with the
    /// runtime's history so building a snapshot is O(1) in the elapsed
    /// trace length; serializes as a plain JSON array of raw rates.
    pub arrival_rate_history: Arc<Vec<RatePerMin>>,
    /// Arrival rate over the last reactive interval (requests/second).
    pub recent_arrival_rate: f64,
    /// Measured mean per-request processing time (seconds); falls back
    /// to the spec value when no requests completed yet.
    pub mean_processing_time: f64,
    /// Tail latency at the job's SLO percentile over the last reactive
    /// interval (seconds; infinite when requests were dropped).
    pub recent_tail_latency: f64,
    /// Current explicit drop rate setting in `[0, 1]`.
    pub drop_rate: f64,
    /// Per-class breakdown of `target_replicas` (heterogeneous regime
    /// only; `None` on homogeneous clusters).
    pub class_target: Option<ClassAlloc>,
    /// Per-class breakdown of `ready_replicas` (heterogeneous regime
    /// only; `None` on homogeneous clusters).
    pub class_ready: Option<ClassAlloc>,
}

impl serde::Serialize for JobObservation {
    /// The per-class fields are written only when set, so homogeneous
    /// observations keep the pre-class wire format.
    fn serialize_json(&self, out: &mut String) {
        serde::object!(out;
            spec: self.spec,
            target_replicas: self.target_replicas,
            ready_replicas: self.ready_replicas,
            queue_len: self.queue_len,
            arrival_rate_history: self.arrival_rate_history,
            recent_arrival_rate: self.recent_arrival_rate,
            mean_processing_time: self.mean_processing_time,
            recent_tail_latency: self.recent_tail_latency,
            drop_rate: self.drop_rate,
            class_target?: self.class_target,
            class_ready?: self.class_ready,
        );
    }
}

impl JobObservation {
    /// Parses an observation from its wire format. The per-class
    /// fields are optional, so pre-class JSON parses to the
    /// homogeneous regime. Non-finite floats serialize as `null`
    /// (the vendored writer's encoding) and parse back as NaN — a
    /// corrupt sample stays corrupt across the wire, though an
    /// infinite tail degrades to NaN ("unknown"), which every
    /// consumer already treats as not-attained. Returns `None` on a
    /// shape mismatch.
    pub fn from_json(v: &serde_json::Value) -> Option<Self> {
        let history = v
            .get("arrival_rate_history")?
            .as_array()?
            .iter()
            .map(|r| match r {
                serde_json::Value::Null => Some(RatePerMin::NAN),
                _ => r.as_f64().map(RatePerMin::new),
            })
            .collect::<Option<Vec<_>>>()?;
        let float = |key: &str| -> Option<f64> {
            match v.get(key)? {
                serde_json::Value::Null => Some(f64::NAN),
                other => other.as_f64(),
            }
        };
        let class = |key: &str| -> Option<Option<ClassAlloc>> {
            match v.get(key) {
                None => Some(None),
                Some(a) => Some(Some(ClassAlloc::from_json(a)?)),
            }
        };
        Some(Self {
            spec: Arc::new(JobSpec::from_json(v.get("spec")?)?),
            target_replicas: u32::try_from(v.get("target_replicas")?.as_u64()?).ok()?,
            ready_replicas: u32::try_from(v.get("ready_replicas")?.as_u64()?).ok()?,
            queue_len: usize::try_from(v.get("queue_len")?.as_u64()?).ok()?,
            arrival_rate_history: Arc::new(history),
            recent_arrival_rate: float("recent_arrival_rate")?,
            mean_processing_time: float("mean_processing_time")?,
            recent_tail_latency: float("recent_tail_latency")?,
            drop_rate: float("drop_rate")?,
            class_target: class("class_target")?,
            class_ready: class("class_ready")?,
        })
    }
}

/// Cluster-wide observation delivered to policies at every tick.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSnapshot {
    /// Simulation/wall time (serialized as `f64` seconds).
    pub now: SimTimeMs,
    /// Resource capacity.
    pub resources: ResourceModel,
    /// Per-job observations, indexed by [`JobId`].
    pub jobs: Vec<JobObservation>,
}

impl serde::Serialize for ClusterSnapshot {
    fn serialize_json(&self, out: &mut String) {
        serde::object!(out; now: self.now, resources: self.resources, jobs: self.jobs);
    }
}

impl ClusterSnapshot {
    /// Total replica quota.
    pub fn replica_quota(&self) -> ReplicaCount {
        self.resources.replica_quota()
    }

    /// Identifiers of every job in the snapshot, in ascending order.
    pub fn job_ids(&self) -> impl Iterator<Item = JobId> + '_ {
        (0..self.jobs.len()).map(JobId::new)
    }

    /// The observation for one job, if present.
    pub fn job(&self, id: JobId) -> Option<&JobObservation> {
        self.jobs.get(id.index())
    }

    /// Parses a snapshot from its wire format (`now` is `f64`
    /// seconds, the format [`SimTimeMs`] serializes). Returns `None`
    /// on a shape mismatch.
    pub fn from_json(v: &serde_json::Value) -> Option<Self> {
        Some(Self {
            now: SimTimeMs::from_secs(v.get("now")?.as_f64()?),
            resources: ResourceModel::from_json(v.get("resources")?)?,
            jobs: v
                .get("jobs")?
                .as_array()?
                .iter()
                .map(JobObservation::from_json)
                .collect::<Option<Vec<_>>>()?,
        })
    }
}

/// A policy's decision for one job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobDecision {
    /// New replica target (at least 1).
    pub target_replicas: u32,
    /// Explicit request drop rate in `[0, 1]` (Faro-Penalty variants;
    /// zero for all other policies).
    pub drop_rate: f64,
    /// Per-class breakdown of `target_replicas` (heterogeneous regime
    /// only). Invariant: when `Some`, the class counts sum to
    /// `target_replicas`.
    pub classes: Option<ClassAlloc>,
}

impl serde::Serialize for JobDecision {
    /// `classes` is written only when set, so class-free decisions
    /// (every homogeneous run) keep the pre-class wire format.
    fn serialize_json(&self, out: &mut String) {
        serde::object!(out;
            target_replicas: self.target_replicas,
            drop_rate: self.drop_rate,
            classes?: self.classes,
        );
    }
}

impl JobDecision {
    /// A plain scale decision: `n` replicas, no request drops, no
    /// class placement. The constructor for every drop-free policy —
    /// unlike [`Self::keep`] it can never resurrect a stale drop rate
    /// from the observation.
    pub fn replicas(n: u32) -> Self {
        Self {
            target_replicas: n,
            drop_rate: 0.0,
            classes: None,
        }
    }

    /// A classed scale decision; the replica target is the allocation
    /// total, upholding the `classes`/`target_replicas` invariant.
    pub fn classed(alloc: ClassAlloc) -> Self {
        Self {
            target_replicas: alloc.total(),
            drop_rate: 0.0,
            classes: Some(alloc),
        }
    }

    /// Keep the current allocation of an observation — including its
    /// drop rate and per-class placement. Policies that never drop
    /// should prefer [`Self::replicas`] when scaling so they do not
    /// carry a drop rate forward.
    pub fn keep(obs: &JobObservation) -> Self {
        Self {
            target_replicas: obs.target_replicas,
            drop_rate: obs.drop_rate,
            classes: obs.class_target,
        }
    }

    /// This decision with the drop rate replaced.
    pub fn with_drop_rate(mut self, drop_rate: f64) -> Self {
        self.drop_rate = drop_rate;
        self
    }

    /// Parses a decision from its wire format. `classes` is optional,
    /// so pre-class JSON parses to a class-free decision. Returns
    /// `None` on a shape mismatch, and on `classes` that do not sum to
    /// `target_replicas` (the type's invariant).
    pub fn from_json(v: &serde_json::Value) -> Option<Self> {
        let target_replicas = u32::try_from(v.get("target_replicas")?.as_u64()?).ok()?;
        let classes = match v.get("classes") {
            None => None,
            // Summed wide, so `[u32::MAX, 3]` cannot wrap to a target of 2.
            Some(a) => Some(ClassAlloc::from_json(a).filter(|alloc| {
                let total: u64 = alloc.as_slice().iter().map(|&n| u64::from(n)).sum();
                total == u64::from(target_replicas)
            })?),
        };
        Some(Self {
            target_replicas,
            drop_rate: v.get("drop_rate")?.as_f64()?,
            classes,
        })
    }
}

/// The control plane's desired cluster state: one [`JobDecision`] per
/// job, keyed by [`JobId`].
///
/// This is what a [`crate::Policy`] emits and what a backend actuates.
/// Jobs absent from the map are left untouched by actuation, so a
/// partial decider (e.g. a reactive booster) composes with a full one.
/// Iteration is always in ascending `JobId` order, which keeps
/// event-driven backends deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DesiredState {
    decisions: BTreeMap<JobId, JobDecision>,
}

impl DesiredState {
    /// An empty desired state (touches no job).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of jobs with a decision.
    pub fn len(&self) -> usize {
        self.decisions.len()
    }

    /// Whether no job has a decision.
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }

    /// Sets (or replaces) the decision for one job.
    pub fn set(&mut self, id: JobId, decision: JobDecision) {
        self.decisions.insert(id, decision);
    }

    /// The decision for one job, if present.
    pub fn get(&self, id: JobId) -> Option<JobDecision> {
        self.decisions.get(&id).copied()
    }

    /// Mutable access to the decision for one job.
    pub fn get_mut(&mut self, id: JobId) -> Option<&mut JobDecision> {
        self.decisions.get_mut(&id)
    }

    /// Whether a job has a decision.
    pub fn contains(&self, id: JobId) -> bool {
        self.decisions.contains_key(&id)
    }

    /// Decisions in ascending `JobId` order.
    pub fn iter(&self) -> impl Iterator<Item = (JobId, JobDecision)> + '_ {
        self.decisions.iter().map(|(&id, &d)| (id, d))
    }

    /// Mutable decisions in ascending `JobId` order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (JobId, &mut JobDecision)> {
        self.decisions.iter_mut().map(|(&id, d)| (id, d))
    }

    /// Replica targets in ascending `JobId` order (convenience for
    /// tests and positional bookkeeping inside policies).
    pub fn targets(&self) -> impl Iterator<Item = u32> + '_ {
        self.decisions.values().map(|d| d.target_replicas)
    }

    /// Sum of replica targets across all decisions.
    pub fn total_replicas(&self) -> u32 {
        self.decisions.values().map(|d| d.target_replicas).sum()
    }

    /// Sum of per-class allocations across all decisions. Classless
    /// decisions contribute their whole target to class 0 (the
    /// reference class), matching how backends actuate them.
    pub fn class_totals(&self, n_classes: usize) -> ClassAlloc {
        let mut totals = ClassAlloc::zero(n_classes);
        for d in self.decisions.values() {
            match &d.classes {
                Some(alloc) => {
                    for c in 0..alloc.n_classes().min(n_classes) {
                        totals.add(c, i64::from(alloc.count(c)));
                    }
                }
                None => totals.add(0, i64::from(d.target_replicas)),
            }
        }
        totals
    }

    /// A full-coverage state that keeps every job's current allocation.
    pub fn keep_all(snapshot: &ClusterSnapshot) -> Self {
        snapshot
            .job_ids()
            .zip(snapshot.jobs.iter().map(JobDecision::keep))
            .collect()
    }

    /// Parses a desired state from its wire format: an array of
    /// [`JobDecision`] objects each tagged with its `"job"` index.
    /// Duplicate indices keep the last entry (map semantics). Returns
    /// `None` on a shape mismatch.
    pub fn from_json(v: &serde_json::Value) -> Option<Self> {
        v.as_array()?
            .iter()
            .map(|entry| {
                let id = JobId::new(usize::try_from(entry.get("job")?.as_u64()?).ok()?);
                Some((id, JobDecision::from_json(entry)?))
            })
            .collect::<Option<Self>>()
    }
}

impl serde::Serialize for DesiredState {
    /// The v1 actuation wire format: an ascending-`JobId`
    /// array whose entries are each job's [`JobDecision`] wire object
    /// prefixed with its `"job"` index — the decision fields are
    /// byte-identical to [`JobDecision`]'s own serializer, so a
    /// backend that already parses decisions parses desired states.
    fn serialize_json(&self, out: &mut String) {
        out.push('[');
        let mut first = true;
        for (id, d) in self.iter() {
            if !first {
                out.push(',');
            }
            first = false;
            serde::object!(out;
                job: id.index(),
                target_replicas: d.target_replicas,
                drop_rate: d.drop_rate,
                classes?: d.classes,
            );
        }
        out.push(']');
    }
}

impl FromIterator<(JobId, JobDecision)> for DesiredState {
    fn from_iter<T: IntoIterator<Item = (JobId, JobDecision)>>(iter: T) -> Self {
        Self {
            decisions: iter.into_iter().collect(),
        }
    }
}

impl IntoIterator for DesiredState {
    type Item = (JobId, JobDecision);
    type IntoIter = btree_map::IntoIter<JobId, JobDecision>;

    fn into_iter(self) -> Self::IntoIter {
        self.decisions.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resource_model_quota() {
        assert_eq!(
            ResourceModel::replicas(ReplicaCount::new(32)).replica_quota(),
            ReplicaCount::new(32)
        );
        let uneven = ResourceModel {
            cpu_per_replica: 1.0,
            mem_per_replica: 2.0,
            cluster_mem: 8.0,
            ..ResourceModel::replicas(ReplicaCount::new(10))
        };
        // Memory binds: 8 / 2 = 4 replicas.
        assert_eq!(uneven.replica_quota(), ReplicaCount::new(4));
    }

    #[test]
    fn fractional_per_replica_costs_divide_before_rounding() {
        // 0.5 vCPU per replica: 10 vCPU must yield 20 replicas, i.e.
        // the division happens on fractional replicas before the single
        // floor of the binding resource.
        let fractional = ResourceModel {
            cpu_per_replica: 0.5,
            mem_per_replica: 0.25,
            cluster_cpu: 10.0,
            cluster_mem: 8.0,
            ..ResourceModel::replicas(ReplicaCount::new(0))
        };
        // cpu: 10 / 0.5 = 20; mem: 8 / 0.25 = 32 -> cpu binds at 20.
        assert_eq!(fractional.replica_quota(), ReplicaCount::new(20));
        // A fractional ratio floors once: 10 / 0.6 = 16.67 -> 16.
        let ragged = ResourceModel {
            cpu_per_replica: 0.6,
            ..fractional
        };
        assert_eq!(ragged.replica_quota(), ReplicaCount::new(16));
    }

    #[test]
    fn class_alloc_arithmetic() {
        let mut a = ClassAlloc::zero(2);
        assert_eq!(a.total(), 0);
        a.set(0, 3);
        a.add(1, 5);
        a.add(1, -2);
        assert_eq!(a.as_slice(), &[3, 3]);
        assert_eq!(a.total(), 6);
        // Out-of-range classes are inert and read as zero.
        a.set(3, 9);
        assert_eq!(a.count(3), 0);
        a.add(0, -10);
        assert_eq!(a.count(0), 0, "saturates at zero");
        assert_eq!(ClassAlloc::single(1, 4, 3).as_slice(), &[0, 4, 0]);
        assert_eq!(ClassAlloc::from_counts(&[1, 2]).unwrap().total(), 3);
        assert!(ClassAlloc::from_counts(&[1; 5]).is_none());
        assert_eq!(
            format!("{}", ClassAlloc::from_counts(&[1, 2]).unwrap()),
            "[1,2]"
        );
    }

    #[test]
    fn heterogeneous_quota_and_usage() {
        let model = ResourceModel::heterogeneous(
            vec![ReplicaClass::gpu("gpu"), ReplicaClass::cpu("cpu", 3.0)],
            24.0, // vCPU
            8.0,  // GPUs
            64.0, // GB
        );
        assert!(model.has_classes());
        // GPU class: min(24/1 cpu, 8/1 gpu, 64/4 mem) = 8.
        assert_eq!(model.class_quota(0), ReplicaCount::new(8));
        // CPU class: min(24/1 cpu, 64/1 mem) = 24 (gpu cost 0 ignored).
        assert_eq!(model.class_quota(1), ReplicaCount::new(24));
        assert_eq!(model.replica_quota(), ReplicaCount::new(32));
        let alloc = ClassAlloc::from_counts(&[2, 4]).unwrap();
        let usage = model.usage_of(&alloc);
        assert_eq!(usage, [6.0, 2.0, 12.0]);
        assert!(model.fits(&usage));
        assert!(!model.fits(&[25.0, 0.0, 0.0]));
        // Affinity: empty allows everything, otherwise exact names.
        let mut spec = JobSpec::resnet34("a");
        assert!(spec.allows_class("cpu"));
        spec.class_affinity = vec!["gpu".into()];
        assert!(spec.allows_class("gpu"));
        assert!(!spec.allows_class("cpu"));
    }

    #[test]
    fn spill_fill_drains_fast_capacity_before_spilling() {
        let model = ResourceModel::heterogeneous(
            vec![ReplicaClass::gpu("gpu"), ReplicaClass::cpu("cpu", 3.0)],
            24.0,
            4.0,
            64.0,
        );
        let mut used = [0.0; RESOURCE_DIMS];
        // First job grabs all 4 GPUs then spills 2 onto CPUs.
        let a = model.spill_fill(6, &mut used);
        assert_eq!(a.as_slice(), &[4, 2]);
        // Second job sees no GPU headroom left.
        let b = model.spill_fill(3, &mut used);
        assert_eq!(b.as_slice(), &[0, 3]);
        assert!(model.fits(&used));
        // Overflow past every class parks on the slowest class.
        let mut tight = [24.0, 4.0, 64.0];
        let c = model.spill_fill(2, &mut tight);
        assert_eq!(c.as_slice(), &[0, 2]);
    }

    #[test]
    fn single_class_wire_format_is_unchanged() {
        // The exact byte strings the pre-class writers emitted; the
        // writers must keep emitting them whenever no class data is
        // present.
        let model = ResourceModel::replicas(ReplicaCount::new(4));
        assert_eq!(
            serde_json::to_string(&model).unwrap(),
            "{\"cpu_per_replica\":1,\"mem_per_replica\":1,\"cluster_cpu\":4,\"cluster_mem\":4}"
        );
        let decision = JobDecision::replicas(3);
        assert_eq!(
            serde_json::to_string(&decision).unwrap(),
            "{\"target_replicas\":3,\"drop_rate\":0}"
        );
        let spec = JobSpec::resnet18("b");
        assert_eq!(
            serde_json::to_string(&spec).unwrap(),
            "{\"name\":\"b\",\"slo\":{\"latency\":0.4,\"percentile\":0.99},\
             \"priority\":1,\"processing_time\":0.1}"
        );
        // With class data the new fields appear after the legacy ones.
        let classed = JobDecision::classed(ClassAlloc::from_counts(&[1, 2]).unwrap());
        assert_eq!(
            serde_json::to_string(&classed).unwrap(),
            "{\"target_replicas\":3,\"drop_rate\":0,\"classes\":[1,2]}"
        );
    }

    #[test]
    fn job_spec_presets() {
        let j34 = JobSpec::resnet34("a");
        assert!((j34.processing_time - 0.180).abs() < 1e-12);
        assert!((j34.slo.latency - 0.720).abs() < 1e-12);
        let j18 = JobSpec::resnet18("b");
        assert!((j18.slo.latency - 0.400).abs() < 1e-12);
        // Both SLOs are 4x the processing time.
        assert!((j34.slo.latency / j34.processing_time - 4.0).abs() < 1e-9);
        assert!((j18.slo.latency / j18.processing_time - 4.0).abs() < 1e-9);
    }

    #[test]
    fn snapshot_totals() {
        let mk = |target| JobObservation {
            spec: Arc::new(JobSpec::resnet34("x")),
            target_replicas: target,
            ready_replicas: target,
            queue_len: 0,
            arrival_rate_history: Arc::new(vec![]),
            recent_arrival_rate: 0.0,
            mean_processing_time: 0.18,
            recent_tail_latency: 0.1,
            drop_rate: 0.0,
            class_target: None,
            class_ready: None,
        };
        let snap = ClusterSnapshot {
            now: SimTimeMs::ZERO,
            resources: ResourceModel::replicas(ReplicaCount::new(16)),
            jobs: vec![mk(3), mk(5)],
        };
        assert_eq!(snap.replica_quota(), ReplicaCount::new(16));
        assert_eq!(snap.job_ids().collect::<Vec<_>>().len(), 2);
        assert_eq!(snap.job(JobId::new(1)).unwrap().target_replicas, 5);
        assert!(snap.job(JobId::new(2)).is_none());
    }

    #[test]
    fn desired_state_iterates_in_job_order() {
        let mut ds = DesiredState::new();
        ds.set(JobId::new(2), JobDecision::replicas(7));
        ds.set(JobId::new(0), JobDecision::replicas(3));
        assert_eq!(ds.len(), 2);
        assert!(!ds.contains(JobId::new(1)));
        assert_eq!(ds.get(JobId::new(2)).unwrap().target_replicas, 7);
        assert_eq!(ds.targets().collect::<Vec<_>>(), vec![3, 7]);
        assert_eq!(ds.total_replicas(), 10);
        // Ascending JobId order regardless of insertion order.
        let ids: Vec<_> = ds.iter().map(|(id, _)| id.index()).collect();
        assert_eq!(ids, vec![0, 2]);
        assert_eq!(format!("{}", JobId::new(4)), "job4");
    }
}
