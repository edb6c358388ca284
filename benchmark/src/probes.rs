//! Layer probes: one function per probe, each calling one layer's
//! public functions directly on inputs captured from the traced run.
//!
//! `FaroAutoscaler` owns its solver privately, so what happens below
//! `Policy::decide` cannot be seen from the control loop. The probes
//! rebuild a predictive round's solver input from a captured snapshot
//! the way `FaroAutoscaler::formulate` does and hand each layer a
//! [`TimedSolver`]. This is the only file bound to those layers' names;
//! a layer that does no work on the workload is not probed and reports
//! 0.

use crate::median;
use crate::timed::{SolveCall, TimedSolver};
use crate::workloads::Kind;
use faro::cluster::http::post;
use faro::cluster::{ClusterConfig, ClusterModel, ClusterServer, ObserveResponse};
use faro::core::hetero::HeteroProblem;
use faro::core::hierarchical::solve_hierarchical;
use faro::core::opt::{Fidelity, JobWorkload, LatencyModel, MultiTenantProblem};
use faro::core::predictor::RatePredictor;
use faro::core::rng::SplitMix64;
use faro::core::sharded::{ShardConfig, ShardedSolver};
use faro::core::types::{ClusterSnapshot, DesiredState, ResourceModel};
use faro::core::units::ReplicaCount;
use faro::core::utility::RelaxedUtility;
use faro::core::ClusterObjective;
use faro::nn::Matrix;
use faro::queueing::{mdc, mixed, RelaxedLatency};
use faro::solver::Cobyla;
use faro::trace::generator::{TraceKind, TraceSpec};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Probe results by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Faro's defaults, as `FaroConfig::new` sets them.
const PREDICTION_WINDOW: usize = 7;
const COLD_START_MINUTES: usize = 1;
const ALPHA: f64 = 4.0;
const RHO_MAX: f64 = 0.95;

/// Wall time one repeated probe may take.
const PROBE_BUDGET: Duration = Duration::from_millis(200);

/// What the probes work on.
pub struct Input<'a> {
    /// The traced workload.
    pub kind: Kind,
    /// Its seed.
    pub seed: u64,
    /// Snapshots of its first predictive rounds (cold round first).
    pub captured: &'a [ClusterSnapshot],
    /// A fresh set of its predictors.
    pub predictors: Vec<Box<dyn RatePredictor>>,
    /// Trajectories its policy samples per job.
    pub samples: usize,
    /// Rounds the traced run stepped.
    pub rounds: u64,
    /// The cluster `live10-loopback` serves (`None` elsewhere).
    pub cluster: Option<ClusterConfig>,
}

/// Runs every probe that applies to the workload.
pub fn run(mut input: Input<'_>) -> Values {
    let mut out = Values::new();
    calibration(&mut out);
    trace_generate(input.seed, &mut out);
    nn_matmul(input.seed, &mut out);
    let mut rng = SplitMix64::new(input.seed ^ 0x0070_726f_6265);
    // The first warm round when there is one: its start point is a
    // solved allocation, as in every predictive round but the first.
    let Some(snapshot) = input.captured.get(1).or(input.captured.first()) else {
        return out;
    };
    let jobs = formulate(snapshot, &mut input.predictors, input.samples, &mut rng);
    let current: Vec<u32> = snapshot.jobs.iter().map(|j| j.target_replicas).collect();
    match input.kind {
        Kind::Paper10Sim | Kind::Live10Loopback => {
            queueing_scalar(&jobs[0], snapshot.replica_quota(), &mut out);
            let call = opt(&jobs, &snapshot.resources, &current, &mut out);
            solver(&[call], &mut out);
        }
        Kind::Scale1kSharded => {
            queueing_scalar(&jobs[0], snapshot.replica_quota(), &mut out);
            // A shard-sized slice of the round: every 16th job against
            // a 16th of the quota.
            let shards = ShardConfig::default().shards;
            let pick = |v: &[u32]| v.iter().copied().step_by(shards).collect::<Vec<u32>>();
            let slice: Vec<JobWorkload> = jobs.iter().step_by(shards).cloned().collect();
            let budget = ResourceModel::replicas(ReplicaCount::new(
                snapshot.replica_quota().get() / shards as u32,
            ));
            opt(&slice, &budget, &pick(&current), &mut out);
            hierarchical(&slice, &budget, &pick(&current), input.seed, &mut out);
            let split = sharded(&mut input, &mut rng, &mut out);
            solver(&split, &mut out);
        }
        Kind::Hetero20Classed => {
            queueing_mixed(&jobs[0], &snapshot.resources, &mut out);
            let call = hetero(&jobs, snapshot, &current, &mut out);
            solver(&[call], &mut out);
        }
    }
    if let Some(cluster) = input.cluster.take() {
        cluster_http_floor(&mut out);
        cluster_model_and_wire(cluster, input.rounds, &mut out);
    }
    out
}

/// Median wall time of up to `reps` calls of `work`: at least three,
/// then as many as fit in [`PROBE_BUDGET`].
fn median_time(reps: usize, mut work: impl FnMut()) -> Duration {
    let started = Instant::now();
    let mut times = Vec::with_capacity(reps);
    while times.len() < reps && (times.len() < 3 || started.elapsed() < PROBE_BUDGET) {
        let start = Instant::now();
        work();
        times.push(start.elapsed());
    }
    times.sort();
    times[times.len() / 2]
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Stage 1 of a long-term round, as `FaroAutoscaler::formulate` does
/// it: forecast each job's rates, sample trajectories, skip the
/// cold-start minute, convert to requests per second.
fn formulate(
    snapshot: &ClusterSnapshot,
    predictors: &mut [Box<dyn RatePredictor>],
    samples: usize,
    rng: &mut SplitMix64,
) -> Vec<JobWorkload> {
    let per_second = |rates: &[f64]| -> Vec<f64> {
        rates[COLD_START_MINUTES..]
            .iter()
            .map(|&r| (r / 60.0).max(0.0))
            .collect()
    };
    snapshot
        .jobs
        .iter()
        .zip(predictors.iter_mut())
        .map(|(obs, predictor)| {
            let forecast = predictor.predict(&obs.arrival_rate_history, PREDICTION_WINDOW);
            let lambda_trajectories = if samples <= 1 {
                vec![per_second(&forecast.mu)]
            } else {
                (0..samples)
                    .map(|_| {
                        let drawn: Vec<f64> = forecast
                            .mu
                            .iter()
                            .zip(&forecast.sigma)
                            .map(|(&m, &s)| m + s * standard_normal(rng))
                            .collect();
                        per_second(&drawn)
                    })
                    .collect()
            };
            JobWorkload {
                lambda_trajectories,
                processing_time: obs.mean_processing_time.max(1e-6),
                slo: obs.spec.slo,
                priority: obs.spec.priority,
            }
        })
        .collect()
}

/// One Box–Muller draw.
fn standard_normal(rng: &mut SplitMix64) -> f64 {
    let u1 = rng.fraction().max(f64::MIN_POSITIVE);
    let u2 = rng.fraction();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// `bench.calibration_score`: a fixed dependent integer chain, so rows
/// taken on different machines can be normalised.
fn calibration(out: &mut Values) {
    const STEPS: u64 = 20_000_000;
    let elapsed = median_time(5, || {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..STEPS {
            x = (x ^ (x >> 30))
                .wrapping_mul(0xbf58_476d_1ce4_e5b9)
                .wrapping_add(i);
        }
        black_box(x);
    });
    out.insert("bench.calibration_score", STEPS as f64 / us(elapsed));
}

/// `trace.generate_ms`: one of the paper's 11-day Azure-like traces.
fn trace_generate(seed: u64, out: &mut Values) {
    let spec = TraceSpec {
        kind: TraceKind::AzureLike,
        seed,
        days: 11,
        min_rate: 1.0,
        max_rate: 1600.0,
    };
    let elapsed = median_time(9, || {
        black_box(black_box(&spec).generate());
    });
    out.insert("trace.generate_ms", ms(elapsed));
}

/// `nn.matmul_us`: one N-HiTS hidden layer's worth, 64×48 · 48×48.
fn nn_matmul(seed: u64, out: &mut Values) {
    let mut rng = SplitMix64::new(seed);
    let mut random = |rows, cols| {
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|_| rng.fraction() - 0.5).collect(),
        )
    };
    let (a, b) = (random(64, 48), random(48, 48));
    let elapsed = median_time(201, || {
        black_box(black_box(&a).matmul(black_box(&b)));
    });
    out.insert("nn.matmul_us", us(elapsed));
}

/// `queueing.mdc.sweep_us`, `queueing.relaxed.sweep_us`: one latency
/// table row for the first job's first predicted rate.
fn queueing_scalar(job: &JobWorkload, quota: ReplicaCount, out: &mut Values) {
    let (k, p) = (job.slo.percentile, job.processing_time);
    let lambda = job.lambda_trajectories[0][0];
    let elapsed = median_time(201, || {
        black_box(mdc::latency_percentile_sweep(
            k,
            p,
            black_box(lambda),
            quota,
        ))
        .expect("captured job is in the estimator's domain");
    });
    out.insert("queueing.mdc.sweep_us", us(elapsed));
    let relaxed = RelaxedLatency::new(RHO_MAX).expect("0.95 is a valid knee");
    let elapsed = median_time(201, || {
        let knees = relaxed
            .knee_latencies(k, p, quota)
            .expect("captured job is in the estimator's domain");
        black_box(relaxed.latency_sweep(k, p, black_box(lambda), &knees))
            .expect("captured job is in the estimator's domain");
    });
    out.insert("queueing.relaxed.sweep_us", us(elapsed));
}

/// `queueing.mixed.latency_us`: one mixed-pool estimate for the first
/// job on an even split of its classes.
fn queueing_mixed(job: &JobWorkload, resources: &ResourceModel, out: &mut Values) {
    let relaxed = RelaxedLatency::new(RHO_MAX).expect("0.95 is a valid knee");
    let (k, p) = (job.slo.percentile, job.processing_time);
    let lambda = job.lambda_trajectories[0][0];
    let multipliers: Vec<f64> = resources.classes.iter().map(|c| c.speed).collect();
    let counts = vec![3u32; multipliers.len()];
    let elapsed = median_time(2001, || {
        black_box(mixed::relaxed_latency(
            &relaxed,
            k,
            p,
            black_box(lambda),
            &multipliers,
            &counts,
        ))
        .expect("captured job is in the estimator's domain");
    });
    out.insert("queueing.mixed.latency_us", us(elapsed));
}

/// `core.opt.*`: `MultiTenantProblem::{new, solve, integerize, shrink}`
/// as `FaroAutoscaler::long_term` chains them. The latency tables are
/// built lazily, so the build is timed through the first evaluation.
fn opt(
    jobs: &[JobWorkload],
    resources: &ResourceModel,
    current: &[u32],
    out: &mut Values,
) -> SolveCall {
    let solver = TimedSolver::new(Cobyla::fast());
    let ones = vec![1.0; jobs.len()];
    let zeros = vec![0.0; jobs.len()];
    let (mut build, mut integerize, mut shrink) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..5 {
        let input = jobs.to_vec();
        let start = Instant::now();
        let problem = MultiTenantProblem::new(
            input,
            resources.clone(),
            ClusterObjective::Sum,
            Fidelity::Relaxed,
        )
        .expect("captured round is a valid problem")
        .with_latency_model(LatencyModel::MDc)
        .with_utility(RelaxedUtility::new(ALPHA))
        .with_relaxed_latency(RelaxedLatency::new(RHO_MAX).expect("0.95 is a valid knee"));
        black_box(problem.cluster_value(&ones, &zeros));
        build.push(ms(start.elapsed()));
        let alloc = problem
            .solve(&solver, current)
            .expect("captured round solves");
        let start = Instant::now();
        let mut xs = problem.integerize(&alloc);
        integerize.push(us(start.elapsed()));
        let start = Instant::now();
        problem.shrink(&mut xs, &alloc.drop_rates);
        shrink.push(us(start.elapsed()));
        black_box(xs);
    }
    let names = [
        "core.opt.build_ms",
        "core.opt.solve_ms",
        "core.opt.objective_us",
        "core.opt.evals",
        "core.opt.integerize_us",
        "core.opt.shrink_us",
    ];
    stages(names, build, &solver.take_calls(), integerize, shrink, out)
}

/// Reports the four stages of a problem probe under `names` — build,
/// solve, objective, evals, integerize, shrink, in that order — and
/// returns the median solve call.
fn stages(
    names: [&'static str; 6],
    build_ms: Vec<f64>,
    calls: &[SolveCall],
    integerize_us: Vec<f64>,
    shrink_us: Vec<f64>,
    out: &mut Values,
) -> SolveCall {
    let call = calls[calls.len() / 2];
    let solve_ms = calls.iter().map(|c| c.wall_ns() as f64 / 1e6).collect();
    let objective_us = call.objective_ns as f64 / 1e3 / call.objective_calls.max(1) as f64;
    let values = [
        median(build_ms),
        median(solve_ms),
        objective_us,
        call.evals as f64,
        median(integerize_us),
        median(shrink_us),
    ];
    out.extend(names.into_iter().zip(values));
    call
}

/// `core.hierarchical.solve_ms`: the grouped solve a shard above the
/// flat threshold takes.
fn hierarchical(
    slice: &[JobWorkload],
    budget: &ResourceModel,
    current: &[u32],
    seed: u64,
    out: &mut Values,
) {
    let cfg = ShardConfig::default();
    let elapsed = median_time(3, || {
        black_box(solve_hierarchical(
            slice,
            budget.clone(),
            ClusterObjective::Sum,
            Fidelity::Relaxed,
            &Cobyla::fast(),
            current,
            cfg.groups,
            seed,
        ))
        .expect("captured shard solves");
    });
    out.insert("core.hierarchical.solve_ms", ms(elapsed));
}

/// `core.sharded.{round,split,shard_solve,self}_ms`: the captured
/// rounds replayed through a fresh `ShardedSolver`, cold round first;
/// reported over the warm rounds. Returns the warm rounds' split calls.
fn sharded(input: &mut Input<'_>, rng: &mut SplitMix64, out: &mut Values) -> Vec<SolveCall> {
    let solver = TimedSolver::new(Cobyla::fast());
    let mut sharded = ShardedSolver::new(ShardConfig::default(), input.seed);
    let (mut round, mut split, mut shards, mut own) = (vec![], vec![], vec![], vec![]);
    let mut splits = Vec::new();
    for (r, snapshot) in input.captured.iter().take(3).enumerate() {
        let jobs = formulate(snapshot, &mut input.predictors, input.samples, rng);
        let current: Vec<u32> = snapshot.jobs.iter().map(|j| j.target_replicas).collect();
        let start = Instant::now();
        let solved = sharded
            .solve(
                &jobs,
                snapshot.resources.clone(),
                ClusterObjective::Sum,
                Fidelity::Relaxed,
                &solver,
                &current,
            )
            .expect("captured round solves");
        let wall = ms(start.elapsed());
        let mut calls = solver.take_calls();
        if r == 0 {
            continue; // cold: fills the caches, lands in setup_s
        }
        // The split runs alone, before any shard worker starts.
        calls.sort_by_key(|c| c.start_ns);
        let split_call = (solved.record.split_evals > 0).then(|| calls.remove(0));
        let split_ms = split_call.map_or(0.0, |c| c.wall_ns() as f64 / 1e6);
        let shard_ms = match (
            calls.iter().map(|c| c.start_ns).min(),
            calls.iter().map(|c| c.end_ns).max(),
        ) {
            (Some(first), Some(last)) => (last - first) as f64 / 1e6,
            _ => 0.0,
        };
        round.push(wall);
        split.push(split_ms);
        shards.push(shard_ms);
        own.push((wall - split_ms - shard_ms).max(0.0));
        splits.extend(split_call);
    }
    out.insert("core.sharded.round_ms", median(round));
    out.insert("core.sharded.split_ms", median(split));
    out.insert("core.sharded.shard_solve_ms", median(shards));
    out.insert("core.sharded.self_ms", median(own));
    splits
}

/// `core.hetero.*`: `HeteroProblem::{new, solve, integerize, shrink}`
/// as `FaroAutoscaler::long_term_hetero` chains them.
fn hetero(
    jobs: &[JobWorkload],
    snapshot: &ClusterSnapshot,
    current: &[u32],
    out: &mut Values,
) -> SolveCall {
    let solver = TimedSolver::new(Cobyla::fast());
    let resources = &snapshot.resources;
    let masks: Vec<Vec<bool>> = snapshot
        .jobs
        .iter()
        .map(|o| {
            resources
                .classes
                .iter()
                .map(|c| o.spec.allows_class(&c.name))
                .collect()
        })
        .collect();
    let ones = vec![1.0; jobs.len() * resources.n_classes()];
    let zeros = vec![0.0; jobs.len()];
    let (mut build, mut integerize, mut shrink) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..5 {
        let input = jobs.to_vec();
        let start = Instant::now();
        let problem = HeteroProblem::new(
            input,
            resources.clone(),
            ClusterObjective::Sum,
            Fidelity::Relaxed,
        )
        .expect("captured round is a valid classed problem")
        .with_utility(RelaxedUtility::new(ALPHA))
        .with_relaxed_latency(RelaxedLatency::new(RHO_MAX).expect("0.95 is a valid knee"))
        .with_affinity(masks.clone())
        .expect("masks come from the same snapshot");
        black_box(problem.cluster_value(&ones, &zeros));
        build.push(ms(start.elapsed()));
        let alloc = problem
            .solve(&solver, current)
            .expect("captured round solves");
        let start = Instant::now();
        let mut allocs = problem.integerize(&alloc);
        integerize.push(us(start.elapsed()));
        let start = Instant::now();
        problem.shrink(&mut allocs, &alloc.drop_rates);
        shrink.push(us(start.elapsed()));
        black_box(allocs);
    }
    let names = [
        "core.hetero.build_ms",
        "core.hetero.solve_ms",
        "core.hetero.objective_us",
        "core.hetero.evals",
        "core.hetero.integerize_us",
        "core.hetero.shrink_us",
    ];
    stages(names, build, &solver.take_calls(), integerize, shrink, out)
}

/// `solver.cobyla.*` from the workload's top-level solve: what the
/// solver spends on itself once the problem's evaluations are taken out.
fn solver(calls: &[SolveCall], out: &mut Values) {
    let of = |f: fn(&SolveCall) -> f64| median(calls.iter().map(f).collect());
    out.insert("solver.cobyla.self_ms", of(|c| c.self_ns() as f64 / 1e6));
    out.insert("solver.cobyla.iterations", of(|c| c.iterations as f64));
    out.insert("solver.cobyla.evals_per_solve", of(|c| c.evals as f64));
}

/// `cluster.http.floor_us`: a request the server answers without
/// touching the model — connect, one line each way, close.
fn cluster_http_floor(out: &mut Values) {
    let server =
        ClusterServer::spawn(ClusterConfig::demo(0)).expect("a loopback listener can be bound");
    let addr = server.addr();
    let elapsed = median_time(201, || {
        let reply = post(addr, "/v1/none", "{}", Duration::from_secs(5))
            .expect("the loopback server answers");
        assert_eq!(reply.status, 404);
    });
    server.shutdown();
    out.insert("cluster.http.floor_us", us(elapsed));
}

/// `cluster.model.*` in process, then `cluster.wire.*` on the snapshot
/// the model serves at the end of the run, when the history every
/// observe ships is at its longest.
fn cluster_model_and_wire(config: ClusterConfig, rounds: u64, out: &mut Values) {
    let mut model = ClusterModel::new(config);
    let (mut observe, mut apply) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..rounds.max(1) {
        let start = Instant::now();
        let (seq, snapshot) = model.observe(0);
        observe.push(us(start.elapsed()));
        let desired = DesiredState::keep_all(&snapshot);
        let start = Instant::now();
        black_box(model.apply(&desired, 0));
        apply.push(us(start.elapsed()));
        last = Some((seq, snapshot));
    }
    out.insert("cluster.model.observe_us", median(observe));
    out.insert("cluster.model.apply_us", median(apply));
    let (seq, snapshot) = last.expect("at least one round");
    let response = ObserveResponse {
        seq,
        age_ms: 0,
        snapshot,
    };
    let body = serde_json::to_string(&response).expect("snapshots serialize");
    out.insert("cluster.wire.observe_bytes", body.len() as f64);
    let elapsed = median_time(51, || {
        black_box(serde_json::to_string(black_box(&response))).expect("snapshots serialize");
    });
    out.insert("cluster.wire.serialize_us", us(elapsed));
    let elapsed = median_time(51, || {
        let value = serde_json::from_str(black_box(&body)).expect("own output parses");
        black_box(ObserveResponse::from_json(&value)).expect("own output matches the schema");
    });
    out.insert("cluster.wire.parse_us", us(elapsed));
}
