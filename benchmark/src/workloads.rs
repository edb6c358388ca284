//! The four workloads. Each one builds its inputs from the seed alone,
//! hands the control loop a backend and a Faro policy, and knows the
//! output checks that only make sense for it.
//!
//! | workload          | backend                | what does the work            |
//! |-------------------|------------------------|-------------------------------|
//! | `paper10-sim`     | `SimBackend`           | sim, forecast/nn, flat solve  |
//! | `scale1k-sharded` | [`ReplayBackend`]      | sharded + hierarchical solve  |
//! | `hetero20-classed`| [`ReplayBackend`]      | classed (`HeteroProblem`)     |
//! | `live10-loopback` | `HttpBackend` + server | http, wire, retry ladder      |

use crate::replay::{ReplayBackend, ReplayJob, TICKS_PER_MINUTE, TICKS_PER_PERIOD, TICK_MS};
use crate::run::{ControlLoop, Finished, Harvest, Instruments, Plain, Resilient};
use crate::timed::TimedBackend;
use faro::bench::workloads::{PREDICTOR_HORIZON, PREDICTOR_INPUT};
use faro::bench::WorkloadSet;
use faro::cluster::model::FaultStreams;
use faro::cluster::{
    ChaosConfig, ClusterConfig, ClusterServer, HttpBackend, JobConfig, LiveConfig,
};
use faro::control::{ClusterBackend, Reconciler, RetryPolicy};
use faro::core::admission::{ClampToQuota, OutageClamp};
use faro::core::faro::FaroConfig;
use faro::core::predictor::{FlatPredictor, ProbabilisticPredictor, RatePredictor};
use faro::core::rng::SplitMix64;
use faro::core::sharded::{ShardConfig, SolvePlan};
use faro::core::types::{JobSpec, ReplicaClass, ResourceModel, Slo};
use faro::core::units::{RatePerMin, ReplicaCount};
use faro::core::ClusterObjective;
use faro::forecast::nhits::{NHits, NHitsConfig};
use faro::forecast::Forecaster;
use faro::sim::{SimConfig, Simulation};
use std::sync::Arc;
use std::time::Duration;

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's ten jobs on the discrete-event simulator.
    Paper10Sim,
    /// 1,000 synthetic jobs through the sharded incremental solver.
    Scale1kSharded,
    /// 20 jobs on a two-class cluster through the classed solver.
    Hetero20Classed,
    /// The ten jobs over loopback HTTP under seeded chaos.
    Live10Loopback,
}

impl Kind {
    /// Every workload, in reporting order.
    pub const ALL: [Kind; 4] = [
        Kind::Paper10Sim,
        Kind::Scale1kSharded,
        Kind::Hetero20Classed,
        Kind::Live10Loopback,
    ];

    /// The workload's name, as `BENCHMARK.json` lists it.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Paper10Sim => "paper10-sim",
            Kind::Scale1kSharded => "scale1k-sharded",
            Kind::Hetero20Classed => "hetero20-classed",
            Kind::Live10Loopback => "live10-loopback",
        }
    }

    /// Parses a `--workload` argument.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// How much fixed work a run does. Work never depends on how fast the
/// machine is: `--seconds` picks a size from the table in [`Size::of`],
/// and the same `--seconds` always means the same rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Independent repeats within a run (fresh backend and policy
    /// each; `paper10-sim` only).
    pub episodes: u64,
    /// Control rounds per repeat.
    pub rounds: u64,
    /// Rounds that make up one block of equal work: a simulated day, a
    /// full rate cycle, a predictive period.
    pub block: u64,
    /// Epochs each N-HiTS predictor trains for (`paper10-sim`).
    pub train_epochs: usize,
    /// Times the whole run, set-up included, is executed.
    pub reps: usize,
    /// Set-ups behind `setup_s` at the least (each execution brings
    /// one; the rest are made and thrown away).
    pub setups: usize,
}

impl Size {
    /// The fixed work for `--seconds`, or the smoke size (1 repeat /
    /// 2 periods / 300 rounds, executed once).
    ///
    /// Probed on a 2-core box, per execution: a simulated day takes
    /// ~0.9 s (plus 2.2 s of training per set-up), a classed period
    /// ~0.09 s, a loopback period ~0.03 s early in the logical day and
    /// more later, a sharded period ~0.9 s. Every workload keeps at
    /// least 1,020 rounds so that ten samples lie beyond its p99, which
    /// is why `scale1k-sharded` never runs fewer than 34 periods. With
    /// the executions below a run takes 20–30 s of wall time per 10 s of
    /// `--seconds`: what `--seconds` buys is distinct rounds, and every
    /// round is paid for once per execution.
    pub fn of(kind: Kind, seconds: u64, smoke: bool) -> Size {
        let s = seconds.max(1);
        let day = 2_160;
        // `hetero20-classed`'s rates repeat every 20 minutes.
        let cycle = 4 * TICKS_PER_PERIOD;
        let (episodes, rounds, block, reps) = match (kind, smoke) {
            (Kind::Paper10Sim, true) => (1, 300, 300, 1),
            (Kind::Paper10Sim, false) => ((3 * s).div_ceil(10), day, day, 3),
            (Kind::Scale1kSharded, true) => (1, 2 * TICKS_PER_PERIOD, TICKS_PER_PERIOD, 1),
            (Kind::Scale1kSharded, false) => {
                let periods = (34 * s).div_ceil(10).max(34);
                (1, periods * TICKS_PER_PERIOD, TICKS_PER_PERIOD, 1)
            }
            (Kind::Hetero20Classed, true) => (1, 300, cycle, 1),
            (Kind::Hetero20Classed, false) => (1, (12 * s).div_ceil(10).max(9) * cycle, cycle, 5),
            (Kind::Live10Loopback, true) => (1, 300, TICKS_PER_PERIOD, 1),
            (Kind::Live10Loopback, false) => {
                let periods = (11 * s).max(34);
                (1, periods * TICKS_PER_PERIOD, 5 * TICKS_PER_PERIOD, 4)
            }
        };
        Size {
            episodes,
            rounds,
            block,
            train_epochs: if smoke { 1 } else { 5 },
            reps,
            setups: if smoke { 1 } else { 3 },
        }
    }

    /// One third of the work (whole repeats, whole blocks), executed
    /// once: enough for the traced run, whose numbers are per-round
    /// medians.
    pub fn third(self) -> Size {
        let rounds = if self.episodes > 1 {
            self.rounds
        } else {
            let blocks = self.rounds / self.block;
            let third = blocks.div_ceil(3) * self.block;
            third.max(2 * TICKS_PER_PERIOD).min(self.rounds)
        };
        Size {
            episodes: self.episodes.div_ceil(3),
            rounds,
            reps: 1,
            setups: 1,
            ..self
        }
    }

    /// Rounds of one execution, the cold first period included.
    pub fn total_rounds(self) -> u64 {
        self.episodes * self.rounds
    }
}

/// The seed of everything that describes a scenario rather than one
/// run of it: the paper's rate traces and the predictors trained on
/// them (42 is the seed `perf_baseline` uses for the same set). The
/// `--seed` argument drives the inputs a run is fed — request arrivals
/// and service times, rate levels and jitter, injected faults — so two
/// seeds are two samples of one workload, not two workloads of
/// different difficulty.
const SCENARIO_SEED: u64 = 42;

/// A prepared workload: inputs generated, models trained, server up.
pub trait Workload {
    /// Opens repeat `episode`: a fresh backend and a fresh policy.
    fn open(&mut self, episode: u64, instr: &Instruments) -> Box<dyn ControlLoop>;
    /// Output checks on a finished repeat that only this workload can
    /// make; each violated one is pushed as a sentence.
    fn check(&mut self, _finished: &Finished, _violated: &mut Vec<String>) {}
    /// A fresh set of the predictors the policy runs with, for probes
    /// that rebuild a round's solver input from a captured snapshot.
    fn predictors(&self) -> Vec<Box<dyn RatePredictor>>;
}

/// Generates the inputs of `kind` from `seed` and brings up whatever
/// the first round needs.
pub fn prepare(kind: Kind, seed: u64, size: Size, instr: &Instruments) -> Box<dyn Workload> {
    match kind {
        Kind::Paper10Sim => Box::new(Paper10::prepare(seed, size, instr)),
        Kind::Scale1kSharded => Box::new(Replayed::scale1k(seed, size)),
        Kind::Hetero20Classed => Box::new(Replayed::hetero20(seed, size)),
        Kind::Live10Loopback => Box::new(Live10::prepare(seed, size)),
    }
}

/// The policy configuration of a workload: `FaroConfig::new(Sum)`,
/// sharded on `scale1k-sharded`, and with `hetero_mixed`'s 4 samples per
/// job on `hetero20-classed`. The policy's own RNG seed is part of the
/// program, not of its input, and stays at the scenario's.
pub fn faro_config(kind: Kind) -> FaroConfig {
    let mut config = FaroConfig::new(ClusterObjective::Sum);
    config.seed = SCENARIO_SEED;
    match kind {
        Kind::Scale1kSharded => {
            config.solve_plan = SolvePlan::Sharded(ShardConfig::default());
        }
        Kind::Hetero20Classed => config.samples = 4,
        Kind::Paper10Sim | Kind::Live10Loopback => {}
    }
    config
}

/// The repo's untrained default predictor (`PolicyKind::build` without
/// trained models).
fn flat_predictors(n: usize, sigma_fraction: f64) -> Vec<Box<dyn RatePredictor>> {
    (0..n)
        .map(|_| {
            Box::new(FlatPredictor {
                lookback: 3,
                sigma_fraction,
            }) as Box<dyn RatePredictor>
        })
        .collect()
}

/// Wraps `backend` for the run: spans when traced, audit always.
fn plain<B: Harvest + 'static>(
    backend: B,
    resources: ResourceModel,
    reconciler: Reconciler,
    instr: &Instruments,
) -> Box<dyn ControlLoop> {
    match &instr.tracer {
        Some(tracer) => Box::new(Plain::new(
            TimedBackend::new(backend, Arc::clone(tracer)),
            resources,
            reconciler,
        )),
        None => Box::new(Plain::new(backend, resources, reconciler)),
    }
}

// ---------------------------------------------------------------- paper10-sim

const PAPER_REPLICAS: u32 = 32;

/// The paper's cluster: 32 interchangeable replicas.
fn paper_cluster() -> ResourceModel {
    ResourceModel::replicas(ReplicaCount::new(PAPER_REPLICAS))
}

/// `WorkloadSet::paper_ten_jobs`, 32 replicas, Faro-Sum with ten
/// trained probabilistic N-HiTS predictors, day 11 on the simulator.
struct Paper10 {
    seed: u64,
    set: WorkloadSet,
    models: Vec<NHits>,
}

impl Paper10 {
    fn prepare(seed: u64, size: Size, instr: &Instruments) -> Self {
        let minutes = (size.rounds / TICKS_PER_MINUTE) as usize;
        let set = WorkloadSet::paper_ten_jobs(SCENARIO_SEED).truncated_eval(minutes);
        // `WorkloadSet::train_predictors` with the epoch count cut so
        // that set-up fits the run budget; the network is the same.
        let models = set
            .train
            .iter()
            .enumerate()
            .map(|(i, series)| {
                let mut cfg = NHitsConfig::standard(
                    PREDICTOR_INPUT,
                    PREDICTOR_HORIZON,
                    SCENARIO_SEED + i as u64,
                );
                cfg.epochs = size.train_epochs;
                cfg.hidden = 48;
                let mut model = NHits::new(cfg).expect("standard config is valid");
                let fit = |m: &mut NHits| m.fit(series).expect("ten days of training series");
                match &instr.tracer {
                    Some(tracer) => tracer.span("nhits.fit", || fit(&mut model)),
                    None => fit(&mut model),
                }
                model
            })
            .collect();
        Self { seed, set, models }
    }
}

impl Workload for Paper10 {
    fn open(&mut self, episode: u64, instr: &Instruments) -> Box<dyn ControlLoop> {
        // Simulator seeds `seed·1000 .. seed·1000 + repeats`.
        let seed = self.seed.wrapping_mul(1_000).wrapping_add(episode);
        let sim = Simulation::new(
            SimConfig {
                total_replicas: PAPER_REPLICAS,
                seed,
                ..SimConfig::default()
            },
            self.set.setups(1),
        )
        .expect("the paper set-up is valid");
        let backend = sim.into_backend().expect("no fault plan attached");
        let config = faro_config(Kind::Paper10Sim);
        // The simulator's own default admission (`Simulation::driver`).
        let admission = instr.admission(Box::new(OutageClamp::new(PAPER_REPLICAS)));
        let reconciler = Reconciler::new(instr.faro(config, self.predictors()), admission);
        plain(backend, paper_cluster(), reconciler, instr)
    }

    fn check(&mut self, finished: &Finished, violated: &mut Vec<String>) {
        let Some(report) = &finished.report else {
            violated.push("paper10-sim: the simulator produced no report".to_owned());
            return;
        };
        for job in &report.jobs {
            // Every request that arrived was completed or dropped, but
            // for what one replica set plus one router queue can still
            // hold when the clock stops (`tests/stack_properties.rs`).
            let arrived: f64 = job.arrivals_per_minute.iter().sum();
            let accounted = job.total_requests as f64;
            let conserved = accounted <= arrived + 1.0
                && arrived - accounted <= 64.0 + f64::from(PAPER_REPLICAS)
                && job.violations >= job.drops
                && job.total_requests >= job.violations;
            if !conserved {
                violated.push(format!(
                    "paper10-sim: job {} does not conserve requests \
                     (arrived {arrived}, accounted {accounted}, drops {})",
                    job.name, job.drops
                ));
            }
        }
    }

    fn predictors(&self) -> Vec<Box<dyn RatePredictor>> {
        self.models
            .iter()
            .map(|m| {
                Box::new(ProbabilisticPredictor::new(Box::new(m.clone()))) as Box<dyn RatePredictor>
            })
            .collect()
    }
}

// ------------------------------------------- scale1k-sharded, hetero20-classed

/// A workload replayed through [`ReplayBackend`].
struct Replayed {
    resources: ResourceModel,
    jobs: Vec<ReplayJob>,
    rounds: u64,
    config: FaroConfig,
    /// Sigma of the flat predictor, as a fraction of the level.
    sigma_fraction: f64,
}

const SCALE_JOBS: usize = 1_000;
const SCALE_QUOTA: u32 = 3_200;
/// The two-class cluster of `hetero20-classed`: fast GPU slots and
/// CPU-only slots that serve every request five times slower.
const HETERO_GPUS: u32 = 32;
const HETERO_CPU_SLOTS: u32 = 48;
const HETERO_CPU_SLOWDOWN: f64 = 5.0;

impl Replayed {
    /// 1,000 jobs with `scale_sweep`'s rate synthesis (10–50 req/s at
    /// 50 ms), quota 3,200, sharded into the default 16 shards. Every
    /// predictive period all rates jitter ±1% and a rotating 0.5% of
    /// the jobs take a persistent ×1.3 or ÷1.3 step.
    fn scale1k(seed: u64, size: Size) -> Self {
        let periods = size.rounds.div_ceil(TICKS_PER_PERIOD) as usize;
        let minutes_per_period = (TICKS_PER_PERIOD / TICKS_PER_MINUTE) as usize;
        let mut rng = SplitMix64::new(seed);
        let base: Vec<f64> = (0..SCALE_JOBS)
            .map(|_| 60.0 * (10.0 + 40.0 * rng.fraction()))
            .collect();
        let mut level = vec![1.0f64; SCALE_JOBS];
        let mut rates = vec![Vec::new(); SCALE_JOBS];
        let hot = SCALE_JOBS / 200;
        let mut cursor = 0;
        for period in 0..periods {
            if period > 0 {
                for k in 0..hot {
                    let j = (cursor + k) % SCALE_JOBS;
                    // Coin-flip direction, reflected so no job drifts
                    // out of the range the quota was sized for.
                    let up = match level[j] {
                        l if l > 1.5 => false,
                        l if l < 0.7 => true,
                        _ => rng.next_u64() & 1 == 0,
                    };
                    level[j] *= if up { 1.3 } else { 1.0 / 1.3 };
                }
                cursor = (cursor + hot) % SCALE_JOBS;
            }
            for (j, series) in rates.iter_mut().enumerate() {
                let jitter = 0.99 + 0.02 * rng.fraction();
                let rate = base[j] * level[j] * jitter;
                series.extend(std::iter::repeat_n(rate, minutes_per_period));
            }
        }
        let jobs = rates
            .into_iter()
            .enumerate()
            .map(|(j, rates_per_minute)| ReplayJob {
                spec: JobSpec {
                    name: format!("synth-{j}"),
                    slo: Slo::paper_default(),
                    priority: 1.0,
                    processing_time: 0.050,
                    class_affinity: Vec::new(),
                },
                initial_replicas: 3,
                rates_per_minute,
            })
            .collect();
        let config = faro_config(Kind::Scale1kSharded);
        Self {
            resources: ResourceModel::replicas(ReplicaCount::new(SCALE_QUOTA)),
            jobs,
            rounds: size.rounds,
            config,
            // A point forecast. At the repo default of 0.25 the twenty
            // sampled trajectories move every job's mean rate past the
            // sharded solver's 5% dirty epsilon every round (measured:
            // dirty_share 1.00, cache_hit_share 0.00, 1.6 s per warm
            // round against 2.3 s cold), so no warm round would ever
            // reuse a cached shard and warm would measure cold again.
            sigma_fraction: 0.0,
        }
    }

    /// `hetero_mixed`'s five jobs (three loose-SLO, two tight-SLO) four
    /// times over, on its 8:12 GPU:CPU ratio four times over, with its
    /// two-bump 20-minute rate shape and phases; the seed moves each
    /// job's level by up to ±2%.
    fn hetero20(seed: u64, size: Size) -> Self {
        let minutes = size.rounds.div_ceil(TICKS_PER_MINUTE) as usize + 1;
        let mut rng = SplitMix64::new(seed);
        let jobs = (0..20)
            .map(|i| {
                let loose = i % 5 < 3;
                let mut spec =
                    JobSpec::resnet18(format!("{}-{i}", if loose { "loose" } else { "tight" }));
                if loose {
                    spec.slo.latency = 4.0;
                }
                let base = if loose { 420.0 } else { 600.0 } * (0.98 + 0.04 * rng.fraction());
                ReplayJob {
                    spec,
                    initial_replicas: 2,
                    rates_per_minute: two_bump(base, minutes, 7 * i),
                }
            })
            .collect();
        let config = faro_config(Kind::Hetero20Classed);
        Self {
            resources: ResourceModel::heterogeneous(
                vec![
                    ReplicaClass::gpu("gpu"),
                    ReplicaClass::cpu("cpu", HETERO_CPU_SLOWDOWN),
                ],
                f64::from(HETERO_GPUS + HETERO_CPU_SLOTS),
                f64::from(HETERO_GPUS),
                f64::from(4 * HETERO_GPUS + HETERO_CPU_SLOTS),
            ),
            jobs,
            rounds: size.rounds,
            config,
            sigma_fraction: 0.1,
        }
    }
}

/// `hetero_mixed`'s rate shape: `base` with a triangular bump every 20
/// minutes, between 0.7× and 1.3×.
fn two_bump(base: f64, minutes: usize, phase: usize) -> Vec<f64> {
    (0..minutes)
        .map(|m| {
            let t = ((m + phase) % 20) as f64 / 20.0;
            let bump = if t < 0.5 { t * 2.0 } else { 2.0 - t * 2.0 };
            base * (0.7 + 0.6 * bump)
        })
        .collect()
}

impl Workload for Replayed {
    fn open(&mut self, _episode: u64, instr: &Instruments) -> Box<dyn ControlLoop> {
        let backend = ReplayBackend::new(self.resources.clone(), self.jobs.clone(), self.rounds);
        let reconciler = Reconciler::new(
            instr.faro(self.config.clone(), self.predictors()),
            instr.admission(Box::new(ClampToQuota)),
        );
        plain(backend, self.resources.clone(), reconciler, instr)
    }

    fn predictors(&self) -> Vec<Box<dyn RatePredictor>> {
        flat_predictors(self.jobs.len(), self.sigma_fraction)
    }
}

// ------------------------------------------------------------ live10-loopback

/// `live_loop`'s chaos rates: one apply in ten refused, one observe in
/// twenty answered from the cache one tick stale.
const APPLY_FAIL_PER_MILLE: u32 = 100;
const STALE_OBSERVE_PER_MILLE: u32 = 50;

/// The ten paper jobs behind a `ClusterServer`, driven over loopback
/// HTTP by the resilient driver under seeded chaos.
struct Live10 {
    server: ClusterServer,
    rounds: u64,
    live: LiveConfig,
}

/// The cluster `live10-loopback` serves: the ten paper jobs with their
/// day-11 rates tiled as far as the run reaches, 32 replicas.
pub fn live10_cluster(size: Size) -> ClusterConfig {
    let set = WorkloadSet::paper_ten_jobs(SCENARIO_SEED);
    let minutes = size.rounds.div_ceil(TICKS_PER_MINUTE) as usize + 1;
    let jobs = set
        .jobs
        .iter()
        .zip(&set.eval)
        .map(|(spec, day)| JobConfig {
            spec: spec.clone(),
            initial_replicas: 2,
            rates_per_minute: day
                .iter()
                .cycle()
                .take(minutes)
                .map(|&r| RatePerMin::new(r))
                .collect(),
        })
        .collect();
    ClusterConfig {
        total_replicas: PAPER_REPLICAS,
        tick_ms: TICK_MS,
        // No wall-clock cold start: decisions stay a pure function of
        // the seed.
        cold_start_ms: 0,
        jobs,
    }
}

impl Live10 {
    fn prepare(seed: u64, size: Size) -> Self {
        let config = live10_cluster(size);
        let chaos = ChaosConfig {
            seed: retryable_chaos_seed(seed, size.rounds),
            api_latency_ms: 0,
            apply_fail_per_mille: APPLY_FAIL_PER_MILLE,
            stale_observe_per_mille: STALE_OBSERVE_PER_MILLE,
            stale_age_ms: TICK_MS,
        };
        let server = ClusterServer::spawn_with_chaos(config, chaos)
            .expect("a loopback listener can be bound");
        Self {
            server,
            rounds: size.rounds,
            live: LiveConfig {
                tick_ms: TICK_MS,
                interval: Duration::ZERO,
                horizon_rounds: size.rounds,
                request_timeout: Duration::from_secs(5),
            },
        }
    }
}

/// The first chaos seed at or after `seed` whose apply-failure stream
/// never refuses `max_attempts` applies in a row within the run: every
/// refused apply is then absorbed by a retry, so no round fails. A
/// round ends at its first accepted apply, so a failed round is exactly
/// such a streak.
fn retryable_chaos_seed(seed: u64, rounds: u64) -> u64 {
    let attempts = RetryPolicy::default().max_attempts;
    // Each round draws once per apply attempt; twice the rounds covers
    // every draw a run without a failed round can make.
    let draws = 2 * rounds;
    (seed..)
        .find(|&candidate| {
            let mut streams = FaultStreams::new(candidate);
            let mut streak = 0;
            (0..draws).all(|_| {
                streak = if streams.draw_fail(APPLY_FAIL_PER_MILLE) {
                    streak + 1
                } else {
                    0
                };
                streak < attempts
            })
        })
        .expect("some seed has no such streak")
}

impl Workload for Live10 {
    fn open(&mut self, _episode: u64, instr: &Instruments) -> Box<dyn ControlLoop> {
        let backend = HttpBackend::connect(self.server.addr(), self.live);
        let reconciler = Reconciler::new(
            instr.faro(faro_config(Kind::Live10Loopback), self.predictors()),
            instr.admission(Box::new(ClampToQuota)),
        );
        match &instr.tracer {
            Some(tracer) => Box::new(Resilient::new(
                TimedBackend::new(backend, Arc::clone(tracer)),
                paper_cluster(),
                reconciler,
            )),
            None => Box::new(Resilient::new(backend, paper_cluster(), reconciler)),
        }
    }

    fn check(&mut self, finished: &Finished, violated: &mut Vec<String>) {
        let driver_rounds = finished.driver.map_or(0, |d| d.rounds);
        if driver_rounds != self.rounds {
            violated.push(format!(
                "live10-loopback: the driver saw {driver_rounds} of {} rounds",
                self.rounds
            ));
        }
        // What the cluster holds at the end must be what was last
        // applied. Chaos off first, so the read is not a stale replay.
        let mut probe = HttpBackend::connect(self.server.addr(), self.live);
        let observed = probe
            .configure_chaos(ChaosConfig::none())
            .and_then(|()| probe.observe());
        match observed {
            Ok(snapshot) => {
                let targets: Vec<u32> = snapshot.jobs.iter().map(|j| j.target_replicas).collect();
                if targets != finished.audit.last_targets {
                    violated.push(format!(
                        "live10-loopback: the cluster ended at {targets:?}, \
                         the last applied state was {:?}",
                        finished.audit.last_targets
                    ));
                }
            }
            Err(e) => violated.push(format!("live10-loopback: final observe failed: {e}")),
        }
    }

    fn predictors(&self) -> Vec<Box<dyn RatePredictor>> {
        flat_predictors(10, 0.25)
    }
}
