//! One workload, measured: the untraced run that yields the
//! end-to-end metrics, and the traced run plus layer probes that yield
//! the per-layer ones.

use crate::audit::{fold, DIGEST_SEED};
use crate::median;
use crate::names::{END_TO_END, PER_LAYER};
use crate::probes;
use crate::replay::TICKS_PER_PERIOD;
use crate::run::{drive, ControlLoop, Instruments, Samples};
use crate::trace::Trace;
use crate::workloads::{self, Kind, Size, Workload};
use faro::control::DriverStats;
use faro::metrics::percentile_of_sorted;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// What one run of a workload produced, before it is boiled down to
/// metrics.
pub struct RunOutput {
    /// Wall time of the set-up: inputs, training, server, and the
    /// first (cold) predictive period.
    pub setup: Duration,
    /// Samples of the rounds after the cold period.
    pub samples: Samples,
    /// Hash over every applied desired state of every repeat.
    pub digest: u64,
    /// Share of SLO-attaining observations (requests, on the simulator).
    pub slo_attainment: f64,
    /// Output checks that did not hold, one sentence each.
    pub violated: Vec<String>,
    /// Simulator totals over all repeats: requests, drops, events.
    pub sim: Option<SimTotals>,
    /// The resilient driver's accounting (`live10-loopback`).
    pub driver: Option<DriverStats>,
    /// The prepared workload, kept for the probes.
    pub workload: Box<dyn Workload>,
}

/// What the simulator processed over a whole run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimTotals {
    /// Requests that arrived.
    pub requests: u64,
    /// Requests dropped (explicitly or by the router's tail drop).
    pub drops: u64,
    /// Events processed, counted as `perf_baseline` counts them:
    /// arrivals, completions, policy ticks and minute boundaries.
    pub events: u64,
}

/// One set-up: everything from nothing to the end of the first (cold)
/// predictive period.
fn set_up(
    kind: Kind,
    seed: u64,
    size: Size,
    instr: &Instruments,
) -> (Box<dyn Workload>, Box<dyn ControlLoop>, Samples, Duration) {
    let start = Instant::now();
    let mut workload = workloads::prepare(kind, seed, size, instr);
    let mut control = workload.open(0, instr);
    let mut cold = Samples::default();
    drive(control.as_mut(), instr, TICKS_PER_PERIOD, 0, &mut cold);
    let elapsed = start.elapsed();
    (workload, control, cold, elapsed)
}

/// Runs `kind` once at `size`: one set-up, then every remaining round
/// of every repeat.
pub fn run_workload(kind: Kind, seed: u64, size: Size, instr: &Instruments) -> RunOutput {
    let mut violated = Vec::new();
    let (mut workload, control, cold, setup) = set_up(kind, seed, size, instr);
    if cold.failed > 0 {
        violated.push(format!(
            "{}: {} of the cold period's rounds failed",
            kind.name(),
            cold.failed
        ));
    }

    let mut samples = Samples::default();
    let mut digest = DIGEST_SEED;
    let (mut observed, mut attained) = (0u64, 0u64);
    let mut violation_rates = Vec::new();
    let mut sim = None;
    let mut driver = None;
    let mut opened = Some(control);
    for episode in 0..size.episodes {
        let mut control = opened
            .take()
            .unwrap_or_else(|| workload.open(episode, instr));
        let base = cold.rounds() as u32;
        drive(control.as_mut(), instr, u64::MAX, base, &mut samples);
        let finished = control.finish();
        workload.check(&finished, &mut violated);
        digest = fold(digest, finished.audit.digest);
        observed += finished.audit.observed;
        attained += finished.audit.attained;
        if let Some(report) = &finished.report {
            violation_rates.push(report.cluster_violation_rate);
            let totals = sim.get_or_insert_with(SimTotals::default);
            let requests: u64 = report.jobs.iter().map(|j| j.total_requests).sum();
            let drops: u64 = report.jobs.iter().map(|j| j.drops).sum();
            let minutes = report.cluster_utility_per_minute.len() as u64;
            totals.requests += requests;
            totals.drops += drops;
            totals.events += requests + (requests - drops) + size.rounds + minutes;
        }
        driver = finished.driver.or(driver);
    }
    let mismatches = instr.watch.shard_mismatches();
    if mismatches > 0 {
        violated.push(format!(
            "{}: {mismatches} sharded rounds where solved + skipped != shards",
            kind.name()
        ));
    }
    let slo_attainment = if violation_rates.is_empty() {
        attained as f64 / observed.max(1) as f64
    } else {
        1.0 - violation_rates.iter().sum::<f64>() / violation_rates.len() as f64
    };
    RunOutput {
        setup,
        samples,
        digest,
        slo_attainment,
        violated,
        sim,
        driver,
        workload,
    }
}

/// The result of one invocation, ready to print.
pub struct Report {
    /// The workload measured.
    pub kind: Kind,
    /// Whether every output check held.
    pub correct: bool,
    /// Rounds attempted.
    pub attempted: u64,
    /// Rounds failed.
    pub failed: u64,
    /// Metric name, unit and value, in the order `names` declares them.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Sample counts behind the timing metrics.
    pub counts: BTreeMap<&'static str, u64>,
    /// The decision digest.
    pub digest: u64,
    /// Output checks that did not hold.
    pub violated: Vec<String>,
}

fn sorted_ms(ns: impl Iterator<Item = u64>) -> Vec<f64> {
    let mut values: Vec<f64> = ns.map(|v| v as f64 / 1e6).collect();
    values.sort_by(f64::total_cmp);
    values
}

fn percentile(sorted: &[f64], k: f64) -> f64 {
    percentile_of_sorted(sorted, k).unwrap_or(0.0)
}

/// Rounds per second as the median over blocks of equal work
/// (`size.block` rounds: a simulated day, a rate cycle, a period), so
/// that a stretch the host slowed down moves the blocks it covers and
/// not the figure.
fn rounds_per_s(samples: &Samples, size: Size) -> f64 {
    let rate = |ns: &[u64]| ns.len() as f64 / (ns.iter().sum::<u64>() as f64 / 1e9).max(1e-12);
    // The cold period was stepped during set-up: skip the rest of the
    // block it belongs to, so every block starts on a block boundary.
    let head = (size.block - TICKS_PER_PERIOD.min(size.block)) as usize;
    let aligned = samples.round_ns.get(head..).unwrap_or(&[]);
    let rates: Vec<f64> = aligned
        .chunks_exact(size.block as usize)
        .map(rate)
        .collect();
    if rates.is_empty() {
        return rate(&samples.round_ns);
    }
    median(rates)
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The untraced run: every end-to-end metric.
///
/// The whole run — set-up included — is executed `size.reps` times
/// with the same seed. The runs must decide identically (same digest),
/// so round `i` is the same work every time, and what differs between
/// its executions is what the host did to it. Interference only ever
/// slows a round down, so each round's time is taken as the fastest of
/// its executions before any percentile is formed; `setup_s` is the
/// median of the set-ups.
pub fn end_to_end(kind: Kind, seed: u64, size: Size) -> Report {
    let mut violated = Vec::new();
    let mut setups = Vec::with_capacity(size.reps);
    let mut best: Option<RunOutput> = None;
    for _ in 0..size.reps.max(1) {
        let run = run_workload(kind, seed, size, &Instruments::new(false));
        setups.push(run.setup.as_secs_f64());
        match &mut best {
            None => best = Some(run),
            Some(best)
                if best.digest == run.digest && best.samples.long_term == run.samples.long_term =>
            {
                best.samples.keep_fastest(&run.samples);
                best.samples.failed = best.samples.failed.max(run.samples.failed);
                best.violated.extend(run.violated);
            }
            Some(best) => violated.push(format!(
                "{}: two runs with seed {seed} decided differently ({:016x} vs {:016x})",
                kind.name(),
                best.digest,
                run.digest
            )),
        }
    }
    // At least `size.setups` set-ups; a cheap set-up is a noisy one, so
    // up to three times as many while they fit in a second.
    while setups.len() < size.setups
        || (setups.len() < 3 * size.setups && setups.iter().sum::<f64>() < 1.0 && size.setups > 1)
    {
        let (_, _, _, elapsed) = set_up(kind, seed, size, &Instruments::new(false));
        setups.push(elapsed.as_secs_f64());
    }
    let run = best.expect("at least one run");
    violated.extend(run.violated);
    violated.sort();
    violated.dedup();
    let decisions = sorted_ms(run.samples.decision_ns.iter().copied());
    let predictive = sorted_ms(
        run.samples
            .decision_ns
            .iter()
            .zip(&run.samples.long_term)
            .filter(|(_, &long_term)| long_term)
            .map(|(&ns, _)| ns),
    );
    let rounds = run.samples.rounds();
    let expected = size.total_rounds() - TICKS_PER_PERIOD.min(size.rounds);
    if rounds != expected {
        violated.push(format!(
            "{}: stepped {rounds} rounds, the size asks for {expected}",
            kind.name()
        ));
    }
    let values = [
        median(setups.clone()),
        rounds_per_s(&run.samples, size),
        percentile(&decisions, 0.50),
        percentile(&decisions, 0.99),
        percentile(&predictive, 0.50),
        run.slo_attainment,
        peak_rss_mb(),
    ];
    let mut report = Report::new(kind, &END_TO_END, &values);
    report.counts.insert("setup_s", setups.len() as u64);
    report.counts.insert("rounds_per_s", rounds);
    report.counts.insert("decision_ms_p50", rounds);
    report.counts.insert("decision_ms_p99", rounds);
    report
        .counts
        .insert("predictive_ms_p50", predictive.len() as u64);
    report.attempted = rounds;
    report.failed = run.samples.failed;
    report.digest = run.digest;
    report.correct = violated.is_empty();
    report.violated = violated;
    report
}

impl Report {
    fn new(kind: Kind, names: &[(&'static str, &'static str)], values: &[f64]) -> Self {
        Report {
            kind,
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: names
                .iter()
                .zip(values)
                .map(|(&(name, unit), &value)| (name, unit, value))
                .collect(),
            counts: BTreeMap::new(),
            digest: 0,
            violated: Vec::new(),
        }
    }

    /// The one JSON object the driver reads, as the last line of output.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }

    /// The human-readable table printed above the JSON line.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}: rounds_attempted {} rounds_failed {} digest {:016x}",
            self.kind.name(),
            self.attempted,
            self.failed,
            self.digest
        );
        for (name, unit, value) in &self.metrics {
            let samples = self
                .counts
                .get(name)
                .map_or_else(String::new, |n| format!("  (n = {n})"));
            let _ = writeln!(out, "  {name:<38} {value:>16.4} {unit}{samples}");
        }
        for sentence in &self.violated {
            let _ = writeln!(out, "  CHECK FAILED: {sentence}");
        }
        out
    }
}

/// The traced run and the layer probes: every per-layer metric. Also
/// returns the recording, for `trace.json`.
pub fn per_layer(kind: Kind, seed: u64, size: Size) -> (Report, Trace) {
    let size = size.third();
    // The same rounds untraced first: the reference for the overhead.
    let reference = run_workload(kind, seed, size, &Instruments::new(false));
    let instr = Instruments::new(true);
    let tracer = instr.tracer.clone().expect("a traced run has a tracer");
    let run = run_workload(kind, seed, size, &instr);
    let trace = tracer.take();

    let mut values: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|m| (m.0, 0.0)).collect();
    let mut set = |name: &'static str, value: f64| {
        let slot = values
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        *slot = value;
    };
    // Spans of the timed rounds only: the cold period is set-up.
    let cold_rounds = TICKS_PER_PERIOD.min(size.rounds) as u32;
    let timed = |name: &str| -> Vec<f64> {
        trace
            .spans
            .iter()
            .filter(|s| s.name == name && s.round > cold_rounds)
            .map(|s| s.duration_ns() as f64)
            .collect()
    };
    let own = trace.self_ns();
    let timed_self = |name: &str| -> Vec<f64> {
        trace
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name && s.round > cold_rounds)
            .map(|(_, &o)| o as f64)
            .collect()
    };
    let total = |name: &str| -> f64 { timed(name).iter().sum() };
    let counted = |name: &str| -> f64 { trace.counter_after(name, cold_rounds) };

    set(
        "forecast.nhits.fit_ms",
        median(trace.durations_ns("nhits.fit")) / 1e6,
    );
    set("forecast.predict_us", median(timed("predict")) / 1e3);
    set("forecast.predict_calls", timed("predict").len() as f64);
    set(
        "core.faro.predictive_decide_ms",
        median(timed("decide.predictive")) / 1e6,
    );
    set(
        "core.faro.reactive_decide_us",
        median(timed("decide.reactive")) / 1e3,
    );
    set(
        "core.faro.decide_self_ms",
        median(timed_self("decide.predictive")) / 1e6,
    );
    set(
        "core.faro.long_term_rounds",
        timed("decide.predictive").len() as f64,
    );
    set(
        "core.faro.carried_forward_rounds",
        counted("carried_forward_rounds"),
    );
    set("core.admission.admit_us", median(timed("admit")) / 1e3);
    set("core.admission.clamped_rounds", counted("clamped_rounds"));
    set("control.round_self_us", median(timed_self("round")) / 1e3);
    if let Some(d) = run.driver {
        set(
            "control.driver.retries",
            (d.observe_retries + d.apply_retries) as f64,
        );
        set("control.driver.skipped_rounds", d.skipped_rounds as f64);
        set(
            "control.driver.carry_forward_rounds",
            d.carry_forward_rounds as f64,
        );
        set("control.driver.drift_repairs", d.drift_repairs as f64);
    }
    let sharded_rounds = counted("sharded_rounds");
    if sharded_rounds > 0.0 {
        for (metric, counter) in [
            ("core.sharded.split_evals", "split_evals"),
            ("core.sharded.shard_evals", "shard_evals"),
            ("core.sharded.shards_solved", "shards_solved"),
            ("core.sharded.dirty_share", "dirty_share"),
            ("core.sharded.cache_hit_share", "cache_hit_share"),
        ] {
            set(metric, counted(counter) / sharded_rounds);
        }
    }
    match kind {
        Kind::Paper10Sim => {
            set("sim.advance_ms", median(timed("advance")) / 1e6);
            set("sim.observe_us", median(timed("observe")) / 1e3);
            set("sim.apply_us", median(timed("apply")) / 1e3);
            if let Some(sim) = run.sim {
                let advancing: f64 = trace.durations_ns("advance").iter().sum();
                set("sim.events", sim.events as f64);
                set(
                    "sim.events_per_s",
                    sim.events as f64 / (advancing / 1e9).max(1e-9),
                );
                set(
                    "sim.drop_share",
                    sim.drops as f64 / sim.requests.max(1) as f64,
                );
            }
        }
        Kind::Live10Loopback => {
            set("cluster.observe_ms", median(timed("observe")) / 1e6);
            set("cluster.apply_ms", median(timed("apply")) / 1e6);
            set("cluster.connect_errors", counted("connect_errors"));
        }
        Kind::Scale1kSharded | Kind::Hetero20Classed => {
            let inside = total("advance") + total("observe") + total("apply");
            set(
                "bench.generator_share_pct",
                100.0 * inside / (run.samples.round_ns.iter().sum::<u64>() as f64).max(1.0),
            );
        }
    }
    let round_median = |s: &Samples| median(s.round_ns.iter().map(|&v| v as f64).collect());
    let (plain, traced) = (round_median(&reference.samples), round_median(&run.samples));
    set(
        "bench.trace_overhead_pct",
        100.0 * (traced - plain) / plain.max(1.0),
    );

    let captured = instr
        .captured
        .lock()
        .expect("capture list poisoned")
        .clone();
    let probed = probes::run(probes::Input {
        kind,
        seed,
        captured: &captured,
        predictors: run.workload.predictors(),
        samples: workloads::faro_config(kind).samples,
        rounds: size.rounds,
        cluster: (kind == Kind::Live10Loopback).then(|| workloads::live10_cluster(size)),
    });
    for (name, value) in probed {
        set(name, value);
    }

    let mut violated = run.violated;
    if reference.digest != run.digest {
        violated.push(format!(
            "{}: traced and untraced runs decided differently ({:016x} vs {:016x})",
            kind.name(),
            run.digest,
            reference.digest
        ));
    }
    let gap = trace.worst_round_gap();
    if gap > 0.02 {
        violated.push(format!(
            "{}: span self times miss a traced round by {:.1}%",
            kind.name(),
            100.0 * gap
        ));
    }
    let ordered: Vec<f64> = PER_LAYER.iter().map(|m| values[m.0]).collect();
    let mut report = Report::new(kind, &PER_LAYER, &ordered);
    for (metric, span) in [
        ("forecast.nhits.fit_ms", "nhits.fit"),
        ("forecast.predict_us", "predict"),
        ("core.faro.predictive_decide_ms", "decide.predictive"),
        ("core.faro.reactive_decide_us", "decide.reactive"),
        ("core.admission.admit_us", "admit"),
        ("control.round_self_us", "round"),
    ] {
        let n = trace.spans.iter().filter(|s| s.name == span).count();
        report.counts.insert(metric, n as u64);
    }
    report.attempted = run.samples.rounds();
    report.failed = run.samples.failed;
    report.digest = run.digest;
    report.correct = violated.is_empty();
    report.violated = violated;
    (report, trace)
}
