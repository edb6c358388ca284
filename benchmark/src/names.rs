//! Every metric the benchmark emits, by name and unit. `BENCHMARK.json`
//! lists exactly these (a test compares the two, both directions).

/// A metric's name and unit.
pub type Metric = (&'static str, &'static str);

/// The seven end-to-end metrics, reported on every workload from the
/// untraced run.
pub const END_TO_END: [Metric; 7] = [
    ("setup_s", "s"),
    ("rounds_per_s", "1/s"),
    ("decision_ms_p50", "ms"),
    ("decision_ms_p99", "ms"),
    ("predictive_ms_p50", "ms"),
    ("slo_attainment", "share"),
    ("peak_rss_mb", "MB"),
];

/// The 63 per-layer metrics, reported from the traced run and the
/// layer probes. A layer that does no work on a workload reports 0.
pub const PER_LAYER: [Metric; 63] = [
    // trace
    ("trace.generate_ms", "ms"),
    // nn
    ("nn.matmul_us", "us"),
    // forecast
    ("forecast.nhits.fit_ms", "ms"),
    ("forecast.predict_us", "us"),
    ("forecast.predict_calls", "count"),
    // core::faro
    ("core.faro.predictive_decide_ms", "ms"),
    ("core.faro.reactive_decide_us", "us"),
    ("core.faro.decide_self_ms", "ms"),
    ("core.faro.long_term_rounds", "count"),
    ("core.faro.carried_forward_rounds", "count"),
    // core::opt
    ("core.opt.build_ms", "ms"),
    ("core.opt.solve_ms", "ms"),
    ("core.opt.objective_us", "us"),
    ("core.opt.evals", "count"),
    ("core.opt.integerize_us", "us"),
    ("core.opt.shrink_us", "us"),
    // core::hierarchical
    ("core.hierarchical.solve_ms", "ms"),
    // core::sharded
    ("core.sharded.round_ms", "ms"),
    ("core.sharded.split_ms", "ms"),
    ("core.sharded.split_evals", "count"),
    ("core.sharded.shard_solve_ms", "ms"),
    ("core.sharded.shard_evals", "count"),
    ("core.sharded.self_ms", "ms"),
    ("core.sharded.shards_solved", "count"),
    ("core.sharded.dirty_share", "share"),
    ("core.sharded.cache_hit_share", "share"),
    // core::hetero
    ("core.hetero.build_ms", "ms"),
    ("core.hetero.solve_ms", "ms"),
    ("core.hetero.objective_us", "us"),
    ("core.hetero.evals", "count"),
    ("core.hetero.integerize_us", "us"),
    ("core.hetero.shrink_us", "us"),
    // core::admission
    ("core.admission.admit_us", "us"),
    ("core.admission.clamped_rounds", "count"),
    // queueing
    ("queueing.mdc.sweep_us", "us"),
    ("queueing.relaxed.sweep_us", "us"),
    ("queueing.mixed.latency_us", "us"),
    // solver
    ("solver.cobyla.self_ms", "ms"),
    ("solver.cobyla.iterations", "count"),
    ("solver.cobyla.evals_per_solve", "count"),
    // control
    ("control.round_self_us", "us"),
    ("control.driver.retries", "count"),
    ("control.driver.skipped_rounds", "count"),
    ("control.driver.carry_forward_rounds", "count"),
    ("control.driver.drift_repairs", "count"),
    // sim
    ("sim.advance_ms", "ms"),
    ("sim.observe_us", "us"),
    ("sim.apply_us", "us"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.drop_share", "share"),
    // cluster
    ("cluster.observe_ms", "ms"),
    ("cluster.apply_ms", "ms"),
    ("cluster.http.floor_us", "us"),
    ("cluster.wire.observe_bytes", "bytes"),
    ("cluster.wire.serialize_us", "us"),
    ("cluster.wire.parse_us", "us"),
    ("cluster.model.observe_us", "us"),
    ("cluster.model.apply_us", "us"),
    ("cluster.connect_errors", "count"),
    // bench
    ("bench.trace_overhead_pct", "%"),
    ("bench.generator_share_pct", "%"),
    ("bench.calibration_score", "1/us"),
];
