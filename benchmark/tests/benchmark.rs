//! What the benchmark promises about itself: the names it emits are the
//! names `BENCHMARK.json` lists, tracing changes no decision, the same
//! seed decides the same way twice, span self times add up, and the
//! replay backend costs next to nothing.

use faro_benchmark::bench::{end_to_end, per_layer, Report};
use faro_benchmark::names::{END_TO_END, PER_LAYER};
use faro_benchmark::workloads::{Kind, Size};
use std::collections::BTreeSet;

const SEED: u64 = 7;

fn smoke(kind: Kind) -> Size {
    Size::of(kind, 10, true)
}

fn metric(report: &Report, name: &str) -> f64 {
    report
        .metrics
        .iter()
        .find(|m| m.0 == name)
        .unwrap_or_else(|| panic!("{name} is not reported"))
        .2
}

/// `name -> unit` pairs of one list in `BENCHMARK.json`.
fn listed(doc: &serde_json::Value, key: &str, with_unit: bool) -> BTreeSet<(String, String)> {
    doc.get(key)
        .and_then(|v| v.as_array())
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|entry| {
            let field = |f: &str| {
                entry
                    .get(f)
                    .and_then(|v| v.as_str())
                    .unwrap_or_else(|| panic!("a {key} entry has no {f}"))
                    .to_owned()
            };
            let unit = if with_unit {
                field("unit")
            } else {
                String::new()
            };
            (field("name"), unit)
        })
        .collect()
}

#[test]
fn emitted_names_equal_benchmark_json_both_directions() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
    let doc = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
    let own = |names: &[(&str, &str)]| -> BTreeSet<(String, String)> {
        names
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    };
    assert_eq!(listed(&doc, "end_to_end", true), own(&END_TO_END));
    assert_eq!(listed(&doc, "per_layer", true), own(&PER_LAYER));
    let workloads: BTreeSet<(String, String)> = Kind::ALL
        .iter()
        .map(|k| (k.name().to_owned(), String::new()))
        .collect();
    assert_eq!(listed(&doc, "workloads", false), workloads);
    // And the reports carry exactly those names, in both modes.
    let untraced = end_to_end(Kind::Hetero20Classed, SEED, smoke(Kind::Hetero20Classed));
    let names =
        |r: &Report| -> Vec<(&str, &str)> { r.metrics.iter().map(|m| (m.0, m.1)).collect() };
    assert_eq!(names(&untraced), END_TO_END.to_vec());
    let (traced, _) = per_layer(Kind::Hetero20Classed, SEED, smoke(Kind::Hetero20Classed));
    assert_eq!(names(&traced), PER_LAYER.to_vec());
}

/// Each workload at smoke size: the traced run decides exactly as the
/// untraced run of the same rounds does (`per_layer` compares the two
/// digests and reports a mismatch as a failed check), a second traced
/// run with the same seed reproduces the digest, no round fails, and
/// every traced round's span self times sum to the round within 2%.
#[test]
fn tracing_is_transparent_and_runs_repeat() {
    for kind in Kind::ALL {
        let (first, trace) = per_layer(kind, SEED, smoke(kind));
        assert!(first.correct, "{}: {:?}", kind.name(), first.violated);
        assert_eq!(first.failed, 0, "{}", kind.name());
        assert!(trace.worst_round_gap() <= 0.02, "{}", kind.name());
        assert!(
            trace.spans.iter().any(|s| s.name == "decide.predictive"),
            "{}: no predictive round was traced",
            kind.name()
        );
        let (second, _) = per_layer(kind, SEED, smoke(kind));
        assert_eq!(first.digest, second.digest, "{}", kind.name());
        let (other_seed, _) = per_layer(kind, SEED + 1, smoke(kind));
        assert_ne!(
            first.digest,
            other_seed.digest,
            "{}: the seed is unused",
            kind.name()
        );
    }
}

#[test]
fn replay_backend_stays_under_two_percent_of_the_run() {
    for kind in [Kind::Scale1kSharded, Kind::Hetero20Classed] {
        let (report, _) = per_layer(kind, SEED, smoke(kind));
        let share = metric(&report, "bench.generator_share_pct");
        assert!(
            share > 0.0,
            "{}: the replay backend was not timed",
            kind.name()
        );
        assert!(share < 2.0, "{}: generator share {share}%", kind.name());
    }
}

#[test]
fn untraced_smoke_run_reports_sane_end_to_end_metrics() {
    for kind in Kind::ALL {
        let report = end_to_end(kind, SEED, smoke(kind));
        assert!(report.correct, "{}: {:?}", kind.name(), report.violated);
        assert_eq!(report.failed, 0, "{}", kind.name());
        assert!(report.attempted >= 30, "{}", kind.name());
        for (name, _, value) in &report.metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{}: {name} = {value}",
                kind.name()
            );
        }
        assert!(metric(&report, "slo_attainment") <= 1.0);
    }
}
