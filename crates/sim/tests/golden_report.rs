//! Golden report test: locks the *bytes* of a small deterministic
//! run's serialized report.
//!
//! This test is the determinism contract: any edit to the
//! event-ordering-sensitive files (`sim/src/events.rs`,
//! `sim/src/backend.rs`, `sim/src/runtime.rs`, `core/src/opt.rs`) must
//! either leave these bytes alone or update the snapshot in the same
//! change — making an intentional ordering change visible in review
//! and an accidental one a test failure.
//!
//! Refresh after an intentional change with:
//! `FARO_UPDATE_GOLDEN=1 cargo test -p faro-sim --test golden_report`

use faro_core::baselines::FairShare;
use faro_core::types::JobSpec;
use faro_sim::{JobSetup, SimConfig, SimRun, Simulation};
use std::path::Path;

fn small_run_json() -> String {
    let cfg = SimConfig {
        total_replicas: 12,
        seed: 7,
        ..Default::default()
    };
    let setups = vec![
        JobSetup {
            spec: JobSpec::resnet34("golden-a"),
            rates_per_minute: vec![120.0, 300.0, 600.0, 300.0, 120.0, 60.0],
            initial_replicas: 2,
        },
        JobSetup {
            spec: JobSpec::resnet34("golden-b"),
            rates_per_minute: vec![600.0, 120.0, 60.0, 120.0, 600.0, 300.0],
            initial_replicas: 2,
        },
    ];
    let report = Simulation::new(cfg, setups)
        .expect("golden setup is valid")
        .driver(Box::new(FairShare))
        .run()
        .into_outcome()
        .report;
    serde_json::to_string(&report).expect("report serializes")
}

#[test]
fn report_bytes_are_bit_identical_to_the_committed_snapshot() {
    let got = small_run_json();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/report_small.json");
    if std::env::var("FARO_UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &got).expect("write snapshot");
        return;
    }
    let want = std::fs::read_to_string(&path).expect(
        "missing golden snapshot; generate with FARO_UPDATE_GOLDEN=1 \
         cargo test -p faro-sim --test golden_report",
    );
    assert_eq!(
        got, want,
        "golden report bytes diverged: an event-ordering-sensitive change \
         escaped. If intentional, refresh with FARO_UPDATE_GOLDEN=1 and \
         include the snapshot diff in the same change."
    );
}

#[test]
fn the_same_run_twice_is_bit_identical() {
    assert_eq!(small_run_json(), small_run_json());
}
