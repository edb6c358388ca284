//! Figure 6: the two relaxation stages of the per-job objective.
//!
//! For one job (p = 180 ms, SLO 720 ms @ p99, 4 replicas) sweep the
//! arrival rate and print three columns:
//!   1. precise objective (step utility over raw M/D/c latency),
//!   2. inverse-utility relaxation (still infinite latency when the
//!      queue is unstable -> plateau at 0),
//!   3. second relaxation via the penalized M/D/c estimate (finite and
//!      strictly decreasing everywhere -> no plateau).

use crate::Run;
use faro_core::utility::{step_utility, RelaxedUtility};
use faro_queueing::{mdc, RelaxedLatency};

pub fn run() -> Run {
    let (p, slo, k, n) = (0.180, 0.720, 0.99, faro_queueing::ReplicaCount::new(4));
    let u = RelaxedUtility::default();
    let rel = RelaxedLatency::default();
    let mut out = format!("one job: p = 180 ms, SLO = 720 ms @ p99, {n} replicas\n");
    out += &format!(
        "{:>10} {:>9} {:>13} {:>13}\n",
        "req/s", "precise", "inverse-only", "fully-relaxed"
    );
    let mut rows = Vec::new();
    for i in 0..=30 {
        let lambda = f64::from(i) * 1.5;
        let raw_latency = mdc::latency_percentile(k, p, lambda, n).unwrap_or(f64::INFINITY);
        let precise = step_utility(raw_latency, slo);
        let inverse_only = u.value(raw_latency, slo);
        let relaxed_latency = rel.latency(k, p, lambda, n).expect("finite");
        let fully = u.value(relaxed_latency, slo);
        out += &format!("{lambda:>10.1} {precise:>9.3} {inverse_only:>13.4} {fully:>13.6}\n");
        rows.push((precise, inverse_only, fully));
    }
    // Plateau check: count distinct consecutive values in the overload
    // region (last third of the sweep).
    let tail = &rows[20..];
    let flat = |pick: fn(&(f64, f64, f64)) -> f64| {
        tail.windows(2)
            .filter(|w| (pick(&w[0]) - pick(&w[1])).abs() < 1e-12)
            .count()
    };
    let (precise, inverse, fully) = (flat(|r| r.0), flat(|r| r.1), flat(|r| r.2));
    out += &format!("\nflat (plateau) steps in overload region: precise {precise}, inverse-only {inverse}, fully-relaxed {fully}\n"
    );
    out += "only the fully-relaxed objective keeps a non-zero slope everywhere (paper Fig. 6)\n";

    let steps = tail.len() - 1;
    let mut run = Run::default();
    let flat = (precise, inverse);
    run.claim(
        flat == (steps, steps),
        "precise, inverse-only flat throughout",
        flat,
    );
    run.claim(
        fully == 0,
        "fully-relaxed objective has no flat step",
        fully,
    );
    run.text(out)
}
