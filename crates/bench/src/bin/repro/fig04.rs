//! Figure 4: (a) relaxed utility shapes for increasing alpha against
//! the original step utility (SLO target 0.5 s); (b) utility values are
//! lower bounds on SLO satisfaction rates for a trace-driven job.

use crate::Run;
use faro_bench::prelude::*;
use faro_core::utility::{step_utility, RelaxedUtility};

pub fn run() -> Run {
    // (a) Utility shapes: latency sweep at SLO 0.5 s.
    let mut out = String::from("--- Figure 4a: utility shapes, SLO target 0.5 s ---\n");
    let alphas = [1.0, 2.0, 4.0, 8.0, 16.0];
    out += &format!("{:>9}", "latency");
    for a in alphas {
        out += &format!(" {:>9}", format!("alpha={a}"));
    }
    out += &format!(" {:>9}\n", "step");
    let slo = 0.5;
    let mut falls = true;
    for i in 0..=20 {
        let latency = 0.1 + 0.07 * f64::from(i);
        out += &format!("{latency:>9.2}");
        let values = alphas.map(|a| RelaxedUtility::new(a).value(latency, slo));
        for v in values {
            out += &format!(" {v:>9.3}");
        }
        out += &format!(" {:>9.1}\n", step_utility(latency, slo));
        falls &= latency <= slo || values.windows(2).all(|w| w[1] < w[0]);
    }

    // (b) Correlation between SLO satisfaction and utility: run a
    // trace-driven job at several fixed sizes and compare the per-run
    // p99-derived utility with the measured satisfaction rate.
    out += "\n--- Figure 4b: utility lower-bounds SLO satisfaction ---\n";
    out += &format!(
        "{:>9} {:>14} {:>12}\n",
        "replicas", "slo_satisfied", "mean_utility"
    );
    let set = WorkloadSet::n_jobs(1, 5, 1200.0).truncated_eval(120);
    let mut violations_of_bound = 0;
    for replicas in [2u32, 3, 4, 5, 6, 8] {
        let report = crate::fig01::fixed_size(&set, replicas, 9);
        let job = &report.jobs[0];
        let satisfaction = 1.0 - job.violation_rate;
        out += &format!(
            "{replicas:>9} {satisfaction:>14.3} {:>12.3}\n",
            job.mean_utility
        );
        // The paper's claim: utility is a pessimistic (lower-bound)
        // proxy for satisfaction. Allow small sampling slack.
        if job.mean_utility > satisfaction + 0.05 {
            violations_of_bound += 1;
        }
    }
    out += &format!(
        "\nutility exceeded satisfaction (beyond 5% slack) in {violations_of_bound} of 6 runs \
         (paper: utility values are lower bounds, Fig. 4b)\n"
    );

    let mut run = Run::default();
    run.claim(falls, "past the target, utility falls as alpha grows", ());
    let n = violations_of_bound;
    run.claim(n <= 1, "utility exceeds satisfaction in <= 1 of 6 runs", n);
    run.text(out)
}
