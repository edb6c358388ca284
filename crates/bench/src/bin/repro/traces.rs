//! Per-job statistics of the generated evaluation traces (mean/max
//! rate, fraction of minutes above capacity thresholds). Useful when
//! retuning the synthetic workload generators; writes no file.

use crate::Run;

pub fn run() -> Run {
    let set = faro_bench::workloads::WorkloadSet::paper_ten_jobs(42);
    let mut out = format!(
        "{:<10} {:>8} {:>8} {:>10} {:>10}\n",
        "job", "mean", "max", "frac>600", "frac>900"
    );
    for (i, e) in set.eval.iter().enumerate() {
        let mean = e.iter().sum::<f64>() / e.len() as f64;
        let max = e.iter().cloned().fold(0.0f64, f64::max);
        let over900 = e.iter().filter(|&&r| r > 900.0).count() as f64 / e.len() as f64;
        let over600 = e.iter().filter(|&&r| r > 600.0).count() as f64 / e.len() as f64;
        out += &format!(
            "{:<10} {mean:>8.0} {max:>8.0} {over600:>10.2} {over900:>10.2}\n",
            set.jobs[i].name
        );
    }
    Run::default().print(out)
}
