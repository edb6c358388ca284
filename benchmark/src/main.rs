//! `faro-benchmark`: one command for the control-loop benchmark.
//!
//! ```text
//! faro-benchmark --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//!                [--smoke] [--out <dir>]
//! ```
//!
//! With a workload name the process measures that workload itself, so
//! `peak_rss_mb` is the workload's own. `--workload all` (the default)
//! runs every workload in both modes, one child process at a time.

use faro_benchmark::bench::{end_to_end, per_layer, Report};
use faro_benchmark::workloads::{Kind, Size};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        traced: false,
        smoke: false,
        out: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = match name.as_str() {
                    "all" => None,
                    name => Some(Kind::parse(name).ok_or(format!("unknown workload {name}"))?),
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Set in the environment of a process already re-executed under
/// `taskset`, so that it measures instead of re-executing again.
const PINNED: &str = "FARO_BENCHMARK_PINNED";

/// Re-executes this command with both of `live10-loopback`'s threads on
/// one CPU and returns how it ended; `None` when that is not possible
/// (no `taskset`, CPU 0 not allowed) and the caller should measure
/// unpinned.
///
/// Client and server strictly alternate, so one CPU loses nothing. On
/// two, every reply waits for a cross-CPU wake-up, and on a virtual
/// machine that latency depends on what the host did with the idle vCPU
/// in the previous minute: the same seed ran at 1,190 rounds/s after an
/// idle minute and 785 after a busy one. Pinned, the two are within 3%.
fn run_pinned() -> Option<ExitCode> {
    if std::env::var_os(PINNED).is_some() {
        return None;
    }
    let taskset = |program: &std::ffi::OsStr| {
        let mut command = Command::new("taskset");
        command.args(["-c", "0"]).arg(program);
        command
    };
    let allowed = taskset("true".as_ref()).status().ok()?.success();
    if !allowed {
        return None;
    }
    let exe = std::env::current_exe().ok()?;
    let status = taskset(exe.as_os_str())
        .args(std::env::args_os().skip(1))
        .env(PINNED, "1")
        .status()
        .ok()?;
    Some(if status.success() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Measures one workload in this process.
fn measure(kind: Kind, args: &Args) -> Report {
    let size = Size::of(kind, args.seconds, args.smoke);
    if !args.traced {
        return end_to_end(kind, args.seed, size);
    }
    let (mut report, trace) = per_layer(kind, args.seed, size);
    let dir = args.out.join(kind.name());
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join("trace.json"), trace.to_json(kind.name())));
    if let Err(e) = written {
        report.correct = false;
        report
            .violated
            .push(format!("cannot write {}/trace.json: {e}", dir.display()));
    }
    report
}

/// Runs every workload, untraced then traced, one child at a time,
/// relays each child's table, and ends with one JSON object over all of
/// them (metrics named `<workload>/<metric>`). Returns whether every
/// child was correct.
fn measure_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    let mut metrics = Vec::new();
    for kind in Kind::ALL {
        for trace in ["0", "1"] {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", kind.name(), "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .arg("--out")
                .arg(&args.out);
            if args.smoke {
                child.arg("--smoke");
            }
            let output = child
                .output()
                .map_err(|e| format!("cannot run {}: {e}", kind.name()))?;
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            let text = String::from_utf8_lossy(&output.stdout);
            let (table, last) = text
                .trim_end()
                .rsplit_once('\n')
                .unwrap_or(("", text.trim_end()));
            println!("{table}");
            let result = serde_json::from_str(last)
                .map_err(|_| format!("{} printed no result", kind.name()))?;
            let count = |key: &str| result.get(key).and_then(|v| v.as_u64()).unwrap_or(0);
            attempted += count("attempted");
            failed += count("failed");
            correct &= output.status.success();
            for (name, metric) in result
                .get("metrics")
                .and_then(|m| m.as_object())
                .into_iter()
                .flatten()
            {
                let value = metric
                    .get("value")
                    .and_then(|v| v.as_f64())
                    .unwrap_or(f64::NAN);
                let unit = metric.get("unit").and_then(|v| v.as_str()).unwrap_or("");
                metrics.push(format!(
                    "\"{}/{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                    kind.name()
                ));
            }
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("faro-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == Some(Kind::Live10Loopback) {
        if let Some(code) = run_pinned() {
            return code;
        }
    }
    let correct = match args.workload {
        Some(kind) => {
            let report = measure(kind, &args);
            print!("{}", report.to_text());
            println!("{}", report.to_json());
            report.correct
        }
        None => match measure_all(&args) {
            Ok(correct) => correct,
            Err(e) => {
                eprintln!("faro-benchmark: {e}");
                false
            }
        },
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
