//! Workspace task runner, cargo-xtask style: `cargo xtask <task>`
//! (the alias lives in `.cargo/config.toml`). Plain std, no deps
//! beyond the linter itself, so it builds in seconds.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some(other) => {
            eprintln!("unknown task `{other}`");
            usage();
            ExitCode::from(2)
        }
        None => {
            usage();
            ExitCode::from(2)
        }
    }
}

fn usage() {
    eprintln!("usage: cargo xtask <task>");
    eprintln!();
    eprintln!("tasks:");
    eprintln!("  lint    run faro-lint over the workspace (determinism &");
    eprintln!("          unit-safety invariants); exits 1 on any diagnostic");
    eprintln!();
    eprintln!("lint options:");
    eprintln!("  --format text|json|sarif   output format (default text)");
    eprintln!("  --out PATH                 write the report to PATH as well");
}

/// Runs faro-lint's two-phase workspace analysis and prints rustc-style
/// diagnostics (or a JSON/SARIF report). `FARO_LINT_DIFF_BASE=origin/main`
/// switches the golden rules from uncommitted-changes mode to
/// whole-branch mode (what CI uses). `FARO_LINT_TIME_GATE_SECS=1.0`
/// additionally fails the run if the full-workspace wall time exceeds
/// the gate — the perf contract recorded in BENCH_perf.json.
fn lint(args: &[String]) -> ExitCode {
    let mut format = "text".to_owned();
    let mut out_path: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next() {
                Some(f) if ["text", "json", "sarif"].contains(&f.as_str()) => {
                    format = f.clone();
                }
                _ => {
                    eprintln!("--format takes one of: text, json, sarif");
                    return ExitCode::from(2);
                }
            },
            "--out" => match it.next() {
                Some(p) => out_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--out takes a path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown lint option `{other}`");
                usage();
                return ExitCode::from(2);
            }
        }
    }

    let root = workspace_root();
    let started = std::time::Instant::now();
    let diags = faro_lint::run(&root);
    let elapsed = started.elapsed().as_secs_f64();

    let report = match format.as_str() {
        "json" => Some(faro_lint::to_json(&diags)),
        "sarif" => Some(faro_lint::to_sarif(&diags)),
        _ => None,
    };
    match &report {
        Some(text) => print!("{text}"),
        None => {
            for d in &diags {
                println!("{d}\n");
            }
        }
    }
    if let Some(path) = &out_path {
        let text = report.clone().unwrap_or_else(|| faro_lint::to_json(&diags));
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("faro-lint: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    if diags.is_empty() {
        eprintln!("faro-lint: clean ({elapsed:.2}s)");
    } else {
        eprintln!("faro-lint: {} diagnostic(s) in {elapsed:.2}s", diags.len());
    }

    // The perf gate: a full run must stay interactive. CI pins the
    // budget.
    if let Ok(gate) = std::env::var("FARO_LINT_TIME_GATE_SECS") {
        if let Ok(limit) = gate.parse::<f64>() {
            if elapsed > limit {
                eprintln!("faro-lint: wall time {elapsed:.2}s exceeds the {limit:.2}s gate");
                return ExitCode::FAILURE;
            }
        }
    }

    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The workspace root is two levels above this crate's manifest
/// (`<root>/crates/xtask`).
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask always sits two levels below the workspace root")
        .to_path_buf()
}
