//! Workspace task runner, cargo-xtask style: `cargo xtask <task>`
//! (the alias lives in `.cargo/config.toml`). Plain std, no deps
//! beyond the linter itself, so it builds in seconds.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") if args.len() == 1 => return lint(),
        Some("lint") => eprintln!("`lint` takes no options"),
        Some(other) => eprintln!("unknown task `{other}`"),
        None => {}
    }
    usage();
    ExitCode::from(2)
}

fn usage() {
    eprintln!("usage: cargo xtask <task>");
    eprintln!();
    eprintln!("tasks:");
    eprintln!("  lint    run faro-lint over the workspace (determinism &");
    eprintln!("          unit-safety invariants); exits 1 on any diagnostic");
}

/// Runs faro-lint's two-phase workspace analysis and prints rustc-style
/// diagnostics. `FARO_LINT_DIFF_BASE=origin/main` switches the golden
/// rules from uncommitted-changes mode to whole-branch mode (what CI
/// uses).
fn lint() -> ExitCode {
    let started = std::time::Instant::now();
    let diags = faro_lint::run(&workspace_root());
    let elapsed = started.elapsed().as_secs_f64();
    for d in &diags {
        println!("{d}\n");
    }
    if diags.is_empty() {
        eprintln!("faro-lint: clean ({elapsed:.2}s)");
        ExitCode::SUCCESS
    } else {
        eprintln!("faro-lint: {} diagnostic(s) in {elapsed:.2}s", diags.len());
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
