//! Workspace task runner, cargo-xtask style: `cargo xtask <task>`
//! (the alias lives in `.cargo/config.toml`). Plain std, no
//! dependencies, so it builds in seconds.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match (args.first().map(String::as_str), args.len()) {
        (Some("lint"), 1) => return lint(),
        (Some("ledger"), 1) => return ledger(),
        (Some(task @ ("lint" | "ledger")), _) => eprintln!("`{task}` takes no options"),
        (Some(other), _) => eprintln!("unknown task `{other}`"),
        (None, _) => {}
    }
    usage();
    ExitCode::from(2)
}

fn usage() {
    eprintln!("usage: cargo xtask <task>");
    eprintln!();
    eprintln!("tasks:");
    eprintln!("  lint    run raw-time-arith over the workspace: no raw-f64");
    eprintln!("          time/rate fields or bare unit-conversion constants,");
    eprintln!("          no stale or foreign `faro-lint:` annotations (clippy");
    eprintln!("          and rustc own the other invariants); exits 1 on any");
    eprintln!("          diagnostic");
    eprintln!("  ledger  print the non-test code lines of each crate's src/");
    eprintln!("          (the root package as `facade`) and their total");
}

/// Runs the `raw-time-arith` check over the workspace's file contents
/// and prints rustc-style diagnostics.
fn lint() -> ExitCode {
    let started = std::time::Instant::now();
    let diags = xtask::lint_workspace(&workspace_root());
    let elapsed = started.elapsed().as_secs_f64();
    for d in &diags {
        println!("{d}\n");
    }
    if diags.is_empty() {
        eprintln!("raw-time-arith: clean ({elapsed:.2}s)");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "raw-time-arith: {} diagnostic(s) in {elapsed:.2}s",
            diags.len()
        );
        ExitCode::FAILURE
    }
}

/// Prints the line ledger: [`code_lines`] summed over the `.rs` files
/// under each crate's `src/`, one row per crate by directory name, the
/// root package's `src/` as `facade`, then the total.
fn ledger() -> ExitCode {
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for (path, content) in xtask::read_workspace(&workspace_root()) {
        let krate = path
            .strip_prefix("crates/")
            .and_then(|p| p.split('/').next());
        let krate = krate.unwrap_or("facade").to_string();
        *counts.entry(krate).or_default() += code_lines(&content);
    }
    for (krate, lines) in &counts {
        println!("{krate:<10} {lines:>6}");
    }
    println!("{:<10} {:>6}", "total", counts.values().sum::<usize>());
    ExitCode::SUCCESS
}

/// A file's lines that are neither blank nor comment-only, up to its
/// `#[cfg(test)] mod tests`. Other `#[cfg(test)]` items, such as
/// `thread_local!` test counters, count as code.
fn code_lines(text: &str) -> usize {
    let lines: Vec<&str> = text.lines().map(str::trim).collect();
    let end = lines
        .windows(2)
        .position(|w| w[0] == "#[cfg(test)]" && w[1].starts_with("mod tests"))
        .unwrap_or(lines.len());
    lines[..end]
        .iter()
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .count()
}

/// The workspace root of the tree the task runs in. The manifest
/// directory is read at run time from the `CARGO_MANIFEST_DIR` that
/// `cargo run` exports, not baked in at compile time: cargo does not
/// rebuild a binary copied along with its checkout's `target/`, and a
/// baked-in path would point the copy's tasks at the original tree.
fn workspace_root() -> PathBuf {
    let manifest_dir = std::env::var_os("CARGO_MANIFEST_DIR")
        .expect("CARGO_MANIFEST_DIR is unset: run the task as `cargo xtask <task>`");
    root_of(Path::new(&manifest_dir))
}

/// Two levels above this crate's manifest (`<root>/crates/xtask`).
fn root_of(manifest_dir: &Path) -> PathBuf {
    manifest_dir
        .ancestors()
        .nth(2)
        .expect("crates/xtask always sits two levels below the workspace root")
        .to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::{code_lines, root_of, workspace_root};
    use std::path::Path;

    #[test]
    fn the_root_is_two_levels_above_the_manifest_read_at_run_time() {
        assert_eq!(
            root_of(Path::new("/copy/of/repo/crates/xtask")),
            Path::new("/copy/of/repo")
        );
        let root = workspace_root();
        assert!(root.join("crates/xtask/Cargo.toml").is_file(), "{root:?}");
    }

    /// One line of each kind: code counts (a `#[cfg(test)]` counter
    /// included); blank lines, every comment style and everything from
    /// `#[cfg(test)] mod tests` on do not.
    #[test]
    fn the_ledger_counts_code_before_the_test_module() {
        let fixture = "\
//! Module doc.

/// Item doc.
pub fn f() -> u32 {
    // A comment.
    1 // A trailing comment on code.
}

#[cfg(test)]
thread_local! {
    static CALLS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {}
}
";
        assert_eq!(code_lines(fixture), 7);
        assert_eq!(code_lines(""), 0);
        assert_eq!(code_lines("fn g() {}"), 1, "a file with no test module");
    }
}
