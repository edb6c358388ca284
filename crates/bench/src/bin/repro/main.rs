//! `repro`: the paper's evaluation (Sec. 6) and this repo's extensions,
//! one registry row per table or figure.
//!
//! ```text
//! repro                    list the rows and the files each writes
//! repro <row>|all          run, print, and write results/<row>.*
//! repro --check <row>|all  run and write nothing; one line per row, and
//!                          exit 1 on a broken claim or on any byte that
//!                          differs from the committed results/ files
//! ```
//!
//! A row's experiment returns a [`Run`]: what it prints, the files it
//! writes, and the paper claims its numbers broke, checked on the typed
//! values before anything is formatted. Every file is deterministic;
//! wall time goes to stderr.

use faro_bench::WorkloadSet;
use faro_forecast::nhits::NHits;
use std::process::ExitCode;
use std::time::Instant;

mod chaos_resilience;
mod faro_trace;
mod faults_resilience;
mod fig01;
mod fig02;
mod fig04;
mod fig05;
mod fig06;
mod fig07;
mod fig08;
mod fig10;
mod fig11;
mod fig12;
mod fig13;
mod fig14;
mod fig15;
mod fig16;
mod hetero_mixed;
mod scale_sweep;
mod table7;
mod table8;
mod traces;

/// What one experiment produced.
#[derive(Default)]
pub struct Run {
    /// What `repro <row>` prints.
    stdout: String,
    /// `(extension, contents)` of each `results/<row>.<extension>`.
    files: Vec<(&'static str, String)>,
    /// The claims the numbers broke, one line each.
    broken: Vec<String>,
}

impl Run {
    /// Records `claim` as broken, with the `measured` values, unless it
    /// `held`.
    fn claim(&mut self, held: bool, claim: &str, measured: impl std::fmt::Debug) {
        if !held {
            self.broken.push(format!("{claim} [{measured:?}]"));
        }
    }

    /// Sets what the run prints.
    fn print(self, stdout: String) -> Self {
        Self { stdout, ..self }
    }

    /// Sets what the run prints, which is also its `.txt` file.
    fn text(self, stdout: String) -> Self {
        self.file("txt", stdout.clone()).print(stdout)
    }

    /// Adds the file `results/<row>.<ext>`.
    fn file(mut self, ext: &'static str, contents: String) -> Self {
        self.files.push((ext, contents));
        self
    }
}

/// `set` with one N-HiTS predictor trained per job, as the paper's
/// Faro and Mark policies use them.
fn trained(set: WorkloadSet) -> (WorkloadSet, Vec<NHits>) {
    eprintln!("training predictors for {} jobs...", set.len());
    let trained = set.train_predictors(7);
    (set, trained)
}

/// One registry row. Its name is the stem of the files it writes.
struct Row {
    name: &'static str,
    files: &'static [&'static str],
    run: fn() -> Run,
}

const fn row(name: &'static str, files: &'static [&'static str], run: fn() -> Run) -> Row {
    Row { name, files, run }
}

const TXT: &[&str] = &["txt"];
const TXT_JSON: &[&str] = &["txt", "json"];

const ROWS: &[Row] = &[
    row("fig01", TXT, fig01::run),
    row("fig02", TXT, fig02::run),
    row("fig04", TXT, fig04::run),
    row("fig05", TXT, fig05::run),
    row("fig06", TXT, fig06::run),
    row("fig07", TXT, fig07::run),
    row("fig08", TXT, fig08::run),
    row("fig10", TXT, fig10::run),
    row("fig11", TXT, fig11::run),
    row("fig12", TXT, fig12::run),
    row("fig13", TXT, fig13::run),
    row("fig14", TXT, fig14::run),
    row("fig15", TXT, fig15::run),
    row("fig16", TXT, fig16::run),
    row("table7", TXT, table7::run),
    row("table8", TXT, table8::run),
    row("traces", &[], traces::run),
    row("chaos_resilience", TXT_JSON, chaos_resilience::run),
    row("faults_resilience", TXT_JSON, faults_resilience::run),
    row("faro_trace", &["jsonl", "prom"], faro_trace::run),
    row("hetero_mixed", TXT, hetero_mixed::run),
    row("scale_sweep", TXT, scale_sweep::run),
];

const RESULTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");

/// Runs `row`, then writes its files, or with `check` compares them
/// with the committed ones. Returns what went wrong, one line each.
fn execute(row: &Row, check: bool) -> Vec<String> {
    let started = Instant::now();
    let run = (row.run)();
    eprintln!("{}: {:.1} s", row.name, started.elapsed().as_secs_f64());
    let exts: Vec<&str> = run.files.iter().map(|f| f.0).collect();
    assert_eq!(exts, row.files, "{}: files not in the registry", row.name);
    let mut problems: Vec<String> = run.broken.iter().map(|c| format!("broken: {c}")).collect();
    for (ext, contents) in &run.files {
        let path = format!("{RESULTS}/{}.{ext}", row.name);
        if !check {
            std::fs::write(&path, contents).unwrap_or_else(|e| panic!("{path}: {e}"));
            continue;
        }
        let committed = std::fs::read_to_string(&path).unwrap_or_default();
        if committed != *contents {
            let pairs = committed.lines().zip(contents.lines());
            let line = pairs.take_while(|(a, b)| a == b).count() + 1;
            problems.push(format!("results/{}.{ext} differs at line {line}", row.name));
        }
    }
    if !check {
        print!("{}", run.stdout);
    }
    problems
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (check, target) = match args.as_slice() {
        [] => {
            for row in ROWS {
                let files = row.files.iter().map(|e| format!(" {}.{e}", row.name));
                println!("{:<18}{}", row.name, files.collect::<String>());
            }
            return ExitCode::SUCCESS;
        }
        [flag, target] if flag == "--check" => (true, target),
        [target] if !target.starts_with('-') => (false, target),
        _ => {
            eprintln!("usage: repro [--check] [<row>|all]");
            return ExitCode::from(2);
        }
    };
    let rows: Vec<&Row> = ROWS
        .iter()
        .filter(|r| target == "all" || r.name == target)
        .collect();
    if rows.is_empty() {
        eprintln!("no row named {target}; `repro` lists them");
        return ExitCode::from(2);
    }
    let mut failed = false;
    for row in rows {
        let problems = execute(row, check);
        failed |= !problems.is_empty();
        match (check, problems.is_empty()) {
            (true, true) => println!("ok    {}", row.name),
            (true, false) => println!("FAIL  {}: {}", row.name, problems.join("; ")),
            (false, _) => problems.iter().for_each(|p| eprintln!("{}: {p}", row.name)),
        }
    }
    ExitCode::from(u8::from(failed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_names_are_unique() {
        let mut names: Vec<&str> = ROWS.iter().map(|r| r.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ROWS.len());
    }

    #[test]
    fn every_result_file_belongs_to_exactly_one_row_and_every_row_file_exists() {
        let mut declared: Vec<String> = ROWS
            .iter()
            .flat_map(|r| r.files.iter().map(|e| format!("{}.{e}", r.name)))
            .collect();
        let mut committed: Vec<String> = std::fs::read_dir(RESULTS)
            .expect("results/ is committed")
            .map(|e| e.expect("entry").file_name().into_string().expect("UTF-8"))
            .collect();
        declared.sort();
        committed.sort();
        assert_eq!(committed, declared);
    }

    /// The rows that each run in under a second in release: their claims
    /// hold and they regenerate their committed files byte for byte.
    #[test]
    fn the_fast_rows_pass_check() {
        for name in [
            "fig01",
            "fig04",
            "fig05",
            "fig06",
            "fig07",
            "faults_resilience",
            "chaos_resilience",
            "faro_trace",
            "hetero_mixed",
            "traces",
        ] {
            let row = ROWS.iter().find(|r| r.name == name).expect("registered");
            assert_eq!(execute(row, true), Vec::<String>::new(), "{name}");
        }
    }
}
