//! The raw-time check.
//!
//! Every other invariant the golden reports depend on has an owner
//! that sees resolved code (DESIGN.md, "Static analysis & invariants",
//! has the table): rustc for the unit newtypes and the audit of
//! `#[expect]`, clippy for determinism (`crates/*/clippy.toml`), for
//! wildcard arms over control-plane enums and for panics in `sim`,
//! `control` and `cluster` library code, and a control-plane test for
//! the retry bound. The raw-time check is a naming convention no
//! compiler lint can state: no raw-`f64` field, parameter or binding
//! whose name ends in `_secs`, `_ms`, `_micros`, `_per_min` or
//! `_per_minute`, and no bare `60e6`, `60_000_000`, `1e6` or
//! `1_000_000` in `core`, `sim`, `solver`, `control` or `queueing`.
//! The unit homes (`units.rs`, `count.rs`, `events.rs`) and test code
//! are exempt. Each raw site the workspace keeps is argued once, in
//! [`ALLOWLIST`]; an entry that covers nothing is itself a finding.
//!
//! [`raw_time_findings`] reads each line before a file's
//! `#[cfg(test)] mod tests` up to its first `//`. No scanned file has a
//! block comment; a `//` inside a string literal would hide the rest of
//! its line.

/// The raw sites the workspace keeps, one `path name: reason` each.
/// The five `sim::report` values are serialized report fields whose
/// bytes `results/` pins, and the benchmark reads two of them. A job's
/// `rates_per_minute` is its raw input trace, which `Simulation::new`
/// converts to `RatePerMin`; the trace generator's is the series it
/// hands over. `scale_sweep` measures solver wall time, which no
/// simulated-time type carries, and prints a summed request rate.
pub const ALLOWLIST: &[&str] = &[
    "crates/bench/src/bin/repro/scale_sweep.rs sharded_warm_max_ms: measured wall time",
    "crates/bench/src/bin/repro/scale_sweep.rs aggregate_req_per_min: printed sum of trace rates",
    "crates/sim/src/report.rs utility_per_minute: serialized report series",
    "crates/sim/src/report.rs effective_utility_per_minute: serialized report series",
    "crates/sim/src/report.rs arrivals_per_minute: serialized report series the benchmark reads",
    "crates/sim/src/report.rs mean_time_to_recover_secs: serialized report field",
    "crates/sim/src/report.rs cluster_utility_per_minute: serialized series the benchmark reads",
    "crates/sim/src/simulator.rs rates_per_minute: raw input trace, typed by Simulation::new",
    "crates/trace/src/generator.rs rates_per_minute: the generated trace series",
];

/// Suffixes that mark a name as carrying a time or a rate.
const UNIT_SUFFIXES: &[&str] = &["_secs", "_ms", "_micros", "_per_min", "_per_minute"];

/// Conversion constants that mix units (seconds↔micros, min↔micros).
const CROSS_UNIT_LITERALS: &[&str] = &["60e6", "60_000_000", "1e6", "1_000_000"];

/// Type suffixes a numeric literal may end with (`60e6_f64`,
/// `60_000_000u64`).
const LITERAL_TYPES: &[&str] = &[
    "f32", "f64", "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128",
    "isize",
];

/// Crates whose `src/` may hold no bare conversion constant.
const LITERAL_CRATES: &[&str] = &["core", "sim", "solver", "control", "queueing"];

/// Modules that define the unit boundary and so may convert raw.
const UNIT_HOMES: &[&str] = &["/units.rs", "/count.rs", "/events.rs"];

/// The raw-time check over `files` (workspace-relative path, content):
/// `path:line: name` for each raw declaration or conversion constant
/// no `allow` entry (`path name: reason`) names, then one line per
/// entry that names nothing or lacks a reason.
pub fn raw_time_findings(files: &[(String, String)], allow: &[&str]) -> Vec<String> {
    let entries: Vec<Option<(&str, &str)>> = allow
        .iter()
        .map(|e| {
            e.split_once(": ")
                .and_then(|(head, _)| head.split_once(' '))
        })
        .collect();
    let mut used = vec![false; allow.len()];
    let mut out = Vec::new();
    for (path, content) in files {
        if !path.contains("/src/") || UNIT_HOMES.iter().any(|home| path.ends_with(home)) {
            continue;
        }
        let krate = path
            .strip_prefix("crates/")
            .and_then(|p| p.split_once("/src/"));
        let literals = krate.is_some_and(|(krate, _)| LITERAL_CRATES.contains(&krate));
        for (idx, line) in crate::library_lines(content).iter().enumerate() {
            let code = line.split("//").next().unwrap_or_default();
            for (start, word) in words(code) {
                let declaration = UNIT_SUFFIXES.iter().any(|s| word.ends_with(s))
                    && raw_f64_type(&code[start + word.len()..]);
                let literal = literals && !code[..start].ends_with('.') && cross_unit_literal(word);
                if !(declaration || literal) {
                    continue;
                }
                match entries.iter().position(|&e| e == Some((path, word))) {
                    Some(i) => used[i] = true,
                    None => out.push(format!("{path}:{}: {word}", idx + 1)),
                }
            }
        }
    }
    for (entry, used) in allow.iter().zip(used) {
        if !used {
            out.push(format!("allowlist entry `{entry}` matches nothing"));
        }
    }
    out
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// The maximal runs of identifier characters in `code`, with their
/// byte offsets: names and numeric literals alike.
fn words(code: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut start = None;
    for (i, c) in code.char_indices().chain([(code.len(), ' ')]) {
        match (start, is_ident(c)) {
            (None, true) => start = Some(i),
            (Some(s), false) => {
                out.push((s, &code[s..i]));
                start = None;
            }
            _ => {}
        }
    }
    out
}

/// Whether `rest`, the text after a name, declares it a raw `f64`, or a
/// `Vec`, `Option` or slice of one (`: f64::NAN` is a value, not a type).
fn raw_f64_type(rest: &str) -> bool {
    let Some(ty) = rest.trim_start().strip_prefix(':') else {
        return false;
    };
    let ty = ty.trim_start();
    let bare = ty
        .strip_prefix("f64")
        .is_some_and(|after| !after.starts_with(|c: char| c == ':' || is_ident(c)));
    bare || ["Vec<f64>", "Option<f64>", "&[f64]"]
        .iter()
        .any(|wrapped| ty.starts_with(wrapped))
}

/// Whether `word` is a cross-unit constant, bare or with a type suffix.
fn cross_unit_literal(word: &str) -> bool {
    CROSS_UNIT_LITERALS.iter().any(|lit| {
        word.strip_prefix(lit).is_some_and(|tail| {
            tail.is_empty() || LITERAL_TYPES.contains(&tail.strip_prefix('_').unwrap_or(tail))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::raw_time_findings;

    /// The `line: name` findings for one file under an empty allowlist.
    fn check(path: &str, source: &str) -> Vec<String> {
        let prefix = format!("{path}:");
        raw_time_findings(&[(path.to_owned(), source.to_owned())], &[])
            .into_iter()
            .map(|f| f.strip_prefix(&prefix).map_or(f.clone(), str::to_owned))
            .collect()
    }

    #[test]
    fn raw_f64_declarations_are_found() {
        let src = "pub start_secs: f64,\npub width_ms: f64,\npub rates_per_minute: Vec<f64>,\n\
                   pub last_micros: Option<f64>,\nfn f(gaps_per_min: &[f64], t_secs : f64) {}\n";
        assert_eq!(
            check("crates/sim/src/x.rs", src),
            [
                "1: start_secs",
                "2: width_ms",
                "3: rates_per_minute",
                "4: last_micros",
                "5: gaps_per_min",
                "5: t_secs",
            ]
        );
    }

    #[test]
    fn suffix_matching_respects_identifier_ends() {
        let src = "pub window_per_minute: f64,\npub secs_total: f64,\npub a_msx: f64,\n\
                   pub start: SimTimeMs,\npub t_secs: f64x4,\npub n_ms: u64,\n";
        assert_eq!(
            check("crates/forecast/src/x.rs", src),
            ["1: window_per_minute"]
        );
    }

    #[test]
    fn float_method_paths_do_not_trip_the_field_check() {
        // `cold_start_secs: f64::NAN` in a struct literal is a value, not a
        // declaration.
        let src = "let c = SimConfig { cold_start_secs: f64::NAN, ..Default::default() };\n";
        assert!(check("crates/forecast/src/x.rs", src).is_empty());
    }

    #[test]
    fn literals_end_at_a_type_suffix_and_nowhere_else() {
        let src = "let a = 60e6 / r;\nlet b = (60e6_f64, 60e6f64, 60_000_000u64, (60e6_usize));\n\
                   let c = secs * 1e6;\nlet d = 1_000_000i64;\n\
                   let e = (1e60, 60e60, 1_000_0000, 1_000_000_000, 60e6_x, 60e6f6, 60e6_f64x);\n\
                   let f = (1.60e6, x60e6);\n";
        assert_eq!(
            check("crates/sim/src/x.rs", src),
            [
                "1: 60e6",
                "2: 60e6_f64",
                "2: 60e6f64",
                "2: 60_000_000u64",
                "2: 60e6_usize",
                "3: 1e6",
                "4: 1_000_000i64",
            ]
        );
    }

    #[test]
    fn text_after_a_line_comment_is_not_code() {
        let src = "let a = 1; // 60e6 per start_secs: f64\n";
        assert!(check("crates/sim/src/x.rs", src).is_empty());
    }

    /// Literals are held in five crates only, declarations in every
    /// `src/`; nothing outside a `src/` is read.
    #[test]
    fn out_of_scope_paths_are_ignored() {
        let src = "let gap = 60e6 / rate;\n";
        assert!(check("crates/forecast/src/x.rs", src).is_empty());
        assert!(check("crates/cluster/src/server.rs", src).is_empty());
        assert_eq!(check("crates/sim/src/lib.rs", src), ["1: 60e6"]);
        assert!(check("crates/sim/tests/it.rs", "pub t_secs: f64 = 60e6;\n").is_empty());
        assert_eq!(
            check(
                "crates/metrics/src/x.rs",
                "pub t_secs: f64,\nlet g = 1e6;\n"
            ),
            ["1: t_secs"]
        );
    }

    #[test]
    fn unit_home_modules_are_exempt() {
        let src = "pub fn micros(x_secs: f64) -> u64 { (x_secs * 1e6) as u64 }\n";
        for home in [
            "crates/sim/src/events.rs",
            "crates/core/src/units.rs",
            "crates/queueing/src/count.rs",
        ] {
            assert!(check(home, src).is_empty(), "{home}");
        }
        assert_eq!(
            check("crates/sim/src/other.rs", src),
            ["1: x_secs", "1: 1e6"]
        );
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    const MICROS: f64 = 60e6;\n    fn g(t_secs: f64) {}\n}\n";
        assert!(check("crates/core/src/lib.rs", src).is_empty());
    }

    /// A gated statement hides only itself: the library code after it
    /// is still checked.
    #[test]
    fn code_after_a_braceless_cfg_test_item_is_checked() {
        let src = "pub fn f(r: f64) -> f64 {\n    #[cfg(test)]\n    bump();\n    r / 60e6\n}\n";
        assert_eq!(check("crates/core/src/lib.rs", src), ["4: 60e6"]);
    }

    /// An entry silences its own name in its own file: another name on
    /// the same line, and the same name in another file, still fire.
    #[test]
    fn allow_silences_one_line() {
        let files = [
            (
                "crates/sim/src/x.rs".to_owned(),
                "fn f(t_secs: f64, u_secs: f64) {}\n".to_owned(),
            ),
            (
                "crates/forecast/src/x.rs".to_owned(),
                "pub t_secs: f64,\n".to_owned(),
            ),
        ];
        assert_eq!(
            raw_time_findings(&files, &["crates/sim/src/x.rs t_secs: wire format"]),
            [
                "crates/sim/src/x.rs:1: u_secs",
                "crates/forecast/src/x.rs:1: t_secs",
            ]
        );
    }
}
