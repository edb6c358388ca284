//! Source sanitization: the check matches on *code*, never on comments
//! or string literals.
//!
//! The scanner rewrites a file so that every comment and string
//! literal is blanked to spaces while newlines and column positions
//! are preserved exactly. The check then pattern-matches on the
//! sanitized lines and reports columns that are valid in the original
//! file. This is deliberately not a full parser: it only has to agree
//! with rustc about where comments and literals *end*, which takes a
//! small state machine (nested block comments, raw strings, and the
//! char-versus-lifetime ambiguity are the only subtle cases).
//!
//! Alongside the code-only `clean` lines the scanner produces a
//! *comment-only* mask: plain `//` and `/* */` comment text preserved,
//! everything else (code, strings, doc comments) blanked. Annotations
//! are collected from that mask, so a `faro-lint: allow(...)` inside a
//! string literal — the check's own help strings, say — is never
//! mistaken for a real suppression, and doc comments that merely
//! *describe* the syntax do not create phantom annotations for the
//! audit to flag.

/// The marker every annotation starts with.
const MARKER: &str = "faro-lint:";

/// The one annotation that suppresses anything, after [`MARKER`].
const ALLOW: &str = "allow(raw-time-arith)";

/// One `faro-lint:` annotation, as written in a plain comment.
///
/// The check audits these: an allow that never suppresses a finding,
/// and any annotation that is not an allow of `raw-time-arith`, is
/// itself a finding, so suppressions cannot rot.
#[derive(Debug)]
pub struct AllowSite {
    /// 0-based line of the annotation comment.
    pub line: usize,
    /// 0-based column where the `faro-lint:` marker starts.
    pub col: usize,
    /// What follows the marker, up to the first `)` or the comment's end.
    pub text: String,
    /// The 0-based line an `allow(raw-time-arith)` covers; `None` for
    /// any other annotation, which covers nothing.
    pub covers: Option<usize>,
}

/// A scanned file: sanitized lines, its annotations, and which lines
/// sit inside test-only code.
pub struct FileScan {
    /// Comment/string-blanked lines; same line count and columns.
    pub clean: Vec<String>,
    /// Every `faro-lint:` annotation, for the audit.
    pub allow_sites: Vec<AllowSite>,
    /// True for lines inside `#[cfg(test)]` or `#[test]` items.
    pub in_test: Vec<bool>,
}

impl FileScan {
    /// Does an `allow(raw-time-arith)` annotation cover 0-based line `idx`?
    pub fn allows(&self, idx: usize) -> bool {
        self.allow_sites.iter().any(|a| a.covers == Some(idx))
    }
}

/// Scans `content` into sanitized lines plus annotation/test metadata.
pub fn scan(content: &str) -> FileScan {
    let (clean, comments) = blank_comments_and_strings(content);
    debug_assert_eq!(
        clean.len(),
        comments.len(),
        "comment mask changed line count"
    );
    let allow_sites = collect_allows(&comments, &clean);
    let in_test = test_spans(&clean);
    FileScan {
        clean,
        allow_sites,
        in_test,
    }
}

fn push_blanked(out: &mut String, c: char) {
    out.push(if c == '\n' { '\n' } else { ' ' });
}

/// Emits `c` into the code stream and a blank into the comment stream.
fn emit_code(code: &mut String, comments: &mut String, c: char) {
    code.push(c);
    push_blanked(comments, c);
}

/// Emits blanks into the code stream; `c` goes to the comment stream
/// only when `keep_comment` (plain comments, not docs or strings).
fn emit_non_code(code: &mut String, comments: &mut String, c: char, keep_comment: bool) {
    push_blanked(code, c);
    if keep_comment {
        comments.push(c);
    } else {
        push_blanked(comments, c);
    }
}

/// Blanks comments, strings, and char literals to spaces in the code
/// view; preserves newlines, so line numbers and columns survive.
/// Returns `(code_only, comment_only)` line vectors: the second keeps
/// plain `//`/`/* */` comment text (doc comments excluded) and blanks
/// everything else.
fn blank_comments_and_strings(content: &str) -> (Vec<String>, Vec<String>) {
    let b: Vec<char> = content.chars().collect();
    let n = b.len();
    let mut code = String::with_capacity(n);
    let mut comm = String::with_capacity(n);
    let mut i = 0;
    while i < n {
        let c = b[i];
        // Line comment: blank to end of line. `///` and `//!` are doc
        // comments — documentation, not annotations — and stay out of
        // the comment mask.
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            let doc = i + 2 < n && (b[i + 2] == '/' || b[i + 2] == '!');
            while i < n && b[i] != '\n' {
                emit_non_code(&mut code, &mut comm, b[i], !doc);
                i += 1;
            }
            continue;
        }
        // Block comment: nests, per the Rust grammar. `/**` and `/*!`
        // are doc comments, excluded from the mask like `///`.
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let doc = i + 2 < n && (b[i + 2] == '*' || b[i + 2] == '!')
                // `/**/` is an empty plain comment, not a doc comment.
                && !(i + 3 < n && b[i + 2] == '*' && b[i + 3] == '/');
            let mut depth = 1;
            emit_non_code(&mut code, &mut comm, '/', !doc);
            emit_non_code(&mut code, &mut comm, '*', !doc);
            i += 2;
            while i < n && depth > 0 {
                if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    emit_non_code(&mut code, &mut comm, '/', !doc);
                    emit_non_code(&mut code, &mut comm, '*', !doc);
                    i += 2;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    emit_non_code(&mut code, &mut comm, '*', !doc);
                    emit_non_code(&mut code, &mut comm, '/', !doc);
                    i += 2;
                } else {
                    emit_non_code(&mut code, &mut comm, b[i], !doc);
                    i += 1;
                }
            }
            continue;
        }
        // Raw (byte) string: r"...", r#"..."#, br#"..."# — no escapes,
        // closes only on a quote followed by the opening hash count.
        if (c == 'r' || c == 'b') && !prev_is_ident(&b, i) {
            let mut j = i;
            if b[j] == 'b' && j + 1 < n && b[j + 1] == 'r' {
                j += 1;
            }
            if b[j] == 'r' {
                let mut hashes = 0;
                let mut k = j + 1;
                while k < n && b[k] == '#' {
                    hashes += 1;
                    k += 1;
                }
                if k < n && b[k] == '"' {
                    // Blank the prefix and opening quote.
                    for _ in i..=k {
                        emit_non_code(&mut code, &mut comm, ' ', false);
                    }
                    i = k + 1;
                    while i < n {
                        if b[i] == '"' && closes_raw_string(&b, i, hashes) {
                            for _ in 0..=hashes {
                                emit_non_code(&mut code, &mut comm, ' ', false);
                            }
                            i += 1 + hashes;
                            break;
                        }
                        emit_non_code(&mut code, &mut comm, b[i], false);
                        i += 1;
                    }
                    continue;
                }
                // `r#ident` raw identifiers and a bare `r`/`br` fall
                // through and are emitted as code below.
            }
            // `b"..."` / `b'x'` byte literals fall through to the
            // string/char arms below after emitting the `b`.
            if c == 'b' && i + 1 < n && (b[i + 1] == '"' || b[i + 1] == '\'') {
                emit_non_code(&mut code, &mut comm, ' ', false);
                i += 1;
                continue;
            }
        }
        // String literal with escapes.
        if c == '"' {
            emit_non_code(&mut code, &mut comm, ' ', false);
            i += 1;
            while i < n {
                if b[i] == '\\' && i + 1 < n {
                    emit_non_code(&mut code, &mut comm, b[i], false);
                    emit_non_code(&mut code, &mut comm, b[i + 1], false);
                    i += 2;
                } else if b[i] == '"' {
                    emit_non_code(&mut code, &mut comm, ' ', false);
                    i += 1;
                    break;
                } else {
                    emit_non_code(&mut code, &mut comm, b[i], false);
                    i += 1;
                }
            }
            continue;
        }
        // Char literal vs lifetime: 'x' and '\n' are chars; 'a in
        // `&'a str` is a lifetime and must survive sanitization.
        if c == '\'' {
            let is_char = if i + 1 < n && b[i + 1] == '\\' {
                true
            } else {
                i + 2 < n && b[i + 2] == '\''
            };
            if is_char {
                emit_non_code(&mut code, &mut comm, ' ', false);
                i += 1;
                while i < n {
                    if b[i] == '\\' && i + 1 < n {
                        emit_non_code(&mut code, &mut comm, b[i], false);
                        emit_non_code(&mut code, &mut comm, b[i + 1], false);
                        i += 2;
                    } else if b[i] == '\'' {
                        emit_non_code(&mut code, &mut comm, ' ', false);
                        i += 1;
                        break;
                    } else {
                        emit_non_code(&mut code, &mut comm, b[i], false);
                        i += 1;
                    }
                }
                continue;
            }
        }
        emit_code(&mut code, &mut comm, c);
        i += 1;
    }
    (
        code.split('\n').map(str::to_owned).collect(),
        comm.split('\n').map(str::to_owned).collect(),
    )
}

/// Does the quote at `b[i]` close a raw string opened with `hashes`
/// hashes? True when exactly the next `hashes` chars are all `#`.
fn closes_raw_string(b: &[char], i: usize, hashes: usize) -> bool {
    let after = &b[i + 1..];
    after.len() >= hashes && after.iter().take(hashes).all(|&h| h == '#')
}

fn prev_is_ident(b: &[char], i: usize) -> bool {
    i > 0 && (b[i - 1].is_alphanumeric() || b[i - 1] == '_')
}

/// Collects every `faro-lint:` annotation from the comment-only mask.
/// A trailing `allow(raw-time-arith)` covers its own line; one on a
/// comment-only line covers the next line instead. Any other text after
/// the marker covers nothing.
fn collect_allows(comments: &[String], clean: &[String]) -> Vec<AllowSite> {
    let n = comments.len();
    let mut sites = Vec::new();
    for (idx, line) in comments.iter().enumerate() {
        for (pos, _) in line.match_indices(MARKER) {
            let rest = line[pos + MARKER.len()..].trim();
            let text = rest.find(')').map_or(rest, |close| &rest[..=close]);
            let comment_only = clean.get(idx).is_none_or(|l| l.trim().is_empty());
            let covers = (text == ALLOW).then_some(if comment_only && idx + 1 < n {
                idx + 1
            } else {
                idx
            });
            sites.push(AllowSite {
                line: idx,
                col: line[..pos].chars().count(),
                text: text.to_owned(),
                covers,
            });
        }
    }
    sites
}

/// Marks the lines of `#[cfg(test)]` / `#[test]` items, from the
/// attribute to the end of the item it gates: the `}` that closes the
/// item's first `{`, or, for an item with no braces of its own (a
/// gated statement or field), the first `;` or `,` outside brackets.
fn test_spans(clean: &[String]) -> Vec<bool> {
    let n = clean.len();
    let mut in_test = vec![false; n];
    let mut i = 0;
    while i < n {
        let line = &clean[i];
        if !(line.contains("#[cfg(test)]") || line.contains("#[test]")) {
            i += 1;
            continue;
        }
        let mut depth: i64 = 0;
        let mut opened = false;
        let mut j = i;
        'item: while j < n {
            in_test[j] = true;
            for ch in clean[j].chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '(' | '[' => depth += 1,
                    '}' | ')' | ']' => depth -= 1,
                    ';' | ',' if depth == 0 && !opened => break 'item,
                    _ => {}
                }
                if opened && depth == 0 {
                    break 'item;
                }
            }
            j += 1;
        }
        i = j + 1;
    }
    in_test
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blanks_line_and_block_comments() {
        let src = "let x = 1; // HashMap here\n/* HashSet /* nested */ still */ let y = 2;\n";
        let s = scan(src);
        assert!(!s.clean[0].contains("HashMap"));
        assert!(!s.clean[1].contains("HashSet"));
        assert!(s.clean[1].contains("let y = 2;"));
        // Columns survive: `let y` sits where it sat.
        let raw = src.lines().nth(1).unwrap_or_default();
        assert_eq!(raw.find("let y"), s.clean[1].find("let y"));
    }

    #[test]
    fn blanks_strings_and_raw_strings_but_not_code() {
        let s = scan(
            "let a = \"HashMap \\\" quoted\"; let b = r#\"Instant \" inside\"#;\nlet c = SystemTime;\n",
        );
        assert!(!s.clean[0].contains("HashMap"));
        assert!(!s.clean[0].contains("Instant"));
        assert!(s.clean[1].contains("SystemTime"));
    }

    #[test]
    fn lifetimes_survive_char_literals_do_not() {
        let s = scan("fn f<'a>(x: &'a str) -> char { 'x' }\nlet esc = '\\n';\n");
        assert!(s.clean[0].contains("<'a>"), "{}", s.clean[0]);
        assert!(s.clean[0].contains("&'a str"));
        assert!(!s.clean[0].contains("'x'"));
        assert!(!s.clean[1].contains("\\n"));
    }

    #[test]
    fn comment_above_allow_covers_the_next_line_only() {
        let s = scan(
            "// faro-lint: allow(raw-time-arith): wire format\npub start_secs: f64,\npub end_secs: f64,\n",
        );
        assert!(s.allows(1));
        assert!(!s.allows(2));
    }

    #[test]
    fn trailing_allow_covers_its_own_line_only() {
        let s = scan("pub a_secs: f64, // faro-lint: allow(raw-time-arith)\npub b_secs: f64,\n");
        assert!(s.allows(0));
        assert!(!s.allows(1));
    }

    #[test]
    fn other_annotations_cover_nothing() {
        let s = scan(
            "// faro-lint: allow-file(raw-time-arith)\n\
             // faro-lint: allow(no-panic-in-lib): retired\n\
             pub a_secs: f64, // faro-lint: allow(raw-time-arith, other)\n",
        );
        let texts: Vec<&str> = s.allow_sites.iter().map(|a| a.text.as_str()).collect();
        assert_eq!(
            texts,
            [
                "allow-file(raw-time-arith)",
                "allow(no-panic-in-lib)",
                "allow(raw-time-arith, other)"
            ]
        );
        assert!(s.allow_sites.iter().all(|a| a.covers.is_none()));
        assert!((0..3).all(|idx| !s.allows(idx)));
    }

    #[test]
    fn allow_sites_record_coverage() {
        let s = scan(
            "// faro-lint: allow(raw-time-arith): wire\npub a_secs: f64,\nlet x = 60e6; // faro-lint: allow(raw-time-arith): micros\n// faro-lint: allow-file(raw-time-arith)\n",
        );
        assert_eq!(s.allow_sites.len(), 3);
        assert_eq!(s.allow_sites[0].covers, Some(1));
        assert_eq!(s.allow_sites[0].text, "allow(raw-time-arith)");
        assert_eq!((s.allow_sites[0].line, s.allow_sites[0].col), (0, 3));
        assert_eq!(s.allow_sites[1].covers, Some(2));
        assert_eq!(s.allow_sites[2].covers, None);
    }

    #[test]
    fn allow_inside_string_literal_is_not_an_annotation() {
        // The linter's own help text quotes the annotation syntax in a
        // string literal; that must neither suppress anything nor count
        // as an (unused) annotation.
        let s = scan("let help = \"annotate with `// faro-lint: allow(raw-time-arith)`\";\nlet t_secs: f64 = 1.0;\n");
        assert!(s.allow_sites.is_empty(), "{:?}", s.allow_sites);
        assert!(!s.allows(0));
        assert!(!s.allows(1));
    }

    #[test]
    fn allow_inside_doc_comment_is_not_an_annotation() {
        let s = scan(
            "//! Escape hatch: `// faro-lint: allow(rule-id): reason`.\n/// See `faro-lint: allow(other-rule)`.\nfn f() {}\n",
        );
        assert!(s.allow_sites.is_empty(), "{:?}", s.allow_sites);
        // Plain comments still work.
        let p = scan("// faro-lint: allow(raw-time-arith): wire\npub a_secs: f64,\n");
        assert_eq!(p.allow_sites.len(), 1);
    }

    #[test]
    fn allow_inside_raw_string_is_not_an_annotation() {
        let s = scan("let x = r#\"// faro-lint: allow(no-panic-in-lib)\"#;\n");
        assert!(s.allow_sites.is_empty(), "{:?}", s.allow_sites);
    }

    #[test]
    fn raw_string_with_hash_quote_sequences_closes_correctly() {
        // `"#` inside an `r##"…"##` string must not close it.
        let s = scan("let a = r##\"he said \"#hash\" HashMap\"##; let b = HashSet;\n");
        assert!(!s.clean[0].contains("HashMap"), "{}", s.clean[0]);
        assert!(s.clean[0].contains("HashSet"), "{}", s.clean[0]);
    }

    #[test]
    fn raw_string_spanning_lines_blanks_comment_markers_inside() {
        let src = "let q = r#\"line one // not a comment\nline two /* not open */\"#;\nlet z = Instant;\n";
        let s = scan(src);
        assert!(!blank_comments_and_strings(src).1[0].contains("not a comment"));
        assert!(!s.clean[1].contains("not open"));
        assert!(s.clean[2].contains("Instant"));
    }

    #[test]
    fn byte_raw_string_is_blanked() {
        let s = scan("let a = br#\"HashMap \" inside\"#; let b = SystemTime;\n");
        assert!(!s.clean[0].contains("HashMap"));
        assert!(s.clean[0].contains("SystemTime"));
    }

    #[test]
    fn unterminated_raw_string_blanks_to_eof_without_panicking() {
        let s = scan("let a = r#\"never closed\nHashMap on the next line\n");
        assert!(!s.clean[1].contains("HashMap"));
    }

    #[test]
    fn raw_identifier_is_not_a_raw_string() {
        let s = scan("let r#match = 1; let r = 2;\n");
        assert!(s.clean[0].contains("r#match"), "{}", s.clean[0]);
        assert!(s.clean[0].contains("let r = 2;"));
    }

    #[test]
    fn nested_block_comment_with_string_quote_inside() {
        // A quote inside a nested block comment must not open a string
        // that swallows the following code.
        let s = scan("/* outer /* \" inner */ still \" out */ let h = HashMap;\n");
        assert!(s.clean[0].contains("let h = HashMap;"), "{}", s.clean[0]);
    }

    #[test]
    fn block_comment_opener_inside_string_does_not_open_a_comment() {
        let src = "let s = \"/*\"; let h = HashMap; // trailing\n";
        let s = scan(src);
        assert!(s.clean[0].contains("HashMap"), "{}", s.clean[0]);
        assert!(!s.clean[0].contains("trailing"));
        assert!(blank_comments_and_strings(src).1[0].contains("trailing"));
    }

    #[test]
    fn comment_mask_excludes_code_and_strings() {
        let src = "let x = \"in string\"; // in comment\n";
        let comments = blank_comments_and_strings(src).1;
        assert!(!comments[0].contains("let x"));
        assert!(!comments[0].contains("in string"));
        assert!(comments[0].contains("in comment"));
        // Columns line up with the raw text.
        assert_eq!(src.find("in comment"), comments[0].find("in comment"));
    }

    #[test]
    fn cfg_test_module_is_marked() {
        let src = "\
fn lib_code() {}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        lib_code();
    }
}

fn more_lib() {}
";
        let s = scan(src);
        assert!(!s.in_test[0], "lib fn");
        assert!(s.in_test[2], "attr line");
        assert!(s.in_test[6], "test body");
        assert!(s.in_test[8], "closing brace");
        assert!(!s.in_test[10], "code after the module");

        // A gated statement or field has no braces of its own: its span
        // ends at its `;` or `,`, not at the next item's closing brace.
        let src = "\
pub fn f(r: f64) -> f64 {
    #[cfg(test)]
    COUNTER.with(|c| c.set(c.get() + 1));
    r / 60e6
}
pub struct S {
    #[cfg(test)] misses: Vec<(u32, u32)>,
    pub rate_per_min: f64,
}
";
        let s = scan(src);
        assert_eq!(
            s.in_test,
            [false, true, true, false, false, false, true, false, false, false]
        );
    }
}
