//! The JSON codec under the wire, proven against what it replaced.
//!
//! `vendor/` is outside the workspace, so nothing under it runs in the
//! Tier-1 gate; this file is where the vendored `serde_json` parser
//! and the vendored `serde` number rendering are held to account:
//!
//! * [`oracle`] is the parser the byte-level one replaced, kept
//!   verbatim. A seeded generator writes documents that use every
//!   corner of the grammar both parsers accept or refuse, mutates each
//!   one character at a time, and requires the two to agree on
//!   `Ok`/`Err` and on the `Value` — a differential test, not a
//!   restatement of the new code. The only documents they may differ
//!   on are those nested past `serde_json::MAX_DEPTH`.
//! * Numbers render exactly as `to_string()` rendered them.
//! * The vendored crates' own unit tests are mirrored here.
//! * A full-size observe body survives the whole codec byte for byte.

use faro_cluster::ObserveResponse;
use faro_core::rng::SplitMix64;
use faro_core::types::{ClusterSnapshot, JobObservation, JobSpec, ResourceModel};
use faro_core::units::{RatePerMin, ReplicaCount, SimTimeMs};
use serde_json::{from_str, to_string, Value, MAX_DEPTH};
use std::sync::Arc;

/// The char-vector parser `serde_json::from_str` was until PR 20,
/// unchanged but for returning `Option` where it built the crate's
/// private error.
mod oracle {
    use serde_json::Value;
    use std::collections::BTreeMap;

    pub fn from_str(s: &str) -> Option<Value> {
        let chars: Vec<char> = s.chars().collect();
        let mut pos = 0usize;
        let value = parse_value(&chars, &mut pos)?;
        skip_ws(&chars, &mut pos);
        if pos != chars.len() {
            return None;
        }
        Some(value)
    }

    fn skip_ws(chars: &[char], pos: &mut usize) {
        while chars
            .get(*pos)
            .is_some_and(|c| matches!(c, ' ' | '\t' | '\n' | '\r'))
        {
            *pos += 1;
        }
    }

    fn eat(chars: &[char], pos: &mut usize, expect: char) -> Option<()> {
        if chars.get(*pos) == Some(&expect) {
            *pos += 1;
            Some(())
        } else {
            None
        }
    }

    fn parse_value(chars: &[char], pos: &mut usize) -> Option<Value> {
        skip_ws(chars, pos);
        match chars.get(*pos)? {
            '{' => parse_object(chars, pos),
            '[' => parse_array(chars, pos),
            '"' => parse_string(chars, pos).map(Value::String),
            't' => parse_literal(chars, pos, "true", Value::Bool(true)),
            'f' => parse_literal(chars, pos, "false", Value::Bool(false)),
            'n' => parse_literal(chars, pos, "null", Value::Null),
            _ => parse_number(chars, pos),
        }
    }

    fn parse_literal(chars: &[char], pos: &mut usize, word: &str, value: Value) -> Option<Value> {
        for expect in word.chars() {
            eat(chars, pos, expect)?;
        }
        Some(value)
    }

    fn parse_number(chars: &[char], pos: &mut usize) -> Option<Value> {
        let start = *pos;
        if chars.get(*pos) == Some(&'-') {
            *pos += 1;
        }
        while chars
            .get(*pos)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-'))
        {
            *pos += 1;
        }
        let text: String = chars.get(start..*pos)?.iter().collect();
        text.parse::<f64>().ok().map(Value::Number)
    }

    fn parse_string(chars: &[char], pos: &mut usize) -> Option<String> {
        eat(chars, pos, '"')?;
        let mut out = String::new();
        loop {
            match chars.get(*pos)? {
                '"' => {
                    *pos += 1;
                    return Some(out);
                }
                '\\' => {
                    *pos += 1;
                    match chars.get(*pos)? {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'b' => out.push('\u{8}'),
                        'f' => out.push('\u{c}'),
                        'u' => {
                            let hex: String = chars.get(*pos + 1..*pos + 5)?.iter().collect();
                            let code = u32::from_str_radix(&hex, 16).ok()?;
                            out.push(char::from_u32(code)?);
                            *pos += 4;
                        }
                        _ => return None,
                    }
                    *pos += 1;
                }
                &c => {
                    out.push(c);
                    *pos += 1;
                }
            }
        }
    }

    fn parse_array(chars: &[char], pos: &mut usize) -> Option<Value> {
        eat(chars, pos, '[')?;
        let mut items = Vec::new();
        skip_ws(chars, pos);
        if chars.get(*pos) == Some(&']') {
            *pos += 1;
            return Some(Value::Array(items));
        }
        loop {
            items.push(parse_value(chars, pos)?);
            skip_ws(chars, pos);
            match chars.get(*pos)? {
                ',' => *pos += 1,
                ']' => {
                    *pos += 1;
                    return Some(Value::Array(items));
                }
                _ => return None,
            }
        }
    }

    fn parse_object(chars: &[char], pos: &mut usize) -> Option<Value> {
        eat(chars, pos, '{')?;
        let mut map = BTreeMap::new();
        skip_ws(chars, pos);
        if chars.get(*pos) == Some(&'}') {
            *pos += 1;
            return Some(Value::Object(map));
        }
        loop {
            skip_ws(chars, pos);
            let key = parse_string(chars, pos)?;
            skip_ws(chars, pos);
            eat(chars, pos, ':')?;
            let value = parse_value(chars, pos)?;
            map.insert(key, value);
            skip_ws(chars, pos);
            match chars.get(*pos)? {
                ',' => *pos += 1,
                '}' => {
                    *pos += 1;
                    return Some(Value::Object(map));
                }
                _ => return None,
            }
        }
    }
}

/// `Value`'s own `==` calls `0.0` and `-0.0` equal; the two parsers
/// must agree to the bit.
fn identical(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Number(x), Value::Number(y)) => x.to_bits() == y.to_bits(),
        (Value::Array(x), Value::Array(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(x, y)| identical(x, y))
        }
        (Value::Object(x), Value::Object(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((kx, vx), (ky, vy))| kx == ky && identical(vx, vy))
        }
        _ => a == b,
    }
}

/// Number texts in every shape the scanning rule hands to
/// `f64::from_str`, accepted and refused alike.
const NUMBERS: &[&str] = &[
    "0",
    "-0",
    "-0.0",
    "7",
    "-",
    "+5",
    "-+5",
    "1e",
    "1e+",
    "e5",
    "1e400",
    "-1e400",
    "1e-400",
    ".5",
    "-.5",
    "5.",
    ".",
    "1.2.3",
    "--1",
    "1-2",
    "1e5e5",
    "1E+2",
    "1e-2",
    "00012",
    "5e-324",
    "4.9e-325",
    "2.2250738585072014e-308",
    "1.7976931348623157e308",
    "0.30000000000000004",
    "0.1234567890123456789",
    "12345678901234567",
    "18446744073709551615",
    "-9223372036854775808",
    "123456789012345678901234567890",
];

/// What can follow a backslash: the eight escapes, `\u` in every shape
/// (BMP, both surrogate halves, a sign `from_str_radix` lets through,
/// non-hex, cut short, a multi-byte character inside the digits), and
/// escapes JSON does not have.
const ESCAPES: &[&str] = &[
    "\\\"",
    "\\\\",
    "\\/",
    "\\n",
    "\\r",
    "\\t",
    "\\b",
    "\\f",
    "\\u0041",
    "\\u00e9",
    "\\u00E9",
    "\\u20ac",
    "\\uffff",
    "\\u0000",
    "\\ud800",
    "\\udbff",
    "\\udc00",
    "\\udfff",
    "\\ud83d\\ude00",
    "\\u+041",
    "\\u-041",
    "\\u12g4",
    "\\uzzzz",
    "\\u 123",
    "\\u12",
    "\\u",
    "\\u12é4",
    "\\u1é",
    "\\u😀12",
    "\\x41",
    "\\a",
    "\\",
    "\\é",
];

/// Unescaped string content, raw control characters included (both
/// parsers take them as they come).
const TEXT: &[&str] = &[
    "a",
    "job-7",
    "v",
    " ",
    "é",
    "ß",
    "日本語",
    "😀",
    "\u{80}",
    "\u{7ff}",
    "\u{800}",
    "\u{ffff}",
    "\u{10000}",
    "\n",
    "\t",
    "\u{1}",
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "'",
    "/",
    "0",
    "-1e5",
    "null",
];

/// Near misses of the three literals, and things that are not JSON.
const WORDS: &[&str] = &[
    "tru", "truee", "True", "nul", "nulll", "fals", "falsey", "t", "n", "f", "NaN", "inf",
    "Infinity", "-inf", "é", "'a'", "",
];

const SPACE: &[&str] = &[
    "", "", "", " ", "\n", "\t", "\r", "  \r\n", "\u{a0}", "\u{b}",
];

struct Gen(SplitMix64);

impl Gen {
    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.0.below(from.len())]
    }

    fn chance(&mut self, per_cent: usize) -> bool {
        self.0.below(100) < per_cent
    }

    fn space(&mut self, out: &mut String) {
        out.push_str(self.pick(SPACE));
    }

    fn number(&mut self, out: &mut String) {
        match self.0.below(4) {
            0 => out.push_str(self.pick(NUMBERS)),
            1 => out.push_str(&(self.0.next_u64() as i64 >> self.0.below(64)).to_string()),
            2 => out.push_str(&format!("{}", f64::from_bits(self.0.next_u64()))),
            _ => out.push_str(&format!("{:e}", f64::from_bits(self.0.next_u64()))),
        }
    }

    fn string(&mut self, out: &mut String) {
        out.push('"');
        for _ in 0..self.0.below(6) {
            if self.chance(35) {
                out.push_str(self.pick(ESCAPES));
            } else {
                out.push_str(self.pick(TEXT));
            }
        }
        out.push('"');
    }

    /// One value with whitespace around it; containers only while
    /// `depth` lasts, so a document never comes near the depth cap.
    fn value(&mut self, depth: usize, out: &mut String) {
        self.space(out);
        let kinds = if depth == 0 { 6 } else { 10 };
        match self.0.below(kinds) {
            0 => out.push_str("null"),
            1 => out.push_str(if self.chance(50) { "true" } else { "false" }),
            2 | 3 => self.number(out),
            4 => self.string(out),
            5 => {
                if self.chance(15) {
                    out.push_str(self.pick(WORDS));
                } else {
                    self.number(out);
                }
            }
            6 | 7 => {
                out.push('[');
                for i in 0..self.0.below(5) {
                    if i > 0 {
                        out.push(',');
                    }
                    self.value(depth - 1, out);
                }
                // Sometimes a trailing comma or a stray space.
                if self.chance(5) {
                    out.push(',');
                }
                self.space(out);
                out.push(']');
            }
            _ => {
                out.push('{');
                // Few distinct keys, so duplicates are common.
                let keys = ["\"a\"", "\"b\"", "\"\\u0061\"", "\"é\"", "\"\""];
                for i in 0..self.0.below(5) {
                    if i > 0 {
                        out.push(',');
                    }
                    self.space(out);
                    if self.chance(70) {
                        out.push_str(self.pick(&keys));
                    } else {
                        self.string(out);
                    }
                    self.space(out);
                    out.push(':');
                    self.value(depth - 1, out);
                }
                self.space(out);
                out.push('}');
            }
        }
        self.space(out);
    }

    fn document(&mut self) -> String {
        let mut out = String::new();
        let depth = self.0.below(5);
        self.value(depth, &mut out);
        out
    }

    /// One character-level edit; the result is a `String`, so the
    /// parser's input stays valid UTF-8 as it does on the wire.
    fn mutate(&mut self, doc: &str) -> String {
        const ALPHABET: &[char] = &[
            '"', '\\', '{', '}', '[', ']', ',', ':', '-', '+', '.', 'e', 'E', '0', '9', ' ', '\n',
            'u', 't', 'n', 'f', 'a', 'é', '😀',
        ];
        let mut chars: Vec<char> = doc.chars().collect();
        let at = self.0.below(chars.len() + 1);
        let with = ALPHABET[self.0.below(ALPHABET.len())];
        match self.0.below(4) {
            0 => chars.truncate(at),
            1 => chars.insert(at, with),
            2 if at < chars.len() => chars[at] = with,
            _ if at < chars.len() => {
                chars.remove(at);
            }
            _ => chars.push(with),
        }
        chars.into_iter().collect()
    }
}

/// Holds one input to the oracle; returns whether it parsed.
fn agree(input: &str) -> bool {
    let old = oracle::from_str(input);
    let new = from_str(input).ok();
    match (&old, &new) {
        (Some(o), Some(n)) => assert!(
            identical(o, n),
            "values differ on {input:?}: {o:?} vs {n:?}"
        ),
        (None, None) => {}
        _ => panic!("verdicts differ on {input:?}: old {old:?}, new {new:?}"),
    }
    new.is_some()
}

#[test]
fn the_byte_parser_agrees_with_the_char_parser_it_replaced() {
    let mut gen = Gen(SplitMix64::new(20));
    // [refused, accepted]
    let mut verdicts = [0u32; 2];
    let mut count = |parsed: bool| verdicts[usize::from(parsed)] += 1;
    for _ in 0..3_000 {
        let doc = gen.document();
        count(agree(&doc));
        for _ in 0..12 {
            count(agree(&gen.mutate(&doc)));
        }
    }
    // Every fixed shape on its own and inside a string, whatever the
    // generator happened to draw.
    for text in NUMBERS.iter().chain(WORDS).chain(SPACE) {
        count(agree(text));
        count(agree(&format!("[{text}]")));
        count(agree(&format!(" {{\"k\" : {text} }} ")));
    }
    for text in ESCAPES.iter().chain(TEXT) {
        count(agree(&format!("\"{text}\"")));
        count(agree(&format!("\"x{text}y\"")));
        count(agree(&format!("{{\"{text}\":1,\"{text}\":2}}")));
    }
    // The generator is only a test if both verdicts are common.
    assert!(verdicts.iter().all(|&n| n > 5_000), "{verdicts:?}");
}

#[test]
fn the_parsers_part_ways_only_past_the_depth_cap() {
    let nest = |open: &str, close: &str, depth: usize| {
        format!("{}1{}", open.repeat(depth), close.repeat(depth))
    };
    for (open, close) in [
        ("[", "]"),
        ("{\"a\":", "}"),
        ("[{\"a\":", "}]"),
        (" [ ", " ] "),
    ] {
        let per_level = open.matches(['[', '{']).count();
        let at_cap = nest(open, close, MAX_DEPTH / per_level);
        assert!(agree(&at_cap), "depth {MAX_DEPTH} parses");
        let one_deeper = at_cap.replacen('1', "{}", 1);
        let a_level_more = nest(open, close, MAX_DEPTH / per_level + 1);
        for past_cap in [one_deeper, a_level_more] {
            assert!(
                oracle::from_str(&past_cap).is_some(),
                "the old parser had no cap"
            );
            assert!(
                from_str(&past_cap).is_err(),
                "depth past {MAX_DEPTH} is refused"
            );
        }
    }
    // Siblings are not depth.
    assert!(agree(&format!("[{}1]", "[[]],".repeat(10 * MAX_DEPTH))));
    // What the cap is for: this overflowed the stack and aborted the
    // process. (Not shown to the oracle, which still would.)
    assert!(from_str(&"[".repeat(100_000)).is_err());
    assert!(from_str(&"{\"a\":".repeat(100_000)).is_err());
    assert!(from_str(&nest("[", "]", 100_000)).is_err());
}

#[test]
fn numbers_render_as_to_string_rendered_them() {
    fn float(v: f64) {
        let expect = if v.is_finite() {
            v.to_string()
        } else {
            "null".to_owned()
        };
        assert_eq!(
            to_string(&v).expect("renders"),
            expect,
            "{:#x}",
            v.to_bits()
        );
    }
    for v in [
        0.0,
        -0.0,
        1.0,
        -1.5,
        0.1,
        1e21,
        1e-7,
        5e-324,
        -5e-324,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 2.0,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ] {
        float(v);
    }
    for v in [
        0,
        1,
        9,
        10,
        u64::MAX,
        u64::MAX - 1,
        1 << 53,
        i64::MAX as u64,
    ] {
        assert_eq!(to_string(&v).expect("renders"), v.to_string());
    }
    for v in [0, -1, 1, i64::MIN, i64::MAX, -(1 << 53)] {
        assert_eq!(to_string(&v).expect("renders"), v.to_string());
    }
    let mut rng = SplitMix64::new(20);
    for _ in 0..10_000 {
        let bits = rng.next_u64();
        // Raw bits reach every exponent, subnormals and NaNs included;
        // the scaled draws are the magnitudes the wire carries.
        float(f64::from_bits(bits));
        float(rng.fraction() * 1e4);
        let unsigned = bits >> rng.below(64);
        assert_eq!(to_string(&unsigned).expect("renders"), unsigned.to_string());
        let signed = bits as i64 >> rng.below(64);
        assert_eq!(to_string(&signed).expect("renders"), signed.to_string());
        let single = f32::from_bits(bits as u32);
        let expect = if single.is_finite() {
            single.to_string()
        } else {
            "null".to_owned()
        };
        assert_eq!(to_string(&single).expect("renders"), expect);
        assert_eq!(
            to_string(&(bits as u8)).expect("renders"),
            (bits as u8).to_string()
        );
        assert_eq!(
            to_string(&(bits as i32)).expect("renders"),
            (bits as i32).to_string()
        );
        assert_eq!(
            to_string(&(bits as usize)).expect("renders"),
            (bits as usize).to_string()
        );
    }
}

// The four unit tests of `vendor/serde_json/src/lib.rs`, which no
// workspace job runs, mirrored on the public API.

#[test]
fn parses_nested_documents() {
    let v = from_str(r#"{"a":[1,2.5,-3e2],"b":{"c":"x\"y"},"d":null,"e":true}"#).unwrap();
    assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
    assert_eq!(
        v.get("a").unwrap().as_array().unwrap()[2].as_f64(),
        Some(-300.0)
    );
    assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\"y"));
    assert_eq!(v.get("d"), Some(&Value::Null));
    assert_eq!(v.get("e").unwrap().as_bool(), Some(true));
    assert!(from_str("{").is_err());
    assert!(from_str("1 2").is_err());
}

#[test]
fn round_trips_serialized_output() {
    let json = to_string(&vec![1.5f64, 2.0]).unwrap();
    let v = from_str(&json).unwrap();
    assert_eq!(v.as_array().unwrap()[0].as_f64(), Some(1.5));
    assert_eq!(v.as_array().unwrap()[1].as_u64(), Some(2));
}

#[test]
fn primitives_round_out() {
    assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
    assert_eq!(to_string(&f64::NAN).unwrap(), "null");
    assert_eq!(to_string("a\"b").unwrap(), "\"a\\\"b\"");
    assert_eq!(to_string(&vec![1u32, 2]).unwrap(), "[1,2]");
    assert_eq!(to_string(&Option::<u32>::None).unwrap(), "null");
}

#[test]
fn pretty_is_string_aware() {
    /// Already-rendered JSON, passed through as is.
    struct Raw(&'static str);
    impl serde::Serialize for Raw {
        fn serialize_json(&self, out: &mut String) {
            out.push_str(self.0);
        }
    }
    let p = serde_json::to_string_pretty(&Raw("{\"a{,\":[1,2],\"b\":{}}")).unwrap();
    assert!(p.contains("\"a{,\""));
    assert!(p.contains("\"b\": {}"));
}

#[test]
fn a_full_size_observe_body_round_trips_byte_for_byte() {
    let mut rng = SplitMix64::new(20);
    let jobs = (0..10)
        .map(|j| {
            let mut history: Vec<RatePerMin> = (0..600)
                .map(|_| RatePerMin::new(rng.fraction() * 2_000.0))
                .collect();
            history[j] = RatePerMin::NAN;
            history[j + 10] = RatePerMin::new((rng.next_u64() >> 40) as f64);
            JobObservation {
                spec: Arc::new(JobSpec::resnet34(format!("job-{j}-é"))),
                target_replicas: 3 + j as u32,
                ready_replicas: 2 + j as u32,
                queue_len: rng.below(50),
                arrival_rate_history: Arc::new(history),
                recent_arrival_rate: rng.fraction() * 40.0,
                mean_processing_time: rng.fraction(),
                recent_tail_latency: if j == 3 {
                    f64::INFINITY
                } else {
                    rng.fraction()
                },
                drop_rate: rng.fraction(),
                class_target: None,
                class_ready: None,
            }
        })
        .collect();
    let response = ObserveResponse {
        seq: 600,
        age_ms: 10_000,
        snapshot: ClusterSnapshot {
            now: SimTimeMs::from_millis(36_000_000),
            resources: ResourceModel::replicas(ReplicaCount::new(32)),
            jobs,
        },
    };
    let body = to_string(&response).expect("serializes");
    assert!(body.len() > 100_000, "{} bytes", body.len());
    let value = from_str(&body).expect("own output parses");
    assert!(identical(
        &value,
        &oracle::from_str(&body).expect("and did before")
    ));
    let back = ObserveResponse::from_json(&value).expect("matches the v1 schema");
    assert_eq!(back.snapshot.jobs.len(), 10);
    assert_eq!(back.snapshot.jobs[9].arrival_rate_history.len(), 600);
    assert!(
        to_string(&back).expect("serializes") == body,
        "the body changed in transit"
    );
}
