//! Properties of `dm_obs::json`, the workspace's one JSON codec: the parser
//! is total on arbitrary text, its run-at-a-time string reader agrees with a
//! character-at-a-time one, the appending writers write what the allocating
//! ones return, and the f64 dialect the wire and the model registry share
//! round-trips every value's bits and prints each finite one byte for byte
//! as `format!("{v}")` does (the sweeps below keep `Display` as the oracle
//! for the in-tree printer).

use dm_obs::json::{
    escape_json, fmt_f64, json_f64, json_usize, parse, write_escaped, write_f64, Json,
};
use proptest::prelude::*;
use std::fmt::Write as _;

/// The string reader as it was before it copied runs: one character at a
/// time, re-validating the rest of the document for each. Kept as the
/// oracle for the run-at-a-time reader.
fn oracle_parse_str(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected '\"' at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

/// What `parse` made of a document that starts with a string, when strings
/// were read by [`oracle_parse_str`].
fn oracle_parse(text: &str) -> Result<Json, String> {
    let b = text.as_bytes();
    let mut pos = 0;
    let s = oracle_parse_str(b, &mut pos)?;
    while pos < b.len() && matches!(b[pos], b' ' | b'\t' | b'\n' | b'\r') {
        pos += 1;
    }
    if pos != b.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(Json::Str(s))
}

/// The escaper as it was before it copied runs, one character at a time.
fn oracle_escape(s: &str) -> String {
    let mut out = String::new();
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Whether `text` holds one of the two `\u` forms the oracle reads wrongly:
/// a signed escape (`\u+041`, which it took for `A`) or a surrogate pair
/// (which it took for two U+FFFD).
fn has_fixed_escape(text: &str) -> bool {
    let hex = |at: usize| {
        let h = text.get(at..at + 4)?;
        h.bytes().all(|c| c.is_ascii_hexdigit()).then(|| u32::from_str_radix(h, 16).ok())?
    };
    text.match_indices("\\u").any(|(i, _)| {
        text[i + 2..].starts_with('+')
            || matches!(hex(i + 2), Some(0xD800..=0xDBFF))
                && text[i + 6..].starts_with("\\u")
                && matches!(hex(i + 8), Some(0xDC00..=0xDFFF))
    })
}

/// A piece of a JSON string literal's body: every escape, well- and
/// ill-formed `\u` escapes, raw control characters, a raw quote, and
/// characters of every UTF-8 length. The two escapes the oracle reads
/// wrongly are left out, so nearly every case is compared strictly; lone
/// surrogates still meet by chance.
fn string_piece() -> impl Strategy<Value = String> {
    let pieces = [
        "a",
        "Z",
        " ",
        "\u{e9}",
        "\u{20ac}",
        "\u{1f600}",
        "\u{7f}",
        "\u{1}",
        "\u{1f}",
        "\n",
        "\t",
        "\"",
        "\\\"",
        "\\\\",
        "\\/",
        "\\b",
        "\\f",
        "\\n",
        "\\r",
        "\\t",
        "\\u0041",
        "\\u00e9",
        "\\u00E9",
        "\\uD83D",
        "\\ude00",
        "\\uD83D\\u0041",
        "\\uDE00\\uD83D",
        "\\u12",
        "\\u12\u{e9}",
        "\\uzzzz",
        "\\x",
        "\\",
        "\\u",
    ];
    prop_oneof![
        4 => (0..pieces.len()).prop_map(move |i| pieces[i].to_owned()),
        1 => (0u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('\u{fffd}').to_string()),
    ]
}

/// Characters an escaper must treat specially, and any other.
fn escape_char() -> impl Strategy<Value = char> {
    let special: Vec<char> =
        "\"\\/\n\r\t\u{0}\u{8}\u{c}\u{1f}\u{7f}\u{e9}\u{1f600}".chars().collect();
    prop_oneof![
        1 => (0..special.len()).prop_map(move |i| special[i]),
        1 => (0u32..0x80).prop_map(|c| char::from_u32(c).expect("ASCII")),
        1 => (0u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('\u{fffd}')),
    ]
}

/// Mostly JSON syntax, so inputs get deep into the parser; sometimes any
/// Unicode scalar value.
fn json_char() -> impl Strategy<Value = char> {
    let syntax: Vec<char> = "{}[]\":,\\ u0e.-+tfnl1".chars().collect();
    prop_oneof![
        3 => (0..syntax.len()).prop_map(move |i| syntax[i]),
        1 => (0u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('\u{fffd}')),
    ]
}

/// Any bit pattern, plus the values a uniform draw of bits rarely hits.
fn any_f64() -> impl Strategy<Value = f64> {
    let specials = [
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::INFINITY,
        f64::NEG_INFINITY,
        5e-324,
        1e-7,
        1e300,
    ];
    prop_oneof![
        4 => (0u64..=u64::MAX).prop_map(f64::from_bits),
        1 => (0u64..(1 << 52), 0u64..2).prop_map(|(m, sign)| f64::from_bits((sign << 63) | m)),
        1 => (0..specials.len()).prop_map(move |i| specials[i]),
        1 => Just(f64::NAN),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_never_panics(chars in proptest::collection::vec(json_char(), 0..64)) {
        let text: String = chars.into_iter().collect();
        let _ = parse(&text);
    }

    #[test]
    fn strings_read_as_the_oracle_reads_them(
        pieces in proptest::collection::vec(string_piece(), 0..24)
    ) {
        let text = format!("\"{}\"", pieces.concat());
        let (got, want) = (parse(&text), oracle_parse(&text));
        if got != want {
            prop_assert!(has_fixed_escape(&text), "{text:?}: {got:?} where the oracle has {want:?}");
        }
    }

    #[test]
    fn escaped_strings_parse_back(chars in proptest::collection::vec(escape_char(), 0..32)) {
        let s: String = chars.into_iter().collect();
        let escaped = escape_json(&s);
        prop_assert_eq!(&escaped, &oracle_escape(&s));
        let mut out = String::from("\"");
        write_escaped(&mut out, &s);
        prop_assert_eq!(&out[1..], escaped.as_str());
        out.push('"');
        prop_assert_eq!(parse(&out), Ok(Json::Str(s)));
    }

    #[test]
    fn write_f64_appends_what_fmt_f64_returns(v in any_f64()) {
        let mut out = String::from("[1,");
        write_f64(&mut out, v);
        prop_assert_eq!(&out[3..], fmt_f64(v).as_str());
        if v.is_finite() {
            prop_assert_eq!(fmt_f64(v), format!("{v}"));
        }
    }

    #[test]
    fn f64_dialect_round_trips_bits(v in any_f64()) {
        let back = json_f64(&parse(&fmt_f64(v)).expect("fmt_f64 writes valid JSON")).unwrap();
        if v.is_nan() {
            prop_assert!(back.is_nan());
        } else {
            prop_assert_eq!(back.to_bits(), v.to_bits(), "{}", fmt_f64(v));
        }
    }

    #[test]
    fn json_usize_takes_exact_integers_only(n in 0u64..=(1 << 53)) {
        prop_assert_eq!(json_usize(&parse(&n.to_string()).unwrap(), "n"), Ok(n as usize));
        prop_assert!(json_usize(&Json::Num(-(n as f64) - 1.0), "n").is_err());
        prop_assert!(json_usize(&Json::Num((n % (1 << 52)) as f64 + 0.5), "n").is_err());
        prop_assert!(json_usize(&Json::Str(n.to_string()), "n").is_err());
    }
}

#[test]
fn json_usize_stops_at_two_to_the_53() {
    let limit = 1u64 << 53;
    assert_eq!(json_usize(&Json::Num(limit as f64), "n"), Ok(limit as usize));
    assert!(json_usize(&Json::Num((limit + 2) as f64), "n").is_err());
}

#[test]
fn named_f64_values_print_as_rust_displays_them() {
    let two53 = (1u64 << 53) as f64;
    for (v, want) in [
        (-0.0, "-0".to_owned()),
        (1e-7, "0.0000001".to_owned()),
        (1e300, format!("1{}", "0".repeat(300))),
        (5e-324, format!("0.{}5", "0".repeat(323))),
        (f64::MAX, format!("17976931348623157{}", "0".repeat(292))),
        (f64::MIN_POSITIVE, format!("0.{}22250738585072014", "0".repeat(307))),
        (f64::from_bits((1 << 52) - 1), format!("0.{}2225073858507201", "0".repeat(307))),
        (two53, "9007199254740992".to_owned()),
        (two53 + 2.0, "9007199254740994".to_owned()),
        (0.1, "0.1".to_owned()),
        (1.0 / 3.0, "0.3333333333333333".to_owned()),
        (f64::NAN, "\"NaN\"".to_owned()),
        (f64::NEG_INFINITY, "\"-Infinity\"".to_owned()),
    ] {
        let mut out = String::new();
        write_f64(&mut out, v);
        assert_eq!(out, want);
        assert_eq!(fmt_f64(v), want);
        if v.is_finite() {
            assert_eq!(format!("{v}"), want);
        }
    }
}

#[test]
fn the_oracle_tells_the_fixed_escapes_apart() {
    assert!(has_fixed_escape(r#""\u+041""#));
    assert!(has_fixed_escape(r#""x\ud83d\uDE00""#));
    assert!(!has_fixed_escape(r#""\ud83d\u0041""#));
    assert!(!has_fixed_escape(r#""\ude00\ud83d""#));
    assert_eq!(oracle_parse(r#""\u+041""#), Ok(Json::Str("A".to_owned())));
    assert_eq!(parse(r#""\u+041""#), Err("bad \\u escape".to_owned()));
}

/// Rust's `Display` breaks an exact tie between two shortest candidates
/// upward, where Ryu's reference rounds it to even; these three are ties.
#[test]
fn exact_ties_round_up_as_display_does() {
    for (bits, want) in [
        (0xc30b_e4f6_669d_e9fa_u64, "-981446413237567.3"),
        (0x42e8_9c93_d2cc_0bf4, "216486192242783.63"),
        (0xc2bf_bdf3_a9d0_3ed0, "-34900697272382.813"),
    ] {
        let v = f64::from_bits(bits);
        assert_eq!(fmt_f64(v), want, "{bits:#x}");
        assert_eq!(format!("{v}"), want, "{bits:#x}");
    }
}

/// SplitMix64: a seeded stream of mantissas for the oracle sweeps.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The values among `values` that `write_f64` prints otherwise than
/// `format!("{v}")`, with both texts; the count of values compared.
fn display_mismatches(values: impl Iterator<Item = f64>) -> (Vec<(u64, String, String)>, usize) {
    let (mut got, mut want, mut bad, mut n) = (String::new(), String::new(), Vec::new(), 0);
    for v in values {
        got.clear();
        want.clear();
        write_f64(&mut got, v);
        let _ = write!(want, "{v}");
        if got != want {
            bad.push((v.to_bits(), got.clone(), want.clone()));
        }
        n += 1;
    }
    (bad, n)
}

/// Every biased exponent `0..=2046` with mantissas 0, 1 and 2^52 - 1 and
/// `per_exponent` seeded ones, the sign taken from the seeded draw.
fn every_exponent(per_exponent: usize, seed: u64) -> impl Iterator<Item = f64> {
    let mut rng = SplitMix(seed);
    (0..=2046u64).flat_map(move |e| {
        let mut draws: Vec<u64> = vec![0, 1, (1 << 52) - 1];
        draws.extend((0..per_exponent).map(|_| rng.next()));
        draws
            .into_iter()
            .map(move |r| f64::from_bits((r >> 63) << 63 | e << 52 | (r & ((1 << 52) - 1))))
    })
}

#[test]
fn write_f64_prints_what_display_prints() {
    let powers = (-323..=308).flat_map(|p| {
        let v: f64 = format!("1e{p}").parse().expect("a power of ten");
        [f64::from_bits(v.to_bits() - 1), v, f64::from_bits(v.to_bits() + 1)]
    });
    let values = every_exponent(2_000, 0x5eed).chain((0..100_000).map(|i| i as f64)).chain(powers);
    let (bad, n) = display_mismatches(values);
    assert!(n > 4_200_000, "{n} values");
    assert!(bad.is_empty(), "{} of {n} differ, first {:?}", bad.len(), &bad[..bad.len().min(5)]);
}

/// Over 51 M values; run with
/// `cargo test --release -p dm-obs -- --ignored`.
#[test]
#[ignore = "51 M values: a release build takes seconds, a debug one minutes"]
fn write_f64_prints_what_display_prints_release_sweep() {
    let (bad, n) = display_mismatches(every_exponent(25_000, 0x0dd_ba11));
    assert!(n > 51_000_000, "{n} values");
    assert!(bad.is_empty(), "{} of {n} differ, first {:?}", bad.len(), &bad[..bad.len().min(5)]);
}
