//! The workspace's one JSON codec: the machine-readable exporters, the
//! scoring wire's documents, the model registry's lines, and the tests that
//! schema-check them all write with [`escape_json`] and [`fmt_f64`] (or
//! their appending forms [`write_escaped`] and [`write_f64`]) and read with
//! [`parse`]. Not a general-purpose library: it parses objects, arrays,
//! strings with standard escapes, f64 numbers, booleans and null, with no
//! streaming and no serde-style derive. Parsing is linear in the document.
//!
//! Numbers follow one f64 dialect: finite values as their shortest
//! round-trip decimal, the non-finite ones as the strings `"NaN"`,
//! `"Infinity"` and `"-Infinity"` (JSON has no literal for them). The
//! decimal is what `format!("{v}")` prints, byte for byte, from an in-tree
//! Ryu printer (Adams, PLDI 2018) at about a third of `Display`'s cost.
//! Like `Display`, and unlike Ryu's reference, it breaks an exact tie
//! between two equally short, equally near candidates **upward**:
//! `-981446413237567.3`, not `.2`.

use std::fmt::Write as _;

mod f64_tables;
mod shortest;

/// Escape a string for embedding inside a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    write_escaped(&mut out, s);
    out
}

/// Append `s` to `out` escaped as [`escape_json`] escapes it: the quote, the
/// backslash and the control characters; everything else is copied a run
/// at a time.
pub fn write_escaped(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, c) in s.bytes().enumerate() {
        if c >= 0x20 && c != b'"' && c != b'\\' {
            continue;
        }
        // `c` is ASCII, so `i` is a character boundary.
        out.push_str(&s[run..i]);
        run = i + 1;
        match c {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            c => {
                let _ = write!(out, "\\u{c:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
}

/// Format an `f64` in the dialect: shortest round-trip decimal for finite
/// values, quoted sentinel strings for non-finite ones.
#[inline]
pub fn fmt_f64(v: f64) -> String {
    let mut out = String::new();
    write_f64(&mut out, v);
    out
}

/// Append `v` to `out` as [`fmt_f64`] formats it, with no allocation of its
/// own.
#[inline]
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let at = out.len();
        shortest::write_finite(out, v);
        debug_assert_eq!(out[at..].parse::<f64>().map(f64::to_bits), Ok(v.to_bits()));
    } else if v.is_nan() {
        out.push_str("\"NaN\"");
    } else if v > 0.0 {
        out.push_str("\"Infinity\"");
    } else {
        out.push_str("\"-Infinity\"");
    }
}

/// Read an `f64` written by [`fmt_f64`]: a number or a sentinel string.
#[inline]
pub fn json_f64(j: &Json) -> Result<f64, String> {
    match j {
        Json::Num(n) => Ok(*n),
        Json::Str(s) => match s.as_str() {
            "NaN" => Ok(f64::NAN),
            "Infinity" => Ok(f64::INFINITY),
            "-Infinity" => Ok(f64::NEG_INFINITY),
            _ => Err(format!("not a number: {s:?}")),
        },
        _ => Err("not a number".to_owned()),
    }
}

/// Read a count or an id: an integer in `0..=2^53`, the range in which
/// every integer is an exact f64. `what` names the field in the error.
#[inline]
pub fn json_usize(j: &Json, what: &str) -> Result<usize, String> {
    let n = j.as_f64().ok_or_else(|| format!("{what} must be a number"))?;
    if n < 0.0 || n.fract() != 0.0 || n > (1u64 << 53) as f64 {
        return Err(format!("{what} must be a non-negative integer"));
    }
    Ok(n as usize)
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as f64).
    Num(f64),
    /// String (escapes decoded).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, preserving key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The value at `key` when this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements when this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The key/value pairs when this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(kv) => Some(kv),
            _ => None,
        }
    }
}

// Arrays and objects nested deeper than this are rejected: the parser
// recurses once per level, and a document from a socket must not be able to
// overflow the stack. Every document the workspace writes nests a few levels
// at most.
const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document. Trailing non-whitespace and nesting
/// deeper than 128 levels are errors.
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", c as char))
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"))
        }
        Some(b'{') => parse_obj(b, pos, depth + 1),
        Some(b'[') => parse_arr(b, pos, depth + 1),
        Some(b'"') => parse_str(b, pos).map(Json::Str),
        Some(b't') => parse_lit(b, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false").map(|()| Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null").map(|()| Json::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected '{lit}' at byte {pos}"))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number '{text}' at byte {start}"))
}

fn parse_str(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote or backslash in one step. Both
        // are ASCII, so the run ends on a character boundary, and only the
        // run itself is checked.
        let run = b[*pos..].iter().position(|&c| c == b'"' || c == b'\\').unwrap_or(b.len() - *pos);
        out.push_str(std::str::from_utf8(&b[*pos..*pos + run]).map_err(|e| e.to_string())?);
        *pos += run;
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(_) => {
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
                        let code = hex4(b, *pos + 1)?;
                        *pos += 4;
                        // A high surrogate followed by a `\u` low surrogate is
                        // one character beyond the BMP; a lone surrogate is
                        // not a character.
                        let low = match b.get(*pos + 1..*pos + 3) {
                            Some(b"\\u") if (0xD800..0xDC00).contains(&code) => {
                                hex4(b, *pos + 3).ok().filter(|lo| (0xDC00..0xE000).contains(lo))
                            }
                            _ => None,
                        };
                        let c = match low {
                            Some(lo) => {
                                *pos += 6;
                                char::from_u32(0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00))
                            }
                            None => char::from_u32(code),
                        };
                        out.push(c.unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
        }
    }
}

/// The code unit of the four hex digits at `at`, which follow a `\u`.
fn hex4(b: &[u8], at: usize) -> Result<u32, String> {
    let hex = b
        .get(at..at + 4)
        .and_then(|h| std::str::from_utf8(h).ok())
        .ok_or("truncated \\u escape")?;
    hex.chars()
        .try_fold(0, |code, c| Some(code << 4 | c.to_digit(16)?))
        .ok_or_else(|| "bad \\u escape".to_owned())
}

fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut out = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(out));
    }
    loop {
        out.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(out));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut out = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(out));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_str(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos, depth)?;
        out.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(out));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips() {
        let raw = "a\"b\\c\nd\te\u{1}";
        let parsed = parse(&format!("\"{}\"", escape_json(raw))).unwrap();
        assert_eq!(parsed.as_str(), Some(raw));
    }

    #[test]
    fn surrogate_pairs_decode_to_one_character() {
        let str_of = |doc: &str| parse(doc).map(|j| j.as_str().map(str::to_owned));
        // What Python's `json.dumps("model-\u{1f600}")` sends.
        assert_eq!(str_of(r#""model-\ud83d\ude00""#), Ok(Some("model-\u{1f600}".to_owned())));
        assert_eq!(str_of(r#""\uDBFF\uDFFF""#), Ok(Some("\u{10ffff}".to_owned())));
        // A lone surrogate is still U+FFFD, and does not swallow its neighbour.
        assert_eq!(str_of(r#""\ud83d""#), Ok(Some("\u{fffd}".to_owned())));
        assert_eq!(str_of(r#""\ude00\ud83d""#), Ok(Some("\u{fffd}\u{fffd}".to_owned())));
        assert_eq!(str_of(r#""\ud83dx\ude00""#), Ok(Some("\u{fffd}x\u{fffd}".to_owned())));
        assert_eq!(str_of(r#""\ud83d\u0041""#), Ok(Some("\u{fffd}A".to_owned())));
        assert_eq!(str_of(r#""\ud83d\ud83d\ude00""#), Ok(Some("\u{fffd}\u{1f600}".to_owned())));
        // A bad escape after a high surrogate is reported, not skipped.
        assert_eq!(str_of(r#""\ud83d\uzz00""#), Err("bad \\u escape".to_owned()));
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(parse(r#""\u0041\u00e9\u00E9""#).unwrap().as_str(), Some("A\u{e9}\u{e9}"));
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u004g""#, "\"\\u12\u{e9}\""] {
            assert_eq!(parse(bad), Err("bad \\u escape".to_owned()), "{bad}");
        }
        assert_eq!(parse(r#""\u004""#), Err("bad \\u escape".to_owned()));
        assert_eq!(parse(r#""\u04"#), Err("truncated \\u escape".to_owned()));
    }

    #[test]
    fn parses_nested_documents() {
        let doc = r#"{"a":[1,2.5,-3e2],"b":{"c":"x","d":true,"e":null},"f":false}"#;
        let v = parse(doc).unwrap();
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[2].as_f64(), Some(-300.0));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Json::Bool(true)));
        assert_eq!(v.get("b").unwrap().get("e"), Some(&Json::Null));
        assert_eq!(v.get("f"), Some(&Json::Bool(false)));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,", "\"x", "{\"a\" 1}", "[1] extra", "{'a':1}"] {
            assert!(parse(bad).is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).unwrap_err().contains("nesting"));
        // Deep enough to overflow a thread's stack without the bound.
        assert!(parse(&"[{\"a\":".repeat(1 << 20)).is_err());
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(parse("{}").unwrap(), Json::Obj(vec![]));
        assert_eq!(parse(" [ { } ] ").unwrap().as_arr().unwrap().len(), 1);
    }
}
