//! The wire protocol: length-prefixed JSON frames.
//!
//! Every message — request or response — is one frame: a 4-byte
//! big-endian `u32` byte length followed by that many bytes of UTF-8
//! JSON (encoded and parsed with [`dm_obs::json`], so the server adds no
//! dependencies). Length-prefixing keeps framing trivial for clients in
//! any language: read 4 bytes, read N bytes, parse.
//!
//! Floating-point values round-trip **bit-exactly** for finite numbers:
//! Rust's `{}` formatting of `f64` prints the shortest decimal that
//! parses back to the same bits, and both ends parse with
//! `str::parse::<f64>`. This is what lets the end-to-end tests demand
//! bit-identical results between served and direct evaluation. Non-finite
//! values (which JSON cannot express as numbers) travel as the strings
//! `"NaN"`, `"Infinity"`, `"-Infinity"`.
//!
//! A scoring request:
//!
//! ```json
//! {"tenant": "acme", "cmd": "score", "program": "W %*% x",
//!  "inputs": {"W": {"rows": 2, "cols": 2, "data": [1, 0, 0, 1]},
//!             "x": {"rows": 2, "cols": 1, "data": [3, 4]}},
//!  "batch": true}
//! ```
//!
//! and its response:
//!
//! ```json
//! {"ok": true, "kind": "matrix", "rows": 2, "cols": 1, "data": [3, 4],
//!  "cache": "miss", "batched": false, "blocked_nodes": 0}
//! ```

use dm_obs::json::{escape_json, parse, Json};
use std::io::{self, Read, Write};

/// Hard cap on a frame's payload size (64 MiB) — a corrupt or hostile
/// length prefix must not make the server allocate unbounded memory.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Write one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "frame too large"));
    }
    // One write for header + payload: two writes would put the 4-byte
    // header alone in a TCP segment and stall ~40 ms on Nagle's algorithm
    // colliding with the peer's delayed ACK.
    let mut frame = Vec::with_capacity(4 + bytes.len());
    frame.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    frame.extend_from_slice(bytes);
    w.write_all(&frame)?;
    w.flush()
}

/// Read one length-prefixed frame. `Ok(None)` on a clean EOF at a frame
/// boundary (the peer hung up between requests); errors on truncation
/// mid-frame, oversized lengths, or invalid UTF-8.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    let mut len = [0u8; 4];
    // Distinguish "no more frames" (EOF before the first length byte)
    // from "truncated frame" (EOF inside one).
    let mut filled = 0;
    while filled < 4 {
        let n = r.read(&mut len[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "truncated frame length"));
        }
        filled += n;
    }
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame length exceeds cap"));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))
}

/// One named input binding in a scoring request.
#[derive(Debug, Clone, PartialEq)]
pub enum InputValue {
    /// A row-major dense matrix.
    Matrix {
        /// Row count.
        rows: usize,
        /// Column count.
        cols: usize,
        /// Row-major values, `rows * cols` long.
        data: Vec<f64>,
    },
    /// A scalar binding.
    Scalar(f64),
}

/// The request verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmd {
    /// Compile (or hit the plan cache) and execute the program.
    Score,
    /// Liveness check; answered with `pong` without touching the engine.
    Ping,
}

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Tenant identifier (`[A-Za-z0-9_-]`, 1–64 chars); namespaces the
    /// per-tenant latency metrics and admission accounting.
    pub tenant: String,
    /// What to do.
    pub cmd: Cmd,
    /// DMML program text (empty for `ping`).
    pub program: String,
    /// Named input bindings.
    pub inputs: Vec<(String, InputValue)>,
    /// Opt in to micro-batching: the server may coalesce this request
    /// with concurrent identical-plan requests into one gemm under the
    /// configured latency deadline.
    pub batch: bool,
}

impl Request {
    /// A `score` request with no inputs bound yet.
    pub fn score(tenant: &str, program: &str) -> Self {
        Request {
            tenant: tenant.to_owned(),
            cmd: Cmd::Score,
            program: program.to_owned(),
            inputs: Vec::new(),
            batch: false,
        }
    }

    /// A `ping` request.
    pub fn ping(tenant: &str) -> Self {
        Request {
            tenant: tenant.to_owned(),
            cmd: Cmd::Ping,
            program: String::new(),
            inputs: Vec::new(),
            batch: false,
        }
    }

    /// Bind a row-major dense matrix input.
    pub fn matrix(mut self, name: &str, rows: usize, cols: usize, data: Vec<f64>) -> Self {
        self.inputs.push((name.to_owned(), InputValue::Matrix { rows, cols, data }));
        self
    }

    /// Bind a scalar input.
    pub fn scalar(mut self, name: &str, v: f64) -> Self {
        self.inputs.push((name.to_owned(), InputValue::Scalar(v)));
        self
    }

    /// Opt in to micro-batching.
    pub fn batched(mut self) -> Self {
        self.batch = true;
        self
    }
}

/// The value a successful `score` produced.
#[derive(Debug, Clone, PartialEq)]
pub enum ScoreResult {
    /// Scalar result.
    Scalar(f64),
    /// Dense matrix result (row-major).
    Matrix {
        /// Row count.
        rows: usize,
        /// Column count.
        cols: usize,
        /// Row-major values.
        data: Vec<f64>,
    },
}

/// A decoded server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The request failed; nothing was executed (or execution errored).
    Error {
        /// Human-readable cause.
        error: String,
    },
    /// Answer to [`Cmd::Ping`].
    Pong,
    /// Answer to [`Cmd::Score`].
    Score {
        /// The computed value.
        result: ScoreResult,
        /// Whether the physical plan came from the plan cache.
        cache_hit: bool,
        /// Whether this request was coalesced into a micro-batch with at
        /// least one other request.
        batched: bool,
        /// Nodes the plan runs out-of-core
        /// ([`Kernel::Blocked`](dm_lang::physical::Kernel::Blocked)) —
        /// non-zero means the request was over budget and admitted in
        /// degraded streaming mode rather than rejected.
        blocked_nodes: usize,
    },
}

/// Format an `f64` for the wire: shortest round-trip decimal for finite
/// values, quoted sentinel strings for non-finite ones.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        debug_assert_eq!(s.parse::<f64>().map(f64::to_bits), Ok(v.to_bits()));
        s
    } else if v.is_nan() {
        "\"NaN\"".to_owned()
    } else if v > 0.0 {
        "\"Infinity\"".to_owned()
    } else {
        "\"-Infinity\"".to_owned()
    }
}

fn fmt_data(data: &[f64]) -> String {
    let mut s = String::with_capacity(data.len() * 4 + 2);
    s.push('[');
    for (i, v) in data.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&fmt_f64(*v));
    }
    s.push(']');
    s
}

fn json_f64(j: &Json) -> Result<f64, String> {
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

fn json_data(j: &Json) -> Result<Vec<f64>, String> {
    j.as_arr().ok_or("data must be an array")?.iter().map(json_f64).collect()
}

fn json_usize(j: &Json, what: &str) -> Result<usize, String> {
    let n = j.as_f64().ok_or_else(|| format!("{what} must be a number"))?;
    if n < 0.0 || n.fract() != 0.0 || n > (1u64 << 53) as f64 {
        return Err(format!("{what} must be a non-negative integer"));
    }
    Ok(n as usize)
}

/// Encode a request to its JSON frame payload.
pub fn encode_request(req: &Request) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{{\"tenant\":\"{}\",\"cmd\":\"{}\"",
        escape_json(&req.tenant),
        match req.cmd {
            Cmd::Score => "score",
            Cmd::Ping => "ping",
        }
    ));
    if !req.program.is_empty() {
        s.push_str(&format!(",\"program\":\"{}\"", escape_json(&req.program)));
    }
    if !req.inputs.is_empty() {
        s.push_str(",\"inputs\":{");
        for (i, (name, v)) in req.inputs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            match v {
                InputValue::Matrix { rows, cols, data } => s.push_str(&format!(
                    "\"{}\":{{\"rows\":{rows},\"cols\":{cols},\"data\":{}}}",
                    escape_json(name),
                    fmt_data(data)
                )),
                InputValue::Scalar(x) => {
                    s.push_str(&format!("\"{}\":{{\"scalar\":{}}}", escape_json(name), fmt_f64(*x)))
                }
            }
        }
        s.push('}');
    }
    if req.batch {
        s.push_str(",\"batch\":true");
    }
    s.push('}');
    s
}

/// Decode a request frame payload.
pub fn decode_request(raw: &str) -> Result<Request, String> {
    let j = parse(raw)?;
    let tenant = j.get("tenant").and_then(Json::as_str).ok_or("missing tenant")?.to_owned();
    let cmd = match j.get("cmd").and_then(Json::as_str) {
        Some("score") | None => Cmd::Score,
        Some("ping") => Cmd::Ping,
        Some(other) => return Err(format!("unknown cmd {other:?}")),
    };
    let program = j.get("program").and_then(Json::as_str).unwrap_or("").to_owned();
    let mut inputs = Vec::new();
    if let Some(obj) = j.get("inputs") {
        for (name, v) in obj.as_obj().ok_or("inputs must be an object")? {
            if let Some(s) = v.get("scalar") {
                inputs.push((name.clone(), InputValue::Scalar(json_f64(s)?)));
                continue;
            }
            let rows = json_usize(v.get("rows").ok_or("input missing rows")?, "rows")?;
            let cols = json_usize(v.get("cols").ok_or("input missing cols")?, "cols")?;
            let data = json_data(v.get("data").ok_or("input missing data")?)?;
            // checked_mul: claimed dims like 2^32 x 2^32 would wrap to 0 in
            // release builds and let an empty `data` impersonate a matrix
            // far larger than any frame could carry.
            let expected = rows
                .checked_mul(cols)
                .ok_or_else(|| format!("input {name:?}: rows*cols overflows ({rows} x {cols})"))?;
            if data.len() != expected {
                return Err(format!(
                    "input {name:?}: data length {} != rows*cols {expected}",
                    data.len(),
                ));
            }
            inputs.push((name.clone(), InputValue::Matrix { rows, cols, data }));
        }
    }
    let batch = matches!(j.get("batch"), Some(Json::Bool(true)));
    Ok(Request { tenant, cmd, program, inputs, batch })
}

/// Encode a response to its JSON frame payload.
pub fn encode_response(resp: &Response) -> String {
    match resp {
        Response::Error { error } => {
            format!("{{\"ok\":false,\"error\":\"{}\"}}", escape_json(error))
        }
        Response::Pong => "{\"ok\":true,\"kind\":\"pong\"}".to_owned(),
        Response::Score { result, cache_hit, batched, blocked_nodes } => {
            let body = match result {
                ScoreResult::Scalar(v) => {
                    format!("\"kind\":\"scalar\",\"value\":{}", fmt_f64(*v))
                }
                ScoreResult::Matrix { rows, cols, data } => format!(
                    "\"kind\":\"matrix\",\"rows\":{rows},\"cols\":{cols},\"data\":{}",
                    fmt_data(data)
                ),
            };
            format!(
                "{{\"ok\":true,{body},\"cache\":\"{}\",\"batched\":{batched},\"blocked_nodes\":{blocked_nodes}}}",
                if *cache_hit { "hit" } else { "miss" }
            )
        }
    }
}

/// Encode a response with the server-assigned request id appended as a
/// top-level `rid` field. The id is the handle into the server's flight
/// recorder (`/debug/requests`, `/debug/trace?id=`), so it rides on every
/// response — errors included, which is exactly when an operator needs it.
/// [`decode_response`] ignores the field; read it with [`response_rid`].
pub fn encode_response_with_rid(resp: &Response, rid: u64) -> String {
    let body = encode_response(resp);
    debug_assert!(body.ends_with('}'));
    format!("{},\"rid\":{rid}}}", &body[..body.len() - 1])
}

/// The server-assigned request id of a response frame payload, when present.
pub fn response_rid(raw: &str) -> Option<u64> {
    let n = parse(raw).ok()?.get("rid")?.as_f64()?;
    (n >= 0.0 && n.fract() == 0.0).then_some(n as u64)
}

/// Decode a response frame payload.
pub fn decode_response(raw: &str) -> Result<Response, String> {
    let j = parse(raw)?;
    match j.get("ok") {
        Some(Json::Bool(true)) => {}
        Some(Json::Bool(false)) => {
            let error = j.get("error").and_then(Json::as_str).unwrap_or("unknown error").to_owned();
            return Ok(Response::Error { error });
        }
        _ => return Err("missing ok field".to_owned()),
    }
    match j.get("kind").and_then(Json::as_str) {
        Some("pong") => Ok(Response::Pong),
        Some(kind @ ("scalar" | "matrix")) => {
            let result = if kind == "scalar" {
                ScoreResult::Scalar(json_f64(j.get("value").ok_or("missing value")?)?)
            } else {
                let rows = json_usize(j.get("rows").ok_or("missing rows")?, "rows")?;
                let cols = json_usize(j.get("cols").ok_or("missing cols")?, "cols")?;
                let data = json_data(j.get("data").ok_or("missing data")?)?;
                match rows.checked_mul(cols) {
                    Some(n) if n == data.len() => {}
                    _ => {
                        return Err(format!(
                            "result data length {} != rows*cols ({rows} x {cols})",
                            data.len()
                        ))
                    }
                }
                ScoreResult::Matrix { rows, cols, data }
            };
            Ok(Response::Score {
                result,
                cache_hit: j.get("cache").and_then(Json::as_str) == Some("hit"),
                batched: matches!(j.get("batched"), Some(Json::Bool(true))),
                blocked_nodes: j
                    .get("blocked_nodes")
                    .map(|b| json_usize(b, "blocked_nodes"))
                    .transpose()?
                    .unwrap_or(0),
            })
        }
        _ => Err("missing kind".to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("hello"));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn truncated_frame_is_an_error_not_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello").unwrap();
        buf.truncate(buf.len() - 2);
        let mut r = &buf[..];
        assert!(read_frame(&mut r).is_err());
        // Truncation inside the length prefix is also an error.
        let mut r = &[0u8, 0][..];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn oversized_length_is_rejected_without_allocating() {
        let mut buf = (u32::MAX).to_be_bytes().to_vec();
        buf.extend_from_slice(b"x");
        let mut r = &buf[..];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn request_round_trips_bit_exactly() {
        let req = Request::score("acme-1", "W %*% x")
            .matrix("W", 2, 2, vec![1.5, -0.25, 1e-300, 3.0])
            .matrix("x", 2, 1, vec![0.1, 0.2])
            .scalar("alpha", 0.3)
            .batched();
        let got = decode_request(&encode_request(&req)).unwrap();
        assert_eq!(got, req);
        // 0.1 etc. survive bitwise.
        let (_, InputValue::Matrix { data, .. }) = &got.inputs[1] else { panic!() };
        assert_eq!(data[0].to_bits(), 0.1f64.to_bits());
    }

    #[test]
    fn ping_round_trips() {
        let req = Request::ping("t");
        assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        let resp = Response::Pong;
        assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::Error { error: "bad \"quote\"".to_owned() },
            Response::Score {
                result: ScoreResult::Scalar(42.125),
                cache_hit: true,
                batched: false,
                blocked_nodes: 0,
            },
            Response::Score {
                result: ScoreResult::Matrix { rows: 1, cols: 3, data: vec![1.0, 2.5, -3.75] },
                cache_hit: false,
                batched: true,
                blocked_nodes: 2,
            },
        ] {
            assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
        }
    }

    #[test]
    fn rid_rides_on_responses_and_decodes_transparently() {
        for resp in [
            Response::Pong,
            Response::Error { error: "nope".to_owned() },
            Response::Score {
                result: ScoreResult::Scalar(1.5),
                cache_hit: false,
                batched: false,
                blocked_nodes: 0,
            },
        ] {
            let raw = encode_response_with_rid(&resp, 42);
            assert_eq!(response_rid(&raw), Some(42));
            // The rid is transparent to the typed decode.
            assert_eq!(decode_response(&raw).unwrap(), resp);
        }
        assert_eq!(response_rid(&encode_response(&Response::Pong)), None);
    }

    #[test]
    fn non_finite_values_survive_the_wire() {
        let resp = Response::Score {
            result: ScoreResult::Matrix {
                rows: 1,
                cols: 3,
                data: vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY],
            },
            cache_hit: false,
            batched: false,
            blocked_nodes: 0,
        };
        let got = decode_response(&encode_response(&resp)).unwrap();
        let Response::Score { result: ScoreResult::Matrix { data, .. }, .. } = got else {
            panic!()
        };
        assert!(data[0].is_nan());
        assert_eq!(data[1], f64::INFINITY);
        assert_eq!(data[2], f64::NEG_INFINITY);
    }

    /// The text layout is frozen: these are the bytes the parent of the
    /// slab-frame change produced for the same inputs, so a JSON-only client
    /// (and `perf_ledger`'s replay of the text functions) sees no difference.
    #[test]
    fn text_encoding_is_pinned_byte_for_byte() {
        let req = Request::score("acme-1", "W %*% x")
            .matrix("W", 2, 2, vec![1.5, -0.25, 1e-7, 3.0])
            .matrix("x", 2, 1, vec![0.1, -0.0])
            .matrix("e", 0, 3, vec![])
            .scalar("alpha", f64::NAN)
            .scalar("b\"eta", -2.5)
            .batched();
        assert_eq!(
            encode_request(&req),
            concat!(
                r#"{"tenant":"acme-1","cmd":"score","program":"W %*% x","inputs":{"#,
                r#""W":{"rows":2,"cols":2,"data":[1.5,-0.25,0.0000001,3]},"#,
                r#""x":{"rows":2,"cols":1,"data":[0.1,-0]},"#,
                r#""e":{"rows":0,"cols":3,"data":[]},"#,
                r#""alpha":{"scalar":"NaN"},"b\"eta":{"scalar":-2.5}},"batch":true}"#
            )
        );
        assert_eq!(encode_request(&Request::ping("t")), r#"{"tenant":"t","cmd":"ping"}"#);
        assert_eq!(encode_response(&Response::Pong), r#"{"ok":true,"kind":"pong"}"#);
        assert_eq!(
            encode_response(&Response::Error { error: "bad \"x\"\n".to_owned() }),
            r#"{"ok":false,"error":"bad \"x\"\n"}"#
        );
        let scalar = Response::Score {
            result: ScoreResult::Scalar(f64::NEG_INFINITY),
            cache_hit: true,
            batched: false,
            blocked_nodes: 0,
        };
        assert_eq!(
            encode_response(&scalar),
            r#"{"ok":true,"kind":"scalar","value":"-Infinity","cache":"hit","batched":false,"blocked_nodes":0}"#
        );
        let matrix = Response::Score {
            result: ScoreResult::Matrix { rows: 1, cols: 3, data: vec![1.0, 2.5e10, f64::INFINITY] },
            cache_hit: false,
            batched: true,
            blocked_nodes: 2,
        };
        assert_eq!(
            encode_response(&matrix),
            concat!(
                r#"{"ok":true,"kind":"matrix","rows":1,"cols":3,"data":[1,25000000000,"Infinity"],"#,
                r#""cache":"miss","batched":true,"blocked_nodes":2}"#
            )
        );
        assert_eq!(
            encode_response_with_rid(&matrix, 42),
            concat!(
                r#"{"ok":true,"kind":"matrix","rows":1,"cols":3,"data":[1,25000000000,"Infinity"],"#,
                r#""cache":"miss","batched":true,"blocked_nodes":2,"rid":42}"#
            )
        );
        assert_eq!(
            encode_response_with_rid(&Response::Pong, 7),
            r#"{"ok":true,"kind":"pong","rid":7}"#
        );
    }

    #[test]
    fn malformed_requests_are_rejected() {
        assert!(decode_request("{}").is_err(), "missing tenant");
        assert!(decode_request("{\"tenant\":\"t\",\"cmd\":\"nope\"}").is_err());
        assert!(decode_request(
            "{\"tenant\":\"t\",\"inputs\":{\"X\":{\"rows\":2,\"cols\":2,\"data\":[1]}}}"
        )
        .is_err());
    }

    #[test]
    fn overflowing_dims_are_rejected() {
        // 2^32 x 2^32 wraps to 0 in a release-build `rows * cols`; an empty
        // data array must NOT pass validation on that wrapped product.
        let raw = format!(
            "{{\"tenant\":\"t\",\"program\":\"X\",\"inputs\":{{\"X\":{{\"rows\":{n},\"cols\":{n},\"data\":[]}}}}}}",
            n = 1u64 << 32
        );
        assert!(decode_request(&raw).is_err());
        // Same guard on the response path: a lying server must not hand the
        // client a matrix whose claimed dims overflow or mismatch the data.
        let resp = format!(
            "{{\"ok\":true,\"kind\":\"matrix\",\"rows\":{n},\"cols\":{n},\"data\":[]}}",
            n = 1u64 << 32
        );
        assert!(decode_response(&resp).is_err());
        assert!(decode_response(
            "{\"ok\":true,\"kind\":\"matrix\",\"rows\":2,\"cols\":2,\"data\":[1]}"
        )
        .is_err());
    }
}
