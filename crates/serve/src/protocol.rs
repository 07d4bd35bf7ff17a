//! The wire protocol: length-prefixed frames in one of two payload layouts.
//!
//! Every message — request or response — is one frame: a 4-byte
//! big-endian `u32` payload length followed by that many payload bytes.
//! Length-prefixing keeps framing trivial for clients in any language:
//! read 4 bytes, read N bytes, look at the first one.
//!
//! # Text frames
//!
//! A payload that does not start with the slab magic byte is a UTF-8 JSON
//! document (encoded and parsed with [`dm_obs::json`], so the server adds
//! no dependencies). This is the layout `nc`, `scripts/loadgen.py` and any
//! JSON-only client speak, and the only one they ever see: the server
//! answers every request in the layout it arrived in.
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
//!  "cache": "miss", "batched": false, "blocked_nodes": 0, "rid": 17}
//! ```
//!
//! # Slab frames
//!
//! Printing and parsing decimal text is what a large request spends its
//! time on (2.6 MB and ~35 ms for a 64×2048 scoring whose gemv takes
//! 0.1 ms), so a payload may instead carry its matrices as raw
//! little-endian `f64`s after the document:
//!
//! | payload bytes | field | contents |
//! |---|---|---|
//! | `0` | magic | `0xD5` — no JSON text starts with a non-ASCII byte |
//! | `1` | version | `1` |
//! | `2..6` | `text_len` | `u32`, little-endian: byte length of the header |
//! | `6..6+text_len` | header | the *same* JSON document as a text frame, except that every matrix's `"data"` is `{"slab": <element offset>}` |
//! | `6+text_len..` | slab | `n × 8` bytes: the matrices' values, row-major, as little-endian IEEE-754 doubles |
//!
//! Every bit pattern — NaN payloads, `-0.0`, subnormals — travels as
//! itself. Scalars stay in the header as text. A reader accepts a slab
//! frame only when all of these hold, and otherwise answers
//! `bad request: …` and keeps the connection open:
//!
//! * the version is one it knows, and `text_len` fits inside the payload;
//! * the slab's byte length is a multiple of 8;
//! * every matrix's `"data"` is a `{"slab": offset}` reference (inline
//!   arrays belong to text frames, references to slab frames);
//! * taken in document order the references **tile the slab exactly**: each
//!   offset equals the number of values referenced before it, each
//!   `offset + rows*cols` (checked arithmetic) ends inside the slab, and
//!   the last one ends at its end — so no two matrices overlap and no slab
//!   byte goes unreferenced.
//!
//! Decoding is then the small header parse, those checks, and one copy
//! (`chunks_exact(8)` → `f64::from_le_bytes`) per matrix.
//!
//! Which layout a request uses is decided from the request alone:
//! [`request_frame`] writes a slab frame iff its matrices total at least
//! `SLAB_MIN_ELEMS` (16 384) values. There is no option, no negotiation and
//! no per-connection state; [`response_frame`] is given the layout of the
//! request it answers.
//!
//! Both layouts are written and read by **one** codec: a request writer, a
//! response writer and the two matching readers, each taking an optional
//! slab. [`encode_request`] / [`decode_request`] / [`encode_response`] /
//! [`decode_response`] are those same functions with no slab.

use dm_obs::json::{escape_json, parse, Json};
use std::fmt::Write as _;
use std::io::{self, Read, Write};

/// Hard cap on a frame's payload size (64 MiB) — a corrupt or hostile
/// length prefix must not make the server allocate unbounded memory.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Bytes of length prefix before a frame's payload.
pub const FRAME_PREFIX_BYTES: usize = 4;

/// First payload byte of a slab frame.
const SLAB_MAGIC: u8 = 0xD5;
/// The slab layout version this build writes and reads.
const SLAB_VERSION: u8 = 1;
/// Payload bytes before a slab frame's header: magic, version, `text_len`.
const SLAB_PREAMBLE_BYTES: usize = 6;
/// A request whose matrices total at least this many values goes out as a
/// slab frame (128 KiB of values; the reasoning is in DESIGN.md).
const SLAB_MIN_ELEMS: usize = 16_384;

/// Which of the two payload layouts a frame uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// The payload is a JSON document; matrix values are decimal text.
    Text,
    /// The payload is a preamble, a JSON header and a raw `f64` slab.
    Slab,
}

impl Layout {
    /// The layout of a received payload, told from its first byte.
    pub fn of(payload: &[u8]) -> Layout {
        if payload.first() == Some(&SLAB_MAGIC) {
            Layout::Slab
        } else {
            Layout::Text
        }
    }

    /// `"text"` or `"slab"`, as flight records and docs spell it.
    pub fn name(self) -> &'static str {
        match self {
            Layout::Text => "text",
            Layout::Slab => "slab",
        }
    }
}

/// Send one frame built by [`request_frame`] or [`response_frame`].
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    if frame.len() > FRAME_PREFIX_BYTES + MAX_FRAME_BYTES {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "frame too large"));
    }
    // One write for prefix + payload: two writes would put the 4-byte
    // prefix alone in a TCP segment and stall ~40 ms on Nagle's algorithm
    // colliding with the peer's delayed ACK.
    w.write_all(frame)?;
    w.flush()
}

/// Read one frame's payload. `Ok(None)` on a clean EOF at a frame boundary
/// (the peer hung up between requests); errors on truncation mid-frame or
/// an oversized length.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; FRAME_PREFIX_BYTES];
    // Distinguish "no more frames" (EOF before the first length byte)
    // from "truncated frame" (EOF inside one).
    let mut filled = 0;
    while filled < len.len() {
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
    Ok(Some(payload))
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

fn json_usize(j: &Json, what: &str) -> Result<usize, String> {
    let n = j.as_f64().ok_or_else(|| format!("{what} must be a number"))?;
    if n < 0.0 || n.fract() != 0.0 || n > (1u64 << 53) as f64 {
        return Err(format!("{what} must be a non-negative integer"));
    }
    Ok(n as usize)
}

/// The matrices a slab frame's writer has referenced so far, in slab order;
/// their values are appended once the header is complete.
#[derive(Default)]
struct SlabSink<'a> {
    parts: Vec<&'a [f64]>,
    elems: usize,
}

/// The slab of a frame being decoded, handed out front to back.
struct SlabSource<'a> {
    /// The slab's bytes; a multiple of 8 long.
    bytes: &'a [u8],
    /// Values referenced so far — the only offset the next reference may
    /// name.
    next: usize,
}

impl SlabSource<'_> {
    /// The `n` values at element `offset`. Requiring `offset == next` is
    /// what makes the references tile the slab: two cannot overlap and none
    /// can skip bytes.
    fn take(&mut self, offset: usize, n: usize) -> Result<Vec<f64>, String> {
        let len = self.bytes.len() / 8;
        if offset != self.next {
            return Err(format!(
                "slab offset {offset} where {} was expected (references tile the slab in order)",
                self.next
            ));
        }
        let end = offset
            .checked_add(n)
            .filter(|end| *end <= len)
            .ok_or_else(|| format!("slab reference {offset}+{n} runs past the slab ({len})"))?;
        self.next = end;
        Ok(self.bytes[offset * 8..end * 8]
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("chunks_exact(8) yields 8 bytes")))
            .collect())
    }

    /// Every slab value must have been referenced.
    fn finish(self) -> Result<(), String> {
        let len = self.bytes.len() / 8;
        if self.next != len {
            return Err(format!("{} of {len} slab values are not referenced", len - self.next));
        }
        Ok(())
    }
}

/// The one place a matrix's values are written: inline as a JSON array of
/// numbers, or — when the frame has a slab — queued for it, leaving a
/// `{"slab": offset}` reference in the document.
fn write_data<'a>(out: &mut String, data: &'a [f64], slab: Option<&mut SlabSink<'a>>) {
    match slab {
        Some(sink) => {
            let _ = write!(out, "{{\"slab\":{}}}", sink.elems);
            sink.elems += data.len();
            sink.parts.push(data);
        }
        None => {
            out.push('[');
            for (i, v) in data.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&fmt_f64(*v));
            }
            out.push(']');
        }
    }
}

/// The one place a matrix's `n` values are read: parsed from an inline
/// array in a text frame, copied out of the slab in a slab frame. Each
/// layout rejects the other's form.
fn read_data(j: &Json, n: usize, slab: Option<&mut SlabSource>) -> Result<Vec<f64>, String> {
    match (j, slab) {
        (Json::Arr(items), None) => {
            if items.len() != n {
                return Err(format!("data length {} != rows*cols {n}", items.len()));
            }
            items.iter().map(json_f64).collect()
        }
        (_, Some(slab)) => {
            let at = j.get("slab").ok_or("data in a slab frame must be {\"slab\": offset}")?;
            slab.take(json_usize(at, "slab offset")?, n)
        }
        (_, None) if j.get("slab").is_some() => Err("slab reference in a text frame".to_owned()),
        (_, None) => Err("data must be an array".to_owned()),
    }
}

/// The `rows`, `cols` and `data` of one matrix object; `what` names it in
/// errors.
fn read_matrix(
    j: &Json,
    what: &str,
    slab: Option<&mut SlabSource>,
) -> Result<(usize, usize, Vec<f64>), String> {
    let field = |k: &str| j.get(k).ok_or_else(|| format!("{what} missing {k}"));
    let rows = json_usize(field("rows")?, "rows")?;
    let cols = json_usize(field("cols")?, "cols")?;
    // checked_mul: claimed dims like 2^32 x 2^32 would wrap to 0 in release
    // builds and let an empty `data` impersonate a matrix far larger than
    // any frame could carry.
    let n = rows
        .checked_mul(cols)
        .ok_or_else(|| format!("{what}: rows*cols overflows ({rows} x {cols})"))?;
    let data = read_data(field("data")?, n, slab).map_err(|e| format!("{what}: {e}"))?;
    Ok((rows, cols, data))
}

/// Write a request's JSON document — the whole payload of a text frame, the
/// header of a slab frame.
fn write_request<'a>(out: &mut String, req: &'a Request, mut slab: Option<&mut SlabSink<'a>>) {
    let _ = write!(
        out,
        "{{\"tenant\":\"{}\",\"cmd\":\"{}\"",
        escape_json(&req.tenant),
        match req.cmd {
            Cmd::Score => "score",
            Cmd::Ping => "ping",
        }
    );
    if !req.program.is_empty() {
        let _ = write!(out, ",\"program\":\"{}\"", escape_json(&req.program));
    }
    if !req.inputs.is_empty() {
        out.push_str(",\"inputs\":{");
        for (i, (name, v)) in req.inputs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":", escape_json(name));
            match v {
                InputValue::Matrix { rows, cols, data } => {
                    let _ = write!(out, "{{\"rows\":{rows},\"cols\":{cols},\"data\":");
                    write_data(out, data, slab.as_deref_mut());
                    out.push('}');
                }
                InputValue::Scalar(x) => {
                    let _ = write!(out, "{{\"scalar\":{}}}", fmt_f64(*x));
                }
            }
        }
        out.push('}');
    }
    if req.batch {
        out.push_str(",\"batch\":true");
    }
    out.push('}');
}

/// Read a request out of its parsed document.
fn read_request(j: &Json, mut slab: Option<&mut SlabSource>) -> Result<Request, String> {
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
            let value = match v.get("scalar") {
                Some(s) => InputValue::Scalar(json_f64(s)?),
                None => {
                    let (rows, cols, data) =
                        read_matrix(v, &format!("input {name:?}"), slab.as_deref_mut())?;
                    InputValue::Matrix { rows, cols, data }
                }
            };
            inputs.push((name.clone(), value));
        }
    }
    let batch = matches!(j.get("batch"), Some(Json::Bool(true)));
    Ok(Request { tenant, cmd, program, inputs, batch })
}

/// Write a response's JSON document, with the server-assigned request id as
/// a trailing top-level `rid` when there is one. The id is the handle into
/// the server's flight recorder (`/debug/requests`, `/debug/trace?id=`), so
/// it rides on every response — errors included, which is exactly when an
/// operator needs it.
fn write_response<'a>(
    out: &mut String,
    resp: &'a Response,
    rid: Option<u64>,
    slab: Option<&mut SlabSink<'a>>,
) {
    match resp {
        Response::Error { error } => {
            let _ = write!(out, "{{\"ok\":false,\"error\":\"{}\"", escape_json(error));
        }
        Response::Pong => out.push_str("{\"ok\":true,\"kind\":\"pong\""),
        Response::Score { result, cache_hit, batched, blocked_nodes } => {
            out.push_str("{\"ok\":true,");
            match result {
                ScoreResult::Scalar(v) => {
                    let _ = write!(out, "\"kind\":\"scalar\",\"value\":{}", fmt_f64(*v));
                }
                ScoreResult::Matrix { rows, cols, data } => {
                    let _ = write!(
                        out,
                        "\"kind\":\"matrix\",\"rows\":{rows},\"cols\":{cols},\"data\":"
                    );
                    write_data(out, data, slab);
                }
            }
            let _ = write!(
                out,
                ",\"cache\":\"{}\",\"batched\":{batched},\"blocked_nodes\":{blocked_nodes}",
                if *cache_hit { "hit" } else { "miss" }
            );
        }
    }
    if let Some(rid) = rid {
        let _ = write!(out, ",\"rid\":{rid}");
    }
    out.push('}');
}

/// Read a response out of its parsed document (the `rid` is read by
/// [`rid_of`]).
fn read_response(j: &Json, slab: Option<&mut SlabSource>) -> Result<Response, String> {
    match j.get("ok") {
        Some(Json::Bool(true)) => {}
        Some(Json::Bool(false)) => {
            let error = j.get("error").and_then(Json::as_str).unwrap_or("unknown error").to_owned();
            return Ok(Response::Error { error });
        }
        _ => return Err("missing ok field".to_owned()),
    }
    let result = match j.get("kind").and_then(Json::as_str) {
        Some("pong") => return Ok(Response::Pong),
        Some("scalar") => ScoreResult::Scalar(json_f64(j.get("value").ok_or("missing value")?)?),
        Some("matrix") => {
            let (rows, cols, data) = read_matrix(j, "result", slab)?;
            ScoreResult::Matrix { rows, cols, data }
        }
        _ => return Err("missing kind".to_owned()),
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

fn rid_of(j: &Json) -> Option<u64> {
    let n = j.get("rid")?.as_f64()?;
    (n >= 0.0 && n.fract() == 0.0).then_some(n as u64)
}

/// Build one complete frame — length prefix included — in a single buffer.
/// `body` writes the JSON document, and is lent a slab sink when the layout
/// has a slab.
fn build_frame<'a>(
    layout: Layout,
    body: impl FnOnce(&mut String, Option<&mut SlabSink<'a>>),
) -> Vec<u8> {
    let lead = match layout {
        Layout::Text => FRAME_PREFIX_BYTES,
        Layout::Slab => FRAME_PREFIX_BYTES + SLAB_PREAMBLE_BYTES,
    };
    // The document is written behind placeholders for the bytes that
    // precede it, so prefix, preamble and text share one allocation with
    // nothing shifted or re-copied. NUL is valid UTF-8; every placeholder is
    // overwritten below.
    let mut text = "\0".repeat(lead);
    let mut sink = SlabSink::default();
    body(&mut text, (layout == Layout::Slab).then_some(&mut sink));
    let text_len = text.len() - lead;
    let mut frame = text.into_bytes();
    if layout == Layout::Slab {
        // Lengths past u32 saturate; `write_frame` refuses such a frame.
        let text_len = u32::try_from(text_len).unwrap_or(u32::MAX);
        frame[FRAME_PREFIX_BYTES] = SLAB_MAGIC;
        frame[FRAME_PREFIX_BYTES + 1] = SLAB_VERSION;
        frame[FRAME_PREFIX_BYTES + 2..lead].copy_from_slice(&text_len.to_le_bytes());
        let mut at = frame.len();
        frame.resize(at + sink.elems * 8, 0);
        for part in sink.parts {
            let end = at + part.len() * 8;
            for (dst, v) in frame[at..end].chunks_exact_mut(8).zip(part) {
                dst.copy_from_slice(&v.to_le_bytes());
            }
            at = end;
        }
    }
    let payload_len = u32::try_from(frame.len() - FRAME_PREFIX_BYTES).unwrap_or(u32::MAX);
    frame[..FRAME_PREFIX_BYTES].copy_from_slice(&payload_len.to_be_bytes());
    frame
}

/// Decode a frame payload of either layout: split off the slab if there is
/// one, parse the document, run `read` over both, and check the slab was
/// used up.
fn decode_payload<T>(
    payload: &[u8],
    read: impl FnOnce(&Json, Option<&mut SlabSource>) -> Result<T, String>,
) -> Result<T, String> {
    let (text, mut slab) = match Layout::of(payload) {
        Layout::Text => (payload, None),
        Layout::Slab => {
            let [_, version, l0, l1, l2, l3, rest @ ..] = payload else {
                return Err("slab frame shorter than its preamble".to_owned());
            };
            if *version != SLAB_VERSION {
                return Err(format!("unknown slab frame version {version}"));
            }
            let text_len = u32::from_le_bytes([*l0, *l1, *l2, *l3]) as usize;
            if text_len > rest.len() {
                return Err(format!(
                    "text_len {text_len} runs past the payload ({} bytes left)",
                    rest.len()
                ));
            }
            let (text, bytes) = rest.split_at(text_len);
            if bytes.len() % 8 != 0 {
                return Err(format!("slab length {} is not a multiple of 8", bytes.len()));
            }
            (text, Some(SlabSource { bytes, next: 0 }))
        }
    };
    let text = std::str::from_utf8(text).map_err(|_| "frame text is not UTF-8")?;
    let out = read(&parse(text)?, slab.as_mut())?;
    if let Some(slab) = slab {
        slab.finish()?;
    }
    Ok(out)
}

/// Encode a request to its text-frame payload.
pub fn encode_request(req: &Request) -> String {
    let mut s = String::new();
    write_request(&mut s, req, None);
    s
}

/// Decode a text-frame request payload.
pub fn decode_request(raw: &str) -> Result<Request, String> {
    read_request(&parse(raw)?, None)
}

/// Encode a response (without a request id) to its text-frame payload.
pub fn encode_response(resp: &Response) -> String {
    let mut s = String::new();
    write_response(&mut s, resp, None, None);
    s
}

/// Decode a text-frame response payload. The `rid` field is ignored; read
/// it with [`response_rid`].
pub fn decode_response(raw: &str) -> Result<Response, String> {
    read_response(&parse(raw)?, None)
}

/// The server-assigned request id of a text-frame response payload, when
/// present.
pub fn response_rid(raw: &str) -> Option<u64> {
    rid_of(&parse(raw).ok()?)
}

/// The complete frame for a request, ready for [`write_frame`]: a slab
/// frame iff the request's matrices total at least `SLAB_MIN_ELEMS` values,
/// a text frame otherwise.
pub fn request_frame(req: &Request) -> Vec<u8> {
    let elems: usize = req
        .inputs
        .iter()
        .map(|(_, v)| match v {
            InputValue::Matrix { data, .. } => data.len(),
            InputValue::Scalar(_) => 0,
        })
        .sum();
    let layout = if elems >= SLAB_MIN_ELEMS { Layout::Slab } else { Layout::Text };
    build_frame(layout, |out, slab| write_request(out, req, slab))
}

/// Decode a received request payload of either layout.
pub fn decode_request_frame(payload: &[u8]) -> Result<Request, String> {
    decode_payload(payload, read_request)
}

/// The complete frame for a response carrying request id `rid`, in the
/// layout of the request it answers.
pub fn response_frame(resp: &Response, rid: u64, layout: Layout) -> Vec<u8> {
    build_frame(layout, |out, slab| write_response(out, resp, Some(rid), slab))
}

/// Decode a received response payload of either layout, along with its
/// request id when the server sent one — one parse for both.
pub fn decode_response_frame(payload: &[u8]) -> Result<(Response, Option<u64>), String> {
    decode_payload(payload, |j, slab| Ok((read_response(j, slab)?, rid_of(j))))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The payload of a frame built by this module.
    fn payload(frame: &[u8]) -> &[u8] {
        let (prefix, payload) = frame.split_at(FRAME_PREFIX_BYTES);
        assert_eq!(u32::from_be_bytes(prefix.try_into().unwrap()) as usize, payload.len());
        payload
    }

    #[test]
    fn frames_round_trip() {
        let ping = request_frame(&Request::ping("t"));
        let pong = response_frame(&Response::Pong, 3, Layout::Text);
        let mut buf = Vec::new();
        write_frame(&mut buf, &ping).unwrap();
        write_frame(&mut buf, &pong).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(payload(&ping)));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(payload(&pong)));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn truncated_frame_is_an_error_not_eof() {
        let mut buf = request_frame(&Request::ping("t"));
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
        // And the sending side refuses to put such a frame on the wire.
        let too_big = vec![0u8; FRAME_PREFIX_BYTES + MAX_FRAME_BYTES + 1];
        assert!(write_frame(&mut Vec::new(), &too_big).is_err());
    }

    #[test]
    fn text_frames_carry_the_text_encoding_unchanged() {
        let req = Request::score("t", "X").matrix("X", 1, 2, vec![0.5, -1.0]).scalar("a", 2.0);
        let frame = request_frame(&req);
        assert_eq!(payload(&frame), encode_request(&req).as_bytes());
        assert_eq!(Layout::of(payload(&frame)), Layout::Text);
        let resp = Response::Error { error: "no".to_owned() };
        let frame = response_frame(&resp, 9, Layout::Text);
        let text = std::str::from_utf8(payload(&frame)).unwrap();
        assert_eq!(text, r#"{"ok":false,"error":"no","rid":9}"#);
        assert_eq!(decode_response_frame(payload(&frame)).unwrap(), (resp, Some(9)));
    }

    #[test]
    fn layout_follows_the_request_size_alone() {
        let with = |n: usize| Request::score("t", "X").matrix("X", 1, n, vec![0.25; n]);
        let under = request_frame(&with(SLAB_MIN_ELEMS - 1));
        let at = request_frame(&with(SLAB_MIN_ELEMS));
        assert_eq!(Layout::of(payload(&under)), Layout::Text);
        assert_eq!(Layout::of(payload(&at)), Layout::Slab);
        // The threshold counts every matrix of the request together.
        let split = Request::score("t", "X")
            .matrix("X", 1, SLAB_MIN_ELEMS - 1, vec![0.0; SLAB_MIN_ELEMS - 1])
            .matrix("v", 1, 1, vec![1.0])
            .scalar("s", 3.0);
        assert_eq!(Layout::of(payload(&request_frame(&split))), Layout::Slab);
        for frame in [under, at] {
            let back = decode_request_frame(payload(&frame)).unwrap();
            assert_eq!(request_frame(&back), frame);
        }
    }

    #[test]
    fn slab_frame_bytes_are_as_documented() {
        let resp = Response::Score {
            result: ScoreResult::Matrix { rows: 1, cols: 2, data: vec![1.5, -0.0] },
            cache_hit: true,
            batched: false,
            blocked_nodes: 0,
        };
        let frame = response_frame(&resp, 5, Layout::Slab);
        let header = concat!(
            r#"{"ok":true,"kind":"matrix","rows":1,"cols":2,"data":{"slab":0},"#,
            r#""cache":"hit","batched":false,"blocked_nodes":0,"rid":5}"#
        );
        let mut want = vec![0xD5, 1];
        want.extend_from_slice(&(header.len() as u32).to_le_bytes());
        want.extend_from_slice(header.as_bytes());
        want.extend_from_slice(&1.5f64.to_le_bytes());
        want.extend_from_slice(&(-0.0f64).to_le_bytes());
        assert_eq!(payload(&frame), &want[..]);
        assert_eq!(decode_response_frame(&want).unwrap(), (resp, Some(5)));
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
            let frame = response_frame(&resp, 42, Layout::Text);
            let raw = std::str::from_utf8(payload(&frame)).unwrap();
            assert_eq!(response_rid(raw), Some(42));
            // The rid is transparent to the typed decode.
            assert_eq!(decode_response(raw).unwrap(), resp);
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
            result: ScoreResult::Matrix {
                rows: 1,
                cols: 3,
                data: vec![1.0, 2.5e10, f64::INFINITY],
            },
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
            payload(&response_frame(&matrix, 42, Layout::Text)),
            concat!(
                r#"{"ok":true,"kind":"matrix","rows":1,"cols":3,"data":[1,25000000000,"Infinity"],"#,
                r#""cache":"miss","batched":true,"blocked_nodes":2,"rid":42}"#
            )
            .as_bytes()
        );
        assert_eq!(
            payload(&response_frame(&Response::Pong, 7, Layout::Text)),
            br#"{"ok":true,"kind":"pong","rid":7}"#
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
