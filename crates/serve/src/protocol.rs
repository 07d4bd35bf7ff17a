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
//! the writer prints the shortest decimal that parses back to the same
//! bits (byte for byte what Rust's `{}` prints), and both ends parse with
//! `str::parse::<f64>`. This is what lets the end-to-end tests demand
//! bit-identical results between served and direct evaluation. Non-finite
//! values (which JSON cannot express as numbers) travel as the strings
//! `"NaN"`, `"Infinity"`, `"-Infinity"`. Both rules are `dm_obs::json`'s
//! f64 dialect ([`write_f64`], [`json_f64`]), which the model registry's
//! files share. Every writer here appends straight into the frame's one
//! buffer: no value, name or string is formatted into a `String` of its
//! own.
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
//! time on: a 64×2048 scoring whose gemv takes 0.1 ms is 2.6 MB of text,
//! which takes ~6 ms to print and ~9 ms to parse (2-vCPU x86-64, shared).
//! So a payload may instead carry its matrices as raw little-endian `f64`s
//! after the document:
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
//! A slab never sits in memory as a whole. A reader checks the references
//! against the slab length the frame's length prefix implies, then reads
//! each matrix's values straight off the stream into its `Vec<f64>`, through
//! a fixed 32 KiB chunk buffer, counting non-zeros as it converts
//! ([`read_request_frame`]). A writer converts and writes the slab chunk by
//! chunk the same way, so the client and the server never build a
//! frame-sized buffer either. Prefix, preamble and header go out in the
//! first write.
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
//! [`decode_response`] are those same functions with no slab. Whether the
//! bytes come from a socket or from memory, one frame writer and one slab
//! reader move them.

use dm_obs::json::{json_f64, json_usize, parse, write_escaped, write_f64, Json};
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
/// Bytes of slab converted per step, on either end. Fixed, so no buffer
/// grows with the frame; a multiple of 8, so a chunk holds whole values.
pub(crate) const CHUNK_BYTES: usize = 32 << 10;

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
    let Some(len) = read_frame_len(r)? else { return Ok(None) };
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Read one frame's length prefix: the payload length, at most
/// [`MAX_FRAME_BYTES`]. `Ok(None)` on a clean EOF at a frame boundary; errors
/// on truncation inside the prefix or an oversized length.
pub fn read_frame_len(r: &mut impl Read) -> io::Result<Option<usize>> {
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
    Ok(Some(len))
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

/// The matrices a slab frame's writer has referenced so far, in slab order;
/// their values are appended once the header is complete.
#[derive(Default)]
struct SlabSink<'a> {
    parts: Vec<&'a [f64]>,
    elems: usize,
}

/// The slab of a frame being decoded, read front to back off the frame's
/// stream: a socket or an in-memory payload.
struct SlabSource<'a> {
    /// The rest of the payload, which is exactly the slab.
    src: &'a mut dyn Read,
    /// Values in the slab, from the length prefix: every reference is
    /// checked against it before anything sized by the header is allocated.
    len: usize,
    /// Values referenced so far — the only offset the next reference may
    /// name.
    next: usize,
    /// Bytes on their way from `src` to a matrix: `CHUNK_BYTES`, or the
    /// whole slab when it is smaller.
    chunk: Vec<u8>,
    /// The I/O error that ended a [`take`](Self::take). It unwinds the
    /// decode as an error string; the caller reports this instead.
    failed: Option<io::Error>,
}

impl<'a> SlabSource<'a> {
    fn new(src: &'a mut dyn Read, len: usize) -> Self {
        let chunk = vec![0; CHUNK_BYTES.min(len * 8)];
        SlabSource { src, len, next: 0, chunk, failed: None }
    }

    /// The `n` values at element `offset` and how many of them are non-zero.
    /// Requiring `offset == next` is what makes the references tile the
    /// slab: two cannot overlap and none can skip bytes.
    fn take(&mut self, offset: usize, n: usize) -> Result<(Vec<f64>, usize), String> {
        let len = self.len;
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
        let mut values = Vec::with_capacity(n);
        let mut nnz = 0;
        while values.len() < n {
            let want = self.chunk.len().min((n - values.len()) * 8);
            let bytes = &mut self.chunk[..want];
            if let Err(e) = self.src.read_exact(bytes) {
                let msg = format!("reading the slab: {e}");
                self.failed = Some(e);
                return Err(msg);
            }
            // Converted and counted while the chunk is hot, as two loops
            // that each vectorize.
            let at = values.len();
            values.extend(
                bytes
                    .chunks_exact(8)
                    .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk"))),
            );
            nnz += values[at..].iter().filter(|v| **v != 0.0).count();
        }
        Ok((values, nnz))
    }

    /// Every slab value must have been referenced.
    fn finish(&self) -> Result<(), String> {
        let len = self.len;
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
                write_f64(out, *v);
            }
            out.push(']');
        }
    }
}

/// The one place a matrix's `n` values are read, with their non-zero count:
/// parsed from an inline array in a text frame, read off the slab in a slab
/// frame. Each layout rejects the other's form.
fn read_data(
    j: &Json,
    n: usize,
    slab: Option<&mut SlabSource>,
) -> Result<(Vec<f64>, usize), String> {
    match (j, slab) {
        (Json::Arr(items), None) => {
            if items.len() != n {
                return Err(format!("data length {} != rows*cols {n}", items.len()));
            }
            let data = items.iter().map(json_f64).collect::<Result<Vec<_>, _>>()?;
            let nnz = data.iter().filter(|v| **v != 0.0).count();
            Ok((data, nnz))
        }
        (_, Some(slab)) => {
            let at = j.get("slab").ok_or("data in a slab frame must be {\"slab\": offset}")?;
            slab.take(json_usize(at, "slab offset")?, n)
        }
        (_, None) if j.get("slab").is_some() => Err("slab reference in a text frame".to_owned()),
        (_, None) => Err("data must be an array".to_owned()),
    }
}

/// The `rows`, `cols` and `data` of one matrix object, and the non-zero
/// count of its data; `what` names it in errors.
fn read_matrix(
    j: &Json,
    what: &str,
    slab: Option<&mut SlabSource>,
) -> Result<(usize, usize, Vec<f64>, usize), String> {
    let field = |k: &str| j.get(k).ok_or_else(|| format!("{what} missing {k}"));
    let rows = json_usize(field("rows")?, "rows")?;
    let cols = json_usize(field("cols")?, "cols")?;
    // checked_mul: claimed dims like 2^32 x 2^32 would wrap to 0 in release
    // builds and let an empty `data` impersonate a matrix far larger than
    // any frame could carry.
    let n = rows
        .checked_mul(cols)
        .ok_or_else(|| format!("{what}: rows*cols overflows ({rows} x {cols})"))?;
    let (data, nnz) = read_data(field("data")?, n, slab).map_err(|e| format!("{what}: {e}"))?;
    Ok((rows, cols, data, nnz))
}

/// Append `s` as a JSON string literal.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    write_escaped(out, s);
    out.push('"');
}

/// Write a request's JSON document — the whole payload of a text frame, the
/// header of a slab frame.
fn write_request<'a>(out: &mut String, req: &'a Request, mut slab: Option<&mut SlabSink<'a>>) {
    out.push_str("{\"tenant\":");
    write_string(out, &req.tenant);
    out.push_str(match req.cmd {
        Cmd::Score => ",\"cmd\":\"score\"",
        Cmd::Ping => ",\"cmd\":\"ping\"",
    });
    if !req.program.is_empty() {
        out.push_str(",\"program\":");
        write_string(out, &req.program);
    }
    if !req.inputs.is_empty() {
        out.push_str(",\"inputs\":{");
        for (i, (name, v)) in req.inputs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_string(out, name);
            out.push(':');
            match v {
                InputValue::Matrix { rows, cols, data } => {
                    let _ = write!(out, "{{\"rows\":{rows},\"cols\":{cols},\"data\":");
                    write_data(out, data, slab.as_deref_mut());
                    out.push('}');
                }
                InputValue::Scalar(x) => {
                    out.push_str("{\"scalar\":");
                    write_f64(out, *x);
                    out.push('}');
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

/// Read a request out of its parsed document, with each input's non-zero
/// count (see [`Received`]).
fn read_request(
    j: &Json,
    mut slab: Option<&mut SlabSource>,
) -> Result<(Request, Vec<usize>), String> {
    let tenant = j.get("tenant").and_then(Json::as_str).ok_or("missing tenant")?.to_owned();
    let cmd = match j.get("cmd").and_then(Json::as_str) {
        Some("score") | None => Cmd::Score,
        Some("ping") => Cmd::Ping,
        Some(other) => return Err(format!("unknown cmd {other:?}")),
    };
    let program = j.get("program").and_then(Json::as_str).unwrap_or("").to_owned();
    let mut inputs = Vec::new();
    let mut nnz = Vec::new();
    if let Some(obj) = j.get("inputs") {
        for (name, v) in obj.as_obj().ok_or("inputs must be an object")? {
            let (value, count) = match v.get("scalar") {
                Some(s) => {
                    let x = json_f64(s)?;
                    (InputValue::Scalar(x), usize::from(x != 0.0))
                }
                None => {
                    let (rows, cols, data, count) =
                        read_matrix(v, &format!("input {name:?}"), slab.as_deref_mut())?;
                    (InputValue::Matrix { rows, cols, data }, count)
                }
            };
            inputs.push((name.clone(), value));
            nnz.push(count);
        }
    }
    let batch = matches!(j.get("batch"), Some(Json::Bool(true)));
    Ok((Request { tenant, cmd, program, inputs, batch }, nnz))
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
            out.push_str("{\"ok\":false,\"error\":");
            write_string(out, error);
        }
        Response::Pong => out.push_str("{\"ok\":true,\"kind\":\"pong\""),
        Response::Score { result, cache_hit, batched, blocked_nodes } => {
            out.push_str("{\"ok\":true,");
            match result {
                ScoreResult::Scalar(v) => {
                    out.push_str("\"kind\":\"scalar\",\"value\":");
                    write_f64(out, *v);
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
            let (rows, cols, data, _) = read_matrix(j, "result", slab)?;
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

/// One complete frame, ready to write: the length prefix, the preamble (in
/// the slab layout) and the JSON document in `head`, and the matrices whose
/// values follow as the slab.
struct Frame<'a> {
    head: Vec<u8>,
    parts: Vec<&'a [f64]>,
    /// Payload bytes: everything after the length prefix.
    payload_len: usize,
}

impl<'a> Frame<'a> {
    /// `body` writes the JSON document, and is lent a slab sink when the
    /// layout has a slab.
    fn new(layout: Layout, body: impl FnOnce(&mut String, Option<&mut SlabSink<'a>>)) -> Self {
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
        let mut head = text.into_bytes();
        if layout == Layout::Slab {
            // Lengths past u32 saturate; `send` refuses such a frame.
            let text_len = u32::try_from(text_len).unwrap_or(u32::MAX);
            head[FRAME_PREFIX_BYTES] = SLAB_MAGIC;
            head[FRAME_PREFIX_BYTES + 1] = SLAB_VERSION;
            head[FRAME_PREFIX_BYTES + 2..lead].copy_from_slice(&text_len.to_le_bytes());
        }
        let payload_len = head.len() - FRAME_PREFIX_BYTES + sink.elems * 8;
        let prefix = u32::try_from(payload_len).unwrap_or(u32::MAX);
        head[..FRAME_PREFIX_BYTES].copy_from_slice(&prefix.to_be_bytes());
        Frame { head, parts: sink.parts, payload_len }
    }

    /// Write the frame to `w`: the head and the first values in one write
    /// (two writes would put the prefix alone in a TCP segment and stall
    /// ~40 ms on Nagle's algorithm colliding with the peer's delayed ACK),
    /// then the rest of the slab one chunk at a time, each converted just
    /// before it goes out. The buffer never holds more than the head and one
    /// chunk.
    fn write_to(self, w: &mut dyn Write) -> io::Result<()> {
        let Frame { head: mut buf, parts, payload_len } = self;
        let mut at = buf.len();
        if FRAME_PREFIX_BYTES + payload_len > at {
            buf.resize(at + CHUNK_BYTES, 0);
        }
        for mut part in parts {
            while !part.is_empty() {
                let (now, later) = part.split_at(((buf.len() - at) / 8).min(part.len()));
                for (dst, v) in buf[at..at + now.len() * 8].chunks_exact_mut(8).zip(now) {
                    dst.copy_from_slice(&v.to_le_bytes());
                }
                at += now.len() * 8;
                part = later;
                if buf.len() - at < 8 {
                    w.write_all(&buf[..at])?;
                    at = 0;
                }
            }
        }
        if at > 0 {
            w.write_all(&buf[..at])?;
        }
        w.flush()
    }

    /// Write the frame to a stream, refusing one over [`MAX_FRAME_BYTES`]
    /// before a byte of it is written. Returns the payload's length.
    fn send(self, w: &mut dyn Write) -> io::Result<usize> {
        let len = self.payload_len;
        if len > MAX_FRAME_BYTES {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "frame too large"));
        }
        self.write_to(w)?;
        Ok(len)
    }

    fn into_vec(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(FRAME_PREFIX_BYTES + self.payload_len);
        self.write_to(&mut out).expect("writing to a Vec cannot fail");
        out
    }
}

/// Check a slab payload's preamble — its first `SLAB_PREAMBLE_BYTES`, or
/// all of a shorter `len`-byte payload — and return the header's and the
/// slab's byte lengths.
fn slab_lengths(head: &[u8], len: usize) -> Result<(usize, usize), String> {
    let [_, version, l0, l1, l2, l3] = *head else {
        return Err("slab frame shorter than its preamble".to_owned());
    };
    if version != SLAB_VERSION {
        return Err(format!("unknown slab frame version {version}"));
    }
    let text_len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    let rest = len - SLAB_PREAMBLE_BYTES;
    if text_len > rest {
        return Err(format!("text_len {text_len} runs past the payload ({rest} bytes left)"));
    }
    let slab_bytes = rest - text_len;
    if !slab_bytes.is_multiple_of(8) {
        return Err(format!("slab length {slab_bytes} is not a multiple of 8"));
    }
    Ok((text_len, slab_bytes))
}

/// Parse a frame's JSON document and run `read` over it.
fn read_document<T>(
    text: &[u8],
    slab: Option<&mut SlabSource>,
    read: impl FnOnce(&Json, Option<&mut SlabSource>) -> Result<T, String>,
) -> Result<T, String> {
    let text = std::str::from_utf8(text).map_err(|_| "frame text is not UTF-8")?;
    read(&parse(text)?, slab)
}

/// Read a payload of `len` bytes off `r` and decode it with `read`. A text
/// payload is read whole and parsed. A slab payload's header is read and
/// parsed, and `read` then takes each matrix off `r` as the document
/// references it; the slab's length follows from `len`, so each reference
/// is checked before the values it names are allocated or read. An invalid
/// payload is read to its end, so `r` stands at the next frame. Returns the
/// payload's layout with the outcome, the layout also when `r` fails or
/// ends inside the payload (`Text` if that happens before the preamble is
/// in).
fn read_payload<T>(
    r: &mut dyn Read,
    len: usize,
    read: impl FnOnce(&Json, Option<&mut SlabSource>) -> Result<T, String>,
) -> (Layout, io::Result<Result<T, String>>) {
    let mut r = r.take(len as u64);
    let mut head = [0u8; SLAB_PREAMBLE_BYTES];
    let head = &mut head[..len.min(SLAB_PREAMBLE_BYTES)];
    if let Err(e) = r.read_exact(head) {
        return (Layout::Text, Err(e));
    }
    let layout = Layout::of(head);
    (layout, read_body(&mut r, head, layout, len, read))
}

/// The rest of [`read_payload`], once the preamble `head` is in.
fn read_body<T>(
    r: &mut io::Take<&mut dyn Read>,
    head: &[u8],
    layout: Layout,
    len: usize,
    read: impl FnOnce(&Json, Option<&mut SlabSource>) -> Result<T, String>,
) -> io::Result<Result<T, String>> {
    let out = match layout {
        Layout::Text => {
            let mut payload = vec![0; len];
            payload[..head.len()].copy_from_slice(head);
            r.read_exact(&mut payload[head.len()..])?;
            read_document(&payload, None, read)
        }
        Layout::Slab => match slab_lengths(head, len) {
            Ok((text_len, slab_bytes)) => {
                let mut text = vec![0; text_len];
                r.read_exact(&mut text)?;
                let mut slab = SlabSource::new(r, slab_bytes / 8);
                let out = read_document(&text, Some(&mut slab), read);
                if let Some(e) = slab.failed.take() {
                    return Err(e);
                }
                out.and_then(|v| slab.finish().map(|()| v))
            }
            Err(e) => Err(e),
        },
    };
    if out.is_err() {
        io::copy(r, &mut io::sink())?;
    }
    Ok(out)
}

/// Decode an in-memory payload of either layout.
fn decode_payload<T>(
    payload: &[u8],
    read: impl FnOnce(&Json, Option<&mut SlabSource>) -> Result<T, String>,
) -> Result<T, String> {
    // A slice holds every byte `read_payload` asks for, so it cannot fail.
    read_payload(&mut &payload[..], payload.len(), read).1.unwrap_or_else(|e| Err(e.to_string()))
}

/// A request payload as [`read_request_frame`] read it off a stream.
#[derive(Debug)]
pub struct Received {
    /// The payload's layout, which the response must use; `Text` when the
    /// stream failed before the preamble was in.
    pub layout: Layout,
    /// The request and each input's non-zero count, in `inputs` order, or
    /// why the payload is not a valid request; the outer `Err` when the
    /// stream failed or ended inside the payload. A matrix counts its values
    /// with `v != 0.0`, so `-0.0` counts as zero and a NaN as non-zero; a
    /// scalar counts as one value.
    pub request: io::Result<Result<(Request, Vec<usize>), String>>,
}

/// Encode a request to its text-frame payload.
pub fn encode_request(req: &Request) -> String {
    let mut s = String::new();
    write_request(&mut s, req, None);
    s
}

/// Decode a text-frame request payload.
pub fn decode_request(raw: &str) -> Result<Request, String> {
    read_request(&parse(raw)?, None).map(|(req, _)| req)
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

/// A request's frame: a slab frame iff the request's matrices total at
/// least `SLAB_MIN_ELEMS` values, a text frame otherwise.
fn frame_of_request(req: &Request) -> Frame<'_> {
    let elems: usize = req
        .inputs
        .iter()
        .map(|(_, v)| match v {
            InputValue::Matrix { data, .. } => data.len(),
            InputValue::Scalar(_) => 0,
        })
        .sum();
    let layout = if elems >= SLAB_MIN_ELEMS { Layout::Slab } else { Layout::Text };
    Frame::new(layout, |out, slab| write_request(out, req, slab))
}

/// The complete frame for a request, ready for [`write_frame`]: a slab
/// frame iff the request's matrices total at least `SLAB_MIN_ELEMS` values,
/// a text frame otherwise.
pub fn request_frame(req: &Request) -> Vec<u8> {
    frame_of_request(req).into_vec()
}

/// Write a request's frame — the bytes of [`request_frame`] — to `w`,
/// converting the slab a chunk at a time, so no frame-sized buffer is
/// built. Refuses a frame over [`MAX_FRAME_BYTES`] before writing a byte.
/// Returns the payload's length.
pub(crate) fn write_request_frame(w: &mut dyn Write, req: &Request) -> io::Result<usize> {
    frame_of_request(req).send(w)
}

/// Decode a received request payload of either layout.
pub fn decode_request_frame(payload: &[u8]) -> Result<Request, String> {
    decode_payload(payload, read_request).map(|(req, _)| req)
}

/// Read a request payload of `len` bytes (as [`read_frame_len`] returned
/// it) off `r` and decode it. A text payload is read whole and parsed; a
/// slab payload's header is read and parsed, and then each matrix's values
/// go from `r` straight into its `Vec<f64>` through a fixed chunk buffer,
/// counted as they are converted. The request equals what
/// [`decode_request_frame`] makes of the same bytes.
///
/// An invalid payload is read to its end and dropped, so `r` stands at the
/// next frame, and [`Received::request`] says what is wrong. An `Err` there
/// means `r` failed, or ended inside the payload; where it stands is then
/// unknown, and [`Received::layout`] still says which layout was lost.
pub fn read_request_frame(r: &mut dyn Read, len: usize) -> Received {
    let (layout, request) = read_payload(r, len, read_request);
    Received { layout, request }
}

/// The complete frame for a response carrying request id `rid`, in the
/// layout of the request it answers.
pub fn response_frame(resp: &Response, rid: u64, layout: Layout) -> Vec<u8> {
    Frame::new(layout, |out, slab| write_response(out, resp, Some(rid), slab)).into_vec()
}

/// Write a response's frame — the bytes of [`response_frame`] — to `w` as
/// [`write_request_frame`] writes a request's. Returns the payload's length.
pub(crate) fn write_response_frame(
    w: &mut dyn Write,
    resp: &Response,
    rid: u64,
    layout: Layout,
) -> io::Result<usize> {
    Frame::new(layout, |out, slab| write_response(out, resp, Some(rid), slab)).send(w)
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
