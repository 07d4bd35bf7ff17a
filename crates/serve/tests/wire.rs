//! The wire format from the outside: slab frames round-trip every bit
//! pattern, both layouts decode to the same request however the bytes are
//! split across reads, a hostile frame of either layout gets a clean
//! `bad request: …` on a connection that stays usable, and a client that
//! hangs up inside a frame costs only its own connection.

use dm_obs::StatsRegistry;
use dm_serve::protocol::{
    decode_request, decode_request_frame, decode_response_frame, encode_request, read_frame,
    read_frame_len, read_request_frame, request_frame, response_frame, write_frame, Layout,
    FRAME_PREFIX_BYTES,
};
use dm_serve::{
    InputValue, Request, Response, ScoreResult, ScoringClient, ScoringServer, ServeConfig,
};
use proptest::collection::vec;
use proptest::prelude::*;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Doubles weighted towards the patterns decimal text loses or mangles.
fn any_bits() -> BoxedStrategy<f64> {
    prop_oneof![
        4 => (0u64..=u64::MAX).prop_map(f64::from_bits),
        // Quiet and signalling NaNs with arbitrary payloads, either sign.
        2 => (0u64..=u64::MAX).prop_map(|b| f64::from_bits(b | 0x7ff0_0000_0000_0001)),
        1 => (1u64..(1 << 52)).prop_map(f64::from_bits),
        1 => (1u64..(1 << 52)).prop_map(|b| f64::from_bits(b | (1 << 63))),
        1 => Just(0.0),
        1 => Just(-0.0),
        1 => Just(f64::INFINITY),
        1 => Just(f64::NEG_INFINITY),
    ]
    .boxed()
}

/// As [`any_bits`] but without NaN, whose payload the text layout does not
/// carry (it spells every NaN `"NaN"`).
fn text_safe() -> BoxedStrategy<f64> {
    any_bits().prop_map(|v| if v.is_nan() { -0.0 } else { v }).boxed()
}

/// Shapes down to 0×n and n×0, each with its values.
fn matrices(value: BoxedStrategy<f64>) -> impl Strategy<Value = Vec<(usize, usize, Vec<f64>)>> {
    vec(
        (0usize..5, 0usize..5)
            .prop_flat_map(move |(r, c)| (Just(r), Just(c), vec(value.clone(), r * c))),
        0..5,
    )
}

/// A request over `small` plus one filler matrix wide enough to put the
/// whole request over the slab threshold.
fn slab_sized(small: &[(usize, usize, Vec<f64>)], filler: Vec<f64>) -> Request {
    let mut req = Request::score("t-1", "A0").scalar("s", 0.5);
    for (i, (rows, cols, data)) in small.iter().enumerate() {
        req = req.matrix(&format!("A{i}"), *rows, *cols, data.clone());
    }
    req.matrix("filler", 128, 128, filler).batched()
}

fn payload(frame: &[u8]) -> &[u8] {
    &frame[FRAME_PREFIX_BYTES..]
}

/// Everything a request carries, with values as bits: `==` on `f64` cannot
/// see a NaN payload or the sign of zero, and a NaN is not equal to itself.
fn request_bits(req: &Request) -> String {
    let inputs: Vec<(String, Vec<u64>)> = req
        .inputs
        .iter()
        .map(|(name, v)| match v {
            InputValue::Matrix { rows, cols, data } => {
                (format!("{name} {rows}x{cols}"), data.iter().map(|x| x.to_bits()).collect())
            }
            InputValue::Scalar(x) => (format!("{name} scalar"), vec![x.to_bits()]),
        })
        .collect();
    format!("{:?} {:?} {:?} {} {inputs:?}", req.tenant, req.cmd, req.program, req.batch)
}

/// A stream that hands out its bytes a few at a time: each `read` returns
/// the next of `steps` bytes (cycling), or fewer at the end.
struct Trickle<'a> {
    bytes: &'a [u8],
    steps: &'a [usize],
    reads: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.steps[self.reads % self.steps.len()].min(buf.len()).min(self.bytes.len());
        self.reads += 1;
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn slab_request_round_trip_is_bit_exact(
        small in matrices(any_bits()),
        filler in vec(any_bits(), 128 * 128),
    ) {
        let req = slab_sized(&small, filler);
        let frame = request_frame(&req);
        prop_assert_eq!(Layout::of(payload(&frame)), Layout::Slab);
        let back = decode_request_frame(payload(&frame)).unwrap();
        prop_assert_eq!(request_bits(&back), request_bits(&req));
        // Re-encoding what was decoded gives the same bytes.
        prop_assert_eq!(request_frame(&back), frame);
    }

    #[test]
    fn slab_response_round_trip_is_bit_exact(
        (rows, cols, data) in (0usize..6, 0usize..6)
            .prop_flat_map(|(r, c)| (Just(r), Just(c), vec(any_bits(), r * c))),
        rid in 0u64..(1 << 53),
    ) {
        let resp = Response::Score {
            result: ScoreResult::Matrix { rows, cols, data: data.clone() },
            cache_hit: rid % 2 == 0,
            batched: rid % 3 == 0,
            blocked_nodes: (rid % 5) as usize,
        };
        let frame = response_frame(&resp, rid, Layout::Slab);
        let (back, back_rid) = decode_response_frame(payload(&frame)).unwrap();
        prop_assert_eq!(back_rid, Some(rid));
        let Response::Score { result: ScoreResult::Matrix { rows: r, cols: c, data: d }, .. } = &back
        else {
            panic!("not a matrix score: {back:?}");
        };
        prop_assert_eq!((*r, *c), (rows, cols));
        prop_assert_eq!(
            d.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            data.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        prop_assert_eq!(response_frame(&back, rid, Layout::Slab), frame);
    }

    #[test]
    fn fragmented_delivery_decodes_as_the_whole_payload(
        small in matrices(any_bits()),
        filler in vec(any_bits(), 128 * 128),
        scalar in any_bits(),
        steps in vec(1usize..=97, 1..6),
    ) {
        let mut text = Request::score("t-1", "A0").scalar("s", scalar);
        for (i, (rows, cols, data)) in small.iter().enumerate() {
            text = text.matrix(&format!("A{i}"), *rows, *cols, data.clone());
        }
        for (req, layout) in [(text, Layout::Text), (slab_sized(&small, filler.clone()), Layout::Slab)] {
            // The frame, then a ping: the reader must stop at the boundary.
            let frame = request_frame(&req);
            let stream = [frame.clone(), request_frame(&Request::ping("t"))].concat();
            let mut r = Trickle { bytes: &stream, steps: &steps, reads: 0 };
            let len = read_frame_len(&mut r).unwrap().unwrap();
            let got = read_request_frame(&mut r, len);
            prop_assert_eq!(got.layout, layout);
            let (back, nnz) = got.request.unwrap().unwrap();
            let whole = decode_request_frame(payload(&frame)).unwrap();
            prop_assert_eq!(request_bits(&back), request_bits(&whole));
            let want: Vec<usize> = back
                .inputs
                .iter()
                .map(|(_, v)| match v {
                    InputValue::Matrix { data, .. } => data.iter().filter(|x| **x != 0.0).count(),
                    InputValue::Scalar(x) => usize::from(*x != 0.0),
                })
                .collect();
            prop_assert_eq!(nnz, want);
            let len = read_frame_len(&mut r).unwrap().unwrap();
            let ping = read_request_frame(&mut r, len).request.unwrap().unwrap().0;
            prop_assert_eq!(ping, Request::ping("t"));
            prop_assert_eq!(read_frame_len(&mut r).unwrap(), None);
        }
    }

    #[test]
    fn slab_and_text_decodes_agree(small in matrices(text_safe())) {
        // A plain filler: a random double can print as 300 digits of text.
        let req = slab_sized(&small, (0..128 * 128).map(|i| (i % 9) as f64 * 0.125).collect());
        let from_slab = decode_request_frame(payload(&request_frame(&req))).unwrap();
        let from_text = decode_request(&encode_request(&req)).unwrap();
        prop_assert_eq!(request_bits(&from_slab), request_bits(&from_text));
    }
}

/// A slab payload assembled by hand: any header text, any slab bytes.
fn slab_payload(version: u8, text_len: u32, header: &str, slab: &[u8]) -> Vec<u8> {
    let mut p = vec![0xD5, version];
    p.extend_from_slice(&text_len.to_le_bytes());
    p.extend_from_slice(header.as_bytes());
    p.extend_from_slice(slab);
    p
}

/// A hand-assembled payload behind its length prefix.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(payload);
    frame
}

fn values(n: usize) -> Vec<u8> {
    (0..n).flat_map(|i| (i as f64).to_le_bytes()).collect()
}

fn header(inputs: &str) -> String {
    format!(r#"{{"tenant":"t","program":"X","inputs":{{{inputs}}}}}"#)
}

#[test]
fn hostile_frames_get_a_clean_error_and_the_connection_survives() {
    let well = |h: &str, slab: &[u8]| slab_payload(1, h.len() as u32, h, slab);
    let x_2x2 = header(r#""X":{"rows":2,"cols":2,"data":{"slab":0}}"#);
    let cases: Vec<(&str, Vec<u8>, &str)> = vec![
        ("text_len past the payload", slab_payload(1, 10_000, &x_2x2, &values(4)), "text_len"),
        ("text_len of u32::MAX", slab_payload(1, u32::MAX, &x_2x2, &values(4)), "text_len"),
        ("slab length not a multiple of 8", well(&x_2x2, &values(4)[..31]), "multiple of 8"),
        ("reference past the slab", well(&x_2x2, &values(3)), "runs past the slab"),
        (
            "offset + rows*cols overflows",
            well(
                &header(concat!(
                    r#""A":{"rows":1,"cols":4,"data":{"slab":0}},"#,
                    r#""X":{"rows":4294967295,"cols":4294967297,"data":{"slab":4}}"#
                )),
                &values(4),
            ),
            "runs past the slab",
        ),
        (
            "overlapping references",
            well(
                &header(concat!(
                    r#""A":{"rows":2,"cols":2,"data":{"slab":0}},"#,
                    r#""X":{"rows":2,"cols":2,"data":{"slab":2}}"#
                )),
                &values(6),
            ),
            "tile the slab",
        ),
        (
            "a gap between references",
            well(
                &header(concat!(
                    r#""A":{"rows":1,"cols":2,"data":{"slab":0}},"#,
                    r#""X":{"rows":1,"cols":2,"data":{"slab":4}}"#
                )),
                &values(6),
            ),
            "tile the slab",
        ),
        ("unreferenced trailing values", well(&x_2x2, &values(6)), "not referenced"),
        (
            "a slab nothing references",
            well(r#"{"tenant":"t","cmd":"ping"}"#, &values(2)),
            "not referenced",
        ),
        ("unknown version", slab_payload(2, x_2x2.len() as u32, &x_2x2, &values(4)), "version 2"),
        ("magic byte alone", vec![0xD5], "preamble"),
        (
            "rows*cols >= 2^64",
            well(
                &header(r#""X":{"rows":4294967296,"cols":4294967296,"data":{"slab":0}}"#),
                &values(0),
            ),
            "overflows",
        ),
        (
            "inline values in a slab frame",
            well(&header(r#""X":{"rows":1,"cols":1,"data":[1]}"#), &values(0)),
            "slab frame",
        ),
        (
            "fractional slab offset",
            well(&header(r#""X":{"rows":1,"cols":1,"data":{"slab":0.5}}"#), &values(1)),
            "slab offset",
        ),
        ("header that is not UTF-8", slab_payload(1, 2, "", &[0xff, 0xfe]), "UTF-8"),
        ("slab reference in a text frame", x_2x2.clone().into_bytes(), "text frame"),
        ("text frame that is not UTF-8", vec![b'{', 0xff, b'}'], "UTF-8"),
        ("empty payload", Vec::new(), "unexpected end"),
    ];

    let server =
        ScoringServer::start(ServeConfig::for_tests(), Arc::new(StatsRegistry::new())).unwrap();
    let mut conn = TcpStream::connect(server.addr()).unwrap();
    let ping = request_frame(&Request::ping("t"));
    for (what, bad, needle) in &cases {
        // The decoder alone rejects it...
        let err = decode_request_frame(bad).expect_err(what);
        assert!(err.contains(needle), "{what}: {err}");
        // ...and so does the server, in the layout the frame claimed, without
        // giving up on the connection. A ping rides in the same write: the
        // server must skip exactly the bad frame's bytes to answer it.
        conn.write_all(&[framed(bad), ping.clone()].concat()).unwrap();
        let reply = read_frame(&mut conn).unwrap().unwrap_or_else(|| panic!("{what}: hung up"));
        assert_eq!(Layout::of(&reply), Layout::of(bad), "{what}");
        let (resp, rid) = decode_response_frame(&reply).unwrap();
        let Response::Error { error } = resp else { panic!("{what}: accepted as {resp:?}") };
        assert!(error.starts_with("bad request: ") && error.contains(needle), "{what}: {error}");
        assert!(rid.is_some(), "{what}: errors carry a rid too");
        let reply = read_frame(&mut conn).unwrap().unwrap_or_else(|| panic!("{what}: no pong"));
        assert_eq!(decode_response_frame(&reply).unwrap().0, Response::Pong, "{what}");
    }
    // The same connection still serves a well-formed request of each layout.
    write_frame(&mut conn, &request_frame(&Request::ping("t"))).unwrap();
    let (pong, _) = decode_response_frame(&read_frame(&mut conn).unwrap().unwrap()).unwrap();
    assert_eq!(pong, Response::Pong);
    let good = slab_payload(1, x_2x2.len() as u32, &x_2x2, &values(4));
    write_frame(&mut conn, &framed(&good)).unwrap();
    let (resp, _) = decode_response_frame(&read_frame(&mut conn).unwrap().unwrap()).unwrap();
    let Response::Score { result: ScoreResult::Matrix { data, .. }, .. } = resp else {
        panic!("a small hand-written slab frame is a valid request: {resp:?}");
    };
    assert_eq!(data, vec![0.0, 1.0, 2.0, 3.0]);

    // Close first: shutdown waits for open connections.
    drop(conn);
    server.shutdown();
}

#[test]
fn a_client_that_hangs_up_mid_slab_costs_only_its_connection() {
    // One worker: a fresh connection is served only once the abandoned
    // one's worker has returned.
    let cfg = ServeConfig { workers: 1, ..ServeConfig::for_tests() };
    let server = ScoringServer::start(cfg, Arc::new(StatsRegistry::new())).unwrap();
    let (rows, cols) = (64, 2048);
    let req = Request::score("t", "X %*% v")
        .matrix("X", rows, cols, vec![0.5; rows * cols])
        .matrix("v", cols, 1, vec![1.0; cols]);
    let frame = request_frame(&req);
    let slab_at = frame.len() - (rows * cols + cols) * 8;
    {
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        // The prefix, preamble and header, and half of the slab.
        conn.write_all(&frame[..slab_at + (rows * cols + cols) * 4]).unwrap();
    }
    let mut client = ScoringClient::connect(server.addr()).unwrap();
    client.ping("t").unwrap();
    let Ok(ScoreResult::Matrix { data, .. }) = client.score(&req) else {
        panic!("the whole request is served on a fresh connection");
    };
    assert_eq!(data, vec![1024.0; rows]);
    // The abandoned request is on record as failed at the receive.
    let recs = server.flight().recent(8);
    let lost = recs.iter().find(|r| r.error.as_deref().is_some_and(|e| e.starts_with("recv: ")));
    let lost = lost.unwrap_or_else(|| panic!("no record of the abandoned frame"));
    assert_eq!(lost.bytes_in as usize, frame.len() - FRAME_PREFIX_BYTES);
    assert_eq!(lost.layout, "slab", "the lost frame is recorded in the layout it came in");
    drop(client);
    let t0 = Instant::now();
    server.shutdown();
    assert!(t0.elapsed() < Duration::from_secs(2), "shutdown took {:?}", t0.elapsed());
}
