//! A minimal blocking client for the scoring protocol.
//!
//! One [`ScoringClient`] holds one TCP connection and can issue any
//! number of requests over it (the server answers frames in order). It is
//! the Rust counterpart of `scripts/loadgen.py` and the building block of
//! the examples and end-to-end tests.

use crate::protocol::{
    decode_response_frame, read_frame, write_request_frame, Request, Response, ScoreResult,
};
use std::io;
use std::net::{TcpStream, ToSocketAddrs};

/// A blocking connection to a [`ScoringServer`](crate::server::ScoringServer).
pub struct ScoringClient {
    stream: TcpStream,
}

impl ScoringClient {
    /// Connect to a server address.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // Latency over throughput: traffic is strictly request/response.
        let _ = stream.set_nodelay(true);
        Ok(ScoringClient { stream })
    }

    /// Send one request and wait for its response. A request carrying many
    /// matrix values goes out as a slab frame (raw `f64`s), converted and
    /// written a chunk at a time, a small one as JSON text in one write.
    /// The size of the request alone decides, and the server answers in
    /// kind.
    pub fn request(&mut self, req: &Request) -> Result<Response, String> {
        self.request_with_rid(req).map(|(resp, _)| resp)
    }

    /// Send one request and also surface the server-assigned request id —
    /// the handle into the server's flight recorder (`/debug/requests`,
    /// `/debug/trace?id=`). `None` when talking to a server predating ids.
    pub fn request_with_rid(&mut self, req: &Request) -> Result<(Response, Option<u64>), String> {
        write_request_frame(&mut self.stream, req).map_err(|e| format!("send: {e}"))?;
        let raw = read_frame(&mut self.stream)
            .map_err(|e| format!("recv: {e}"))?
            .ok_or("server closed the connection")?;
        decode_response_frame(&raw)
    }

    /// Convenience: issue a `score` and unwrap the result value, turning
    /// protocol- and server-side errors into `Err`.
    pub fn score(&mut self, req: &Request) -> Result<ScoreResult, String> {
        match self.request(req)? {
            Response::Score { result, .. } => Ok(result),
            Response::Error { error } => Err(error),
            Response::Pong => Err("unexpected pong".to_owned()),
        }
    }

    /// Liveness round-trip.
    pub fn ping(&mut self, tenant: &str) -> Result<(), String> {
        match self.request(&Request::ping(tenant))? {
            Response::Pong => Ok(()),
            other => Err(format!("unexpected response: {other:?}")),
        }
    }
}
