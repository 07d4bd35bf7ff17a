//! Stdlib-only metrics scrape endpoint.
//!
//! [`MetricsServer`] binds a `std::net::TcpListener` and serves the live
//! contents of a [`StatsRegistry`] from a background
//! thread:
//!
//! - `GET /metrics` — Prometheus text exposition
//!   ([`prometheus_text`])
//! - `GET /stats.json` — JSON report ([`stats_json`])
//! - `GET /healthz` — readiness probe (plain `ok`)
//!
//! Enable it from the environment with `DMML_METRICS_ADDR=host:port`
//! (port `0` picks a free port; the bound address is available via
//! [`MetricsServer::addr`]). Shutdown is graceful: dropping the server (or
//! calling [`shutdown`](MetricsServer::shutdown)) stops the accept loop and
//! joins the thread.
//!
//! ```
//! use std::sync::Arc;
//! use dm_obs::StatsRegistry;
//! use dm_obs::serve::MetricsServer;
//!
//! let reg = Arc::new(StatsRegistry::new());
//! reg.add("demo.requests", 1);
//! let server = MetricsServer::start("127.0.0.1:0", Arc::clone(&reg)).unwrap();
//! let body: String = {
//!     use std::io::{Read, Write};
//!     let mut s = std::net::TcpStream::connect(server.addr()).unwrap();
//!     write!(s, "GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").unwrap();
//!     let mut buf = String::new();
//!     s.read_to_string(&mut buf).unwrap();
//!     buf
//! };
//! assert!(body.contains("dmml_demo_requests"));
//! server.shutdown();
//! ```

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::export::{prometheus_text, stats_json};
use crate::flightrec::FlightRecorder;
use crate::registry::StatsRegistry;

/// Environment variable that, when set to `host:port`, enables the scrape
/// endpoint in env-aware binaries (the examples check it via
/// [`MetricsServer::from_env`]).
pub const METRICS_ADDR_ENV: &str = "DMML_METRICS_ADDR";

/// Content-Type Prometheus scrapers expect for the text exposition format.
const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// A background HTTP server exposing one registry's live stats.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// serving `registry` from a background thread.
    pub fn start<A: ToSocketAddrs>(addr: A, registry: Arc<StatsRegistry>) -> std::io::Result<Self> {
        Self::start_with_flight(addr, registry, None)
    }

    /// Like [`start`](MetricsServer::start), additionally mounting a
    /// [`FlightRecorder`] under the `/debug/*` endpoints (`/debug/requests`,
    /// `/debug/slow`, `/debug/trace?id=`). Without a recorder those paths
    /// answer 404.
    pub fn start_with_flight<A: ToSocketAddrs>(
        addr: A,
        registry: Arc<StatsRegistry>,
        flight: Option<Arc<FlightRecorder>>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("dmml-metrics".to_owned())
            .spawn(move || accept_loop(listener, registry, flight, stop2))?;
        Ok(MetricsServer { addr, stop, handle: Some(handle) })
    }

    /// Start a server on the address named by [`METRICS_ADDR_ENV`].
    /// `None` when the variable is unset or empty; `Some(Err(..))` when it
    /// is set but the bind fails — callers decide whether that is fatal.
    pub fn from_env(registry: Arc<StatsRegistry>) -> Option<std::io::Result<Self>> {
        Self::from_env_with_flight(registry, None)
    }

    /// [`from_env`](MetricsServer::from_env) with a [`FlightRecorder`]
    /// mounted under `/debug/*`.
    pub fn from_env_with_flight(
        registry: Arc<StatsRegistry>,
        flight: Option<Arc<FlightRecorder>>,
    ) -> Option<std::io::Result<Self>> {
        match std::env::var(METRICS_ADDR_ENV) {
            Ok(a) if !a.trim().is_empty() => {
                Some(Self::start_with_flight(a.trim(), registry, flight))
            }
            _ => None,
        }
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, wake the accept loop, and join the thread.
    /// Idempotent; also runs on drop.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let Some(handle) = self.handle.take() else { return };
        self.stop.store(true, Ordering::SeqCst);
        // accept() has no timeout; a throwaway self-connection unblocks it so
        // the loop observes the stop flag.
        let _ = TcpStream::connect(self.addr);
        let _ = handle.join();
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn accept_loop(
    listener: TcpListener,
    registry: Arc<StatsRegistry>,
    flight: Option<Arc<FlightRecorder>>,
    stop: Arc<AtomicBool>,
) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        // A stalled client must not wedge the scrape endpoint.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
        let _ = handle_conn(stream, &registry, flight.as_deref());
    }
}

/// Value of query parameter `key` in `query` (`a=1&b=2` form, no decoding).
fn query_param<'q>(query: &'q str, key: &str) -> Option<&'q str> {
    query.split('&').filter_map(|kv| kv.split_once('=')).find(|(k, _)| *k == key).map(|(_, v)| v)
}

/// Answer the `/debug/*` family from the mounted flight recorder.
fn debug_response(
    route: &str,
    query: &str,
    flight: Option<&FlightRecorder>,
) -> (&'static str, &'static str, String) {
    let Some(fr) = flight else {
        return (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "no flight recorder mounted\n".to_owned(),
        );
    };
    match route {
        "/debug/requests" => {
            let n = query_param(query, "n").and_then(|v| v.parse::<usize>().ok()).unwrap_or(32);
            ("200 OK", "application/json", fr.requests_json(n))
        }
        "/debug/slow" => ("200 OK", "application/json", fr.slow_json()),
        "/debug/trace" => {
            let id = query_param(query, "id").and_then(|v| v.parse::<u64>().ok());
            match id.and_then(|id| fr.trace_json(id)) {
                Some(body) => ("200 OK", "application/json", body),
                None => (
                    "404 Not Found",
                    "text/plain; charset=utf-8",
                    "unknown or evicted request id; try /debug/trace?id=<id> with an id from /debug/requests\n"
                        .to_owned(),
                ),
            }
        }
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found; try /debug/requests, /debug/slow or /debug/trace?id=<id>\n".to_owned(),
        ),
    }
}

fn handle_conn(
    mut stream: TcpStream,
    registry: &StatsRegistry,
    flight: Option<&FlightRecorder>,
) -> std::io::Result<()> {
    let path = read_request_path(&mut stream)?;
    let path = path.as_deref().unwrap_or("");
    let (route, query) = match path.split_once('?') {
        Some((r, q)) => (r, q),
        None => (path, ""),
    };
    let (status, content_type, body) = match route {
        "/metrics" | "/" => {
            ("200 OK", PROMETHEUS_CONTENT_TYPE, prometheus_text(&registry.report()))
        }
        "/stats.json" => ("200 OK", "application/json", stats_json(&registry.report())),
        // Readiness probe: answering at all means the accept loop is up.
        "/healthz" => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_owned()),
        r if r.starts_with("/debug/") => debug_response(r, query, flight),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found; try /metrics, /stats.json, /healthz or /debug/requests\n".to_owned(),
        ),
    };
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Read up to the end of the request head and return the request path of a
/// GET line, or `None` for anything unparseable (answered with 404).
fn read_request_path(stream: &mut TcpStream) -> std::io::Result<Option<String>> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 8192 {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let line = head.lines().next().unwrap_or("");
    let mut parts = line.split_whitespace();
    match (parts.next(), parts.next()) {
        (Some("GET"), Some(path)) => Ok(Some(path.to_owned())),
        _ => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fetch(addr: SocketAddr, path: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_metrics_and_json_then_shuts_down() {
        let reg = Arc::new(StatsRegistry::new());
        reg.add("serve.test.hits", 7);
        reg.record_histogram("serve.test.lat_ns", 1000);
        let server = MetricsServer::start("127.0.0.1:0", Arc::clone(&reg)).unwrap();
        let addr = server.addr();

        let metrics = fetch(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"), "{metrics}");
        assert!(metrics.contains("text/plain; version=0.0.4"), "{metrics}");
        assert!(metrics.contains("dmml_serve_test_hits 7"), "{metrics}");
        assert!(metrics.contains("quantile=\"0.5\""), "{metrics}");

        let json = fetch(addr, "/stats.json");
        assert!(json.starts_with("HTTP/1.1 200 OK"), "{json}");
        assert!(json.contains("application/json"), "{json}");
        let body = json.split("\r\n\r\n").nth(1).unwrap();
        let parsed = crate::json::parse(body).expect("valid json");
        assert!(format!("{parsed:?}").contains("serve.test.hits"));

        let missing = fetch(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

        server.shutdown();
        // The port is released: connecting now fails (or is refused fast).
        assert!(
            TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err(),
            "listener should be closed after shutdown"
        );
    }

    #[test]
    fn reflects_live_registry_updates() {
        let reg = Arc::new(StatsRegistry::new());
        let server = MetricsServer::start("127.0.0.1:0", Arc::clone(&reg)).unwrap();
        let before = fetch(server.addr(), "/metrics");
        assert!(!before.contains("dmml_live_counter"), "{before}");
        reg.add("live.counter", 42);
        let after = fetch(server.addr(), "/metrics");
        assert!(after.contains("dmml_live_counter 42"), "{after}");
        server.shutdown();
    }

    #[test]
    fn debug_endpoints_serve_flight_recorder() {
        use crate::flightrec::{FlightRecorder, Phase, RequestRecord};

        let reg = Arc::new(StatsRegistry::new());
        let fr = Arc::new(FlightRecorder::new(16, Some(Duration::from_millis(1))));
        let id = fr.next_id();
        let mut rec = RequestRecord::new(id, "tenant-a");
        rec.total_ns = 5_000_000; // over the 1 ms bar → slow
        rec.phase_ns[Phase::Execute.index()] = 5_000_000;
        fr.record(rec);
        let server =
            MetricsServer::start_with_flight("127.0.0.1:0", reg, Some(Arc::clone(&fr))).unwrap();
        let addr = server.addr();

        let reqs = fetch(addr, "/debug/requests?n=4");
        assert!(reqs.starts_with("HTTP/1.1 200 OK"), "{reqs}");
        assert!(reqs.contains("application/json"), "{reqs}");
        let body = reqs.split("\r\n\r\n").nth(1).unwrap();
        let parsed = crate::json::parse(body).expect("valid json");
        let arr = parsed.get("requests").and_then(|j| j.as_arr()).unwrap();
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].get("tenant").and_then(|j| j.as_str()), Some("tenant-a"));

        let slow = fetch(addr, "/debug/slow");
        assert!(slow.starts_with("HTTP/1.1 200 OK"), "{slow}");
        let body = slow.split("\r\n\r\n").nth(1).unwrap();
        let parsed = crate::json::parse(body).expect("valid json");
        assert_eq!(parsed.get("slow").and_then(|j| j.as_arr()).map(<[_]>::len), Some(1));

        // Captured id renders a (possibly empty) Chrome trace; unknown 404s.
        let trace = fetch(addr, &format!("/debug/trace?id={id}"));
        assert!(trace.starts_with("HTTP/1.1 200 OK"), "{trace}");
        assert!(trace.contains("traceEvents"), "{trace}");
        let missing = fetch(addr, "/debug/trace?id=999999");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        let bad = fetch(addr, "/debug/nope");
        assert!(bad.starts_with("HTTP/1.1 404"), "{bad}");
        server.shutdown();
    }

    #[test]
    fn debug_endpoints_404_without_recorder() {
        let reg = Arc::new(StatsRegistry::new());
        let server = MetricsServer::start("127.0.0.1:0", reg).unwrap();
        let resp = fetch(server.addr(), "/debug/requests");
        assert!(resp.starts_with("HTTP/1.1 404"), "{resp}");
        server.shutdown();
    }

    #[test]
    fn from_env_is_none_when_unset() {
        // Serial with other env tests via the process-global var name choice:
        // this test only asserts the unset path and does not set the var.
        std::env::remove_var(METRICS_ADDR_ENV);
        let reg = Arc::new(StatsRegistry::new());
        assert!(MetricsServer::from_env(reg).is_none());
    }
}
