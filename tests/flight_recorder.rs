//! End-to-end acceptance for the per-request flight recorder (ISSUE 10):
//! a scored request leaves a `/debug/requests` record whose per-phase
//! latency attribution accounts for its wall time, a deliberately-slow
//! request (threshold forced to 1 ns) is retained in `/debug/slow`, its
//! retained span buffer renders as a loadable, well-nested Chrome trace on
//! `/debug/trace?id=`, and the `serve.phase.*` histograms appear on a live
//! `/metrics` scrape — all without restarting the server or setting
//! `DMML_TRACE`.

use dmml::obs::flightrec::RequestRecord;
use dmml::obs::json;
use dmml::obs::serve::MetricsServer;
use dmml::obs::StatsRegistry;
use dmml::serve::{Request, Response, ScoreResult, ScoringClient, ScoringServer, ServeConfig};
use std::io::{Read as _, Write as _};
use std::sync::Arc;
use std::time::Duration;

const PROGRAM: &str = "sum(t(X) %*% (X + X))";
const N: usize = 60;
const D: usize = 7;

fn score_req(tenant: &str) -> Request {
    let data: Vec<f64> = (0..N * D).map(|i| ((i * 13) % 17) as f64 * 0.31 - 2.0).collect();
    Request::score(tenant, PROGRAM).matrix("X", N, D, data)
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").unwrap();
    let mut buf = String::new();
    s.read_to_string(&mut buf).unwrap();
    let (head, body) = buf.split_once("\r\n\r\n").expect("HTTP response has a header block");
    (head.to_owned(), body.to_owned())
}

/// The record of a request the client already has the response to. The
/// record is deposited just after the response frame is flushed, so the
/// client can observe the response first — poll briefly.
fn recorded(server: &ScoringServer, rid: u64) -> Result<Arc<RequestRecord>, String> {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(r) = server.flight().get(rid) {
            return Ok(r);
        }
        if std::time::Instant::now() > deadline {
            return Err(format!("rid {rid} never recorded"));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Every `B` must close with a matching `E` per tid — the structural
/// property Perfetto needs to render the timeline.
fn assert_loadable_chrome_trace(doc: &json::Json) -> usize {
    let events = doc.get("traceEvents").and_then(|e| e.as_arr()).expect("traceEvents array");
    let mut open: std::collections::HashMap<i64, Vec<String>> = std::collections::HashMap::new();
    for ev in events {
        let ph = ev.get("ph").and_then(|p| p.as_str()).expect("ph present");
        let tid = ev.get("tid").and_then(|t| t.as_f64()).expect("tid present") as i64;
        match ph {
            "B" => {
                let name = ev.get("name").and_then(|n| n.as_str()).unwrap().to_owned();
                open.entry(tid).or_default().push(name);
            }
            "E" => {
                let name = ev.get("name").and_then(|n| n.as_str()).unwrap();
                assert_eq!(
                    open.entry(tid).or_default().pop().as_deref(),
                    Some(name),
                    "E matches innermost open B"
                );
            }
            _ => {}
        }
    }
    for (tid, o) in &open {
        assert!(o.is_empty(), "unclosed spans on tid {tid}: {o:?}");
    }
    events.len()
}

#[test]
fn slow_request_is_captured_with_phases_and_chrome_trace() {
    let registry = Arc::new(StatsRegistry::new());
    let mut cfg = ServeConfig::for_tests();
    // Everything is "slow" against a 1 ns bar: the deliberate slow request.
    cfg.slow_threshold = Some(Duration::from_nanos(1));
    let server = ScoringServer::start(cfg, Arc::clone(&registry)).unwrap();
    let metrics = MetricsServer::start_with_flight(
        "127.0.0.1:0",
        Arc::clone(&registry),
        Some(server.flight()),
    )
    .unwrap();

    // Score twice: a cold compile and a plan-cache hit, so both signatures
    // land in the recorder.
    let mut c = ScoringClient::connect(server.addr()).unwrap();
    let (resp, rid) = c.request_with_rid(&score_req("acme")).unwrap();
    let rid = rid.expect("server assigns request ids");
    assert!(matches!(resp, Response::Score { result: ScoreResult::Scalar(_), .. }), "{resp:?}");
    let (resp2, rid2) = c.request_with_rid(&score_req("acme")).unwrap();
    let rid2 = rid2.unwrap();
    assert!(rid2 > rid, "request ids are dense and increasing");
    let Response::Score { cache_hit: true, .. } = resp2 else {
        panic!("identical repeat must hit the plan cache, got {resp2:?}");
    };

    // /debug/requests: both records present, phases attributed. The record
    // is deposited just after the response frame is flushed, so the client
    // can observe the response before the recorder does — poll briefly.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let (head, body) = loop {
        let (head, body) = http_get(metrics.addr(), "/debug/requests?n=8");
        let both = [rid, rid2].iter().all(|id| body.contains(&format!("\"id\":{id},")));
        if both || std::time::Instant::now() > deadline {
            break (head, body);
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(head.contains("200 OK"), "{head}");
    assert!(head.contains("application/json"), "{head}");
    // The phase sum must account for at least 90% of the recorded wall
    // time — the acceptance bar for "no unattributed gap".
    let doc = json::parse(&body).expect("debug/requests parses");
    let reqs = doc.get("requests").and_then(|r| r.as_arr()).expect("requests array");
    let find = |id: u64| {
        reqs.iter()
            .find(|r| r.get("id").and_then(|v| v.as_f64()) == Some(id as f64))
            .unwrap_or_else(|| panic!("rid {id} missing from /debug/requests: {body}"))
    };
    let rec = find(rid);
    assert_eq!(rec.get("tenant").and_then(|t| t.as_str()), Some("acme"));
    assert_eq!(rec.get("cache_hit"), Some(&json::Json::Bool(false)), "{body}");
    assert_eq!(find(rid2).get("cache_hit"), Some(&json::Json::Bool(true)), "{body}");
    let total = rec.get("total_ns").and_then(|t| t.as_f64()).unwrap();
    let phase_sum = rec.get("phase_sum_ns").and_then(|t| t.as_f64()).unwrap();
    assert!(total > 0.0);
    assert!(phase_sum <= total * 1.1, "phases cannot exceed wall time: {body}");
    // The phase sum must account for at least 90% of the recorded wall
    // time — the acceptance bar for "no unattributed gap". A preemption
    // between two phase timers charges the gap to neither, so on a loaded
    // test box any single request can miss the bar; require that a fresh
    // request achieves it rather than betting on one sample.
    let mut best_ratio: f64 = phase_sum / total;
    for _ in 0..20 {
        if best_ratio >= 0.9 {
            break;
        }
        let (_, rid_n) = c.request_with_rid(&score_req("acme")).unwrap();
        let rid_n = rid_n.unwrap();
        let rec_n = recorded(&server, rid_n).unwrap_or_else(|e| panic!("{e}"));
        best_ratio = best_ratio.max(rec_n.phase_sum_ns() as f64 / rec_n.total_ns as f64);
    }
    assert!(
        best_ratio >= 0.9,
        "no request achieved >=90% phase attribution (best {best_ratio:.3}): {body}"
    );
    let phases = rec.get("phases").expect("phases object");
    for name in ["decode", "cache_lookup", "compile", "execute", "encode"] {
        let ns = phases.get(name).and_then(|v| v.as_f64());
        assert!(ns.is_some(), "phase {name} missing: {body}");
    }
    assert!(
        phases.get("compile").and_then(|v| v.as_f64()).unwrap() > 0.0,
        "cold request compiled: {body}"
    );

    // /debug/slow: with the 1 ns bar, both requests are retained, worst
    // first, and the threshold is reported as explicit (not self-tuned).
    let (head, body) = http_get(metrics.addr(), "/debug/slow");
    assert!(head.contains("200 OK"), "{head}");
    let doc = json::parse(&body).expect("debug/slow parses");
    assert_eq!(doc.get("threshold_ns").and_then(|t| t.as_f64()), Some(1.0), "{body}");
    assert_eq!(doc.get("self_tuned"), Some(&json::Json::Bool(false)), "{body}");
    let slow = doc.get("slow").and_then(|s| s.as_arr()).expect("slow array");
    assert!(slow.len() >= 2, "every request exceeds 1 ns: {body}");
    let totals: Vec<f64> =
        slow.iter().map(|r| r.get("total_ns").and_then(|t| t.as_f64()).unwrap()).collect();
    assert!(totals.windows(2).all(|w| w[0] >= w[1]), "slow ring is worst-first: {totals:?}");

    // /debug/trace?id=: one connected, loadable Chrome timeline for the
    // cold request — the request root span plus its phase spans, and the
    // executor's per-node spans nested under the execute phase.
    let (head, body) = http_get(metrics.addr(), &format!("/debug/trace?id={rid}"));
    assert!(head.contains("200 OK"), "{head}");
    let doc = json::parse(&body).expect("debug/trace parses");
    let n_events = assert_loadable_chrome_trace(&doc);
    assert!(n_events > 0, "retained span buffer is non-empty");
    let names: Vec<&str> = doc
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .unwrap()
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("B"))
        .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
        .collect();
    assert!(names.contains(&"serve.request"), "root span present: {names:?}");
    for site in ["serve.phase.decode", "serve.phase.compile", "serve.phase.execute"] {
        assert!(names.contains(&site), "{site} span present: {names:?}");
    }
    assert!(
        names.iter().any(|n| n.starts_with("exec.")),
        "executor spans nest inside the request timeline: {names:?}"
    );
    // An id the recorder never issued 404s.
    let (head, _) = http_get(metrics.addr(), "/debug/trace?id=999999999");
    assert!(head.contains("404"), "{head}");

    // Live /metrics: the per-phase histogram family is exposed.
    let (_, scrape) = http_get(metrics.addr(), "/metrics");
    for family in
        ["dmml_serve_phase_decode", "dmml_serve_phase_compile", "dmml_serve_phase_execute"]
    {
        assert!(scrape.contains(family), "missing {family} in scrape: {scrape}");
    }

    metrics.shutdown();
    server.shutdown();
}

/// Without an explicit threshold the recorder self-tunes: nothing is slow
/// until a latency distribution exists, and the `/debug/slow` body says so.
#[test]
fn self_tuned_threshold_reports_absent_before_samples() {
    let registry = Arc::new(StatsRegistry::new());
    let server = ScoringServer::start(ServeConfig::for_tests(), Arc::clone(&registry)).unwrap();
    let metrics = MetricsServer::start_with_flight(
        "127.0.0.1:0",
        Arc::clone(&registry),
        Some(server.flight()),
    )
    .unwrap();
    let mut c = ScoringClient::connect(server.addr()).unwrap();
    c.ping("acme").unwrap();
    let (head, body) = http_get(metrics.addr(), "/debug/slow");
    assert!(head.contains("200 OK"), "{head}");
    let doc = json::parse(&body).expect("debug/slow parses");
    assert_eq!(doc.get("threshold_ns"), Some(&json::Json::Null), "{body}");
    assert_eq!(doc.get("self_tuned"), Some(&json::Json::Bool(true)), "{body}");
    metrics.shutdown();
    server.shutdown();
}

/// Two servers in one process both hand out rids from 1 while sharing the
/// process-global trace buffers. Each request's retained trace must hold
/// its own executor spans and none of the other server's — a trace id
/// derived from the rid let whichever request finished first drain the
/// other's spans mid-flight.
#[test]
fn servers_sharing_a_process_keep_their_span_trees_apart() {
    // One program per server, told apart by an executor span only it opens.
    // Under `max` the unary runs its own step (under `sum` it would fuse).
    let sides = [("max(exp(X))", "exec.exp", "exec.abs"), ("max(abs(X))", "exec.abs", "exec.exp")];
    let servers = [0, 1].map(|_| {
        ScoringServer::start(ServeConfig::for_tests(), Arc::new(StatsRegistry::new())).unwrap()
    });
    let barrier = std::sync::Barrier::new(2);
    // Both sides issue request k at the same moment, so the two servers hold
    // the same rid in flight together. A failed round is noted, never a
    // panic: the other side is waiting at the barrier.
    let side = |server: &ScoringServer, (program, own, foreign): (&str, &str, &str)| {
        let data: Vec<f64> = (0..N * D).map(|i| (i % 5) as f64 * 0.25).collect();
        let req = Request::score("acme", program).matrix("X", N, D, data);
        let mut client = ScoringClient::connect(server.addr()).unwrap();
        let mut problems = Vec::new();
        for round in 1..=40 {
            barrier.wait();
            let rec = client
                .request_with_rid(&req)
                .and_then(|(_, rid)| rid.ok_or_else(|| "no rid".to_owned()))
                .and_then(|rid| recorded(server, rid));
            match rec {
                Ok(rec) => {
                    let names: Vec<&str> = rec.events.iter().map(|e| &*e.name).collect();
                    if rec.id != round || !names.contains(&own) || names.contains(&foreign) {
                        problems.push(format!("{program} round {round} rid {}: {names:?}", rec.id));
                    }
                }
                Err(e) => problems.push(format!("{program} round {round}: {e}")),
            }
        }
        problems
    };
    let problems = std::thread::scope(|scope| {
        let other = scope.spawn(|| side(&servers[1], sides[1]));
        let mut problems = side(&servers[0], sides[0]);
        problems.extend(other.join().expect("client thread"));
        problems
    });
    for server in servers {
        server.shutdown();
    }
    assert!(
        problems.is_empty(),
        "a trace lacks its own exec span or holds the other's: {problems:#?}"
    );
}
