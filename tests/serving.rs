//! End-to-end acceptance for the multi-tenant scoring server (ISSUE 9):
//! two concurrent tenants get results bit-identical to direct `Executor`
//! evaluation, the second identical request is a plan-cache hit (visible
//! on the `serve.plan_cache.hit` counter), an over-budget request is
//! admitted with `Kernel::Blocked` kernels instead of being rejected, and
//! everything is observable on a live `/metrics` scrape with per-tenant
//! latency quantiles. ISSUE 14 adds the slab wire layout: a wide scoring
//! sent as raw `f64`s equals both direct evaluation and the same request
//! sent as hand-written JSON text, a JSON client is answered in JSON, and
//! the layout switches exactly at the size threshold.

use dmml::lang::exec::{Env, Executor};
use dmml::lang::parser;
use dmml::lang::physical::{plan, Kernel, PlanOptions};
use dmml::lang::size::InputSizes;
use dmml::matrix::{Dense, Matrix};
use dmml::obs::flightrec::RequestRecord;
use dmml::obs::serve::MetricsServer;
use dmml::obs::StatsRegistry;
use dmml::serve::protocol::{decode_response, encode_request};
use dmml::serve::{Request, Response, ScoreResult, ScoringClient, ScoringServer, ServeConfig};
use std::io::{Read as _, Write as _};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PROGRAM: &str = "sum(t(X) %*% (X + X))";
const N: usize = 60;
const D: usize = 7;

fn x_data(seed: usize) -> Vec<f64> {
    (0..N * D).map(|i| ((i * 13 + seed * 7) % 17) as f64 * 0.31 - 2.0).collect()
}

/// What the server should compute, evaluated directly (no server, no
/// cache): the reference for bit-identity.
fn direct_eval(seed: usize) -> f64 {
    let (graph, root) = parser::parse(PROGRAM).unwrap();
    let mut sizes = InputSizes::new();
    sizes.declare("X", N, D, 1.0);
    let plan = plan(&graph, root, &PlanOptions::new(&sizes)).unwrap();
    let mut env = Env::new();
    env.bind("X", Matrix::Dense(Dense::from_vec(N, D, x_data(seed)).unwrap()));
    let got = Executor::with_plan(&graph, plan).eval(root, &env).unwrap();
    got.as_scalar().unwrap()
}

fn score_req(tenant: &str, seed: usize) -> Request {
    Request::score(tenant, PROGRAM).matrix("X", N, D, x_data(seed))
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").unwrap();
    let mut buf = String::new();
    s.read_to_string(&mut buf).unwrap();
    buf
}

/// The tentpole acceptance test.
#[test]
fn two_tenants_bit_identical_with_cache_hit_and_live_metrics() {
    let registry = Arc::new(StatsRegistry::new());
    let server = ScoringServer::start(ServeConfig::for_tests(), Arc::clone(&registry)).unwrap();
    let metrics = MetricsServer::start("127.0.0.1:0", Arc::clone(&registry)).unwrap();

    // Two tenants scoring concurrently over their own connections.
    let addr = server.addr();
    let handles: Vec<_> = [("acme", 1usize), ("globex", 2usize)]
        .into_iter()
        .map(|(tenant, seed)| {
            std::thread::spawn(move || {
                let mut c = ScoringClient::connect(addr).unwrap();
                c.ping(tenant).unwrap();
                let resp = c.request(&score_req(tenant, seed)).unwrap();
                (tenant, seed, resp)
            })
        })
        .collect();
    for h in handles {
        let (tenant, seed, resp) = h.join().unwrap();
        let Response::Score { result: ScoreResult::Scalar(got), blocked_nodes, .. } = resp else {
            panic!("{tenant}: expected scalar score, got {resp:?}");
        };
        assert_eq!(
            got.to_bits(),
            direct_eval(seed).to_bits(),
            "{tenant}: served result must be bit-identical to direct evaluation"
        );
        assert_eq!(blocked_nodes, 0);
    }

    // A repeat of an identical request (same program, same size class)
    // must hit the plan cache.
    let (hits_before, _, _) = server.plan_cache_stats();
    let mut c = ScoringClient::connect(addr).unwrap();
    let Response::Score { cache_hit, result: ScoreResult::Scalar(got), .. } =
        c.request(&score_req("acme", 1)).unwrap()
    else {
        panic!("expected scalar score");
    };
    assert!(cache_hit, "identical repeat request must be a plan-cache hit");
    assert_eq!(got.to_bits(), direct_eval(1).to_bits(), "hit path changed the result");
    let (hits_after, misses, _) = server.plan_cache_stats();
    assert!(hits_after > hits_before, "cache hit counter must advance");
    assert!(misses >= 1, "first compile was a miss");

    // Live /metrics: plan-cache counters and per-tenant latency quantiles.
    let scrape = http_get(metrics.addr(), "/metrics");
    assert!(scrape.contains("dmml_serve_plan_cache_hit"), "{scrape}");
    assert!(scrape.contains("dmml_serve_plan_cache_miss"), "{scrape}");
    assert!(scrape.contains("dmml_serve_requests"), "{scrape}");
    for tenant in ["acme", "globex"] {
        let family = format!("dmml_serve_tenant_{tenant}_latency_ns");
        assert!(
            scrape.contains(&format!("{family}{{quantile=\"0.99\"}}")),
            "missing per-tenant p99 for {tenant}: {scrape}"
        );
    }
    // /healthz answers on the same endpoint.
    assert!(http_get(metrics.addr(), "/healthz").contains("ok"));

    metrics.shutdown();
    server.shutdown();
}

/// Over-budget requests degrade to blocked (out-of-core) kernels and are
/// admitted — not rejected, not OOMing neighbors.
#[test]
fn over_budget_request_is_admitted_as_blocked() {
    let registry = Arc::new(StatsRegistry::new());
    let mut cfg = ServeConfig::for_tests();
    // Budget far below the ~1.3 MB working set of a 120x120 chain: the
    // planner must certify-and-block, and the ledger must admit it.
    cfg.budget = dmml::lang::memory::MemoryBudget::bytes(96 * 1024);
    let server = ScoringServer::start(cfg, Arc::clone(&registry)).unwrap();

    let n = 120;
    let data: Vec<f64> = (0..n * n).map(|i| ((i % 13) as f64) * 0.5 - 3.0).collect();
    let req = Request::score("bigco", "sum(X %*% X)").matrix("X", n, n, data.clone());
    let mut c = ScoringClient::connect(server.addr()).unwrap();
    let resp = c.request(&req).unwrap();
    let Response::Score { result: ScoreResult::Scalar(got), blocked_nodes, .. } = resp else {
        panic!("over-budget request must succeed, got {resp:?}");
    };
    assert!(blocked_nodes > 0, "over-budget plan must carry Kernel::Blocked nodes");

    // The same plan, compiled directly under the same budget, agrees both
    // on the kernel choice and on the value, bit for bit.
    let (graph, root) = parser::parse("sum(X %*% X)").unwrap();
    let mut sizes = InputSizes::new();
    sizes.declare("X", n, n, 1.0);
    let budget = dmml::lang::memory::MemoryBudget::bytes(96 * 1024);
    let plan = plan(&graph, root, &PlanOptions { budget, ..PlanOptions::new(&sizes) }).unwrap();
    assert!(!plan.nodes_with(Kernel::Blocked).is_empty());
    let mut env = Env::new();
    env.bind("X", Matrix::Dense(Dense::from_vec(n, n, data).unwrap()));
    let want = Executor::with_plan(&graph, plan).eval(root, &env).unwrap().as_scalar().unwrap();
    assert_eq!(got.to_bits(), want.to_bits(), "blocked serving path changed the result");

    // Admission accounting saw the tenant.
    let usage = server.ledger().session_usage("bigco").expect("tenant was admitted");
    assert_eq!(usage.admitted, 1);
    assert!(usage.peak_bytes > 0);
    server.shutdown();
}

/// Micro-batching correctness: concurrent vector scorings against the
/// same model coalesce (or not, depending on timing) and each participant
/// gets exactly its own result column. A request that did NOT coalesce is
/// bit-identical to direct gemv; one that did ran through the stacked
/// gemm kernel, whose summation order may differ from gemv by ulps — so
/// batched results are checked against direct evaluation with a tight
/// relative tolerance instead (see `crates/serve/src/batch.rs` docs).
#[test]
fn batched_scoring_matches_direct_evaluation() {
    let registry = Arc::new(StatsRegistry::new());
    let mut cfg = ServeConfig::for_tests();
    cfg.batch_deadline = std::time::Duration::from_millis(50);
    let server = ScoringServer::start(cfg, Arc::clone(&registry)).unwrap();
    let addr = server.addr();

    let n = 24usize;
    let w: Vec<f64> = (0..n * n).map(|i| ((i * 11) % 19) as f64 * 0.23 - 1.7).collect();
    let vec_for = |seed: usize| -> Vec<f64> {
        (0..n).map(|i| ((i * 7 + seed * 3) % 13) as f64 * 0.41 - 2.0).collect()
    };
    let direct = |seed: usize| -> Vec<f64> {
        let (graph, root) = parser::parse("W %*% x").unwrap();
        let mut env = Env::new();
        env.bind("W", Matrix::Dense(Dense::from_vec(n, n, w.clone()).unwrap()));
        env.bind("x", Matrix::Dense(Dense::from_vec(n, 1, vec_for(seed)).unwrap()));
        let v = Executor::new(&graph).eval(root, &env).unwrap();
        v.as_dense().unwrap().data().to_vec()
    };

    let handles: Vec<_> = (0..4usize)
        .map(|seed| {
            let w = w.clone();
            let x = vec_for(seed);
            std::thread::spawn(move || {
                let mut c = ScoringClient::connect(addr).unwrap();
                let req = Request::score(&format!("tenant-{seed}"), "W %*% x")
                    .matrix("W", n, n, w)
                    .matrix("x", n, 1, x)
                    .batched();
                (seed, c.request(&req).unwrap())
            })
        })
        .collect();
    for h in handles {
        let (seed, resp) = h.join().unwrap();
        let Response::Score { result: ScoreResult::Matrix { rows, cols, data }, batched, .. } =
            resp
        else {
            panic!("expected matrix result, got {resp:?}");
        };
        assert_eq!((rows, cols), (n, 1));
        let want = direct(seed);
        if batched {
            // Coalesced: went through the stacked gemm kernel. Same math
            // as gemv, different summation tree — ulp-level agreement.
            for (i, (g, w)) in data.iter().zip(&want).enumerate() {
                let scale = w.abs().max(1.0);
                assert!(
                    (g - w).abs() <= 1e-12 * scale,
                    "batched result drifted beyond ulps at row {i} for seed {seed}: {g} vs {w}"
                );
            }
        } else {
            // Solo path: must be bit-identical to direct evaluation.
            assert_eq!(
                data.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "solo result differs from direct gemv for seed {seed}"
            );
        }
    }
    server.shutdown();
}

/// The flight record of a request whose response the client already holds
/// (the record lands just after the response is flushed — poll briefly).
fn recorded(server: &ScoringServer, rid: u64) -> Arc<RequestRecord> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(rec) = server.flight().get(rid) {
            return rec;
        }
        assert!(Instant::now() < deadline, "rid {rid} never recorded");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn bits(data: &[f64]) -> Vec<u64> {
    data.iter().map(|v| v.to_bits()).collect()
}

/// The wide scoring of `serve_wide_hot`, three ways: `ScoringClient` (which
/// sends 64x2048 values as a slab frame), a raw socket speaking only JSON
/// text, and the executor with no server at all. All three agree bit for
/// bit, and each client is answered in the layout it spoke.
#[test]
fn wide_scoring_agrees_across_slab_text_and_direct_evaluation() {
    let (rows, cols) = (64usize, 2048usize);
    // Awkward values on purpose: full mantissas, a subnormal, a negative zero.
    let mut x: Vec<f64> =
        (0..rows * cols).map(|i| ((i * 2654435761) % 1000003) as f64 / 7919.0 - 63.0).collect();
    x[5] = f64::MIN_POSITIVE / 8.0;
    x[6] = -0.0;
    let v: Vec<f64> = (0..cols).map(|i| ((i * 40503) % 9973) as f64 / 1237.0 - 4.0).collect();
    let req = Request::score("wide", "X %*% v").matrix("X", rows, cols, x.clone()).matrix(
        "v",
        cols,
        1,
        v.clone(),
    );

    let (graph, root) = parser::parse("X %*% v").unwrap();
    let mut env = Env::new();
    env.bind("X", Matrix::Dense(Dense::from_vec(rows, cols, x).unwrap()));
    env.bind("v", Matrix::Dense(Dense::from_vec(cols, 1, v).unwrap()));
    let direct = Executor::new(&graph).eval(root, &env).unwrap().as_dense().unwrap();

    let server =
        ScoringServer::start(ServeConfig::for_tests(), Arc::new(StatsRegistry::new())).unwrap();
    let mut client = ScoringClient::connect(server.addr()).unwrap();
    let (resp, rid) = client.request_with_rid(&req).unwrap();
    let Response::Score { result: ScoreResult::Matrix { data: via_slab, .. }, .. } = resp else {
        panic!("expected a matrix score, got {resp:?}");
    };
    assert_eq!(bits(&via_slab), bits(direct.data()), "slab path differs from direct evaluation");
    let slab_rec = recorded(&server, rid.expect("responses carry a rid"));
    assert_eq!(slab_rec.layout, "slab");
    assert!(
        (slab_rec.bytes_in as usize) < 8 * (rows * cols + cols) + 512,
        "a slab request is its values plus a small header, not {} bytes",
        slab_rec.bytes_in
    );

    // A client that knows nothing of slabs: length prefix + JSON text.
    let text = encode_request(&req);
    let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
    raw.write_all(&(text.len() as u32).to_be_bytes()).unwrap();
    raw.write_all(text.as_bytes()).unwrap();
    let mut len = [0u8; 4];
    raw.read_exact(&mut len).unwrap();
    let mut reply = vec![0u8; u32::from_be_bytes(len) as usize];
    raw.read_exact(&mut reply).unwrap();
    let reply = String::from_utf8(reply).expect("a text request is answered in text");
    assert!(reply.starts_with("{\"ok\":true,\"kind\":\"matrix\""), "{reply}");
    let Response::Score { result: ScoreResult::Matrix { data: via_text, .. }, cache_hit, .. } =
        decode_response(&reply).unwrap()
    else {
        panic!("expected a matrix score, got {reply}");
    };
    assert_eq!(bits(&via_text), bits(&via_slab), "text and slab requests scored differently");
    assert!(cache_hit, "both layouts decode to the same request, hence the same plan key");
    let text_rid = dmml::serve::protocol::response_rid(&reply).unwrap();
    let text_rec = recorded(&server, text_rid);
    assert_eq!(text_rec.layout, "text");
    assert_eq!(text_rec.bytes_in as usize, text.len());
    assert_eq!(text_rec.plan_key, slab_rec.plan_key);

    drop((client, raw));
    server.shutdown();
}

/// The layout is a function of the request's size and nothing else: one
/// value under the threshold travels as text, one at it as a slab.
#[test]
fn layout_switches_at_the_size_threshold() {
    // `SLAB_MIN_ELEMS` in crates/serve/src/protocol.rs (private there).
    const SLAB_MIN_ELEMS: usize = 16_384;
    let server =
        ScoringServer::start(ServeConfig::for_tests(), Arc::new(StatsRegistry::new())).unwrap();
    let mut client = ScoringClient::connect(server.addr()).unwrap();
    let mut record_of = |elems: usize| {
        let req = Request::score("edge", "sum(X)").matrix("X", 1, elems, vec![1.0; elems]);
        let (resp, rid) = client.request_with_rid(&req).unwrap();
        let Response::Score { result: ScoreResult::Scalar(sum), .. } = resp else {
            panic!("expected a scalar score, got {resp:?}");
        };
        assert_eq!(sum, elems as f64);
        recorded(&server, rid.unwrap())
    };
    let under = record_of(SLAB_MIN_ELEMS - 1);
    assert_eq!(under.layout, "text");
    // "1," per value, and nothing like 8 bytes each.
    assert!((under.bytes_in as usize) < 3 * SLAB_MIN_ELEMS, "{}", under.bytes_in);
    let at = record_of(SLAB_MIN_ELEMS);
    assert_eq!(at.layout, "slab");
    let overhead = at.bytes_in as usize - 8 * SLAB_MIN_ELEMS;
    assert!(overhead < 256, "slab request = 8 bytes per value + a small header, not +{overhead}");
    drop(client);
    server.shutdown();
}

/// An idle client does not hold up shutdown: a connection waiting between
/// frames notices the stop flag within a poll interval instead of sitting
/// out the 60 s stall timeout. A client that pauses between frames for
/// several poll intervals is still served.
#[test]
fn shutdown_with_an_idle_client_connected_returns_promptly() {
    let server =
        ScoringServer::start(ServeConfig::for_tests(), Arc::new(StatsRegistry::new())).unwrap();
    let mut paused = ScoringClient::connect(server.addr()).unwrap();
    paused.ping("acme").unwrap();
    std::thread::sleep(Duration::from_millis(300));
    paused.ping("acme").unwrap();

    // Both connections now wait for their next frame on a worker.
    let _idle = std::net::TcpStream::connect(server.addr()).unwrap();
    std::thread::sleep(Duration::from_millis(200));
    let t = Instant::now();
    server.shutdown();
    let took = t.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?} with idle clients connected");
}
