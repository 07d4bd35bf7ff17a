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
use dmml::lang::physical::{Kernel, PlanOptions};
use dmml::lang::size::InputSizes;
use dmml::lang::CompiledProgram;
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
    let plan = CompiledProgram::new(graph.clone(), root, &PlanOptions::new(&sizes)).unwrap().plan;
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
    let plan = CompiledProgram::new(
        graph.clone(),
        root,
        &PlanOptions { budget, ..PlanOptions::new(&sizes) },
    )
    .unwrap()
    .plan;
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

/// Program text that would exhaust a worker's stack — nesting far past the
/// parser's depth limit, or a sum of more terms than its node limit — is
/// answered as a bad request, and the server goes on scoring.
#[test]
fn hostile_program_text_is_a_bad_request() {
    let server =
        ScoringServer::start(ServeConfig::for_tests(), Arc::new(StatsRegistry::new())).unwrap();
    let deep = format!("{}X{}", "(".repeat(100_000), ")".repeat(100_000));
    let long = vec!["X"; 200_000].join(" + ");
    for (program, why) in [(deep, "nesting deeper than 128"), (long, "more than 256 nodes")] {
        let mut c = ScoringClient::connect(server.addr()).unwrap();
        let req = Request::score("acme", &program).matrix("X", N, D, x_data(1));
        match c.request(&req).unwrap() {
            Response::Error { error } => {
                assert!(error.starts_with("bad request: ") && error.contains(why), "{error}")
            }
            other => panic!("expected a bad request for {why}, got {other:?}"),
        }
        let mut next = ScoringClient::connect(server.addr()).unwrap();
        let Response::Score { result: ScoreResult::Scalar(got), .. } =
            next.request(&score_req("acme", 1)).unwrap()
        else {
            panic!("the next request must be scored");
        };
        assert_eq!(got.to_bits(), direct_eval(1).to_bits());
    }
    server.shutdown();
}

/// Micro-batching: clients released together against one model coalesce
/// into one stacked product (the test asserts a group formed), and each
/// participant's column is bit-identical to direct evaluation of its own
/// `W %*% x`, batched or not, because column `j` of `W %*% [x1 .. xk]` runs
/// the chain of the product against `xj` alone. Once with a dense `W`
/// (gemv solo, gemm stacked) and once with a `W` sparse enough for the
/// plan's sparse kernels (spmv solo, spmm_dense stacked). Both run on a
/// server with an unbounded budget and on one whose budget blocks the
/// stacked dense product: the group is admitted once, for one of its
/// tenants, at the certified peak of the stacked program it runs, which the
/// leader's flight record shows.
#[test]
fn batched_scoring_matches_direct_evaluation() {
    const CLIENTS: usize = 4;
    let n = 24usize;
    let dense_w: Vec<f64> = (0..n * n).map(|i| ((i * 11) % 19) as f64 * 0.23 - 1.7).collect();
    // One entry in 13 kept: under 8 % non-zero, below the sparse threshold.
    let sparse_w: Vec<f64> =
        dense_w.iter().enumerate().map(|(i, &w)| if i % 13 == 0 { w } else { 0.0 }).collect();
    let vec_for = |seed: usize| -> Vec<f64> {
        (0..n).map(|i| ((i * 7 + seed * 3) % 13) as f64 * 0.41 - 2.0).collect()
    };
    let model = dmml::lang::CostModel::new(dmml::obs::profile::ProfileStore::new());
    // The plan the server compiles for one request under `budget` (degree 1,
    // as `ServeConfig::for_tests`), and that plan again with `x` stacked
    // `n x CLIENTS`, as a leader plans it.
    let plans = |w: &[f64], budget| {
        let (graph, root) = parser::parse("W %*% x").unwrap();
        let mut sizes = InputSizes::new();
        let nnz = w.iter().filter(|&&v| v != 0.0).count();
        sizes.declare("W", n, n, nnz as f64 / w.len() as f64).declare("x", n, 1, 1.0);
        let solo =
            dmml::lang::cache::compile_graph(&graph, root, &sizes, 1, budget, &model).unwrap();
        sizes.declare("x", n, CLIENTS, 1.0);
        let opts = PlanOptions { budget, cost: Some(&model), ..PlanOptions::new(&sizes) };
        let stacked = CompiledProgram::new(solo.graph.clone(), solo.root, &opts).unwrap();
        (solo, stacked)
    };
    let direct = |solo: &CompiledProgram, w: &[f64], seed: usize| -> Vec<f64> {
        let mut env = Env::new();
        env.bind("W", Matrix::Dense(Dense::from_vec(n, n, w.to_vec()).unwrap()));
        env.bind("x", Matrix::Dense(Dense::from_vec(n, 1, vec_for(seed)).unwrap()));
        let v = Executor::with_plan(&solo.graph, solo.plan.clone()).eval(solo.root, &env).unwrap();
        v.as_dense().unwrap().data().to_vec()
    };

    let bounded = dmml::lang::memory::MemoryBudget::bytes(5 << 10);
    for budget in [dmml::lang::memory::MemoryBudget::unbounded(), bounded] {
        let registry = Arc::new(StatsRegistry::new());
        let mut cfg = ServeConfig::for_tests();
        // A full group flushes at once; the deadline only has to outlast the
        // clients' arrival after the barrier.
        cfg.batch_deadline = Duration::from_secs(10);
        cfg.batch_max = CLIENTS;
        cfg.budget = budget;
        let server = ScoringServer::start(cfg, Arc::clone(&registry)).unwrap();
        let addr = server.addr();
        let batched_requests = registry.counter("serve.batch.batched_requests");
        for (w, kernel) in [(&dense_w, Kernel::Dense), (&sparse_w, Kernel::Sparse)] {
            let (solo, stacked) = plans(w, budget);
            assert_eq!(solo.plan.kernel(solo.root) == Kernel::Sparse, kernel == Kernel::Sparse);
            if kernel == Kernel::Dense && budget == bounded {
                assert_eq!(stacked.plan.kernel(stacked.root), Kernel::Blocked);
            }
            let before = batched_requests.get();
            let tenant = |seed: usize| format!("{kernel:?}-{}-{seed}", budget.get().is_some());
            let barrier = Arc::new(std::sync::Barrier::new(CLIENTS));
            let handles: Vec<_> = (0..CLIENTS)
                .map(|seed| {
                    let req = Request::score(&tenant(seed), "W %*% x")
                        .matrix("W", n, n, w.clone())
                        .matrix("x", n, 1, vec_for(seed))
                        .batched();
                    let barrier = Arc::clone(&barrier);
                    std::thread::spawn(move || {
                        let mut c = ScoringClient::connect(addr).unwrap();
                        barrier.wait();
                        (seed, c.request_with_rid(&req).unwrap())
                    })
                })
                .collect();
            let mut leaders = Vec::new();
            for h in handles {
                let (seed, (resp, rid)) = h.join().unwrap();
                let Response::Score {
                    result: ScoreResult::Matrix { rows, cols, data },
                    batched,
                    ..
                } = resp
                else {
                    panic!("expected matrix result, got {resp:?}");
                };
                assert_eq!((rows, cols), (n, 1));
                assert_eq!(
                    bits(&data),
                    bits(&direct(&solo, w, seed)),
                    "{kernel:?} W under {budget:?}, seed {seed} (batched: {batched}) \
                     differs from direct evaluation"
                );
                if let Some(usage) = server.ledger().session_usage(&tenant(seed)) {
                    leaders.push((usage.admitted, recorded(&server, rid.unwrap())));
                }
            }
            assert!(batched_requests.get() > before, "{kernel:?} W: no group formed");
            let [(admitted, leader)] = &leaders[..] else {
                panic!("{kernel:?} W: {} tenants admitted, not one", leaders.len())
            };
            assert_eq!(*admitted, 1, "the group is admitted once");
            assert_eq!(leader.certified_peak, stacked.certificate.peak_bytes as u64);
        }
        server.shutdown();
    }
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

/// The runbook's alerting table, read from the operator's manual itself.
const OPERATIONS: &str = include_str!("../docs/OPERATIONS.md");

/// `(metric name, type)` for every literal name in the Metric column of
/// OPERATIONS.md's "Serving metrics worth alerting on" table. `<phase>`
/// expands over the request phases and `<id>` to `tenant`; wildcard rows
/// (`…_*`) are skipped.
fn runbook_metrics(tenant: &str) -> Vec<(String, String)> {
    let table = OPERATIONS
        .split("Serving metrics worth alerting on:")
        .nth(1)
        .expect("OPERATIONS.md has the serving metrics table");
    let mut out = Vec::new();
    for row in table.lines().skip_while(|l| !l.starts_with('|')).take_while(|l| l.starts_with('|'))
    {
        let cells: Vec<&str> = row.split('|').map(str::trim).collect();
        let (metric, kind) = (cells[1], cells[2]);
        for name in metric.split('`').skip(1).step_by(2) {
            if !name.starts_with("dmml_") || name.contains('*') {
                continue;
            }
            let names: Vec<String> = if name.contains("<phase>") {
                dmml::obs::Phase::ALL.iter().map(|p| name.replace("<phase>", p.name())).collect()
            } else {
                vec![name.replace("<id>", tenant)]
            };
            out.extend(names.into_iter().map(|n| (n, kind.to_owned())));
        }
    }
    out
}

/// The live exposition of a scoring session holds only counter, gauge and
/// summary families; the executor's timings are summaries; and every
/// runbook metric that scoring produces is exported under the type the
/// runbook gives it.
#[test]
fn live_exposition_matches_the_runbook() {
    let server =
        ScoringServer::start(ServeConfig::for_tests(), Arc::new(StatsRegistry::new())).unwrap();
    let mut c = ScoringClient::connect(server.addr()).unwrap();
    for seed in 0..3 {
        assert!(matches!(c.request(&score_req("acme", seed)).unwrap(), Response::Score { .. }));
    }
    // One rejected request, so the error counter exists too.
    let bad = c.request(&score_req("no spaces allowed", 0)).unwrap();
    assert!(matches!(bad, Response::Error { .. }), "{bad:?}");
    let text = dmml::obs::export::prometheus_text(&server.registry().report());
    server.shutdown();

    let types: std::collections::HashMap<&str, &str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .map(|l| l.split_once(' ').expect("TYPE line has a kind"))
        .collect();
    for (name, kind) in &types {
        assert!(matches!(*kind, "counter" | "gauge" | "summary"), "{name} is a {kind}:\n{text}");
    }
    assert_eq!(types.get("dmml_lang_exec_eval_wall"), Some(&"summary"), "{text}");
    assert!(
        types.iter().any(|(n, k)| n.starts_with("dmml_lang_exec_kernel_") && *k == "summary"),
        "no kernel-family summary in:\n{text}"
    );

    // Rows whose events plain scoring does not produce.
    let event_only = [
        "admission_queued",
        "batch_",
        "drift",
        "accept_errors",
        "tenant_overflow",
        "trace_dropped",
    ];
    let runbook = runbook_metrics("acme");
    assert!(runbook.len() >= 15, "table parse found only {runbook:?}");
    for (name, kind) in runbook {
        if event_only.iter().any(|e| name.contains(e)) {
            continue;
        }
        assert_eq!(types.get(name.as_str()), Some(&kind.as_str()), "runbook {name}:\n{text}");
    }
}

/// A served sparse request is charged what it runs. `S * S` over a 2000 x
/// 2000 slab at 1 % non-zero holds `S` as CSR, densifies both operands of
/// the product and builds it dense: the flight record's certified peak
/// counts those copies and the product, not the CSR estimate of about
/// 1.3 MB it was once charged.
#[test]
fn a_served_sparse_product_is_charged_its_dense_copies() {
    let server =
        ScoringServer::start(ServeConfig::for_tests(), Arc::new(StatsRegistry::new())).unwrap();
    let n = 2000;
    let data: Vec<f64> =
        (0..n * n).map(|i| if i % 100 == 7 { (i % 13) as f64 + 1.0 } else { 0.0 }).collect();
    let req = Request::score("sparse", "S * S").matrix("S", n, n, data);
    let mut c = ScoringClient::connect(server.addr()).unwrap();
    let (resp, rid) = c.request_with_rid(&req).unwrap();
    let Response::Score { result: ScoreResult::Matrix { rows, cols, .. }, .. } = resp else {
        panic!("expected a matrix result, got {resp:?}");
    };
    assert_eq!((rows, cols), (n, n));
    let rec = recorded(&server, rid.unwrap());
    let dense = (n * n * 8) as u64;
    assert!(
        rec.certified_peak >= 2 * dense,
        "certified {} B: not a densified copy and the {dense}-byte product ({})",
        rec.certified_peak,
        rec.kernel_summary
    );
    assert!(rec.kernel_summary.contains("ewise */dense"), "{}", rec.kernel_summary);
    server.shutdown();
}
