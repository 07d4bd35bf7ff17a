//! The `serve_*` workloads: an in-process `ScoringServer` on loopback TCP,
//! driven closed-loop through `ScoringClient` connections.

use crate::gen::{self, Case};
use crate::harness::{self, Report, CHECKED_OPS};
use crate::ledger::{Ledger, PerLayer};
use crate::machine;
use crate::reference::{self, Mat};
use crate::spans::{self, Recorder};
use crate::stats::median;
use dm_buffer::SessionLedger;
use dm_lang::exec::{Env, Executor, Val};
use dm_lang::memory::MemoryBudget;
use dm_lang::size::InputSizes;
use dm_lang::{parser, program_hash, CostModel, InputClass, PlanCache, PlanKey};
use dm_matrix::{par, Dense, Matrix};
use dm_obs::{ProfileStore, StatsRegistry};
use dm_serve::protocol::{decode_request, decode_response, encode_request, encode_response};
use dm_serve::{
    InputValue, Request, Response, ScoreResult, ScoringClient, ScoringServer, ServeConfig,
};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Plan-cache capacity of the server under test; `serve_compile_cold`
/// cycles four times as many programs through it.
const PLAN_CACHE: usize = 64;

pub struct Spec {
    pub name: &'static str,
    /// Closed-loop client connections, each on its own thread.
    clients: usize,
    /// Passes over the request pool during set-up, before the clock starts.
    warm_passes: usize,
    cases: fn(u64) -> Vec<Case>,
    /// Whether every op is the one scoring shape `X %*% v`, so its kernel
    /// can be replayed bare.
    scoring: bool,
    /// Traced ops written to the trace file.
    trace_file_ops: u32,
}

pub const SMALL_HOT: Spec = Spec {
    name: "serve_small_hot",
    clients: 2,
    warm_passes: 8,
    cases: |seed| gen::scoring_cases(seed, 1, 64, 96, 8),
    scoring: true,
    trace_file_ops: 200,
};

pub const WIDE_HOT: Spec = Spec {
    name: "serve_wide_hot",
    clients: 1,
    warm_passes: 1,
    cases: |seed| gen::scoring_cases(seed, 2, 8, 64, 2048),
    scoring: true,
    trace_file_ops: 20,
};

pub const COMPILE_COLD: Spec = Spec {
    name: "serve_compile_cold",
    clients: 1,
    warm_passes: 1,
    cases: gen::cold_cases,
    scoring: false,
    trace_file_ops: 200,
};

/// A running server with connected clients, a request pool and the output
/// each request produced during warm-up.
struct Live {
    server: ScoringServer,
    clients: Vec<ScoringClient>,
    requests: Vec<Request>,
    expected: Vec<ScoreResult>,
}

fn to_request(tenant: &str, case: &Case) -> Request {
    case.inputs.iter().fold(Request::score(tenant, &case.expr.render()), |req, i| {
        req.matrix(&i.name, i.rows, i.cols, i.data.clone())
    })
}

fn to_mat(r: &ScoreResult) -> Mat {
    match r {
        ScoreResult::Scalar(v) => Mat { rows: 1, cols: 1, data: vec![*v] },
        ScoreResult::Matrix { rows, cols, data } => {
            Mat { rows: *rows, cols: *cols, data: data.clone() }
        }
    }
}

/// A reply that is the same score, bit for bit, as the one warm-up saw.
fn is_expected(resp: &Result<Response, String>, want: &ScoreResult) -> bool {
    matches!(resp, Ok(Response::Score { result, .. }) if result == want)
}

fn set_up(spec: &Spec, seed: u64, report: &mut Report) -> Live {
    let cases = (spec.cases)(seed);
    let n = spec.clients;
    let requests: Vec<Request> = cases
        .iter()
        .enumerate()
        .map(|(i, c)| to_request(&format!("tenant-{}", i % n), c))
        .collect();
    let cfg = ServeConfig {
        workers: 4,
        degree: 1,
        plan_cache: PLAN_CACHE,
        batch_max: 1,
        budget: MemoryBudget::unbounded(),
        ..ServeConfig::for_tests()
    };
    let server =
        ScoringServer::start(cfg, Arc::new(StatsRegistry::new())).expect("bind a loopback port");
    let mut clients: Vec<ScoringClient> = (0..n)
        .map(|_| ScoringClient::connect(server.addr()).expect("connect to the server just started"))
        .collect();
    // Warm-up is the lazy part of set-up: plan-cache fill, worker spin-up,
    // allocator growth. Client `t` owns requests `t, t + n, ...`, as in the
    // timed loop. A NaN stands in for a missing reply: it equals nothing.
    let mut expected = vec![ScoreResult::Scalar(f64::NAN); requests.len()];
    for pass in 0..spec.warm_passes {
        for (t, client) in clients.iter_mut().enumerate() {
            for i in (t..requests.len()).step_by(n) {
                let resp = client.request(&requests[i]);
                if pass == 0 {
                    if let Ok(Response::Score { result, .. }) = &resp {
                        expected[i] = result.clone();
                    }
                }
                report.count(is_expected(&resp, &expected[i]));
            }
        }
    }
    Live { server, clients, requests, expected }
}

/// Connections close before `shutdown()`: a worker blocked on an open idle
/// connection would hold the drain for its 60 s read timeout.
fn tear_down(live: Live) {
    drop(live.clients);
    live.server.shutdown();
}

fn request_op<'a>(
    requests: &'a [Request],
    expected: &'a [ScoreResult],
) -> impl Fn(&mut ScoringClient, usize) -> (Duration, bool) + Sync + 'a {
    move |client, i| {
        let idx = i % requests.len();
        let t = Instant::now();
        let resp = client.request(&requests[idx]);
        (t.elapsed(), is_expected(&resp, &expected[idx]))
    }
}

/// After the clock stops: the first ops' outputs against the naive reference.
fn check(spec: &Spec, seed: u64, live: &Live, report: &mut Report) {
    let cases = (spec.cases)(seed);
    report.notes.push(format!("inputs_hash {:016x}", gen::inputs_hash(&cases)));
    for (case, got) in cases.iter().zip(&live.expected).take(CHECKED_OPS) {
        report.count(reference::agrees(&to_mat(got), &reference::eval(case)));
    }
}

pub fn run_untraced(spec: &Spec, seed: u64, seconds: u64) -> Report {
    let mut report = Report::default();
    let (mut live, first_setup) = harness::timed(|| set_up(spec, seed, &mut report));
    let op = request_op(&live.requests, &live.expected);
    harness::measure(&mut report, &mut live.clients, seconds, &op);
    drop(op);
    check(spec, seed, &live, &mut report);
    harness::timed_teardown(&mut report, || tear_down(live));
    let setup_s =
        harness::setup_metric(&mut report, first_setup, |r| set_up(spec, seed, r), tear_down);
    report.metrics.push(setup_s);
    report
}

/// The request's plan key as the server derives it: measured sparsity and
/// size class per input, plus the structural hash of the parsed program.
/// Also returns the declared sizes (compile needs them) and the parsed node
/// count.
fn plan_key(req: &Request) -> (PlanKey, InputSizes, usize) {
    let mut sizes = InputSizes::new();
    let mut classes = Vec::with_capacity(req.inputs.len());
    for (name, v) in &req.inputs {
        let InputValue::Matrix { rows, cols, data } = v else {
            unreachable!("the generators bind matrices only")
        };
        let nnz = data.iter().filter(|v| **v != 0.0).count();
        let sparsity = if data.is_empty() { 1.0 } else { nnz as f64 / data.len() as f64 };
        sizes.declare(name, *rows, *cols, sparsity);
        classes.push(InputClass::new(name, *rows, *cols, sparsity));
    }
    let (graph, root) = parser::parse(&req.program).expect("generated programs parse");
    let nodes = graph.reachable(root).len();
    (PlanKey::new(program_hash(&graph, root), classes), sizes, nodes)
}

fn to_dense(v: &InputValue) -> Dense {
    match v {
        InputValue::Matrix { rows, cols, data } => {
            Dense::from_vec(*rows, *cols, data.clone()).expect("the shape was checked at decode")
        }
        InputValue::Scalar(_) => unreachable!("the generators bind matrices only"),
    }
}

fn bind(req: &Request) -> Env {
    let mut env = Env::new();
    for (name, v) in &req.inputs {
        env.bind(name, Matrix::Dense(to_dense(v)));
    }
    env
}

fn to_result(v: Val) -> ScoreResult {
    match v {
        Val::Scalar(s) => ScoreResult::Scalar(s),
        Val::Matrix(m) => {
            let d = m.to_dense();
            ScoreResult::Matrix { rows: d.rows(), cols: d.cols(), data: d.data().to_vec() }
        }
    }
}

/// The traced pass. Per op: a `request` span around the live call on one
/// connection, then a `replay` span whose children time each layer's public
/// functions on the same payload, single-threaded.
pub fn run_traced(spec: &Spec, seed: u64, seconds: u64, out_dir: &Path) -> Report {
    let mut report = Report::default();
    let mut per = PerLayer::default();
    let machine_start = machine::probe();
    let mut live = set_up(spec, seed, &mut report);
    // Set-up's own first-compile misses are by design; the ratio is taken
    // over the requests sent from here on.
    let (hits0, misses0, _) = live.server.plan_cache_stats();
    let (requests, expected) = (&live.requests, &live.expected);
    let client = &mut live.clients[..1];

    let untraced_us = harness::untraced_baseline_us(
        &mut report,
        client,
        seconds,
        &request_op(requests, expected),
    );

    // The replay's own copies of the server's shared state.
    let mut cache = PlanCache::new(PLAN_CACHE);
    let admission = Arc::new(SessionLedger::new(usize::MAX));
    let model = CostModel::new(ProfileStore::new());
    // Operands of the bare scoring kernel, made outside the spans.
    let operands: Vec<(Dense, Vec<f64>)> = if spec.scoring {
        let pair = |r: &Request| (to_dense(&r.inputs[0].1), to_dense(&r.inputs[1].1).into_vec());
        requests.iter().map(pair).collect()
    } else {
        Vec::new()
    };

    let mut rec = Recorder::new();
    let mut wire_bytes = Vec::new();
    let (mut nodes_in, mut nodes_out, mut rewrites) = (Vec::new(), Vec::new(), Vec::new());
    let deadline = harness::traced_deadline(seconds);
    let mut ops = 0u32;
    while Instant::now() < deadline {
        let idx = ops as usize % requests.len();
        let req = &requests[idx];
        rec.set_op(ops);
        let resp = rec.span("request", |_| client[0].request(req));
        report.count(is_expected(&resp, &expected[idx]));
        let replayed = rec.span("replay", |rec| {
            let raw = rec.span("wire.encode_request", |_| encode_request(req));
            let req =
                rec.span("wire.decode_request", |_| decode_request(&raw)).expect("round trip");
            let (key, sizes, parsed) = rec.span("plan.key", |_| plan_key(&req));
            let prog = match rec.span("plan.lookup", |_| cache.get(&key)) {
                Some(prog) => prog,
                None => {
                    let prog = rec.span("compile", |_| {
                        dm_lang::compile(&req.program, &sizes, 1, MemoryBudget::unbounded(), &model)
                    });
                    let prog = Arc::new(prog.expect("generated programs compile"));
                    nodes_in.push(parsed as f64);
                    nodes_out.push(prog.graph.reachable(prog.root).len() as f64);
                    rewrites.push(prog.rewrites.total() as f64);
                    cache.insert(key, Arc::clone(&prog));
                    prog
                }
            };
            let peak = prog.certified_peak().unwrap_or(0);
            rec.span("admit", |_| drop(admission.try_admit(&req.tenant, peak)));
            let env = rec.span("exec.bind", |_| bind(&req));
            let val = rec.span("exec.eval", |_| {
                Executor::with_plan(&prog.graph, prog.plan.clone()).eval(prog.root, &env)
            });
            if let Some((x, v)) = operands.get(idx) {
                rec.span("kernel.gemv", |_| par::gemv(x, v, 1));
            }
            let resp = Response::Score {
                result: to_result(val.expect("generated programs evaluate")),
                cache_hit: true,
                batched: false,
                blocked_nodes: prog.blocked_nodes,
            };
            let raw_resp = rec.span("wire.encode_response", |_| encode_response(&resp));
            wire_bytes.push((raw.len() + raw_resp.len()) as f64);
            rec.span("wire.decode_response", |_| decode_response(&raw_resp))
        });
        // The replay must be the computation the server did, bit for bit.
        report.count(is_expected(&replayed, &expected[idx]));
        ops += 1;
    }

    let (hits, misses, _) = live.server.plan_cache_stats();
    let (hits, misses) = (hits - hits0, misses - misses0);
    per.set("plan.hit_ratio", hits as f64 / (hits + misses).max(1) as f64);
    check(spec, seed, &live, &mut report);
    harness::timed_teardown(&mut report, || tear_down(live));
    per.set_machine(&machine_start, &machine::probe());

    let folded = spans::fold(rec.spans());
    let us = |name: &str| folded.get(name).map_or(0.0, |f| f.total_us);
    // A layer entered on only some ops costs its median times that share.
    let per_op =
        |name: &str| folded.get(name).map_or(0.0, |f| f.total_us * f.count as f64 / f64::from(ops));
    for (metric, span) in [
        ("wire.encode_request_us", "wire.encode_request"),
        ("wire.decode_request_us", "wire.decode_request"),
        ("wire.encode_response_us", "wire.encode_response"),
        ("wire.decode_response_us", "wire.decode_response"),
        ("plan.key_us", "plan.key"),
        ("plan.lookup_us", "plan.lookup"),
        ("compile.us", "compile"),
        ("admit.us", "admit"),
        ("exec.bind_us", "exec.bind"),
        ("exec.eval_us", "exec.eval"),
    ] {
        per.set(metric, us(span));
    }
    per.set("wire.bytes_per_op", median(&mut wire_bytes));
    per.set("compile.nodes_in", median(&mut nodes_in));
    per.set("compile.nodes_out", median(&mut nodes_out));
    per.set("compile.rewrites", median(&mut rewrites));
    if let Some((x, _)) = operands.first() {
        // Bytes computed from the shapes: the matrix, the vector, the output.
        let bytes = 8 * (x.rows() * x.cols() + x.cols() + x.rows());
        per.set_kernel("kernel.gemv_us", "kernel.gemv_gbs", us("kernel.gemv"), bytes as f64);
    }
    let kernels = us("kernel.gemv");
    per.set("exec.self_us", us("exec.eval") - kernels);

    let wire: f64 = [
        "wire.encode_request",
        "wire.decode_request",
        "wire.encode_response",
        "wire.decode_response",
    ]
    .iter()
    .map(|s| us(s))
    .sum();
    let plan = us("plan.key") + us("plan.lookup");
    let executor = us("exec.bind") + us("exec.eval") - kernels;
    let replayed = wire + plan + per_op("compile") + us("admit") + executor + kernels;
    let live_us = us("request");
    per.set("serve.residual_us", live_us - replayed);
    per.set("serve.residual_share", (live_us - replayed) / live_us);
    let ledger = Ledger {
        workload: spec.name,
        live_us,
        ops: ops as usize,
        rows: vec![
            ("wire", wire, format!(
                "encode/decode request {:.1}/{:.1}, encode/decode response {:.1}/{:.1}, {:.0} bytes/op",
                us("wire.encode_request"), us("wire.decode_request"),
                us("wire.encode_response"), us("wire.decode_response"), per.get("wire.bytes_per_op"))),
            ("plan-cache", plan, format!(
                "key {:.1}, lookup {:.1}, hit ratio {:.3}",
                us("plan.key"), us("plan.lookup"), per.get("plan.hit_ratio"))),
            ("compile", per_op("compile"), format!(
                "{:.1} us x {} of {ops} ops, nodes {:.0} -> {:.0}, {:.0} rewrites",
                us("compile"), folded.get("compile").map_or(0, |f| f.count),
                per.get("compile.nodes_in"), per.get("compile.nodes_out"), per.get("compile.rewrites"))),
            ("admission", us("admit"), "try_admit + release".to_owned()),
            ("executor", executor, format!(
                "bind {:.1}, eval {:.1} less kernels", us("exec.bind"), us("exec.eval"))),
            ("kernels", kernels, "bare gemv on the request's shapes".to_owned()),
            ("residual", live_us - replayed,
             "sockets, worker hand-off, flight recorder, scheduling: live p50 less all rows above".to_owned()),
        ],
    };
    report.notes.push(spans::write_trace_file(
        out_dir,
        spec.name,
        rec.spans(),
        spec.trace_file_ops,
    ));
    per.finish(&mut report, &ledger, untraced_us, &folded);
    report
}
