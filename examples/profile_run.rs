//! The observability layer end to end: optimize and execute a GLM gradient
//! with profiling on, print the annotated `explain` tree and the `-stats`
//! style runtime report, then drive the buffer pool (which counts its own
//! events in `PoolStats`) and the compression planner, and dump everything
//! the stats registry saw.
//!
//! Run with: `cargo run --release --example profile_run`
//!
//! Adaptive-cost extras: set `DMML_PROFILE_DIR` to persist this run's kernel
//! throughput profiles (and to price the plan with the calibrated cost model
//! on the next run), and `DMML_METRICS_ADDR=127.0.0.1:0` to serve `/metrics`
//! and `/stats.json` over HTTP while the process is alive
//! (`DMML_METRICS_HOLD_MS` delays exit so a scraper can fetch).

use dmml::buffer::{policy::PolicyKind, storage::MemStore};
use dmml::compress::planner::{compression_report, plan_traced, CompressionConfig};
use dmml::lang::cost::CostModel;
use dmml::lang::rewrite::optimize_traced;
use dmml::lang::size::InputSizes;
use dmml::lang::{explain, parser, profile_report, CompiledProgram, PlanOptions};
use dmml::modelsel::search::grid_search;
use dmml::modelsel::SearchTrace;
use dmml::obs::serve::MetricsServer;
use dmml::prelude::*;
use std::sync::Arc;

fn main() {
    let reg = Arc::new(StatsRegistry::new());
    let metrics = MetricsServer::from_env(Arc::clone(&reg)).map(|r| r.expect("bind metrics addr"));
    if let Some(server) = &metrics {
        println!("metrics listening on http://{}/metrics", server.addr());
    }

    // ---- 1. Declarative layer: logistic-regression gradient ----
    // grad = t(X) %*% (sigmoid(X %*% w) - y), written out in the R-like
    // surface syntax. The optimizer fuses t(X) %*% v into a tmv kernel.
    let src = "t(X) %*% (1 / (1 + exp(-(X %*% w))) - y)";
    let (graph, root) = parser::parse(src).expect("parses");

    let (n, d) = (20_000, 16);
    let mut sizes = InputSizes::new();
    sizes.declare("X", n, d, 1.0);
    sizes.declare("w", d, 1, 1.0);
    sizes.declare("y", n, 1, 1.0);

    let (g, r, rtrace) = optimize_traced(&graph, root, &sizes, None).expect("optimizes");
    rtrace.record(reg.as_ref());
    println!("=== explain (optimized plan) ===");
    // With DMML_PROFILE_DIR set and profiles from a previous run on disk,
    // the plan is priced through the calibrated model too.
    let model = CostModel::from_env();
    let opts = PlanOptions { cost: model.as_ref(), ..PlanOptions::new(&sizes) };
    let prog = CompiledProgram::new(g, r, &opts).expect("plans");
    print!("{}", explain(&prog));
    match (rtrace.cost_before, rtrace.cost_after, rtrace.cost_ratio()) {
        (Some(b), Some(a), Some(ratio)) => {
            println!(
                "estimated cost: {b} -> {a} flops ({:.2}x)",
                1.0 / ratio.max(f64::MIN_POSITIVE)
            )
        }
        _ => println!("estimated cost: unavailable"),
    }
    if model.is_some() {
        let est = dmml::lang::estimated_cost(&prog.graph, prog.root, &sizes).expect("prices");
        println!(
            "calibrated cost: {} observed vs {} static (from persisted kernel profiles)",
            dmml::obs::fmt_ns(prog.est_cost_ns),
            dmml::obs::fmt_ns(dmml::lang::cost::static_ns(est) as u64),
        );
    }

    // Execute with per-node profiling.
    let x = dmml::data::matgen::dense_uniform(n, d, -1.0, 1.0, 3);
    let w: Vec<f64> = (0..d).map(|i| (i as f64 / d as f64) - 0.5).collect();
    let truth = dmml::matrix::ops::gemv(&x, &w);
    let y: Vec<f64> = truth.iter().map(|&v| if v > 0.0 { 1.0 } else { 0.0 }).collect();
    let mut env = Env::new();
    env.bind("X", Matrix::Dense(x.clone()));
    env.bind("w", Matrix::Dense(Dense::column(&w)));
    env.bind("y", Matrix::Dense(Dense::column(&y)));

    let mut exec = Executor::new(&prog.graph).profiled();
    let grad = exec.eval(prog.root, &env).expect("executes");
    exec.record_stats(reg.as_ref());
    println!("\n=== runtime report ===");
    let profile = exec.profile().expect("profiling was enabled");
    print!("{}", profile_report(&prog, profile, 5, None));
    if let Some(m) = grad.as_dense() {
        println!("gradient norm: {:.4}", m.data().iter().map(|v| v * v).sum::<f64>().sqrt());
    }

    // ---- 2. Buffer pool under a skewed block trace ----
    let mut pool = dmml::buffer::BufferPool::new(64 * 1024, PolicyKind::Lru, MemStore::default());
    let num_blocks = 32;
    for b in 0..num_blocks {
        pool.put(PageKey::new(0, b as u32), Dense::identity(16)).expect("fits or evicts");
    }
    for &b in &dmml::data::trace::zipf(num_blocks, 1.0, 2_000, 17) {
        pool.get(PageKey::new(0, b as u32)).expect("no storage error");
    }
    let ps = pool.stats();
    println!("\n=== buffer pool ({} policy) ===", pool.policy_kind());
    println!(
        "hits {}  misses {}  evictions {}  absent {}  pins {}  hit rate {:.1}%  peak bytes {}",
        ps.hits,
        ps.misses,
        ps.evictions,
        ps.absent,
        ps.pins,
        100.0 * ps.hit_rate(),
        ps.peak_used,
    );

    // ---- 3. Compression planner: estimated vs achieved ----
    let cat = dmml::data::matgen::low_cardinality(n, 3, 8, 11);
    let clustered = dmml::data::matgen::clustered(n, 2, 6, 512, 12);
    let xc = cat.hcat(&clustered).hcat(&dmml::data::matgen::dense_uniform(n, 1, -1.0, 1.0, 13));
    let (plan, ptrace) = plan_traced(&xc, &CompressionConfig::default());
    ptrace.record(reg.as_ref());
    let cm = CompressedMatrix::compress_with_plan(&xc, &plan);
    println!("\n=== compression plan ===");
    print!("{}", compression_report(&plan, &cm));
    println!(
        "planner: {} co-coding merges, {} demotions, wall {}",
        ptrace.merges.len(),
        ptrace.demoted.len(),
        dmml::obs::fmt_ns(ptrace.wall_ns),
    );

    // ---- 4. Model selection with a search trace ----
    let space = ParamSpace::new().grid("l2", &[0.0, 0.01, 0.1, 1.0]);
    let strace = SearchTrace::new();
    let result = grid_search(
        &space,
        strace.wrap(|p, _| {
            let model = LinearRegression::fit(&x, &truth, Solver::NormalEquations, p.get("l2"))
                .expect("fits");
            model.r2(&x, &truth)
        }),
    );
    strace.record(reg.as_ref());
    println!("\n=== model selection ===");
    print!("{}", strace.report(3));
    println!("best l2 = {}", result.best_params.get("l2"));

    // ---- 5. Everything the registry saw ----
    println!("\n=== stats registry ===");
    print!("{}", reg.report());

    // Stay scrapeable for a moment if asked (CI smoke test), then shut down.
    if let Some(server) = metrics {
        if let Some(ms) =
            std::env::var("DMML_METRICS_HOLD_MS").ok().and_then(|v| v.parse::<u64>().ok())
        {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        server.shutdown();
    }
}
