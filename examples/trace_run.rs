//! Structured tracing across the whole execution stack.
//!
//! One run, one timeline: compression *planning* phases, executor HOP-node
//! spans, `dm-par` worker-task spans (with worker ids), and buffer-pool
//! spill/fault instant events all land in a single Chrome trace-event JSON
//! you can open at `https://ui.perfetto.dev` or `chrome://tracing`.
//!
//! The program runs optimized at degree 4 under a memory budget of 50% of
//! the working set, so the trace shows plan → compute → spill interleaving.
//!
//! Run with: `cargo run --release --example trace_run [out.json]`
//! (or set `DMML_TRACE=out.json` on any executor-driven program).
//! Set `DMML_METRICS_ADDR=127.0.0.1:0` to also serve the stats registry over
//! HTTP at `/metrics` (Prometheus) and `/stats.json` while the run is live;
//! `DMML_METRICS_HOLD_MS` keeps the process alive that long after the run so
//! a scraper can fetch.

use dmml::lang::{
    exec::Env, explain, parser, size::InputSizes, CompiledProgram, Executor, MemoryBudget,
    PlanOptions,
};
use dmml::matrix::Matrix;
use dmml::obs::{export, serve::MetricsServer, trace, StatsRegistry};
use std::sync::Arc;

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "trace_run.json".to_owned());
    trace::set_enabled(true);

    // Registry first so the scrape endpoint (if enabled) serves live stats.
    let reg = Arc::new(StatsRegistry::new());
    let metrics = MetricsServer::from_env(Arc::clone(&reg)).map(|r| r.expect("bind metrics addr"));
    if let Some(server) = &metrics {
        println!("metrics listening on http://{}/metrics", server.addr());
    }

    // ---- Phase 1: compression planning under a root span ------------------
    // plan_traced emits compress.plan > {estimate, cocode, demote} spans.
    let phase = trace::Span::enter("trace_run", "example");
    let skewed = dmml::data::matgen::low_cardinality(4096, 12, 5, 41);
    let (cplan, _) = dmml::compress::planner::plan_traced(
        &skewed,
        &dmml::compress::planner::CompressionConfig::default(),
    );
    println!("compression plan: {} column groups", cplan.groups.len());

    // ---- Phase 2: optimized execution at degree 4, 50% memory budget ------
    let (graph, root) = parser::parse("sum(t(X) %*% (X + X))").unwrap();
    let x = dmml::data::matgen::dense_uniform(1536, 384, -1.0, 1.0, 42);
    let mut sizes = InputSizes::new();
    sizes.declare("X", x.rows(), x.cols(), 1.0);
    // 50% of X itself: every operator touching X (or a peer of its size)
    // exceeds the budget and is planned blocked, so the pool must spill.
    let budget = MemoryBudget::bytes(8 * x.rows() * x.cols() / 2);
    println!("degree 4, budget {budget} (50% of the input matrix):");
    let opts = PlanOptions { degree: 4, budget, ..PlanOptions::new(&sizes) };
    let prog = CompiledProgram::new(graph.clone(), root, &opts).unwrap();
    println!("{}", explain(&prog));

    let mut env = Env::new();
    env.bind("X", Matrix::Dense(x));
    let mut exec = Executor::with_plan(&graph, prog.plan.clone()).profiled().traced();
    let got = exec.eval(root, &env).unwrap().as_scalar().unwrap();
    println!("result: {got:.6e}");
    drop(phase);

    // ---- Export: Chrome trace + machine-readable stats --------------------
    exec.record_stats(&reg);
    trace::record_worker_busy(reg.as_ref());
    let report = reg.report();
    println!("\n{report}");
    println!("prometheus exposition:\n{}", export::prometheus_text(&report));

    let spilled = exec.ooc_pool_stats().map_or(0, |s| s.spilled_bytes);
    drop(exec); // flushes DMML_TRACE, if set
    trace::write_chrome_trace(&out_path).expect("write trace");
    println!("trace written to {out_path} ({spilled} B spilled) — open in ui.perfetto.dev");

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
