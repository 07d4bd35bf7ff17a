//! Acceptance test for structured tracing across the execution stack: one
//! traced run at degree 4 under a 50% memory budget must produce a Chrome
//! trace with executor node spans, `dm-par` task spans carrying worker ids,
//! and buffer-pool spill instants — all well-formed and strictly nested per
//! thread.

use dmml::lang::CompiledProgram;
use dmml::lang::{exec::Env, parser, size::InputSizes, Executor, MemoryBudget, PlanOptions};
use dmml::matrix::Matrix;
use dmml::obs::{json, trace};
use std::sync::{Mutex, MutexGuard};

// The trace collector is process-global: tests asserting on its contents
// serialize through this lock and start from drained buffers.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    dmml::obs::lock(&LOCK)
}

#[test]
fn traced_run_covers_exec_par_and_buffer_on_one_timeline() {
    let _guard = lock();
    trace::clear();
    let (graph, root) = parser::parse("sum(t(X) %*% (X + X))").unwrap();
    let x = dmml::data::matgen::dense_uniform(512, 96, -1.0, 1.0, 7);
    let mut sizes = InputSizes::new();
    sizes.declare("X", x.rows(), x.cols(), 1.0);
    // 50% of the input: X-sized operands overflow the budget, forcing
    // blocked kernels and pool spills.
    let budget = MemoryBudget::bytes(8 * x.rows() * x.cols() / 2);
    let opts = PlanOptions { degree: 4, budget, ..PlanOptions::new(&sizes) };
    let plan = CompiledProgram::new(graph.clone(), root, &opts).unwrap().plan;

    let mut env = Env::new();
    env.bind("X", Matrix::Dense(x));
    let mut exec = Executor::with_plan(&graph, plan).traced();
    assert!(exec.is_traced());
    let got = exec.eval(root, &env).unwrap().as_scalar().unwrap();
    trace::set_enabled(false);
    assert!(got.is_finite());

    let events = trace::take_events();

    // Executor node spans, named after the op labels.
    let exec_spans: Vec<_> =
        events.iter().filter(|e| e.cat == "exec" && e.name.starts_with("exec.")).collect();
    assert!(
        exec_spans.iter().any(|e| e.name == "exec.matmul"),
        "matmul node span present: {:?}",
        exec_spans.iter().map(|e| &e.name).collect::<Vec<_>>()
    );
    let mm = exec_spans.iter().find(|e| e.name == "exec.matmul").unwrap();
    assert_eq!(mm.arg("kernel").as_deref(), Some("blocked"), "planned blocked");
    assert_eq!(mm.arg("rows").as_deref(), Some("96"));
    assert_eq!(mm.arg("cols").as_deref(), Some("96"));
    assert!(mm.arg("flops").is_some());

    // dm-par task spans carrying worker ids, parented into the run.
    let tasks: Vec<_> = events.iter().filter(|e| e.name == "par.task").collect();
    assert!(!tasks.is_empty(), "blocked kernels dispatched parallel tasks");
    assert!(tasks.iter().all(|e| e.arg("worker").is_some()), "every task names its worker");
    assert!(tasks.iter().any(|e| e.parent != 0), "tasks nest under a spawning span");

    // Buffer-pool spill instants (plus their companions).
    for name in ["buffer.spill", "buffer.evict", "buffer.pin"] {
        assert!(events.iter().any(|e| e.name == name), "missing {name} instant");
    }
    let spill = events.iter().find(|e| e.name == "buffer.spill").unwrap();
    assert!(spill.arg("bytes").is_some(), "spill instants carry byte counts");

    // The Chrome export of the whole timeline is valid JSON with only
    // B/E/X/i phases and strictly nested begin/end pairs per thread.
    let doc = trace::chrome_trace(&events);
    let v = json::parse(&doc).expect("chrome trace parses");
    let arr = v.get("traceEvents").unwrap().as_arr().expect("traceEvents array");
    assert!(!arr.is_empty());
    let mut open: std::collections::HashMap<i64, Vec<String>> = std::collections::HashMap::new();
    for ev in arr {
        let ph = ev.get("ph").and_then(|p| p.as_str()).expect("ph");
        assert!(matches!(ph, "B" | "E" | "X" | "i"), "phase {ph:?}");
        let tid = ev.get("tid").and_then(|t| t.as_f64()).expect("tid") as i64;
        match ph {
            "B" => open
                .entry(tid)
                .or_default()
                .push(ev.get("name").and_then(|n| n.as_str()).unwrap().to_owned()),
            "E" => {
                let innermost = open.entry(tid).or_default().pop();
                assert_eq!(
                    innermost.as_deref(),
                    ev.get("name").and_then(|n| n.as_str()),
                    "end matches innermost begin on tid {tid}"
                );
            }
            _ => {}
        }
    }
    for (tid, stack) in open {
        assert!(stack.is_empty(), "unclosed spans on tid {tid}: {stack:?}");
    }
}

#[test]
fn untraced_executor_stays_silent() {
    // Without traced()/DMML_TRACE the executor must not emit node spans even
    // when the global collector is enabled: the span gate is per-executor.
    let _guard = lock();
    trace::set_enabled(true);
    trace::clear();
    let (graph, root) = parser::parse("sum(X + X)").unwrap();
    let x = dmml::data::matgen::dense_uniform(16, 4, -1.0, 1.0, 9);
    let mut env = Env::new();
    env.bind("X", Matrix::Dense(x));
    let mut exec = Executor::new(&graph);
    assert!(!exec.is_traced());
    exec.eval(root, &env).unwrap();
    trace::set_enabled(false);
    let exec_events = trace::take_events().into_iter().filter(|e| e.cat == "exec").count();
    assert_eq!(exec_events, 0, "untraced executor emitted exec spans");
}
