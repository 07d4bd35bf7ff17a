//! Golden physical plans: the planner's decisions and `explain` text for a
//! fixed set of programs, pinned byte for byte in `golden_plans.txt`.
//!
//! The file was generated from the planner family as it stood before it was
//! collapsed into one entry point, so any refactor of `physical.rs` /
//! `explain.rs` must reproduce it exactly. Programs: the three E5 rewrite
//! cases (`benches/e05_rewrites.rs`), the `examples/out_of_core.rs` and
//! `examples/trace_run.rs` program at each example's shape, the
//! `perf_ledger` `inproc_dense` expression, and the two hand-built DAGs of
//! `tests/certify.rs`. Grid: degree {1, 2, 4} x budget {unbounded, 50 %,
//! 10 % of the largest input} x cost model {none, one synthetic profile that
//! flips every serial-vs-parallel decision the static threshold makes}.
//!
//! Per cell the file records `mem_budget()`, every node's kernel, and — where
//! an `explain` rendering of that cell exists — its full text: tree plus
//! memory certificate for the model-free cells, tree plus cost table for the
//! unbounded cells with a model. Model-free cells also record the
//! evaluation order the planner chose.
//!
//! On a mismatch the test writes what it computed next to the build outputs
//! and names the first differing line; to accept an intended change, copy
//! that file over `golden_plans.txt`.

use dm_lang::cost::{node_family, CostModel};
use dm_lang::explain::{explain, op_label};
use dm_lang::expr::{AggOp, EwiseOp, Graph, NodeId, Op};
use dm_lang::memory::MemoryBudget;
use dm_lang::physical::{node_flops, PhysicalPlan, PlanOptions, PAR_FLOP_THRESHOLD};
use dm_lang::size::{InputSizes, SizeInfo};
use dm_lang::{certify_plan, optimize, parser, CompiledProgram};
use std::collections::HashMap;
use std::fmt::Write as _;

// ---- The only function that knows the planner's entry point --------------

fn program(
    s: &Scenario,
    degree: usize,
    budget: MemoryBudget,
    cost: Option<&CostModel>,
) -> CompiledProgram {
    let opts = PlanOptions { degree, budget, cost, ..PlanOptions::new(&s.inputs) };
    CompiledProgram::new(s.graph.clone(), s.root, &opts).expect("plans")
}

// ---- Scenarios ------------------------------------------------------------

struct Scenario {
    name: &'static str,
    graph: Graph,
    root: NodeId,
    inputs: InputSizes,
    /// Dense bytes of the largest declared input: the budget fractions'
    /// reference point.
    largest_input: usize,
}

fn declare(dims: &[(&str, usize, usize)]) -> (InputSizes, usize) {
    let mut inputs = InputSizes::new();
    let mut largest = 0;
    for &(name, rows, cols) in dims {
        inputs.declare(name, rows, cols, 1.0);
        largest = largest.max(8 * rows * cols);
    }
    (inputs, largest)
}

/// A parsed program, optionally run through the rewriter first (as
/// `dm_lang::compile` and the E5 bench do; the examples plan what they parse).
fn parsed(name: &'static str, src: &str, dims: &[(&str, usize, usize)], rewrite: bool) -> Scenario {
    let (inputs, largest_input) = declare(dims);
    let (mut graph, mut root) = parser::parse(src).expect("parses");
    if rewrite {
        let (g, r, _) = optimize(&graph, root, &inputs).expect("optimizes");
        (graph, root) = (g, r);
    }
    Scenario { name, graph, root, inputs, largest_input }
}

fn scenarios() -> Vec<Scenario> {
    let e5 = [("X", 2000, 40), ("Y", 40, 2000), ("u", 2000, 1)];
    let mut all = vec![
        parsed("e05_mmchain", "X %*% Y %*% u", &e5, true),
        parsed("e05_crossprod", "sum(t(X) %*% X)", &e5, true),
        parsed("e05_sumsq", "sum(X * X) + sum(X * X)", &e5, true),
        parsed("example_out_of_core", "sum(t(X) %*% (X + X))", &[("X", 2048, 256)], false),
        parsed("example_trace_run", "sum(t(X) %*% (X + X))", &[("X", 1536, 384)], false),
        parsed(
            "inproc_dense",
            "sum(abs(t(X) %*% X)) + sum(exp(X %*% W)) + sum(abs(t(X) %*% y))",
            &[("X", 8192, 256), ("W", 256, 128), ("y", 8192, 1)],
            true,
        ),
    ];

    // tests/certify.rs, composite peak: sum(X + Y).
    let (inputs, largest_input) = declare(&[("X", 256, 256), ("Y", 256, 256)]);
    let mut g = Graph::new();
    let (x, y) = (g.input("X"), g.input("Y"));
    let z = g.ewise(EwiseOp::Add, x, y);
    let root = g.agg(AggOp::Sum, z);
    all.push(Scenario { name: "certify_composite_peak", graph: g, root, inputs, largest_input });

    // tests/certify.rs, reordered schedule: sum(X + A %*% B).
    let (inputs, largest_input) = declare(&[("X", 256, 256), ("A", 256, 1024), ("B", 1024, 256)]);
    let mut g = Graph::new();
    let (x, a, b) = (g.input("X"), g.input("A"), g.input("B"));
    let r = g.matmul(a, b);
    let add = g.ewise(EwiseOp::Add, x, r);
    let root = g.agg(AggOp::Sum, add);
    all.push(Scenario { name: "certify_reordered", graph: g, root, inputs, largest_input });
    all
}

/// A profile that contradicts the static threshold on every candidate node:
/// where the flop estimate clears `PAR_FLOP_THRESHOLD` it says serial is
/// faster, below it says parallel is faster.
fn flipping_model(s: &Scenario, sizes: &HashMap<NodeId, SizeInfo>) -> CostModel {
    let serial_plan = program(s, 1, MemoryBudget::unbounded(), None).plan;
    let mut store = dm_obs::ProfileStore::new();
    for id in s.graph.reachable(s.root) {
        let parallelizable = matches!(
            s.graph.op(id),
            Op::MatMul(..)
                | Op::CrossProd(_)
                | Op::Tmv(..)
                | Op::SumSq(_)
                | Op::Agg(AggOp::ColSums, _)
        );
        let flops = node_flops(&s.graph, id, sizes, serial_plan.kernel(id));
        if !parallelizable || flops == 0 {
            continue;
        }
        let (serial_gflops, parallel_gflops) =
            if flops >= PAR_FLOP_THRESHOLD { (4.0, 2.0) } else { (1.0, 3.0) };
        let flops = flops as u64;
        let op = op_label(&s.graph, id);
        let family = node_family(&s.graph, id, &serial_plan);
        for _ in 0..5 {
            store.record(&op, family, flops, ((flops as f64 / serial_gflops) as u64).max(1));
            store.record(&op, "parallel", flops, ((flops as f64 / parallel_gflops) as u64).max(1));
        }
    }
    CostModel::new(store)
}

// ---- Rendering ------------------------------------------------------------

fn kernels_line(s: &Scenario, plan: &PhysicalPlan) -> String {
    let mut ids = s.graph.reachable(s.root);
    ids.sort_unstable();
    ids.iter().map(|&id| format!("%{id}={}", plan.kernel(id))).collect::<Vec<_>>().join(" ")
}

/// The grid's budgets: unbounded, 50 % and 10 % of the largest input.
fn budgets(s: &Scenario) -> [(&'static str, MemoryBudget); 3] {
    [
        ("unbounded", MemoryBudget::unbounded()),
        ("50%", MemoryBudget::bytes(s.largest_input / 2)),
        ("10%", MemoryBudget::bytes(s.largest_input / 10)),
    ]
}

fn render() -> String {
    let mut out = String::new();
    for s in scenarios() {
        let sizes = dm_lang::size::propagate(&s.graph, s.root, &s.inputs).expect("sizes");
        let synthetic = flipping_model(&s, &sizes);
        let _ = writeln!(out, "#### {}: {}", s.name, s.graph.render(s.root));
        for degree in [1, 2, 4] {
            for (label, budget) in budgets(&s) {
                for (model_name, model) in [("none", None), ("synthetic", Some(&synthetic))] {
                    let _ = writeln!(
                        out,
                        "== {} degree={degree} budget={label} model={model_name}",
                        s.name
                    );
                    let plan = program(&s, degree, budget, model).plan;
                    let _ = writeln!(out, "mem_budget: {:?}", plan.mem_budget());
                    let _ = writeln!(out, "kernels: {}", kernels_line(&s, &plan));
                    match model {
                        None => {
                            let _ = writeln!(out, "order: {:?}", plan.schedule().order());
                            let _ = writeln!(out, "explain:");
                            out.push_str(&explain(&program(&s, degree, budget, None)));
                        }
                        Some(m) if budget.get().is_none() => {
                            let _ = writeln!(out, "explain:");
                            out.push_str(&explain(&program(&s, degree, budget, Some(m))));
                        }
                        Some(_) => {}
                    }
                }
            }
        }
    }
    out
}

#[test]
fn plans_and_explain_text_match_the_golden_file() {
    let expected = include_str!("golden_plans.txt");
    let actual = render();
    if actual == expected {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden_plans.actual.txt");
    std::fs::write(&path, &actual).expect("write the actual rendering");
    let line = actual
        .lines()
        .zip(expected.lines())
        .position(|(a, e)| a != e)
        .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
    panic!(
        "plans differ from golden_plans.txt, first at line {}:\n  golden: {:?}\n  actual: {:?}\n\
         full rendering written to {}",
        line + 1,
        expected.lines().nth(line),
        actual.lines().nth(line),
        path.display()
    );
}

#[test]
fn each_programs_certificate_is_its_plans_own() {
    // The planner certifies the plan it returns once; certifying that plan
    // afresh over its schedule must reproduce the program's certificate.
    for s in scenarios() {
        for degree in [1, 2, 4] {
            for (label, budget) in budgets(&s) {
                let prog = program(&s, degree, budget, None);
                let fresh = certify_plan(&prog.graph, prog.root, &prog.plan, &prog.sizes, budget);
                assert_eq!(
                    prog.certificate.render(&prog.graph),
                    fresh.render(&prog.graph),
                    "{} degree={degree} budget={label}",
                    s.name
                );
            }
        }
    }
}
