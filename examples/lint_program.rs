//! The static analyzer on a buggy script: one pass over the expression DAG
//! collects every problem at once — shape mismatches, domain violations,
//! dead code, costly chain orders, and fusion opportunities — each anchored
//! to the node that caused it. The plan lints then read a planned program:
//! W103 for a live set over the memory budget, H204 for a stale cost model.
//!
//! Run with: `cargo run --release --example lint_program`

use dmml::lang::analyze::{analyze, analyze_plan, codes, verify_rewrite, Severity};
use dmml::lang::rewrite::optimize;
use dmml::lang::size::InputSizes;
use dmml::lang::{AggOp, CompiledProgram, CostModel, EwiseOp, Graph, MemoryBudget, PlanOptions};
use dmml::lang::{Op, UnaryOp};

fn main() {
    // A script with several independent mistakes, built through the Graph
    // API (the parser would accept it too — these are semantic, not
    // syntactic, errors):
    //
    //   bad_mm = X %*% X          -- inner dimensions disagree (100x10 twice)
    //   bad_log = log(-2.5)       -- domain violation on a constant
    //   risky = sqrt(abs(X) - 5)  -- possibly negative under the radical
    //   chain = (X %*% Y) %*% u   -- 21M multiplies where 40K suffice
    //   gram = t(X) %*% X         -- unfused crossprod pattern
    //   orphan = colSums(Y)       -- computed but never used
    let mut g = Graph::new();
    let x = g.input("X");
    let y = g.input("Y");
    let u = g.input("u");

    let bad_mm = g.matmul(x, x);
    let neg = g.constant(-2.5);
    let bad_log = g.unary(UnaryOp::Log, neg);
    let absx = g.unary(UnaryOp::Abs, x);
    let five = g.constant(5.0);
    let shifted = g.ewise(EwiseOp::Sub, absx, five);
    let risky = g.unary(UnaryOp::Sqrt, shifted);
    let xy = g.matmul(x, y);
    let chain = g.matmul(xy, u);
    let t = g.transpose(x);
    let gram = g.matmul(t, x);

    // Fold everything into one root so it is all reachable...
    let s1 = g.agg(AggOp::Sum, bad_mm);
    let s2 = g.ewise(EwiseOp::Mul, s1, bad_log);
    let s3 = g.agg(AggOp::Sum, risky);
    let s4 = g.ewise(EwiseOp::Add, s2, s3);
    let s5 = g.agg(AggOp::Sum, chain);
    let s6 = g.ewise(EwiseOp::Add, s4, s5);
    let s7 = g.agg(AggOp::Sum, gram);
    let root = g.ewise(EwiseOp::Add, s6, s7);
    // ...except the orphan, which dangles unreferenced.
    let orphan = g.agg(AggOp::ColSums, y);
    let _ = orphan;

    let mut inputs = InputSizes::new();
    inputs.declare("X", 100, 10, 1.0);
    inputs.declare("Y", 10, 1000, 1.0);
    inputs.declare("u", 1000, 1, 1.0);

    println!("program: {}", g.render(root));
    println!();

    let report = analyze(&g, root, &inputs);
    println!("{}", report.render(&g));
    println!(
        "{} findings: {} errors, {} warnings, {} hints; distinct codes: {:?}",
        report.diagnostics.len(),
        report.error_count(),
        report.with_severity(Severity::Warning).count(),
        report.with_severity(Severity::Hint).count(),
        report.codes(),
    );
    assert!(report.diagnostics.iter().any(|d| d.code == codes::SHAPE_MISMATCH));
    assert!(report.diagnostics.iter().any(|d| d.code == codes::DOMAIN_VIOLATION));
    assert!(report.diagnostics.iter().any(|d| d.code == codes::DEAD_NODE));
    assert!(report.codes().len() >= 5, "the demo exercises at least five codes");

    // Under a memory budget the analyzer also certifies the plan's live-set
    // peak: a program whose values all fit individually can still overflow
    // when several are live at once, and W103 pins the step where it happens.
    println!();
    let mut big = Graph::new();
    let bx = big.input("X");
    let by = big.input("Y");
    let bz = big.ewise(EwiseOp::Add, bx, by);
    let broot = big.agg(AggOp::Sum, bz);
    let mut big_inputs = InputSizes::new();
    big_inputs.declare("X", 256, 256, 1.0); // 512 KiB each
    big_inputs.declare("Y", 256, 256, 1.0);
    let budget = MemoryBudget::bytes(700_000); // fits any one value, not three
    println!("memory lint of {} under a 700 KB budget:", big.render(broot));
    let opts = PlanOptions { budget, ..PlanOptions::new(&big_inputs) };
    let mem = analyze_plan(&CompiledProgram::new(big.clone(), broot, &opts).expect("plans"));
    mem.iter().for_each(|d| println!("{d}"));
    assert!(mem.iter().any(|d| d.code == codes::PLAN_EXCEEDS_BUDGET));

    // With a cost model the plan is priced too, and H204 flags a kernel whose
    // measured throughput is far off the static assumption: here a profile
    // that saw crossprod run at 8 GFLOP/s, 8x the static 1 GFLOP/s.
    println!();
    let mut gram_g = Graph::new();
    let gx = gram_g.input("X");
    let gram_cp = gram_g.push(Op::CrossProd(gx));
    let mut gram_inputs = InputSizes::new();
    gram_inputs.declare("X", 1000, 20, 1.0); // crossprod: 400 000 flops
    let mut store = dmml::obs::ProfileStore::new();
    for _ in 0..dmml::obs::profile::MIN_SAMPLES {
        store.record("crossprod", "fused", 400_000, 50_000);
    }
    let model = CostModel::new(store);
    println!("cost lint of {} with a measured 8 GFLOP/s crossprod:", gram_g.render(gram_cp));
    let opts = PlanOptions { cost: Some(&model), ..PlanOptions::new(&gram_inputs) };
    let cost = analyze_plan(&CompiledProgram::new(gram_g, gram_cp, &opts).expect("plans"));
    cost.iter().for_each(|d| println!("{d}"));
    assert!(cost.iter().any(|d| d.code == codes::COST_MODEL_STALE && d.node == gram_cp));

    // A clean subprogram passes the linter, survives the optimizer, and the
    // rewrite-safety differ signs off on the transformation.
    println!();
    let clean_root = s7; // sum(t(X) %*% X)
    let clean = analyze(&g, clean_root, &inputs);
    let clean_errors = clean.error_count();
    println!("clean subprogram {} has {clean_errors} errors", g.render(clean_root));
    let (og, oroot, stats) = optimize(&g, clean_root, &inputs).expect("optimizes");
    verify_rewrite(&g, clean_root, &og, oroot, &inputs).expect("rewrite is shape-safe");
    println!(
        "optimized to {} ({} rewrites); differ confirms the root shape is preserved",
        og.render(oroot),
        stats.total(),
    );
}
