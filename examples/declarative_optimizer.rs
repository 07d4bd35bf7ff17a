//! The declarative layer end to end: parse an R-like script fragment,
//! optimize the expression DAG (fusion, CSE, chain reordering), pick physical
//! kernels from sparsity estimates, and execute — comparing flop counts with
//! and without the optimizer.
//!
//! Run with: `cargo run --release --example declarative_optimizer`

use dmml::lang::exec::{Env, Executor};
use dmml::lang::parser;
use dmml::lang::physical;
use dmml::lang::rewrite::optimize;
use dmml::lang::size::InputSizes;
use dmml::prelude::*;

fn main() {
    // The gradient-norm expression of ridge regression:
    //   sum(t(X) %*% (X %*% w) * t(X) %*% (X %*% w))  -- with a shared subtree
    // plus a Gram-matrix term. Written naively, it contains duplicate work,
    // an unfused t(X)%*%X, and a badly associated chain.
    let src = "sum((t(X) %*% (X %*% w)) * (t(X) %*% (X %*% w))) + sum(t(X) %*% X)";
    let (graph, root) = parser::parse(src).expect("parses");
    println!("source: {src}");
    println!("naive plan: {}", graph.render(root));

    // Declared input sizes drive size-dependent rewrites.
    let (n, d) = (5000, 30);
    let mut sizes = InputSizes::new();
    sizes.declare("X", n, d, 1.0);
    sizes.declare("w", d, 1, 1.0);

    let (opt_graph, opt_root, stats) = optimize(&graph, root, &sizes).expect("optimizes");
    println!("optimized plan: {}", opt_graph.render(opt_root));
    println!(
        "rewrites: cse={} tmv_fused={} crossprod_fused={} sumsq_fused={} chains_reordered={}",
        stats.cse_merged,
        stats.tmv_fused,
        stats.crossprod_fused,
        stats.sumsq_fused,
        stats.chains_reordered
    );

    // Execute both plans on real data and compare work.
    let x = dmml::data::matgen::dense_uniform(n, d, -1.0, 1.0, 3);
    let w: Vec<f64> = (0..d).map(|i| (i as f64 / d as f64) - 0.5).collect();
    let mut env = Env::new();
    env.bind("X", Matrix::Dense(x));
    env.bind("w", Matrix::Dense(Dense::column(&w)));

    let mut naive = Executor::new(&graph);
    let naive_val = naive.eval(root, &env).expect("naive executes").as_scalar().expect("scalar");
    let mut opt = Executor::new(&opt_graph);
    let opt_val =
        opt.eval(opt_root, &env).expect("optimized executes").as_scalar().expect("scalar");

    println!("naive     result {naive_val:.4}  flops {:>12}", naive.stats().flops);
    println!("optimized result {opt_val:.4}  flops {:>12}", opt.stats().flops);
    println!(
        "flop reduction: {:.1}x (results agree to {:.1e})",
        naive.stats().flops as f64 / opt.stats().flops.max(1) as f64,
        (naive_val - opt_val).abs() / naive_val.abs().max(1.0)
    );

    // Physical planning on a sparse input flips the kernels.
    let (g2, r2) = parser::parse("sum(S %*% w)").expect("parses");
    let mut sparse_sizes = InputSizes::new();
    sparse_sizes.declare("S", n, d, 0.02);
    sparse_sizes.declare("w", d, 1, 1.0);
    let plan = dmml::lang::CompiledProgram::new(
        g2.clone(),
        r2,
        &physical::PlanOptions::new(&sparse_sizes),
    )
    .expect("plans")
    .plan;
    for id in g2.reachable(r2) {
        println!("node {id} ({}) -> {:?}", g2.render(id), plan.kernel(id));
    }
}
