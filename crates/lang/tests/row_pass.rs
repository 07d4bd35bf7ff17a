//! The `inproc_dense` program's crossprod, fused `sum(exp(X %*% W))` and tmv
//! read the same `X`, and its plan runs them in one row pass over `X`. The
//! pass must return the bits every other evaluation of the program returns:
//! each member evaluated as its own root (which forms no pass), the plan
//! without parallelism, the budgeted plan (whose blocked members form no
//! pass), an executor without a plan, and the executor the scoring server
//! builds (profiled and traced at degree 2).

use dm_lang::exec::{Env, Executor, KernelChoice, Val};
use dm_lang::expr::{AggOp, Graph, NodeId, Op, UnaryOp};
use dm_lang::memory::MemoryBudget;
use dm_lang::physical::{Kernel, PlanOptions};
use dm_lang::size::InputSizes;
use dm_lang::{explain, CompiledProgram};
use dm_matrix::{ops, Dense, Matrix};

/// Four full `ROW_BLOCK` blocks and a short one; 256 columns, so the
/// crossprod and the product run parallel at degree 2.
const N: usize = 4100;
const D: usize = 256;
const M: usize = 128;
const SRC: &str = "sum(abs(t(X) %*% X)) + sum(exp(X %*% W)) + sum(abs(t(X) %*% y))";

fn sizes() -> InputSizes {
    let mut s = InputSizes::new();
    s.declare("X", N, D, 1.0);
    s.declare("W", D, M, 1.0);
    s.declare("y", N, 1, 1.0);
    s
}

/// A cell of an input: signed zeros among small values.
fn cell(r: usize, c: usize, seed: usize) -> f64 {
    match (r * 7 + c * 3 + seed) % 17 {
        0 => 0.0,
        1 => -0.0,
        _ => ((r * 31 + c * 17 + seed) % 23) as f64 * 0.013 - 0.14,
    }
}

fn x() -> Dense {
    Dense::from_fn(N, D, |r, c| cell(r, c, 0))
}

fn env() -> Env {
    let mut env = Env::new();
    env.bind("X", Matrix::Dense(x()));
    env.bind("W", Matrix::Dense(Dense::from_fn(D, M, |r, c| cell(r, c, 5) * 0.1)));
    env.bind("y", Matrix::Dense(Dense::from_fn(N, 1, |r, c| cell(r, c, 9))));
    env
}

fn program(opts: &PlanOptions) -> CompiledProgram {
    let (g, root) = dm_lang::parser::parse(SRC).unwrap();
    let (g, root, _) = dm_lang::optimize(&g, root, opts.sizes).unwrap();
    CompiledProgram::new(g, root, opts).unwrap()
}

/// The first reachable node matching `is`.
fn node(g: &Graph, root: NodeId, is: impl Fn(&Op) -> bool) -> NodeId {
    g.reachable(root).into_iter().find(|&n| is(g.op(n))).expect("the program has it")
}

fn scalar_bits(v: Val) -> u64 {
    v.as_scalar().expect("a scalar").to_bits()
}

#[test]
fn every_evaluation_of_the_passed_program_has_the_same_bits() {
    let (sizes, env) = (sizes(), env());
    let prog = program(&PlanOptions { degree: 2, ..PlanOptions::new(&sizes) });
    let (g, root, plan) = (&prog.graph, prog.root, &prog.plan);
    let cp = node(g, root, |op| matches!(op, Op::CrossProd(_)));
    let tmv = node(g, root, |op| matches!(op, Op::Tmv(..)));
    let product = node(g, root, |op| matches!(op, Op::MatMul(..)));
    let exp = node(g, root, |op| matches!(op, Op::Unary(UnaryOp::Exp, _)));
    let sum = node(g, root, |op| *op == Op::Agg(AggOp::Sum, exp));
    for member in [cp, sum, tmv] {
        assert_eq!(plan.schedule().pass_of(member), Some(cp), "%{member} runs in the pass");
    }
    assert_eq!(plan.kernel(cp), Kernel::Parallel);
    let text = explain(&prog);
    assert_eq!(text.matches("row pass at %").count(), 3, "{text}");

    let passed = scalar_bits(Executor::with_plan(g, plan.clone()).eval(root, &env).unwrap());

    // Each member as its own root forms no pass; the root's value is their
    // sums, added as the program adds them.
    let mut ex = Executor::with_plan(g, plan.clone());
    let gram = ex.eval(cp, &env).unwrap().as_dense().unwrap();
    let streamed = ex.eval(sum, &env).unwrap().as_scalar().unwrap();
    let tv = ex.eval(tmv, &env).unwrap().as_dense().unwrap();
    let abs_sum = |d: &Dense| ops::sum(&d.map(f64::abs));
    let by_member = (abs_sum(&gram) + streamed) + abs_sum(&tv);
    assert_eq!(by_member.to_bits(), passed, "members as their own roots");

    // Serial: a pass at degree 1.
    let serial = program(&PlanOptions::new(&sizes));
    assert_eq!(serial.plan.schedule().pass_of(tmv), Some(cp));
    let bits = scalar_bits(Executor::with_plan(g, serial.plan.clone()).eval(root, &env).unwrap());
    assert_eq!(bits, passed, "the serial pass");

    // No plan: nothing fused, nothing passed.
    assert_eq!(scalar_bits(Executor::new(g).eval(root, &env).unwrap()), passed, "no plan");

    // Under a budget of half of X the crossprod and the product stream
    // through the spill pool and no pass forms.
    let budget = MemoryBudget::bytes(N * D * 4);
    let blocked = program(&PlanOptions { degree: 2, budget, ..PlanOptions::new(&sizes) });
    assert_eq!(blocked.plan.kernel(cp), Kernel::Blocked);
    assert!(g.reachable(root).iter().all(|&n| blocked.plan.schedule().pass_of(n).is_none()));
    let bits = scalar_bits(Executor::with_plan(g, blocked.plan.clone()).eval(root, &env).unwrap());
    assert_eq!(bits, passed, "the blocked plan");

    // The server's executor: profiled and traced.
    let mut served = Executor::with_plan(g, plan.clone()).profiled().traced();
    let start = std::time::Instant::now();
    let bits = scalar_bits(served.eval(root, &env).unwrap());
    let wall = start.elapsed().as_nanos() as u64;
    assert_eq!(bits, passed, "the served executor");
    // The profile still sees each member as its own operator, and the
    // steps' self times still partition the eval.
    let profile = served.profile().unwrap();
    for (member, kernel, out) in [
        (cp, KernelChoice::Parallel, (D, D)),
        (sum, KernelChoice::Fused, (1, 1)),
        (tmv, KernelChoice::Fused, (D, 1)),
    ] {
        let stats = profile.node(member).expect("the member is profiled");
        assert_eq!(stats.evals, 1, "%{member}");
        assert_eq!(stats.kernel, Some(kernel), "%{member}");
        assert_eq!((stats.out_rows, stats.out_cols), out, "%{member}");
        assert!(stats.self_ns > 0 && stats.self_flops > 0, "%{member}: {stats:?}");
    }
    for fused in [product, exp] {
        assert!(profile.node(fused).is_none(), "%{fused} runs inside its sum");
    }
    assert!(
        profile.total_self_ns() <= wall,
        "{} ns of steps in {wall} ns",
        profile.total_self_ns()
    );
}

#[test]
fn a_csr_binding_of_a_dense_planned_x_is_densified_at_its_input() {
    // The plan holds X dense; a CSR binding is densified at its input, so
    // every member still runs in the pass, with the dense binding's bits.
    let (sizes, mut env) = (sizes(), env());
    let prog = program(&PlanOptions { degree: 2, ..PlanOptions::new(&sizes) });
    let (g, root) = (&prog.graph, prog.root);
    let dense_bits =
        scalar_bits(Executor::with_plan(g, prog.plan.clone()).eval(root, &env).unwrap());
    env.bind("X", Matrix::Sparse(dm_matrix::Csr::from_dense(&x())));
    let mut ex = Executor::with_plan(g, prog.plan.clone()).profiled();
    assert_eq!(scalar_bits(ex.eval(root, &env).unwrap()), dense_bits);
    let (cp, tmv) = (
        node(g, root, |op| matches!(op, Op::CrossProd(_))),
        node(g, root, |op| matches!(op, Op::Tmv(..))),
    );
    let sum = node(
        g,
        root,
        |op| matches!(op, Op::Agg(AggOp::Sum, a) if matches!(g.op(*a), Op::Unary(UnaryOp::Exp, _))),
    );
    let profile = ex.profile().unwrap();
    for (member, kernel) in
        [(cp, KernelChoice::Parallel), (sum, KernelChoice::Fused), (tmv, KernelChoice::Fused)]
    {
        assert_eq!(prog.plan.schedule().pass_of(member), Some(cp), "%{member} is passed");
        assert_eq!(profile.node(member).unwrap().kernel, Some(kernel), "%{member} ran in the pass");
    }
    // A pass at degree 2 counts each member as a parallel dispatch; run
    // alone, the tmv would run serially.
    assert_eq!(ex.stats().par_nodes, 3, "the three members ran in one parallel pass");
    let x = node(g, root, |op| *op == Op::Input("X".into()));
    assert_eq!(profile.node(x).unwrap().kernel, Some(KernelChoice::Dense), "X was densified");
}
