//! Certification acceptance: the static liveness certificate is a sound
//! upper bound on the executor's observed spill-pool peak, across random
//! DAGs and budget fractions, with bit-identical results and clean pool
//! audits; the executor runs exactly the schedule the certificate walks;
//! and the certifier-driven planner fixes the composite-peak blind spot of
//! the per-node check end to end.

use dm_lang::exec::{Env, Executor, Val};
use dm_lang::expr::{AggOp, EwiseOp, Graph, NodeId, Op, UnaryOp};
use dm_lang::memory::MemoryBudget;
use dm_lang::physical::{Kernel, PlanOptions};
use dm_lang::size::InputSizes;
use dm_lang::{certify_plan, CompiledProgram, Verdict};
use dm_matrix::{Dense, Matrix};
use proptest::prelude::*;

fn dense_input(rows: usize, cols: usize, salt: u64) -> Dense {
    Dense::from_fn(rows, cols, |r, c| {
        let h = (r as u64)
            .wrapping_mul(6364136223846793005)
            .wrapping_add(c as u64)
            .wrapping_add(salt)
            .wrapping_mul(1442695040888963407);
        ((h >> 33) % 100) as f64 * 0.017 - 0.85
    })
}

/// A random same-shape DAG over two inputs, closed off by every blocked
/// kernel family: crossprod, a gemm-shaped matmul, colSums, and scalar
/// aggregation at the root, plus a `sum(abs(..))` term the plan fuses.
fn random_dag(codes: &[(u8, u8, u8)]) -> (Graph, NodeId) {
    let mut g = Graph::new();
    let x = g.input("X");
    let y = g.input("Y");
    let mut pool = vec![x, y];
    for &(op, ia, ib) in codes {
        let a = pool[ia as usize % pool.len()];
        let b = pool[ib as usize % pool.len()];
        let n = match op % 3 {
            0 => g.ewise(EwiseOp::Add, a, b),
            1 => g.ewise(EwiseOp::Mul, a, b),
            _ => g.ewise(EwiseOp::Sub, a, b),
        };
        pool.push(n);
    }
    let last = *pool.last().unwrap();
    let cp = g.push(Op::CrossProd(last)); // cols x cols
    let mm = g.matmul(last, cp); // rows x cols gemm
    let cs = g.agg(AggOp::ColSums, mm);
    let s_cs = g.agg(AggOp::Sum, cs);
    let s_mm = g.agg(AggOp::Sum, mm);
    let abs = g.unary(UnaryOp::Abs, last);
    let s_abs = g.agg(AggOp::Sum, abs);
    let sums = g.ewise(EwiseOp::Add, s_cs, s_mm);
    let root = g.ewise(EwiseOp::Add, sums, s_abs);
    (g, root)
}

fn scalar_bits(v: &Val) -> u64 {
    match v {
        Val::Scalar(s) => s.to_bits(),
        _ => panic!("scalar root expected"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For random DAGs at 100% / 50% / 25% of the unbounded certified peak:
    /// the static peak bounds the observed pool peak, blocked execution is
    /// bit-identical to in-memory, the pool audits clean, and the executor
    /// runs a step for exactly the schedule's unfused nodes.
    #[test]
    fn static_peak_bounds_observed_pool_peak(
        rows in 64usize..200,
        cols in 4usize..16,
        codes in proptest::collection::vec((0u8..3, 0u8..8, 0u8..8), 1..6),
        salt in 0u64..1000,
    ) {
        let (g, root) = random_dag(&codes);
        let mut sizes = InputSizes::new();
        sizes.declare("X", rows, cols, 1.0);
        sizes.declare("Y", rows, cols, 1.0);
        let infos = dm_lang::size::propagate(&g, root, &sizes).unwrap();
        let mut env = Env::new();
        env.bind("X", Matrix::Dense(dense_input(rows, cols, salt)));
        env.bind("Y", Matrix::Dense(dense_input(rows, cols, salt.wrapping_add(31))));

        let mut plain = Executor::new(&g);
        let expect = scalar_bits(&plain.eval(root, &env).unwrap());

        // The unbounded plan's certified peak calibrates the budgets.
        let base = CompiledProgram::new(g.clone(), root, &PlanOptions::new(&sizes)).unwrap().plan;
        let unbounded = certify_plan(&g, root, &base, &infos, MemoryBudget::unbounded());
        prop_assert!(unbounded.peak_bytes > 0);

        for denom in [1usize, 2, 4] {
            let budget = MemoryBudget::bytes((unbounded.peak_bytes / denom).max(1));
            let opts = PlanOptions { budget, ..PlanOptions::new(&sizes) };
            let plan = CompiledProgram::new(g.clone(), root, &opts).unwrap().plan;
            let cert = certify_plan(&g, root, &plan, &infos, budget);
            if denom == 1 {
                // The full-peak budget needs no blocking at all.
                prop_assert!(cert.fits(), "{}", cert.render(&g));
                prop_assert_eq!(plan.nodes_with(Kernel::Blocked), Vec::<NodeId>::new());
            }
            let sched = plan.schedule().clone();
            let mut ex = Executor::with_plan(&g, plan).profiled();
            let got = scalar_bits(&ex.eval(root, &env).unwrap());
            prop_assert_eq!(got, expect, "budgeted run must be bit-identical (denom {})", denom);
            // A node runs at its own step unless the plan fused it into a
            // `sum`; every scheduled node counts as evaluated once.
            let mut unfused: Vec<NodeId> = (0..sched.len())
                .filter(|&step| sched.step_of(sched.order()[step]) == Some(step))
                .map(|step| sched.order()[step])
                .collect();
            let mut stepped: Vec<NodeId> = ex.profile().unwrap().nodes().map(|(n, _)| n).collect();
            unfused.sort_unstable();
            stepped.sort_unstable();
            prop_assert!(unfused.len() < sched.len(), "the sum(abs(..)) term fuses");
            prop_assert_eq!(stepped, unfused);
            prop_assert_eq!(ex.stats().nodes_evaluated, sched.len() as u64);

            if let Some(stats) = ex.ooc_pool_stats() {
                prop_assert!(
                    cert.peak_bytes >= stats.peak_used,
                    "static peak {} B must bound the observed pool peak {} B (denom {})",
                    cert.peak_bytes,
                    stats.peak_used,
                    denom,
                );
                let pool = ex.ooc_pool().unwrap();
                let report = pool.audit_quiescent().expect("pool audit clean");
                prop_assert!(report.pinned.is_empty(), "no pins survive the run");
                prop_assert_eq!(pool.used(), 0, "all stores discarded");
            }
        }
    }
}

/// The composite-peak scenario end to end: every node individually fits
/// the budget (so the unfitted plan, like any per-node check, streams
/// nothing) but the composite peak exceeds it; the certifier-driven planner produces a plan
/// certified to fit, and that plan executes identically to the in-memory
/// run while honoring the pool bound.
#[test]
fn composite_peak_is_caught_and_fixed_end_to_end() {
    let mut sizes = InputSizes::new();
    sizes.declare("X", 256, 256, 1.0); // 512 KB each
    sizes.declare("Y", 256, 256, 1.0);
    let mut g = Graph::new();
    let x = g.input("X");
    let y = g.input("Y");
    let z = g.ewise(EwiseOp::Add, x, y);
    let root = g.agg(AggOp::Sum, z);
    let infos = dm_lang::size::propagate(&g, root, &sizes).unwrap();
    let budget = MemoryBudget::bytes(1_300_000);

    // The plan before memory fitting: every value is under 1.3 MB, so no
    // node is oversized on its own, and the certificate pins the exact step
    // where the live set overflows.
    let unfitted = CompiledProgram::new(g.clone(), root, &PlanOptions::new(&sizes)).unwrap().plan;
    assert!(unfitted.nodes_with(Kernel::Blocked).is_empty());
    assert!(infos.values().all(|i| 8 * i.shape.rows() * i.shape.cols() <= 1_300_000));
    let unfitted_cert = certify_plan(&g, root, &unfitted, &infos, budget);
    match unfitted_cert.verdict {
        Verdict::Exceeds { step, node, live_bytes } => {
            assert_eq!(node, z, "the add is where three 512 KB values coexist");
            assert_eq!(step, 2);
            assert_eq!(live_bytes, 3 * 256 * 256 * 8);
        }
        Verdict::Fits => panic!("the unfitted plan must not certify"),
    }

    // Certifier-driven planner: blocks the add, certifies the fit.
    let new =
        CompiledProgram::new(g.clone(), root, &PlanOptions { budget, ..PlanOptions::new(&sizes) })
            .unwrap()
            .plan;
    assert_eq!(new.kernel(z), Kernel::Blocked);
    let cert = certify_plan(&g, root, &new, &infos, budget);
    assert!(cert.fits(), "{}", cert.render(&g));

    let mut env = Env::new();
    env.bind("X", Matrix::Dense(dense_input(256, 256, 1)));
    env.bind("Y", Matrix::Dense(dense_input(256, 256, 2)));
    let mut plain = Executor::new(&g);
    let expect = scalar_bits(&plain.eval(root, &env).unwrap());
    let mut ex = Executor::with_plan(&g, new);
    let got = scalar_bits(&ex.eval(root, &env).unwrap());
    assert_eq!(got, expect, "blocked add is bit-identical");
    let stats = ex.ooc_pool_stats().expect("blocked dispatch created the pool");
    assert!(cert.peak_bytes >= stats.peak_used);
}

/// Under a budget the depth-first order exceeds, the planner picks the
/// peak-minimizing order; plain `eval` runs it, matches the depth-first
/// result, and needs no spill.
#[test]
fn reordered_schedule_executes_without_spilling() {
    let mut sizes = InputSizes::new();
    sizes.declare("X", 256, 256, 1.0);
    sizes.declare("A", 256, 1024, 1.0);
    sizes.declare("B", 1024, 256, 1.0);
    let mut g = Graph::new();
    let x = g.input("X");
    let a = g.input("A");
    let b = g.input("B");
    let r = g.matmul(a, b);
    let add = g.ewise(EwiseOp::Add, x, r);
    let root = g.agg(AggOp::Sum, add);
    let infos = dm_lang::size::propagate(&g, root, &sizes).unwrap();
    let budget = MemoryBudget::bytes(5_100_000);

    // The unbounded plan keeps the depth-first order, over budget in memory.
    let dfs = CompiledProgram::new(g.clone(), root, &PlanOptions::new(&sizes)).unwrap().plan;
    assert_eq!(dfs.schedule().order(), &[x, a, b, r, add, root]);
    assert!(!certify_plan(&g, root, &dfs, &infos, budget).fits(), "DFS order must spill");
    let re =
        CompiledProgram::new(g.clone(), root, &PlanOptions { budget, ..PlanOptions::new(&sizes) })
            .unwrap()
            .plan;
    assert!(re.nodes_with(Kernel::Blocked).is_empty(), "reordered plan fits in memory");
    assert_eq!(re.schedule().order(), &[a, b, r, x, add, root], "the matmul drains before X");

    let mut env = Env::new();
    env.bind("X", Matrix::Dense(dense_input(256, 256, 5)));
    env.bind("A", Matrix::Dense(dense_input(256, 1024, 6)));
    env.bind("B", Matrix::Dense(dense_input(1024, 256, 7)));
    let mut plain = Executor::new(&g);
    let expect = scalar_bits(&plain.eval(root, &env).unwrap());
    let mut ex = Executor::with_plan(&g, re);
    let got = scalar_bits(&ex.eval(root, &env).unwrap());
    assert_eq!(got, expect);
    assert!(ex.ooc_pool_stats().is_none(), "no blocked kernel, no spill pool");
}
