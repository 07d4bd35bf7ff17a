//! Out-of-core linear algebra, two layers deep.
//!
//! First the mechanism: a [`BlockStore`] keeps a matrix as row panels inside
//! a budget-capped buffer pool, and the `ooc` kernels stream those panels —
//! pin → compute → unpin — spilling cold tiles to disk, while staying
//! **bit-identical** to the in-memory kernels.
//!
//! Then the policy: the `dm-lang` executor does the same thing automatically.
//! Give the planner a [`MemoryBudget`] (or set `DMML_MEM_BUDGET`) and it
//! certifies the plan's live-set peak against the budget, planning operators
//! as `blocked` kernels until the plan fits (oversized operands always
//! stream); `explain` shows which nodes went out-of-core plus the memory
//! certificate, and the profile report accounts for the spill traffic.
//!
//! Run with: `cargo run --release --example out_of_core`

use dmml::buffer::{ooc, panel_rows_for, BlockStore, BufferPool, SharedBufferPool};
use dmml::buffer::{policy::PolicyKind, storage::FileStore};
use dmml::lang::{
    exec::Env, explain, parser, profile_report, size::InputSizes, CompiledProgram, Executor,
    MemoryBudget, PlanOptions,
};
use dmml::matrix::{ops, Matrix};

fn main() {
    // ---- Layer 1: blocked kernels through a spilling pool -----------------
    let (rows, inner, cols) = (1536usize, 1024usize, 768usize);
    let a = dmml::data::matgen::dense_uniform(rows, inner, -1.0, 1.0, 33);
    let b = dmml::data::matgen::dense_uniform(inner, cols, -1.0, 1.0, 34);
    let ws = 8 * (rows * inner + inner * cols + rows * cols);
    let budget = ws / 4; // the pool holds a quarter of the working set
    println!(
        "gemm {rows}x{inner} * {inner}x{cols}: working set {:.1} MiB, pool budget {:.1} MiB (25%)",
        ws as f64 / (1 << 20) as f64,
        budget as f64 / (1 << 20) as f64
    );

    let spill_dir = std::env::temp_dir().join(format!("dmml_ooc_{}", std::process::id()));
    let store = FileStore::new(&spill_dir).expect("spill dir");
    let pool = SharedBufferPool::new(BufferPool::new(budget, PolicyKind::Lru, store));

    let t0 = std::time::Instant::now();
    let sa = BlockStore::from_dense(&pool, &a, panel_rows_for(a.cols(), budget, 8)).unwrap();
    let sb = BlockStore::from_dense(&pool, &b, panel_rows_for(b.cols(), budget, 8)).unwrap();
    let out = ooc::gemm(&sa, &sb, 2).unwrap();
    let product = out.to_dense().unwrap();
    let elapsed = t0.elapsed();
    let st = pool.stats();
    println!(
        "blocked gemm in {elapsed:.2?}: {:.1} MiB spilled to {}, {:.1} MiB faulted back, {} evictions",
        st.spilled_bytes as f64 / (1 << 20) as f64,
        spill_dir.display(),
        st.faulted_bytes as f64 / (1 << 20) as f64,
        st.evictions
    );

    // Bit-identical, not approximately equal: the blocked kernel performs the
    // same floating-point operations in the same order as the in-memory one.
    assert_eq!(product.data(), ops::gemm(&a, &b).data());
    println!("bit-identical to the in-memory gemm ✓");
    for s in [sa, sb, out] {
        s.discard().unwrap();
    }
    pool.audit_quiescent().unwrap();
    println!("pool audit clean: no leaked pins, no leaked bytes\n");

    // ---- Layer 2: the executor plans it for you ---------------------------
    // t(X) %*% (X + X) with X far larger than the budget: the planner marks
    // the ewise add and the crossprod-shaped matmul as blocked kernels.
    let (graph, root) = parser::parse("sum(t(X) %*% (X + X))").unwrap();
    let x = dmml::data::matgen::dense_uniform(2048, 256, -1.0, 1.0, 35);
    let mut sizes = InputSizes::new();
    sizes.declare("X", x.rows(), x.cols(), 1.0);
    let budget = MemoryBudget::bytes(1 << 20); // 1 MiB; X alone is 4 MiB
    println!("executor plan under a {budget} budget (set DMML_MEM_BUDGET for the same effect):");
    let opts = PlanOptions { degree: 2, budget, ..PlanOptions::new(&sizes) };
    let prog = CompiledProgram::new(graph.clone(), root, &opts).unwrap();
    println!("{}", explain(&prog));

    let mut env = Env::new();
    env.bind("X", Matrix::Dense(x.clone()));
    let mut exec = Executor::with_plan(&graph, prog.plan.clone()).profiled();
    let got = exec.eval(root, &env).unwrap().as_scalar().unwrap();

    // Same scalar, to the last bit, as the fully in-memory run.
    let mut inmem = Executor::new(&graph);
    let expect = inmem.eval(root, &env).unwrap().as_scalar().unwrap();
    assert_eq!(got.to_bits(), expect.to_bits());
    println!("result {got:.6e} — bit-identical to the unbudgeted executor ✓\n");

    let spill = exec.ooc_pool_stats();
    println!("{}", profile_report(&prog, exec.profile().unwrap(), 5, spill.as_ref()));
}
