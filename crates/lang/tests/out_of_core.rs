//! Out-of-core acceptance: programs whose working set is a multiple of the
//! memory budget must execute through the blocked kernels **bit-identically**
//! to the unbounded in-memory executor, leave the spill pool audit-clean, and
//! honor the `DMML_MEM_BUDGET` environment variable.

use dm_buffer::policy::PolicyKind;
use dm_buffer::storage::{MemStore, Storage};
use dm_buffer::{BufferPool, PageKey, SharedBufferPool};
use dm_lang::exec::{Env, ExecError, Executor, KernelChoice, Val};
use dm_lang::explain::{explain, profile_report};
use dm_lang::expr::{AggOp, EwiseOp, Graph, NodeId};
use dm_lang::memory::MemoryBudget;
use dm_lang::physical::{Kernel, PhysicalPlan, PlanOptions};
use dm_lang::size::InputSizes;
use dm_lang::CompiledProgram;
use dm_matrix::{Dense, Matrix};
use proptest::prelude::*;

/// The LA program under test, exercising every blocked kernel family:
/// `Y = X %*% B` (gemm), `Z = Y + Y` (ewise), `colSums(Z)` (reduction),
/// `crossprod(Z)` (fused reduction), combined into one scalar root.
struct Program {
    graph: Graph,
    y: NodeId,
    z: NodeId,
    cs: NodeId,
    cp: NodeId,
    root: NodeId,
}

fn program() -> Program {
    let mut g = Graph::new();
    let x = g.input("X");
    let b = g.input("B");
    let y = g.matmul(x, b);
    let z = g.ewise(EwiseOp::Add, y, y);
    let cs = g.agg(AggOp::ColSums, z);
    let cp = g.push(dm_lang::expr::Op::CrossProd(z));
    let s1 = g.agg(AggOp::Sum, cs);
    let s2 = g.agg(AggOp::Sum, cp);
    let root = g.ewise(EwiseOp::Add, s1, s2);
    Program { graph: g, y, z, cs, cp, root }
}

/// Plan the program over declared inputs at a degree, under a byte budget.
fn plan_under(p: &Program, sizes: &InputSizes, degree: usize, budget: usize) -> PhysicalPlan {
    let budget = MemoryBudget::bytes(budget);
    CompiledProgram::new(
        p.graph.clone(),
        p.root,
        &PlanOptions { degree, budget, ..PlanOptions::new(sizes) },
    )
    .unwrap()
    .plan
}

fn dense_input(rows: usize, cols: usize, salt: u64) -> Dense {
    Dense::from_fn(rows, cols, |r, c| {
        let h = (r as u64)
            .wrapping_mul(6364136223846793005)
            .wrapping_add(c as u64)
            .wrapping_add(salt)
            .wrapping_mul(1442695040888963407);
        let v = ((h >> 33) % 1000) as f64 * 0.013 - 6.5;
        // Exact zeros exercise the kernels' zero-skip fast paths.
        if h.is_multiple_of(13) {
            0.0
        } else {
            v
        }
    })
}

fn bits(d: &Dense) -> Vec<u64> {
    d.data().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The acceptance criterion: working set >= 4x budget, blocked execution
    /// bit-identical to in-memory, spill pool audit-clean afterwards.
    #[test]
    fn blocked_execution_bit_identical_to_in_memory(
        n in 96usize..160,
        k in 16usize..32,
        m in 40usize..64,
        degree in 1usize..4,
        salt in 0u64..1000,
    ) {
        let p = program();
        let mut env = Env::new();
        env.bind("X", Matrix::Dense(dense_input(n, k, salt)));
        env.bind("B", Matrix::Dense(dense_input(k, m, salt.wrapping_add(7))));
        let mut sizes = InputSizes::new();
        sizes.declare("X", n, k, 1.0);
        sizes.declare("B", k, m, 1.0);

        // Budget = a quarter of the working set (X + B + Y + Z), so the
        // blocked kernels must stream: nothing fits resident all at once.
        let ws = 8 * (n * k + k * m + 2 * (n * m));
        let budget = ws / 4;
        prop_assert!(ws >= 4 * budget);

        let mut in_mem = Executor::new(&p.graph);
        let expect = in_mem.eval(p.root, &env).unwrap();

        let plan = plan_under(&p, &sizes, degree, budget);
        for id in [p.y, p.z, p.cs, p.cp] {
            prop_assert_eq!(plan.kernel(id), Kernel::Blocked, "node {} must go out-of-core", id);
        }
        let mut ooc = Executor::with_plan(&p.graph, plan);
        let got = ooc.eval(p.root, &env).unwrap();

        match (&expect, &got) {
            (Val::Scalar(a), Val::Scalar(b)) => {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "scalar root must be bit-identical");
            }
            _ => prop_assert!(false, "scalar root expected"),
        }
        prop_assert_eq!(ooc.stats().ooc_nodes, 4, "all four blocked nodes dispatched OOC");
        prop_assert_eq!(in_mem.stats().ooc_nodes, 0);
        prop_assert_eq!(in_mem.stats().flops, ooc.stats().flops, "same logical work");

        // Intermediates are bit-identical too, not just the folded scalar.
        let (zi, zo) = (in_mem.eval(p.z, &env).unwrap(), ooc.eval(p.z, &env).unwrap());
        prop_assert_eq!(bits(&zi.as_dense().unwrap()), bits(&zo.as_dense().unwrap()));

        let pool = ooc.ooc_pool().expect("spill pool exists after blocked dispatch");
        let stats = pool.stats();
        prop_assert!(stats.evictions > 0, "working set 4x budget must evict: {stats:?}");
        prop_assert!(stats.spilled_bytes > 0, "dirty tiles must spill: {stats:?}");
        let report = pool.audit_quiescent().expect("pool audit clean after the run");
        prop_assert!(report.pinned.is_empty(), "no pins survive a completed program");
        prop_assert_eq!(pool.used(), 0, "all per-node stores were discarded");
    }
}

#[test]
fn blocked_budget_smaller_than_one_tile_is_a_clean_error() {
    // One full-width row of a 2^20-col matrix cannot fit an 8 KB budget:
    // the executor must surface PoolError::BlockTooLarge as ExecError,
    // not loop or panic.
    let mut g = Graph::new();
    let x = g.input("X");
    let z = g.ewise(EwiseOp::Add, x, x);
    let mut env = Env::new();
    env.bind("X", Matrix::Dense(dense_input(2, 4096, 1)));
    let mut sizes = InputSizes::new();
    sizes.declare("X", 2, 4096, 1.0);
    let budget = MemoryBudget::bytes(8 << 10);
    let plan =
        CompiledProgram::new(g.clone(), z, &PlanOptions { budget, ..PlanOptions::new(&sizes) })
            .unwrap()
            .plan;
    assert_eq!(plan.kernel(z), Kernel::Blocked);
    let mut ex = Executor::with_plan(&g, plan);
    match ex.eval(z, &env) {
        Err(ExecError::OutOfCore { node, message }) => {
            assert_eq!(node, z);
            assert!(message.contains("bytes"), "names the oversized tile: {message}");
        }
        other => panic!("expected OutOfCore error, got {other:?}"),
    }
}

#[test]
fn explain_and_profile_show_out_of_core_nodes() {
    let p = program();
    let (n, k, m) = (128, 24, 48);
    let mut sizes = InputSizes::new();
    sizes.declare("X", n, k, 1.0);
    sizes.declare("B", k, m, 1.0);
    let budget = 8 * (n * k + k * m + 2 * n * m) / 4;

    let at_degree_2 = PlanOptions { degree: 2, ..PlanOptions::new(&sizes) };
    let bounded = PlanOptions { budget: MemoryBudget::bytes(budget), ..at_degree_2 };
    let compiled = |opts| CompiledProgram::new(p.graph.clone(), p.root, opts).unwrap();
    let prog = compiled(&bounded);
    let txt = explain(&prog);
    assert!(txt.contains("blocked"), "explain must annotate OOC nodes:\n{txt}");
    // Unbounded budget renders the ordinary degree plan.
    let unbounded = explain(&compiled(&at_degree_2));
    assert!(!unbounded.contains("blocked"), "{unbounded}");

    let mut env = Env::new();
    env.bind("X", Matrix::Dense(dense_input(n, k, 3)));
    env.bind("B", Matrix::Dense(dense_input(k, m, 11)));
    let mut ex = Executor::with_plan(&prog.graph, prog.plan.clone()).profiled();
    ex.eval(p.root, &env).unwrap();
    assert_eq!(ex.profile().unwrap().node(p.y).unwrap().kernel, Some(KernelChoice::Blocked));

    let spill = ex.ooc_pool_stats();
    let report = profile_report(&prog, ex.profile().unwrap(), 5, spill.as_ref());
    assert!(report.contains("out-of-core kernels: 4 evals"), "{report}");
    assert!(report.contains("spill pool:"), "{report}");
    assert!(report.contains("kernel blocked"), "{report}");
}

#[test]
fn record_stats_forwards_spill_counters() {
    use dm_obs::StatsRegistry;
    let p = program();
    let (n, k, m) = (128, 24, 48);
    let mut env = Env::new();
    env.bind("X", Matrix::Dense(dense_input(n, k, 5)));
    env.bind("B", Matrix::Dense(dense_input(k, m, 9)));
    let mut sizes = InputSizes::new();
    sizes.declare("X", n, k, 1.0);
    sizes.declare("B", k, m, 1.0);
    let budget = 8 * (n * k + k * m + 2 * n * m) / 4;
    let plan = plan_under(&p, &sizes, 1, budget);
    let mut ex = Executor::with_plan(&p.graph, plan);
    ex.eval(p.root, &env).unwrap();
    let reg = StatsRegistry::new();
    ex.record_stats(&reg);
    let rep = reg.report();
    assert_eq!(rep.counter("lang.exec.ooc_nodes"), Some(4));
    assert_eq!(rep.gauge("lang.exec.mem_budget").map(|(cur, _)| cur), Some(budget as u64));
    assert!(rep.counter("lang.exec.ooc.spilled_bytes").unwrap_or(0) > 0);
    assert!(rep.counter("lang.exec.ooc.evictions").unwrap_or(0) > 0);
}

/// A spill store whose second write fails (the spill disk fills after one
/// page), then frees up.
#[derive(Default)]
struct FillingStore {
    inner: MemStore,
    writes: usize,
}

impl Storage for FillingStore {
    fn read(&self, key: PageKey) -> std::io::Result<Option<std::borrow::Cow<'_, [u8]>>> {
        self.inner.read(key)
    }
    fn write(&mut self, key: PageKey, data: Vec<u8>) -> std::io::Result<()> {
        self.writes += 1;
        if self.writes == 2 {
            return Err(std::io::Error::other("no space left on spill device"));
        }
        self.inner.write(key, data)
    }
    fn remove(&mut self, key: PageKey) -> std::io::Result<()> {
        self.inner.remove(key)
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
}

/// A blocked evaluation whose spill write fails returns an `ExecError`
/// naming the I/O failure, leaves no page in the shared pool, and still
/// publishes the traffic it caused before the failure; once the disk frees
/// up, the same pool serves the next evaluation bit-identically to the
/// in-memory one.
#[test]
fn a_failed_spill_write_is_an_exec_error() {
    let p = program();
    let (n, k, m) = (128, 24, 48);
    let mut env = Env::new();
    env.bind("X", Matrix::Dense(dense_input(n, k, 5)));
    env.bind("B", Matrix::Dense(dense_input(k, m, 9)));
    let mut sizes = InputSizes::new();
    sizes.declare("X", n, k, 1.0);
    sizes.declare("B", k, m, 1.0);
    let budget = 8 * (n * k + k * m + 2 * n * m) / 4;
    let plan = plan_under(&p, &sizes, 1, budget);
    let store: Box<dyn Storage> = Box::new(FillingStore::default());
    let capacity = dm_lang::memory::spill_pool_capacity(budget);
    let pool = SharedBufferPool::new(BufferPool::new(capacity, PolicyKind::Lru, store));

    let mut ex = Executor::with_plan(&p.graph, plan.clone()).with_spill_pool(pool.clone());
    match ex.eval(p.root, &env) {
        Err(ExecError::OutOfCore { message, .. }) => {
            assert!(message.contains("no space left"), "{message}")
        }
        other => panic!("expected an out-of-core error, got {other:?}"),
    }
    let reg = dm_obs::StatsRegistry::new();
    ex.record_stats(&reg);
    let (rep, failed) = (reg.report(), pool.stats());
    assert!(failed.spilled_bytes > 0, "one page spilled before the write failed: {failed:?}");
    let sites = ["spilled_bytes", "faulted_bytes", "evictions", "pins"];
    let got = sites.map(|s| rep.counter(&format!("lang.exec.ooc.{s}")).unwrap_or(0));
    assert_eq!(got, [failed.spilled_bytes, failed.faulted_bytes, failed.evictions, failed.pins]);
    drop(ex);
    assert_eq!((pool.used(), pool.resident()), (0, 0), "the failed eval left pages behind");

    let want = Executor::new(&p.graph).eval(p.root, &env).unwrap().as_scalar().unwrap();
    let mut ex = Executor::with_plan(&p.graph, plan).with_spill_pool(pool.clone());
    let got = ex.eval(p.root, &env).unwrap().as_scalar().unwrap();
    assert_eq!(got.to_bits(), want.to_bits());
    assert_eq!(pool.used(), 0);
    pool.audit_quiescent().unwrap();
}

/// Executors on several threads run one blocked plan through one shared
/// spill pool at once, each on its own inputs. The pool names every block
/// store, so no eval reads another's page: each result is its in-memory
/// eval's bits, and the pool ends empty.
#[test]
fn concurrent_blocked_evals_share_one_spill_pool() {
    let p = program();
    let (n, k, m) = (128, 24, 48);
    let mut sizes = InputSizes::new();
    sizes.declare("X", n, k, 1.0);
    sizes.declare("B", k, m, 1.0);
    let budget = 8 * (n * k + k * m + 2 * n * m) / 4;
    let plan = plan_under(&p, &sizes, 1, budget);
    let pool = dm_lang::memory::spill_pool(budget);
    let threads = 3;
    let start = std::sync::Barrier::new(threads);
    std::thread::scope(|s| {
        for salt in 0..threads as u64 {
            let (p, plan, pool, start) = (&p, &plan, &pool, &start);
            s.spawn(move || {
                let mut env = Env::new();
                env.bind("X", Matrix::Dense(dense_input(n, k, salt)));
                env.bind("B", Matrix::Dense(dense_input(k, m, salt + 100)));
                let want = Executor::new(&p.graph).eval(p.z, &env).unwrap().as_dense().unwrap();
                // Every thread's first blocked eval starts at once.
                start.wait();
                for _ in 0..4 {
                    let mut ex =
                        Executor::with_plan(&p.graph, plan.clone()).with_spill_pool(pool.clone());
                    let got = ex.eval(p.z, &env).unwrap().as_dense().unwrap();
                    assert_eq!(bits(&got), bits(&want), "thread {salt}");
                }
            });
        }
    });
    assert!(pool.stats().evictions > 0, "the evals spilled: {:?}", pool.stats());
    assert_eq!(pool.used(), 0, "every block store freed its pages");
    pool.audit_quiescent().unwrap();
}

/// `DMML_MEM_BUDGET` drives `PlanOptions::from_env`, with the explicit API
/// taking precedence. This test owns the env var: nothing else in this
/// process reads it concurrently.
#[test]
fn mem_budget_env_var_drives_auto_planning() {
    let p = program();
    let mut sizes = InputSizes::new();
    sizes.declare("X", 4096, 512, 1.0); // 16 MB
    sizes.declare("B", 512, 1024, 1.0);
    std::env::set_var(dm_lang::MEM_BUDGET_ENV, "1m");
    let model = dm_lang::CostModel::from_env();
    let auto = CompiledProgram::new(
        p.graph.clone(),
        p.root,
        &PlanOptions::from_env(&sizes, model.as_ref()),
    )
    .unwrap()
    .plan;
    std::env::remove_var(dm_lang::MEM_BUDGET_ENV);
    assert_eq!(auto.kernel(p.y), Kernel::Blocked);
    assert_eq!(auto.mem_budget(), Some(1 << 20));

    // Unset: auto planning stays unbounded.
    let auto = CompiledProgram::new(
        p.graph.clone(),
        p.root,
        &PlanOptions::from_env(&sizes, model.as_ref()),
    )
    .unwrap()
    .plan;
    assert_eq!(auto.mem_budget(), None);
    assert_ne!(auto.kernel(p.y), Kernel::Blocked);

    // Explicit API beats whatever the environment says.
    std::env::set_var(dm_lang::MEM_BUDGET_ENV, "1m");
    let explicit =
        CompiledProgram::new(p.graph.clone(), p.root, &PlanOptions::new(&sizes)).unwrap().plan;
    std::env::remove_var(dm_lang::MEM_BUDGET_ENV);
    assert_eq!(explicit.mem_budget(), None);
    assert_ne!(explicit.kernel(p.y), Kernel::Blocked);
}

/// This process's executor spill directories (`dmml_spill_<pid>_<seq>`)
/// currently present in the temp dir.
fn spill_dirs() -> std::collections::BTreeSet<String> {
    let prefix = format!("dmml_spill_{}_", std::process::id());
    std::fs::read_dir(std::env::temp_dir())
        .expect("temp dir lists")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with(&prefix))
        .collect()
}

/// A blocked eval creates a private spill directory; dropping the executor
/// must take it away again, not leave one empty directory per executor.
#[test]
fn dropping_a_blocked_executor_removes_its_spill_directory() {
    let p = program();
    let (n, k, m) = (128, 24, 48);
    let mut env = Env::new();
    env.bind("X", Matrix::Dense(dense_input(n, k, 13)));
    env.bind("B", Matrix::Dense(dense_input(k, m, 17)));
    let mut sizes = InputSizes::new();
    sizes.declare("X", n, k, 1.0);
    sizes.declare("B", k, m, 1.0);
    let plan = plan_under(&p, &sizes, 1, 8 * (n * k + k * m + 2 * n * m) / 4);

    // Other tests of this binary run blocked evals on other threads, so a
    // round only counts when exactly one directory appeared during it: that
    // one is this executor's.
    for _ in 0..100 {
        let before = spill_dirs();
        let mut ex = Executor::with_plan(&p.graph, plan.clone());
        ex.eval(p.root, &env).unwrap();
        assert!(ex.ooc_pool_stats().is_some(), "the eval went through the spill pool");
        let during = spill_dirs();
        let mut appeared = during.difference(&before);
        let (Some(mine), None) = (appeared.next(), appeared.next()) else {
            continue;
        };
        drop(ex);
        assert!(!spill_dirs().contains(mine), "{mine} outlived its executor");
        return;
    }
    panic!("never saw a round with exactly one new spill directory");
}

/// A gemm whose left operand is narrower than its product: `X` 8192x8 times
/// `B` 8x256 under a quarter of the working set. The output store takes its
/// panels from `X`'s, so both are sized from the product's width; sized from
/// `X`'s 8 columns alone, one output panel would be the whole 16 MiB product.
/// The blocked plan runs at degrees 1 and 2 with the in-memory plan's bits.
#[test]
fn a_gemm_with_a_narrow_left_operand_runs_blocked() {
    let p = program();
    let (n, k, m) = (8192, 8, 256);
    let mut env = Env::new();
    env.bind("X", Matrix::Dense(dense_input(n, k, 21)));
    env.bind("B", Matrix::Dense(dense_input(k, m, 23)));
    let mut sizes = InputSizes::new();
    sizes.declare("X", n, k, 1.0);
    sizes.declare("B", k, m, 1.0);
    let budget = 8 * (n * k + k * m + 2 * n * m) / 4;
    let in_memory = |root| Executor::new(&p.graph).eval(root, &env).unwrap();
    let (want_z, want) = (in_memory(p.z).as_dense().unwrap(), in_memory(p.root));
    for degree in [1, 2] {
        let plan = plan_under(&p, &sizes, degree, budget);
        assert_eq!(plan.kernel(p.y), Kernel::Blocked);
        let mut ex = Executor::with_plan(&p.graph, plan);
        let z = ex.eval(p.z, &env).unwrap().as_dense().unwrap();
        assert_eq!(bits(&z), bits(&want_z), "degree {degree}");
        let got = ex.eval(p.root, &env).unwrap();
        assert_eq!(got.as_scalar().unwrap().to_bits(), want.as_scalar().unwrap().to_bits());
        assert_eq!(ex.ooc_pool().expect("the gemm went blocked").used(), 0);
    }
}
