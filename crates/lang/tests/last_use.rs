//! The executor frees each value after its last reader and runs the order
//! its plan was certified for. A counting global allocator
//! tracks live bytes (allocated minus freed) and their high-water mark
//! during one `eval`, so both show up as bytes:
//!
//! - `sum(A %*% B) + sum(C %*% D)`: the first product is freed once its
//!   `sum` has read it, so the second is computed without it;
//! - `exp(X) + ((A %*% B) %*% C)`: under a budget the planner picks the
//!   order that computes the big `A %*% B` before `exp(X)` exists, where
//!   depth-first order holds `exp(X)` across it;
//! - `sum(exp(X %*% W))`: the plan fuses the product and `exp` into the
//!   `sum`, and the certificate charges the streamed panels the eval
//!   really holds instead of either 8 MiB value;
//! - `crossprod(X)` of a 1 Mi-row `X` at degree 2: of its 1024 block
//!   partials, at most three are live at once;
//! - the `inproc_dense` program, whose crossprod, fused `sum(exp(X %*% W))`
//!   and tmv share one row pass over `X`: the certificate charges every
//!   member's value and the streamed panels at the pass's step;
//! - six programs over CSR inputs, and generated programs over dense and
//!   CSR inputs, at degrees 1 and 2, unbounded and under a quarter of that
//!   budget: each eval holds at most what its certificate charges, the dense
//!   copies of CSR operands included.
//!
//! The counter is process-wide, so the tests serialize through one lock.

use dm_lang::exec::{Env, Executor, Val};
use dm_lang::expr::{AggOp, EwiseOp, Graph, NodeId, Op, UnaryOp};
use dm_lang::liveness::certify_plan;
use dm_lang::memory::MemoryBudget;
use dm_lang::physical::{Kernel, PlanOptions};
use dm_lang::size::{propagate, InputSizes};
use dm_lang::CompiledProgram;
use dm_matrix::pack::{KC, NC};
use dm_matrix::par::ROW_BLOCK;
use dm_matrix::{Csr, Dense, Matrix};
use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Bytes currently allocated.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// The highest `LIVE` since the last [`measure`] started.
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn grow(bytes: isize) {
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

/// The system allocator plus the live-byte counter; every call forwards
/// unchanged.
struct Counting;

// SAFETY: each method forwards its arguments untouched to `System`, so the
// `GlobalAlloc` contract holds exactly as it does for `System`; the only
// additions are relaxed atomic updates, which neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as isize);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as isize);
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as isize - layout.size() as isize);
        // SAFETY: `ptr` came from `System` with `layout`, and `new_size`
        // meets `realloc`'s requirements, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What a gemm allocates besides its output while it runs: one packed
/// `KC x NC` slab of `B`, padded by at most one register tile (at most 32
/// columns wide). `A` is read in place.
const PACK_SCRATCH: usize = KC * (NC + 32) * size_of::<f64>();

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    dm_obs::lock(&LOCK)
}

/// The high-water mark of live bytes during `f`, above those live when it
/// starts; what `f` returns counts, as it is still live at the end.
fn measure<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, (PEAK.load(Ordering::Relaxed) - base) as usize)
}

fn input(rows: usize, cols: usize, seed: usize) -> Dense {
    Dense::from_fn(rows, cols, |r, c| ((r * 31 + c * 17 + seed) % 23) as f64 * 0.01 - 0.1)
}

fn bytes(rows: usize, cols: usize) -> usize {
    rows * cols * size_of::<f64>()
}

#[test]
fn a_product_is_freed_once_its_sum_has_read_it() {
    const N: usize = 1024;
    const K: usize = 64;
    let _guard = lock();
    // `Sum` reads each `MatMul` directly, so nothing fuses and each product
    // is materialized: 8 MiB.
    let mut g = Graph::new();
    let mut sum_of_product = |a: &str, b: &str| {
        let (a, b) = (g.input(a), g.input(b));
        let product = g.matmul(a, b);
        g.agg(AggOp::Sum, product)
    };
    let (left, right) = (sum_of_product("A", "B"), sum_of_product("C", "D"));
    let root = g.ewise(EwiseOp::Add, left, right);
    let mut env = Env::new();
    for (i, name) in ["A", "C"].into_iter().enumerate() {
        env.bind(name, Matrix::Dense(input(N, K, i)));
    }
    for (i, name) in ["B", "D"].into_iter().enumerate() {
        env.bind(name, Matrix::Dense(input(K, N, i + 2)));
    }
    let product = bytes(N, N);
    assert!(product + PACK_SCRATCH < 2 * product, "the allowance fits under a second product");

    let mut ex = Executor::new(&g);
    let (out, high_water) = measure(|| ex.eval(root, &env).unwrap());
    assert!(out.as_scalar().is_some_and(f64::is_finite), "{out:?}");
    println!("sum(A %*% B) + sum(C %*% D): high water {high_water} B, one product {product} B");
    assert!(
        high_water < product + PACK_SCRATCH,
        "high water {high_water} B: the first {product}-byte product outlived its sum"
    );
}

/// `exp(X) + ((A %*% B) %*% C)`, returning the graph and its root.
fn transient_under_hold() -> (Graph, NodeId) {
    let mut g = Graph::new();
    let x = g.input("X");
    let held = g.unary(UnaryOp::Exp, x);
    let (a, b, c) = (g.input("A"), g.input("B"), g.input("C"));
    let ab = g.matmul(a, b);
    let abc = g.matmul(ab, c);
    let root = g.ewise(EwiseOp::Add, held, abc);
    (g, root)
}

#[test]
fn a_bounded_plan_runs_its_lower_peak_order() {
    // exp(X), (A %*% B) %*% C and the result are 1 MiB each; A %*% B is
    // 4 MiB.
    const N: usize = 512;
    const P: usize = 256;
    const K: usize = 32;
    const M: usize = 1024;
    let _guard = lock();
    let (g, root) = transient_under_hold();
    let mut sizes = InputSizes::new();
    sizes.declare("X", N, P, 1.0);
    sizes.declare("A", N, K, 1.0);
    sizes.declare("B", K, M, 1.0);
    sizes.declare("C", M, P, 1.0);
    let infos = propagate(&g, root, &sizes).unwrap();
    // Roomy enough that neither order needs a blocked kernel, so the
    // planner keeps the lower certified peak. The unbounded plan keeps the
    // depth-first order.
    let budget = MemoryBudget::bytes(1 << 30);
    let dfs = CompiledProgram::new(g.clone(), root, &PlanOptions::new(&sizes)).unwrap().plan;
    let re =
        CompiledProgram::new(g.clone(), root, &PlanOptions { budget, ..PlanOptions::new(&sizes) })
            .unwrap()
            .plan;
    assert!(re.nodes_with(Kernel::Blocked).is_empty());
    assert_ne!(re.schedule().order(), dfs.schedule().order());
    let dfs_cert = certify_plan(&g, root, &dfs, &infos, budget).peak_bytes;
    let re_cert = certify_plan(&g, root, &re, &infos, budget).peak_bytes;
    assert!(re_cert < dfs_cert, "certified peaks: reordered {re_cert} B, depth-first {dfs_cert} B");

    let mut env = Env::new();
    env.bind("X", Matrix::Dense(input(N, P, 0)));
    env.bind("A", Matrix::Dense(input(N, K, 1)));
    env.bind("B", Matrix::Dense(input(K, M, 2)));
    env.bind("C", Matrix::Dense(input(M, P, 3)));
    let run = |mut ex: Executor| {
        let (out, high_water) = measure(|| ex.eval(root, &env).unwrap());
        let Val::Matrix(m) = out else { panic!("a matrix root") };
        (m.to_dense().data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(), high_water)
    };
    let (dfs_bits, dfs_high) = run(Executor::new(&g));
    let (re_bits, re_high) = run(Executor::with_plan(&g, re));
    assert_eq!(re_bits, dfs_bits, "the order changes no bits");
    println!(
        "exp(X) + ((A %*% B) %*% C): high water depth-first {dfs_high} B, reordered {re_high} B \
         (certified {dfs_cert} B, {re_cert} B)"
    );
    // Depth-first order holds exp(X) across the product chain's peak; the
    // reordered one computes it after. Allocator bookkeeping moves either
    // mark by bytes, so half of exp(X) separates a saving from noise.
    let held = bytes(N, P);
    assert!(
        re_high + held / 2 < dfs_high,
        "the reordered plan peaked at {re_high} B, depth-first at {dfs_high} B: \
         less than half of exp(X)'s {held} B apart"
    );
}

#[test]
fn a_streamed_product_is_certified_at_its_panels() {
    // X %*% W and exp(X %*% W) are 8 MiB each; a panel of the product is
    // ROW_BLOCK rows, 1 MiB.
    const N: usize = 8192;
    const K: usize = 64;
    const M: usize = 128;
    let _guard = lock();
    let mut g = Graph::new();
    let (x, w) = (g.input("X"), g.input("W"));
    let product = g.matmul(x, w);
    let mapped = g.unary(UnaryOp::Exp, product);
    let root = g.agg(AggOp::Sum, mapped);
    let mut sizes = InputSizes::new();
    sizes.declare("X", N, K, 1.0);
    sizes.declare("W", K, M, 1.0);
    let infos = propagate(&g, root, &sizes).unwrap();
    let mut env = Env::new();
    env.bind("X", Matrix::Dense(input(N, K, 0)));
    env.bind("W", Matrix::Dense(input(K, M, 1)));
    let inputs = bytes(N, K) + bytes(K, M);
    let mut bits = Vec::new();
    for degree in [1, 2] {
        let p = CompiledProgram::new(
            g.clone(),
            root,
            &PlanOptions { degree, ..PlanOptions::new(&sizes) },
        )
        .unwrap()
        .plan;
        let certified = certify_plan(&g, root, &p, &infos, MemoryBudget::unbounded()).peak_bytes;
        // The inputs, `degree` panels and the scalar result: neither product.
        let panels = degree * bytes(ROW_BLOCK, M);
        assert_eq!(certified, inputs + panels + size_of::<f64>(), "degree {degree}");
        let mut ex = Executor::with_plan(&g, p);
        let (out, high_water) = measure(|| ex.eval(root, &env).unwrap());
        bits.push(out.as_scalar().unwrap().to_bits());
        println!(
            "sum(exp(X %*% W)) at degree {degree}: high water {high_water} B, certified {certified} \
             B of which {inputs} B inputs bound before the eval"
        );
        // The inputs were allocated before the eval started; the rest of the
        // certificate is what the eval allocates, up to each worker's pack
        // scratch, which the certificate does not model.
        assert!(certified >= high_water, "certified {certified} B, observed {high_water} B");
        assert!(
            high_water <= certified - inputs + degree * PACK_SCRATCH,
            "observed {high_water} B over the certified {} B and {degree} x {PACK_SCRATCH} B \
             of pack scratch",
            certified - inputs
        );
        assert!(high_water >= panels, "observed {high_water} B: the panels were not all held");
    }
    assert_eq!(bits[0], bits[1], "the degree changes no bits");
}

#[test]
fn a_tall_crossprod_holds_at_most_three_partials_at_degree_two() {
    // 1 Mi rows are 1024 ROW_BLOCK partials of D x D; the ordered fold
    // keeps one per worker and the running sum: 3 at degree 2, not 1024.
    const N: usize = 1 << 20;
    const D: usize = 8;
    let _guard = lock();
    let x = input(N, D, 0);
    let partial = bytes(D, D);
    let (gram, high_water) = measure(|| dm_matrix::par::crossprod(&x, 2));
    assert_eq!(gram, dm_matrix::par::crossprod(&x, 1), "the degree changes no bits");
    // Each worker also packs its 64-row chunks into a slab at most one
    // 32-column register tile wide; thread start-up allocates a little.
    let scratch = 2 * bytes(64, 32) + (16 << 10);
    println!("crossprod of {N}x{D} at degree 2: high water {high_water} B, partial {partial} B");
    assert!(
        high_water <= 3 * partial + scratch,
        "high water {high_water} B: more than 3 partials of {partial} B and {scratch} B of scratch"
    );
    assert!(N / ROW_BLOCK * partial > 4 * (3 * partial + scratch), "the bound tells 1024 apart");
}

#[test]
fn a_row_pass_is_certified_at_its_members_and_panels() {
    // The inproc_dense program at degree 2: the crossprod, the fused
    // sum(exp(X %*% W)) and the tmv run in one pass over X, at the step of
    // the crossprod, which holds every member's value and the streamed
    // panels of X %*% W at once.
    const N: usize = 8192;
    const D: usize = 256;
    const M: usize = 128;
    const DEGREE: usize = 2;
    let _guard = lock();
    let src = "sum(abs(t(X) %*% X)) + sum(exp(X %*% W)) + sum(abs(t(X) %*% y))";
    let mut sizes = InputSizes::new();
    sizes.declare("X", N, D, 1.0);
    sizes.declare("W", D, M, 1.0);
    sizes.declare("y", N, 1, 1.0);
    let (g, root) = dm_lang::parser::parse(src).unwrap();
    let (g, root, _) = dm_lang::optimize(&g, root, &sizes).unwrap();
    let infos = propagate(&g, root, &sizes).unwrap();
    let opts = PlanOptions { degree: DEGREE, ..PlanOptions::new(&sizes) };
    let p = CompiledProgram::new(g.clone(), root, &opts).unwrap().plan;
    let members = g.reachable(root).into_iter().filter(|&n| p.schedule().pass_of(n).is_some());
    assert_eq!(members.count(), 3, "crossprod, the fused sum and tmv share a pass");
    let certified = certify_plan(&g, root, &p, &infos, MemoryBudget::unbounded()).peak_bytes;
    let mut env = Env::new();
    env.bind("X", Matrix::Dense(input(N, D, 0)));
    env.bind("W", Matrix::Dense(input(D, M, 1)));
    env.bind("y", Matrix::Dense(input(N, 1, 2)));
    let inputs = bytes(N, D) + bytes(D, M) + bytes(N, 1);
    let mut ex = Executor::with_plan(&g, p);
    let (_, high_water) = measure(|| ex.eval(root, &env).unwrap());
    // Besides what the certificate charges, the pass holds a block partial
    // of the crossprod and of the tmv per worker, each worker's crossprod
    // packing scratch (64 rows of X) and W packed once; thread start-up and
    // the pass's bookkeeping allocate a little.
    let slack =
        DEGREE * (bytes(D, D) + bytes(1, D) + bytes(64, D)) + bytes(D, M + 32) + (128 << 10);
    println!(
        "row pass at degree {DEGREE}: high water {high_water} B, certified {certified} B of which \
         {inputs} B inputs bound before the eval, {slack} B of partials and scratch allowed"
    );
    assert!(certified >= high_water, "certified {certified} B, observed {high_water} B");
    assert!(
        high_water <= certified - inputs + slack,
        "observed {high_water} B over the certified {} B and {slack} B of partials and scratch",
        certified - inputs
    );
}

/// What one eval of `prog` over `env` held and what its certificate charged,
/// both above the inputs bound before the eval: the high-water mark of live
/// bytes, and the certified peak less, at each step, the bytes charged to
/// inputs bound in the representation the plan holds them in (`bound`).
fn held_and_charged(
    prog: &CompiledProgram,
    env: &Env,
    bound: impl Fn(&str) -> bool,
) -> (usize, usize) {
    let input = |v: NodeId| matches!(prog.graph.op(v), Op::Input(name) if bound(name));
    let charged = prog
        .certificate
        .timeline
        .iter()
        .map(|su| {
            let inputs: usize = su.live.iter().filter(|&&(v, _)| input(v)).map(|&(_, b)| b).sum();
            su.live_bytes - inputs
        })
        .max()
        .unwrap_or(0);
    let mut ex = Executor::with_plan(&prog.graph, prog.plan.clone());
    let (_, held) = measure(|| ex.eval(prog.root, env).unwrap());
    (held, charged)
}

/// The bytes of the values the certificate charges to no step: derived
/// values that only blocked kernels read, which it models as streamed
/// through the spill pool while the executor holds them whole (ROADMAP item
/// 13(a)). Zero for every plan without a blocked node.
fn streamed(prog: &CompiledProgram) -> usize {
    let (g, plan) = (&prog.graph, &prog.plan);
    let nodes = g.reachable(prog.root);
    let readers = |v: NodeId| nodes.iter().filter(move |&&n| g.op(n).children().contains(&v));
    nodes
        .iter()
        .filter(|&&v| !matches!(g.op(v), Op::Input(_)))
        .filter(|&&v| plan.row(v).is_some_and(|r| r.densify == [false; 2]))
        .filter(|&&v| {
            readers(v).count() > 0 && readers(v).all(|&n| plan.kernel(n) == Kernel::Blocked)
        })
        .map(|&v| bytes(prog.sizes[&v].shape.rows(), prog.sizes[&v].shape.cols()))
        .sum()
}

/// Plan `g` at degrees 1 and 2, unbounded and under a quarter of the
/// unbounded certificate, run each plan over `env` and check that the eval
/// held at most what the certificate charged, plus each worker's pack
/// scratch and the [`streamed`] values. Returns the largest such allowance.
fn check_charged(
    what: &str,
    (g, root): (&Graph, NodeId),
    sizes: &InputSizes,
    env: &Env,
    bound: &dyn Fn(&str) -> bool,
) -> usize {
    let mut most_streamed = 0;
    for degree in [1, 2] {
        let opts = PlanOptions { degree, ..PlanOptions::new(sizes) };
        let unbounded = CompiledProgram::new(g.clone(), root, &opts).unwrap();
        let quarter = MemoryBudget::bytes(unbounded.certificate.peak_bytes / 4);
        for budget in [MemoryBudget::unbounded(), quarter] {
            let prog =
                CompiledProgram::new(g.clone(), root, &PlanOptions { budget, ..opts }).unwrap();
            let (held, charged) = held_and_charged(&prog, env, bound);
            let streamed = streamed(&prog);
            most_streamed = most_streamed.max(streamed);
            println!(
                "{what} at degree {degree}, budget {:?} ({} blocked): held {held} B, certified \
                 {charged} B above the inputs, {streamed} B streamed",
                budget.get(),
                prog.blocked_nodes
            );
            assert!(
                held <= charged + degree * PACK_SCRATCH + streamed,
                "{what} at degree {degree}, budget {:?}: held {held} B over the certified \
                 {charged} B, {degree} x {PACK_SCRATCH} B of pack scratch and {streamed} B \
                 streamed\n{}",
                budget.get(),
                prog.certificate.render(&prog.graph)
            );
        }
    }
    most_streamed
}

/// A `rows x cols` matrix with a non-zero wherever `pattern(r, c)`, each
/// positive and below 1.6, stored as CSR.
fn sparse(rows: usize, cols: usize, pattern: impl Fn(usize, usize) -> bool) -> Csr {
    let value = |r: usize, c: usize| 0.5 + ((r * 7 + c * 3) % 11) as f64 * 0.1;
    Csr::from_dense(&Dense::from_fn(
        rows,
        cols,
        |r, c| if pattern(r, c) { value(r, c) } else { 0.0 },
    ))
}

#[test]
fn every_probe_program_holds_at_most_what_it_is_charged() {
    // S is 2000 x 2000 at 1 % non-zero, 32 MB dense; X is 50 000 x 8 at
    // 1/12. Both are bound as CSR, as the plan holds them, and W dense.
    let _guard = lock();
    let s = sparse(2000, 2000, |r, c| (r * 7 + c * 13) % 100 == 0);
    let x = sparse(50_000, 8, |r, c| (r * 8 + c) % 12 == 0);
    let mut sizes = InputSizes::new();
    sizes.declare("S", 2000, 2000, s.sparsity());
    sizes.declare("X", 50_000, 8, x.sparsity());
    sizes.declare("W", 8, 64, 1.0);
    let mut env = Env::new();
    env.bind("S", Matrix::Sparse(s));
    env.bind("X", Matrix::Sparse(x));
    env.bind("W", Matrix::Dense(input(8, 64, 3)));
    for src in ["S * S", "colSums(S + S)", "sqrt(S) * 2", "t(S) - S", "sum(exp(S))", "X %*% W"] {
        let (g, root) = dm_lang::parser::parse(src).unwrap();
        let streamed = check_charged(src, (&g, root), &sizes, &env, &|_| true);
        assert_eq!(streamed, 0, "{src}: every value it holds is charged");
    }
}

/// Rows and columns of the generated programs' tall inputs: 8192 x 48 is
/// 3 MiB dense, more than a worker's pack scratch, so one uncharged dense
/// copy shows.
const TALL: (usize, usize) = (8192, 48);

/// A pseudo-random hash of a cell and a salt.
fn hash(r: usize, c: usize, salt: u64) -> u64 {
    let h =
        (r as u64).wrapping_mul(6_364_136_223_846_793_005) ^ (c as u64).wrapping_add(salt << 20);
    h.wrapping_mul(1_442_695_040_888_963_407) >> 11
}

/// A matrix whose cells are non-zero with probability `density`, drawn from
/// `pattern` alone (so two matrices of one pattern align), valued in
/// [0.1, 1.1) from `seed`.
fn generated(rows: usize, cols: usize, density: f64, pattern: u64, seed: u64) -> Dense {
    Dense::from_fn(rows, cols, |r, c| {
        let on = (hash(r, c, pattern) % 1_000_000) as f64 / 1e6 < density;
        if on {
            0.1 + (hash(r, c, seed) % 1000) as f64 * 1e-3
        } else {
            0.0
        }
    })
}

/// A program over tall inputs `A` and `B` and a square `Q`, one op per
/// code, summed at the root through `sum`, `colSums` and a square value.
/// Two codes naming one value make a self-product.
fn generated_program(codes: &[(u8, u8, u8)]) -> (Graph, NodeId) {
    let mut g = Graph::new();
    let (a, b, q) = (g.input("A"), g.input("B"), g.input("Q"));
    let (mut tall, mut square) = (vec![a, b], vec![q]);
    for &(op, i, j) in codes {
        let x = tall[i as usize % tall.len()];
        let y = tall[j as usize % tall.len()];
        let next = match op {
            0 => g.ewise(EwiseOp::Add, x, y),
            1 => g.ewise(EwiseOp::Sub, x, y),
            2 => g.ewise(EwiseOp::Mul, x, y),
            3 => g.unary(UnaryOp::Sqrt, x),
            4 => g.unary(UnaryOp::Exp, x),
            5 => g.matmul(x, square[j as usize % square.len()]),
            6 => {
                let two = g.constant(2.0);
                g.ewise(EwiseOp::Mul, x, two)
            }
            7 => {
                square.push(g.push(Op::CrossProd(x)));
                continue;
            }
            _ => {
                let t = g.transpose(x);
                square.push(g.matmul(t, y));
                continue;
            }
        };
        tall.push(next);
    }
    let (last, first) = (*tall.last().unwrap(), tall[codes.len() % tall.len()]);
    let cols = g.agg(AggOp::ColSums, first);
    let sums = [g.agg(AggOp::Sum, last), g.agg(AggOp::Sum, cols)];
    let square_sum = g.agg(AggOp::Sum, *square.last().unwrap());
    let partial = g.ewise(EwiseOp::Add, sums[0], sums[1]);
    let root = g.ewise(EwiseOp::Add, partial, square_sum);
    (g, root)
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

    /// Generated programs over dense and CSR inputs of random sparsity
    /// hold at most what they are charged, at degrees 1 and 2, unbounded
    /// and under a quarter of that budget. An input is bound as the plan
    /// holds it or, when its flip is 0, in the other representation, which
    /// its `Input` step converts.
    #[test]
    fn generated_programs_hold_at_most_what_they_are_charged(
        codes in proptest::collection::vec((0u8..9, 0u8..8, 0u8..8), 1..6),
        density in (0usize..5, 0usize..5, 0usize..5),
        flip in (0u8..4, 0u8..4, 0u8..4),
        aligned in 0u8..2,
        seed in 0u64..1000,
    ) {
        const DENSITY: [f64; 5] = [1.0, 0.5, 0.15, 0.04, 0.005];
        let _guard = lock();
        let (graph, root) = generated_program(&codes);
        let (n, d) = TALL;
        let b_pattern = if aligned == 1 { seed } else { seed + 1 };
        let inputs = [
            ("A", generated(n, d, DENSITY[density.0], seed, seed + 2), flip.0),
            ("B", generated(n, d, DENSITY[density.1], b_pattern, seed + 3), flip.1),
            ("Q", generated(d, d, DENSITY[density.2], seed + 4, seed + 5), flip.2),
        ];
        let (mut sizes, mut env, mut converted) = (InputSizes::new(), Env::new(), Vec::new());
        for (name, m, flip) in inputs {
            let sparsity = m.nnz() as f64 / (m.rows() * m.cols()) as f64;
            sizes.declare(name, m.rows(), m.cols(), sparsity);
            let planned_csr = sparsity < dm_lang::physical::SPARSE_THRESHOLD;
            if flip == 0 {
                converted.push(name);
            }
            if planned_csr != (flip == 0) {
                env.bind(name, Matrix::Sparse(Csr::from_dense(&m)));
            } else {
                env.bind(name, Matrix::Dense(m));
            }
        }
        let what = format!("{} over {density:?}", graph.render(root));
        check_charged(&what, (&graph, root), &sizes, &env, &|name| !converted.contains(&name));
    }
}
