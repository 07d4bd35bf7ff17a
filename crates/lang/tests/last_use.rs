//! The executor frees each value after its last reader and runs the order a
//! `reorder: true` plan was certified for. A counting global allocator
//! tracks live bytes (allocated minus freed) and their high-water mark
//! during one `eval`, so both show up as bytes:
//!
//! - `sum(A %*% B) + sum(C %*% D)`: the first product is freed once its
//!   `sum` has read it, so the second is computed without it;
//! - `exp(X) + ((A %*% B) %*% C)`: the reordered plan computes the big
//!   `A %*% B` before `exp(X)` exists, where depth-first order holds
//!   `exp(X)` across it;
//! - `sum(exp(X %*% W))`: the plan fuses the product and `exp` into the
//!   `sum`, and the certificate charges the streamed panels the eval
//!   really holds instead of either 8 MiB value.
//!
//! The counter is process-wide, so the tests serialize through one lock.

use dm_lang::exec::{Env, Executor, Val};
use dm_lang::expr::{AggOp, EwiseOp, Graph, NodeId, UnaryOp};
use dm_lang::liveness::certify_plan;
use dm_lang::memory::MemoryBudget;
use dm_lang::physical::{plan, Kernel, PlanOptions};
use dm_lang::size::{propagate, InputSizes};
use dm_matrix::pack::{KC, MC, NC};
use dm_matrix::par::ROW_BLOCK;
use dm_matrix::{Dense, Matrix};
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
/// `KC x NC` slab of `B`, padded by at most one register tile (at most 12
/// columns wide), and one packed `MC x KC` block of `A`.
const PACK_SCRATCH: usize = (KC * (NC + 12) + MC * KC) * size_of::<f64>();

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
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
fn a_reordered_plan_runs_its_lower_peak_order() {
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
    // Roomy enough that neither order needs a blocked kernel.
    let budget = MemoryBudget::bytes(1 << 30);
    let opts = PlanOptions { budget, ..PlanOptions::new(&infos) };
    let dfs = plan(&g, root, &opts).unwrap();
    let re = plan(&g, root, &PlanOptions { reorder: true, ..opts }).unwrap();
    assert!(
        dfs.nodes_with(Kernel::Blocked).is_empty() && re.nodes_with(Kernel::Blocked).is_empty()
    );
    let dfs_cert = certify_plan(&g, root, &dfs, &infos, budget).peak_bytes;
    let re_cert = certify_plan(&g, root, &re, &infos, budget).peak_bytes;
    assert!(re_cert < dfs_cert, "certified peaks: reordered {re_cert} B, depth-first {dfs_cert} B");

    let mut env = Env::new();
    env.bind("X", Matrix::Dense(input(N, P, 0)));
    env.bind("A", Matrix::Dense(input(N, K, 1)));
    env.bind("B", Matrix::Dense(input(K, M, 2)));
    env.bind("C", Matrix::Dense(input(M, P, 3)));
    let run = |plan| {
        let mut ex = Executor::with_plan(&g, plan);
        let (out, high_water) = measure(|| ex.eval(root, &env).unwrap());
        let Val::Matrix(m) = out else { panic!("a matrix root") };
        (m.to_dense().data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(), high_water)
    };
    let (dfs_bits, dfs_high) = run(dfs);
    let (re_bits, re_high) = run(re);
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
        let p = plan(&g, root, &PlanOptions { degree, ..PlanOptions::new(&infos) }).unwrap();
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
