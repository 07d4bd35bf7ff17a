//! Values are shared, never copied: evaluating a program over a bound matrix
//! allocates only what its operators produce, and `sum(f(X %*% W))` does
//! not even produce `X %*% W`. A byte-counting global allocator pins it —
//! one eval allocates less than a single `X %*% W`, itself half the size of
//! the input — while every reader of `X` shares the caller's allocation.
//! This file owns that never-materialized property of the fused sum.
//!
//! This file holds one test on purpose: the counter is process-wide, so a
//! second test running concurrently would add its bytes to the measurement.

use dm_lang::cost::CostModel;
use dm_lang::exec::{Env, Executor, Val};
use dm_lang::expr::Op;
use dm_lang::memory::MemoryBudget;
use dm_lang::size::InputSizes;
use dm_matrix::{Dense, Matrix};
use dm_obs::profile::ProfileStore;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Bytes requested from the allocator so far (growth only: a `realloc`
/// counts what it adds, frees count nothing).
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

/// The system allocator plus a counter; every call forwards unchanged.
struct Counting;

// SAFETY: each method forwards its arguments untouched to `System`, so the
// `GlobalAlloc` contract holds exactly as it does for `System`; the only
// addition is a relaxed atomic add, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size.saturating_sub(layout.size()), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`, and `new_size`
        // meets `realloc`'s requirements, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const ROWS: usize = 4096;
const COLS: usize = 64;
const OUT: usize = 32;

fn matrix(v: &Val) -> &Arc<Matrix> {
    match v {
        Val::Matrix(m) => m,
        Val::Scalar(_) => panic!("expected a matrix value"),
    }
}

#[test]
fn eval_allocates_less_than_one_product_and_memo_hits_share() {
    let f = |r: usize, c: usize| ((r * 31 + c * 17) % 23) as f64 * 0.01 - 0.1;
    let x = Arc::new(Matrix::Dense(Dense::from_fn(ROWS, COLS, f)));
    let xw_bytes = ROWS * OUT * std::mem::size_of::<f64>();
    let mut env = Env::new();
    env.bind("X", Arc::clone(&x));
    env.bind("W", Matrix::Dense(Dense::from_fn(COLS, OUT, f)));
    env.bind("y", Matrix::Dense(Dense::from_fn(ROWS, 1, f)));
    let mut sizes = InputSizes::new();
    sizes.declare("X", ROWS, COLS, 1.0);
    sizes.declare("W", COLS, OUT, 1.0);
    sizes.declare("y", ROWS, 1, 1.0);
    let src = "sum(abs(t(X) %*% X)) + sum(exp(X %*% W)) + sum(abs(t(X) %*% y))";
    let model = CostModel::new(ProfileStore::new());
    let prog = dm_lang::compile(src, &sizes, 1, MemoryBudget::unbounded(), &model).unwrap();
    let node = |is: fn(&Op) -> bool| {
        prog.graph.reachable(prog.root).into_iter().find(|&id| is(prog.graph.op(id)))
    };
    // The rewriter turns both t(X) uses into fused operators that read X
    // in place: the plan holds no Transpose, so nothing may copy X.
    assert!(node(|op| matches!(op, Op::Transpose(_))).is_none());
    assert!(node(|op| matches!(op, Op::Tmv(..))).is_some());
    assert!(node(|op| matches!(op, Op::CrossProd(_))).is_some());
    let input_x = node(|op| matches!(op, Op::Input(name) if name == "X")).unwrap();
    let x_reads = prog
        .graph
        .reachable(prog.root)
        .into_iter()
        .flat_map(|id| prog.graph.op(id).children())
        .filter(|&c| c == input_x)
        .count();
    assert!(x_reads >= 3, "crossprod, tmv and the streamed product all read X");

    let mut ex = Executor::with_plan(&prog.graph, prog.plan.clone());
    let before = ALLOCATED.load(Ordering::Relaxed);
    let out = ex.eval(prog.root, &env).unwrap();
    let allocated = ALLOCATED.load(Ordering::Relaxed) - before;
    assert!(out.as_scalar().is_some_and(f64::is_finite), "{out:?}");
    assert!(
        allocated < xw_bytes,
        "one eval allocated {allocated} bytes, at least one {xw_bytes}-byte X %*% W"
    );

    // Shared reads are pointer copies: every read of X but the last shared
    // it within that one eval, and a copy of X (twice one X %*% W) would
    // have broken the bound above. The input node yields the caller's own
    // allocation.
    assert!(ex.stats().memo_hits >= x_reads as u64 - 1, "{:?}", ex.stats());
    assert!(Arc::ptr_eq(matrix(&ex.eval(input_x, &env).unwrap()), &x));
}
