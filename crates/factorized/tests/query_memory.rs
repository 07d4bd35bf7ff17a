//! Training from a key–foreign-key query never materializes its join:
//! `from_query`, the normal equations (`crossprod`, `vecmat`) and the
//! predictions (`gemv`) make no single allocation as large as the joined
//! `n x (d_S + d_R)` feature matrix, while the materialized query's
//! `to_dense` does. A counting global allocator records the largest
//! allocation during each path.
//!
//! This file holds one test on purpose: the record is process-wide, so a
//! second test running concurrently would add its allocations to it.

use dm_factorized::NormalizedMatrix;
use dm_matrix::solve::solve_spd;
use dm_rel::{JoinKind, Predicate, Query, Table, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The largest allocation since the last [`largest`] started.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, recording each request's size; every call
/// forwards unchanged.
struct Counting;

// SAFETY: each method forwards its arguments untouched to `System`, so the
// `GlobalAlloc` contract holds exactly as it does for `System`; the only
// addition is a relaxed atomic update, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`, and `new_size`
        // meets `realloc`'s requirements, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The largest single allocation `f` makes.
fn largest<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.store(0, Ordering::Relaxed);
    let out = f();
    (out, LARGEST.load(Ordering::Relaxed))
}

#[test]
fn query_to_fit_allocates_nothing_the_size_of_the_join() {
    // 50k orders with 2 features joining a 500-row, 4-feature table.
    let (n, nk, ds, dr) = (50_000, 500, 2, 4);
    let cell = |i: usize, j: usize| ((i * 31 + j * 17) % 23) as f64 * 0.1 - 1.0;
    let mut fact = Table::builder("fact").float64("s0").float64("s1").int64("fk").build();
    let mut labels = Vec::with_capacity(n);
    for r in 0..n {
        let g = (r * 7919) % nk;
        fact.push_row(vec![cell(r, 0).into(), cell(r, 1).into(), Value::Int64(g as i64)]).unwrap();
        labels.push(cell(r, 0) - 2.0 * cell(r, 1) + cell(g, 2) + 0.5 * cell(g, 5));
    }
    let mut dim = Table::builder("dim").int64("id");
    for j in 0..dr {
        dim = dim.float64(&format!("r{j}"));
    }
    let mut dim = dim.build();
    for g in 0..nk {
        let mut row = vec![Value::Int64(g as i64)];
        row.extend((0..dr).map(|j| Value::Float64(cell(g, j + 2))));
        dim.push_row(row).unwrap();
    }
    let features = ["s0", "s1", "r0", "r1", "r2", "r3"];
    let q = Query::scan(fact)
        .join(dim, "fk", "id", JoinKind::Inner)
        .filter(Predicate::gt("r1", -0.95))
        .project(&features);
    let join_bytes = n * (ds + dr) * size_of::<f64>();

    let ((w, preds, rows), peak) = largest(|| {
        let (nm, rows) = NormalizedMatrix::from_query(&q).unwrap();
        let y: Vec<f64> = rows.iter().map(|&r| labels[r]).collect();
        let w = solve_spd(&nm.crossprod(), &nm.vecmat(&y)).unwrap();
        let preds = nm.gemv(&w);
        (w, preds, rows)
    });
    assert!(peak < join_bytes, "largest allocation {peak} B, the join is {join_bytes} B");
    assert!(rows.len() < n, "the dimension filter keeps every row");
    for (p, &r) in preds.iter().zip(&rows) {
        assert!((p - labels[r]).abs() < 1e-6, "weights {w:?}");
    }

    // The materialized query does allocate the join.
    let (_, peak) = largest(|| q.run().unwrap().to_dense(&features).unwrap());
    assert!(peak >= rows.len() * (ds + dr) * size_of::<f64>(), "largest allocation {peak} B");
}
