//! The Gram matrix of a join never materializes the join: `crossprod` on a
//! normalized matrix (CLA's group-pair crossprod) keeps no more than 1 MiB
//! live besides its `cols x cols` output, where decompressing the
//! `rows x cols` matrix would take 16 MB on this shape. A live-byte
//! counting global allocator measures the high-water mark during the call.
//!
//! This file holds one test on purpose: the counter is process-wide, so a
//! second test running concurrently would add its bytes to the measurement.

use dm_factorized::{DimTable, NormalizedMatrix};
use dm_matrix::{ops, Dense};
use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicIsize, Ordering};

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

/// The high-water mark of live bytes during `f`, above those live when it
/// starts; what `f` returns counts, as it is still live at the end.
fn measure<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, (PEAK.load(Ordering::Relaxed) - base) as usize)
}

#[test]
fn crossprod_of_a_star_join_keeps_under_one_mib_besides_its_output() {
    // 100k fact rows with 4 features joining a 1k-row, 16-feature table.
    let (n, nk, ds, dk) = (100_000, 1_000, 4, 16);
    let s = Dense::from_fn(n, ds, |r, c| ((r * 31 + c * 17) % 23) as f64 * 0.1 - 1.0);
    let r = Dense::from_fn(nk, dk, |g, c| ((g * 7 + c * 13) % 19) as f64 * 0.1 - 0.9);
    let fk = (0..n).map(|i| (i * 7919) % nk).collect();
    let nm = NormalizedMatrix::new(s, vec![DimTable::new(r, fk).unwrap()]).unwrap();
    let cols = nm.cols();

    let (got, peak) = measure(|| nm.crossprod());
    let budget = (1 << 20) + cols * cols * size_of::<f64>();
    assert!(peak <= budget, "crossprod kept {peak} bytes live (budget {budget})");

    let expect = ops::crossprod(&nm.decompress());
    assert!(got.approx_eq(&expect, 1e-6), "max diff {}", got.max_abs_diff(&expect));
}
