//! Scoped worker pool primitives over [`std::thread::scope`].
//!
//! Every helper takes an explicit `degree` (number of workers). Workers are
//! scoped: they borrow from the caller's stack and are joined before the
//! primitive returns, so no `'static` bounds or channels are needed. The
//! caller's own thread always executes the first chunk, which means
//! `degree <= 1` (and tiny inputs) never spawn at all — the serial fallback
//! is the same code path minus the spawns.

use dm_obs::trace;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::thread;
use std::time::Instant;

/// Run one worker's chunk under a `par.task` span linked to the span that was
/// current on the *spawning* thread, and charge the elapsed wall time to the
/// worker's busy counter. When tracing is disabled this is a plain call.
fn traced_chunk<R>(
    parent: Option<trace::SpanHandle>,
    worker: usize,
    items: Range<usize>,
    f: impl FnOnce() -> R,
) -> R {
    if !trace::is_enabled() {
        return f();
    }
    let t0 = Instant::now();
    let mut span = trace::Span::child_of(parent, "par.task", "par");
    span.arg("worker", worker);
    span.arg("items", format!("{}..{}", items.start, items.end));
    let v = f();
    drop(span);
    trace::worker_busy_add(worker, t0.elapsed().as_nanos() as u64);
    v
}

/// Environment variable controlling the default degree of parallelism.
pub const THREADS_ENV: &str = "DMML_THREADS";

/// The workspace-wide default degree of parallelism: `DMML_THREADS` when set
/// to a positive integer, otherwise [`std::thread::available_parallelism`]
/// (1 when even that is unavailable).
///
/// The environment is consulted on every call — it is a handful of
/// nanoseconds against kernels that cross the parallelism threshold, and it
/// keeps tests free to vary the variable per process.
pub fn default_degree() -> usize {
    if let Ok(s) = std::env::var(THREADS_ENV) {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Split `0..n` into at most `parts` contiguous, non-empty, balanced ranges.
///
/// The first `n % parts` ranges are one element longer, so range lengths
/// differ by at most one. Fewer than `parts` ranges are returned when
/// `n < parts`; an empty vector when `n == 0`.
pub fn split_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1).min(n);
    if parts == 0 {
        return Vec::new();
    }
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Run `f` over `0..n` split into at most `degree` contiguous ranges, one per
/// worker. The caller's thread runs the first range; the rest run on scoped
/// threads. With `degree <= 1` no thread is spawned.
pub fn parallel_for<F>(n: usize, degree: usize, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    let ranges = split_ranges(n, degree);
    match ranges.len() {
        0 => {}
        1 => f(0..n),
        _ => {
            let parent = trace::current();
            thread::scope(|s| {
                let f = &f;
                let mut iter = ranges.into_iter();
                let first = iter.next().expect("at least two ranges");
                for (w, r) in iter.enumerate() {
                    s.spawn(move || traced_chunk(parent, w + 1, r.clone(), || f(r)));
                }
                traced_chunk(parent, 0, first.clone(), || f(first));
            });
        }
    }
}

/// Partition a mutable buffer of `items * stride` elements into contiguous
/// per-worker item ranges and run `f(item_range, chunk)` on each, where
/// `chunk` is the sub-slice holding exactly those items.
///
/// This is the write side of the row-partitioned kernels: each worker owns a
/// disjoint slice of the output, so no synchronization (and no change to
/// per-element computation order) is involved.
///
/// # Panics
/// Panics if `stride == 0` or `out.len()` is not a multiple of `stride`.
pub fn for_each_slice_mut<T, F>(out: &mut [T], stride: usize, degree: usize, f: F)
where
    T: Send,
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    assert!(stride > 0, "stride must be positive");
    assert_eq!(
        out.len() % stride,
        0,
        "buffer length {} not a multiple of stride {stride}",
        out.len()
    );
    let items = out.len() / stride;
    let ranges = split_ranges(items, degree);
    match ranges.len() {
        0 => {}
        1 => f(0..items, out),
        _ => {
            let parent = trace::current();
            thread::scope(|s| {
                let f = &f;
                let mut rest = out;
                let mut first = None;
                for (i, r) in ranges.into_iter().enumerate() {
                    let (chunk, tail) = rest.split_at_mut(r.len() * stride);
                    rest = tail;
                    if i == 0 {
                        first = Some((r, chunk));
                    } else {
                        s.spawn(move || traced_chunk(parent, i, r.clone(), move || f(r, chunk)));
                    }
                }
                let (r, chunk) = first.expect("at least two ranges");
                traced_chunk(parent, 0, r.clone(), move || f(r, chunk));
            });
        }
    }
}

/// Evaluate `f(0), .., f(n-1)` across `degree` workers and return the results
/// **in index order**. Each worker fills a disjoint contiguous slice of the
/// result buffer, so ordering is positional, not completion-based.
pub fn map_collect<T, F>(n: usize, degree: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
    for_each_slice_mut(&mut slots, 1, degree, |range, chunk| {
        for (slot, i) in chunk.iter_mut().zip(range) {
            *slot = Some(f(i));
        }
    });
    slots.into_iter().map(|s| s.expect("worker filled every slot")).collect()
}

/// Deterministic chunked map-reduce: split `0..n` into fixed blocks of
/// `block` items (the last may be short), `map` each block on the pool, and
/// fold the partials into `init` **in block order**. Block boundaries never
/// depend on `degree` and the fold order is fixed, so the result is
/// bit-identical at every degree — including 1, which is how the serial
/// kernels in `dm-matrix` execute the very same decomposition.
///
/// The fold streams: workers take blocks in index order, and a worker whose
/// partial is ready waits until every earlier block is folded, folds its
/// own and only then takes another. So besides the running value at most
/// `degree` partials are live, however many blocks there are.
///
/// # Panics
/// Panics if `block == 0`, and with the first panic of `map` or `fold`.
pub fn reduce_blocks<T, A, M, F>(
    n: usize,
    block: usize,
    degree: usize,
    init: A,
    map: M,
    mut fold: F,
) -> A
where
    T: Send,
    A: Send,
    M: Fn(Range<usize>) -> T + Sync,
    F: FnMut(A, T) -> A + Send,
{
    assert!(block > 0, "block size must be positive");
    let blocks = n.div_ceil(block);
    let range = |b: usize| b * block..((b + 1) * block).min(n);
    let width = degree.clamp(1, blocks.max(1));
    if width == 1 {
        return (0..blocks).fold(init, |acc, b| fold(acc, map(range(b))));
    }
    // `turn`: the blocks folded (so whose turn it is), the running value and
    // the fold; a worker that unwinds poisons it, which ends every wait.
    // `next` only hands out block indices, so it needs no ordering.
    let turn = Mutex::new((0, Some(init), fold));
    let (next, wake) = (AtomicUsize::new(0), Condvar::new());
    parallel_for(width, width, |_| {
        let work = || {
            let claimed = std::iter::repeat_with(|| next.fetch_add(1, Ordering::Relaxed));
            for b in claimed.take_while(|&b| b < blocks) {
                let part = map(range(b));
                let Ok(mut t) = turn.lock().and_then(|t| wake.wait_while(t, |t| t.0 != b)) else {
                    return;
                };
                let (folded, acc, fold) = &mut *t;
                *acc = Some(fold(acc.take().expect("a fold in progress"), part));
                *folded += 1;
                wake.notify_all();
            }
        };
        if let Err(panic) = panic::catch_unwind(AssertUnwindSafe(work)) {
            let _poisoned_as_it_unwinds = turn.lock();
            wake.notify_all();
            panic::resume_unwind(panic);
        }
    });
    turn.into_inner().expect("a worker that panicked re-raised it").1.expect("every block folded")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64};

    #[test]
    fn default_degree_is_positive() {
        assert!(default_degree() >= 1);
    }

    #[test]
    fn split_ranges_covers_exactly() {
        for n in [0usize, 1, 2, 7, 64, 1000] {
            for parts in [1usize, 2, 3, 8, 1000] {
                let ranges = split_ranges(n, parts);
                assert!(ranges.len() <= parts);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "contiguous");
                    assert!(!r.is_empty(), "non-empty");
                    next = r.end;
                }
                assert_eq!(next, n, "covers 0..{n} with {parts} parts");
                if let (Some(min), Some(max)) =
                    (ranges.iter().map(Range::len).min(), ranges.iter().map(Range::len).max())
                {
                    assert!(max - min <= 1, "balanced");
                }
            }
        }
    }

    #[test]
    fn parallel_for_visits_every_index_once() {
        for degree in [1usize, 2, 3, 8] {
            let n = 1000;
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            parallel_for(n, degree, |r| {
                for i in r {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "degree {degree}");
        }
    }

    #[test]
    fn parallel_for_empty_and_unit() {
        parallel_for(0, 4, |_| panic!("no work for n == 0"));
        let count = AtomicUsize::new(0);
        parallel_for(1, 4, |r| {
            count.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn for_each_slice_mut_partitions_disjointly() {
        for degree in [1usize, 2, 5] {
            let mut buf = vec![0u64; 12 * 3];
            for_each_slice_mut(&mut buf, 3, degree, |range, chunk| {
                assert_eq!(chunk.len(), range.len() * 3);
                for (k, v) in chunk.iter_mut().enumerate() {
                    *v = (range.start * 3 + k) as u64;
                }
            });
            let expect: Vec<u64> = (0..36).collect();
            assert_eq!(buf, expect, "degree {degree}");
        }
    }

    #[test]
    #[should_panic(expected = "not a multiple of stride")]
    fn for_each_slice_mut_checks_stride() {
        for_each_slice_mut(&mut [0u8; 5], 2, 1, |_, _| {});
    }

    #[test]
    fn map_collect_preserves_index_order() {
        for degree in [1usize, 2, 4, 16] {
            let got = map_collect(257, degree, |i| i * i);
            let expect: Vec<usize> = (0..257).map(|i| i * i).collect();
            assert_eq!(got, expect, "degree {degree}");
        }
    }

    #[test]
    fn reduce_blocks_is_degree_invariant() {
        // Floating-point sum: identical bits at every degree because the
        // block decomposition and fold order are fixed.
        let data: Vec<f64> = (0..10_000).map(|i| (i as f64 * 0.37).sin() * 1e3).collect();
        let sum_at = |degree: usize| {
            reduce_blocks(
                data.len(),
                64,
                degree,
                0.0,
                |r| data[r].iter().sum::<f64>(),
                |a, b| a + b,
            )
        };
        let d1 = sum_at(1);
        for degree in [2usize, 3, 8, 32] {
            assert_eq!(d1.to_bits(), sum_at(degree).to_bits(), "degree {degree}");
        }
    }

    /// A partial that counts the partials alive at once, and lists the
    /// blocks folded into it.
    struct Counted<'c> {
        live: &'c AtomicUsize,
        blocks: Vec<usize>,
    }

    impl<'c> Counted<'c> {
        fn new(live: &'c AtomicUsize, peak: &'c AtomicUsize, blocks: Vec<usize>) -> Self {
            peak.fetch_max(live.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
            Counted { live, blocks }
        }
    }

    impl Drop for Counted<'_> {
        fn drop(&mut self) {
            self.live.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn reduce_blocks_folds_in_order_with_one_partial_per_worker() {
        for degree in 1..=8 {
            for blocks in [0usize, 1, 2, 3, 9, 17] {
                let (live, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
                // The running value is a partial too, and the last block is
                // short. With two workers or more, block 0 finishes only
                // after block 1 has, so block 1 must wait for its turn (the
                // spin is bounded: a schedule that gives both blocks to one
                // worker fails the order check instead of hanging).
                let (init, made_1) = (Counted::new(&live, &peak, vec![]), AtomicBool::new(false));
                let got = reduce_blocks(
                    (blocks * 5).saturating_sub(2),
                    5,
                    degree,
                    init,
                    |r| {
                        let spins =
                            if r.start == 0 && degree > 1 && blocks > 1 { 100_000 } else { 0 };
                        for _ in (0..spins).take_while(|_| !made_1.load(Ordering::SeqCst)) {
                            thread::yield_now();
                        }
                        let part = Counted::new(&live, &peak, vec![r.start / 5]);
                        made_1.fetch_or(r.start == 5, Ordering::SeqCst);
                        part
                    },
                    |mut acc, part| {
                        acc.blocks.extend(&part.blocks);
                        acc
                    },
                );
                let what = format!("{blocks} blocks at degree {degree}");
                assert_eq!(got.blocks, (0..blocks).collect::<Vec<_>>(), "{what}: fold order");
                drop(got);
                assert_eq!(live.load(Ordering::SeqCst), 0, "{what}: every partial dropped");
                let peak = peak.load(Ordering::SeqCst);
                assert!(peak <= degree + 1, "{what}: {peak} partials live at once");
                assert!(peak >= blocks.min(2), "{what}: the counter counts");
            }
        }
    }

    #[test]
    fn reduce_blocks_releases_waiting_workers_when_a_block_panics() {
        let got = panic::catch_unwind(|| {
            let map = |r: Range<usize>| if r.start == 3 { panic!("block 3") } else { 1 };
            reduce_blocks(40, 1, 4, 0, map, |a, b| a + b)
        });
        assert!(got.is_err(), "the panic reaches the caller instead of a hang");
    }

    #[test]
    fn reduce_blocks_of_nothing_is_init() {
        assert_eq!(reduce_blocks(0, 8, 4, 7, |_| 1u32, |a, b| a + b), 7);
    }

    #[test]
    fn parallel_tasks_emit_linked_spans() {
        trace::set_enabled(true);
        let root_handle = {
            let root = trace::Span::enter("test.par.root", "test");
            let h = root.handle().expect("tracing enabled");
            parallel_for(64, 4, |r| {
                std::hint::black_box(r.len());
            });
            h
        };
        trace::set_enabled(false);
        let events = trace::take_events();
        // Other tests may trace concurrently; filter to our own trace id.
        let tasks: Vec<_> = events
            .iter()
            .filter(|e| e.trace == root_handle.trace && e.name == "par.task")
            .collect();
        assert_eq!(tasks.len(), 4, "one task span per worker chunk");
        assert!(tasks.iter().all(|e| e.parent == root_handle.span), "linked to spawning span");
        let mut workers: Vec<usize> =
            tasks.iter().map(|e| e.arg("worker").unwrap().parse().unwrap()).collect();
        workers.sort_unstable();
        assert_eq!(workers, vec![0, 1, 2, 3]);
        assert!(!trace::worker_busy_snapshot().is_empty(), "busy time charged");
    }

    #[test]
    fn stress_concurrent_invocations() {
        // Many threads each drive their own nested parallel_for over a shared
        // accumulator: exercises heavy scoped-spawn churn under contention.
        let total = AtomicU64::new(0);
        thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..50 {
                        parallel_for(100, 4, |r| {
                            let local: u64 = r.map(|i| i as u64).sum();
                            total.fetch_add(local, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        let per_pass: u64 = (0..100u64).sum();
        assert_eq!(total.load(Ordering::Relaxed), 8 * 50 * per_pass);
    }

    #[test]
    fn stress_ordered_fold() {
        // Many threads each run ordered folds at degree 4 under contention:
        // every run must repeat the serial fold's bits.
        let data: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin() * 1e3).collect();
        let sum_at = |degree: usize| {
            reduce_blocks(data.len(), 7, degree, 0.0, |r| data[r].iter().sum::<f64>(), |a, b| a + b)
                .to_bits()
        };
        let serial = sum_at(1);
        thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..50 {
                        assert_eq!(sum_at(4), serial);
                    }
                });
            }
        });
    }
}
