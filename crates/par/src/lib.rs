//! # dm-par
//!
//! The workspace's multi-threaded execution substrate: a *scoped* worker pool
//! over [`std::thread::scope`] (no crates.io dependencies, matching the
//! offline build environment) with the two primitives every parallel kernel
//! in the workspace is built from:
//!
//! * [`parallel_for`] / [`for_each_slice_mut`] — partition an index range (or
//!   a mutable output buffer) into contiguous per-worker chunks. Used by the
//!   row-partitioned dense kernels, where output elements are disjoint and
//!   each element is computed exactly as the serial kernel would, so parallel
//!   results are bit-identical to serial by construction.
//! * [`map_collect`] / [`reduce_blocks`] — evaluate independent tasks and
//!   combine their results **in task order**. Reductions over floating-point
//!   data are not associative, so kernels that reduce (column sums, sum of
//!   squares, crossprod) decompose into *fixed-size* blocks whose boundaries
//!   never depend on the degree of parallelism; partials fold left-to-right
//!   in block order as soon as the earlier ones are in (at most `degree`
//!   live), and a serial caller walks the same blocks in the same order,
//!   which makes parallel and serial results bit-identical at every degree.
//!
//! For workloads that must *not* fork-join — a server keeping requests in
//! flight while accepting new ones — [`workers::WorkerPool`] provides
//! long-lived named worker threads draining a shared FIFO of `'static`
//! jobs, with graceful drain-and-join shutdown on drop.
//!
//! The default degree of parallelism comes from the `DMML_THREADS`
//! environment variable when set (clamped to at least 1), otherwise from
//! [`std::thread::available_parallelism`]. All primitives also accept an
//! explicit degree so planners and benchmarks can pin it.
//!
//! ```
//! use dm_par::{for_each_slice_mut, reduce_blocks};
//!
//! // Disjoint output chunks: each worker fills its own slice of elements.
//! let mut squares = vec![0u64; 100];
//! for_each_slice_mut(&mut squares, 1, 4, |range, chunk| {
//!     for (v, i) in chunk.iter_mut().zip(range) {
//!         *v = (i as u64) * (i as u64);
//!     }
//! });
//! assert_eq!(squares[9], 81);
//!
//! // Ordered block reduction: partials fold left-to-right in block order,
//! // so the result is bit-identical at every degree.
//! let sum = |b: std::ops::Range<usize>| squares[b].iter().sum::<u64>();
//! let d1 = reduce_blocks(100, 10, 1, 0, &sum, |a, b| a + b);
//! let d4 = reduce_blocks(100, 10, 4, 0, &sum, |a, b| a + b);
//! assert_eq!(d1, d4);
//! ```

#![warn(missing_docs)]

pub mod pool;
pub mod workers;

pub use pool::{
    default_degree, for_each_slice_mut, map_collect, parallel_for, reduce_blocks, split_ranges,
    THREADS_ENV,
};
pub use workers::WorkerPool;
