//! # dm-buffer
//!
//! A buffer pool for matrix blocks, modeled on the block caching layer of
//! declarative ML systems: a fixed byte budget of in-memory frames over a
//! backing store, with pin/unpin semantics and pluggable eviction policies
//! (LRU / FIFO / Clock / LFU).
//!
//! Blocks are dense tiles; on eviction a dirty block is serialized (via the
//! [`codec`]) and written to the [`storage::Storage`] backend (in-memory or
//! on-disk). Faulting a block back in deserializes it.
//!
//! ```
//! use dm_buffer::{BufferPool, PageKey, policy::PolicyKind, storage::MemStore};
//! use dm_matrix::Dense;
//!
//! let mut pool = BufferPool::new(1 << 16, PolicyKind::Lru, MemStore::default());
//! let key = PageKey::new(0, 0);
//! pool.put(key, Dense::identity(4)).unwrap();
//! let block = pool.get(key).unwrap().expect("present");
//! assert_eq!(block.get(3, 3), 1.0);
//! assert_eq!(pool.stats().hits, 1);
//! ```
//!
//! On top of the pool sits the out-of-core layer: [`store::BlockStore`]
//! handles matrices as pool-resident row panels, and the [`ooc`] kernels
//! (gemv / gemm / crossprod / col_sums / elementwise) stream those panels
//! under the byte budget while staying **bit-identical** to the in-memory
//! kernels of `dm_matrix` — see the [`ooc`] module docs for the construction
//! and a runnable example.

#![warn(missing_docs)]

pub mod audit;
pub mod codec;
pub mod ooc;
pub mod policy;
pub mod pool;
pub mod session;
pub mod storage;
pub mod store;

pub use audit::{AuditError, AuditReport};
pub use pool::{BufferPool, PageKey, PinGuard, PoolError, PoolStats, SharedBufferPool};
pub use session::{AdmitGuard, SessionLedger, SessionUsage};
pub use store::{panel_bytes, panel_rows_for, store_bytes, BlockStore, FRAME_OVERHEAD};
