//! Out-of-core matrix handles: full-width row panels resident in a pool.
//!
//! A [`BlockStore`] names a matrix whose data lives in a [`SharedBufferPool`]
//! rather than in an owned allocation. The matrix is tiled into **row
//! panels** — `panel_rows` consecutive full-width rows per tile — because the
//! serial kernels in `dm_matrix::ops` consume whole rows (the unrolled `dot`,
//! the per-row accumulations), and keeping rows intact is what lets the
//! blocked kernels in [`crate::ooc`] reproduce the in-memory results
//! bit-for-bit. Panel `p` is the page `PageKey { matrix, panel: p }`.
//!
//! The pool owns page identity and the store owns page lifetime: the matrix
//! id is one the pool mints for each new store, so stores built by
//! concurrent users of one pool never alias, and dropping a store discards
//! its pages from the pool and the backing store, on error paths too.
//! [`BlockStore::discard`] does the same and reports a failure.
//!
//! The access protocol per tile is pin → compute → unpin: kernels hold a
//! [`PinGuard`] for the one or two panels they are reading, so the pool can
//! spill everything else when the byte budget is tight.

use crate::pool::{PageKey, PinGuard, PoolError, SharedBufferPool};
use crate::storage::Storage;
use dm_matrix::Dense;
use std::ops::Range;

/// A matrix handle whose row panels live in a [`SharedBufferPool`]; its
/// pages are freed when it drops.
pub struct BlockStore<S: Storage> {
    pool: SharedBufferPool<S>,
    matrix: u64,
    rows: usize,
    cols: usize,
    panel_rows: usize,
}

impl<S: Storage> BlockStore<S> {
    /// Tile `m` into row panels of `panel_rows` rows and insert them into
    /// `pool` under a fresh matrix id.
    ///
    /// Inserting a panel may evict (and spill) earlier panels — loading a
    /// matrix larger than the pool budget is the normal case, not an error.
    /// Fails with [`PoolError::BlockTooLarge`] when a single panel exceeds
    /// the budget.
    ///
    /// # Panics
    /// Panics if `panel_rows == 0`.
    pub fn from_dense(
        pool: &SharedBufferPool<S>,
        m: &Dense,
        panel_rows: usize,
    ) -> Result<Self, PoolError> {
        let store = Self::new_empty(pool, m.rows(), m.cols(), panel_rows);
        for p in 0..store.num_panels() {
            let r = store.panel_range(p);
            store.put_panel(p, m.slice(r.start, r.end, 0, m.cols()))?;
        }
        Ok(store)
    }

    /// Describe a store under a fresh matrix id without inserting any
    /// tiles; panels are written later with [`put_panel`](Self::put_panel)
    /// (how blocked kernels produce their outputs).
    ///
    /// # Panics
    /// Panics if `panel_rows == 0`.
    pub fn new_empty(
        pool: &SharedBufferPool<S>,
        rows: usize,
        cols: usize,
        panel_rows: usize,
    ) -> Self {
        assert!(panel_rows > 0, "panel_rows must be positive");
        BlockStore { pool: pool.clone(), matrix: pool.mint_matrix(), rows, cols, panel_rows }
    }

    /// Number of rows of the full matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of the full matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Rows per panel (the last panel may be shorter).
    pub fn panel_rows(&self) -> usize {
        self.panel_rows
    }

    /// Number of row panels.
    pub fn num_panels(&self) -> usize {
        self.rows.div_ceil(self.panel_rows)
    }

    /// The global row range covered by panel `p`.
    pub fn panel_range(&self, p: usize) -> Range<usize> {
        let start = p * self.panel_rows;
        start..(start + self.panel_rows).min(self.rows)
    }

    /// The pool key of panel `p`.
    pub fn key(&self, p: usize) -> PageKey {
        PageKey::new(self.matrix, p as u32)
    }

    /// The pool this store's tiles live in.
    pub fn pool(&self) -> &SharedBufferPool<S> {
        &self.pool
    }

    /// Write (or replace) panel `p`.
    ///
    /// # Panics
    /// Panics if the panel's shape does not match
    /// [`panel_range`](Self::panel_range) × [`cols`](Self::cols).
    pub fn put_panel(&self, p: usize, panel: Dense) -> Result<(), PoolError> {
        let r = self.panel_range(p);
        assert_eq!(
            panel.shape(),
            (r.len(), self.cols),
            "panel {p} shape mismatch: expected {}x{}",
            r.len(),
            self.cols
        );
        self.pool.put(self.key(p), panel)
    }

    /// Pin panel `p` for reading; the pin is released when the guard drops.
    ///
    /// A missing panel (never written, or discarded) is
    /// [`PoolError::Absent`].
    pub fn pin_panel(&self, p: usize) -> Result<PinGuard<S>, PoolError> {
        self.pool.pin(self.key(p))?.ok_or(PoolError::Absent(self.key(p)))
    }

    /// Materialize the full matrix (for results that fit in memory; streams
    /// one panel at a time).
    pub fn to_dense(&self) -> Result<Dense, PoolError> {
        let mut data = Vec::with_capacity(self.rows * self.cols);
        for p in 0..self.num_panels() {
            let g = self.pin_panel(p)?;
            data.extend_from_slice(g.data());
        }
        Ok(Dense::from_vec(self.rows, self.cols, data).expect("panels cover the matrix"))
    }

    /// Drop every tile from the pool and the backing store, freeing budget
    /// and spill space, and report the first failure: [`PoolError::Pinned`]
    /// if a tile is still pinned, [`PoolError::Io`] if the store could not
    /// remove one. Dropping the store frees its tiles the same way but
    /// ignores failures.
    pub fn discard(mut self) -> Result<(), PoolError> {
        self.free()
    }

    // Discard every panel, keeping the first error. A freed store holds no
    // rows, so the drop that follows `discard` frees nothing again.
    fn free(&mut self) -> Result<(), PoolError> {
        let panels = std::mem::take(&mut self.rows).div_ceil(self.panel_rows);
        (0..panels).map(|p| self.pool.discard(self.key(p))).fold(Ok(()), Result::and)
    }
}

impl<S: Storage> Drop for BlockStore<S> {
    fn drop(&mut self) {
        let _ = self.free();
    }
}

/// Pick a panel height so one panel is roughly `budget / denom` bytes: small
/// enough that several panels (inputs, output, pins across workers) coexist
/// under the budget, large enough to amortize per-tile pool traffic. Always
/// at least one row.
pub fn panel_rows_for(cols: usize, budget: usize, denom: usize) -> usize {
    let row_bytes = cols.max(1) * 8;
    (budget / denom.max(1) / row_bytes).max(1)
}

/// Per-frame bookkeeping bytes the pool charges on top of a panel's cell
/// data (see `block_bytes` in the pool: `rows*cols*8 + FRAME_OVERHEAD`).
pub const FRAME_OVERHEAD: usize = 16;

/// Pool bytes of a single panel of `panel_rows` x `cols` cells, including
/// the per-frame overhead. This is exactly what the pool charges for the
/// frame, so static analyses summing it stay an upper bound on `used`.
pub fn panel_bytes(panel_rows: usize, cols: usize) -> usize {
    panel_rows.saturating_mul(cols).saturating_mul(8).saturating_add(FRAME_OVERHEAD)
}

/// Total pool footprint of a `rows` x `cols` matrix tiled into panels of
/// `panel_rows` rows: the dense cell bytes plus [`FRAME_OVERHEAD`] for each
/// of the `ceil(rows / panel_rows)` frames. Zero-row matrices have no
/// panels and cost nothing.
///
/// Plan-time certifiers use this to bound what a [`BlockStore::from_dense`]
/// of the same shape will charge the pool.
pub fn store_bytes(rows: usize, cols: usize, panel_rows: usize) -> usize {
    if rows == 0 {
        return 0;
    }
    let num_panels = rows.div_ceil(panel_rows.max(1));
    rows.saturating_mul(cols)
        .saturating_mul(8)
        .saturating_add(num_panels.saturating_mul(FRAME_OVERHEAD))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;
    use crate::storage::MemStore;
    use crate::BufferPool;

    fn shared(capacity: usize) -> SharedBufferPool<MemStore> {
        SharedBufferPool::new(BufferPool::new(capacity, PolicyKind::Lru, MemStore::default()))
    }

    fn sample(rows: usize, cols: usize) -> Dense {
        Dense::from_fn(rows, cols, |r, c| (r * 31 + c * 7) as f64 * 0.25 - 3.0)
    }

    #[test]
    fn round_trips_through_tight_pool() {
        let m = sample(37, 5);
        // Budget fits ~2 panels of 8 rows: loading spills earlier panels.
        let pool = shared(2 * (8 * 5 * 8 + 16));
        let store = BlockStore::from_dense(&pool, &m, 8).unwrap();
        assert_eq!(store.num_panels(), 5);
        assert_eq!(store.panel_range(4), 32..37);
        assert!(pool.stats().evictions > 0, "working set exceeds budget");
        assert_eq!(store.to_dense().unwrap(), m);
        pool.audit_quiescent().unwrap();
    }

    #[test]
    fn pin_panel_guards_and_reports_absent() {
        let m = sample(10, 3);
        let pool = shared(1 << 16);
        let store = BlockStore::from_dense(&pool, &m, 4).unwrap();
        {
            let g = store.pin_panel(1).unwrap();
            assert_eq!(g.row(0), m.row(4));
        }
        pool.audit_quiescent().unwrap();
        let ghost = BlockStore::new_empty(&pool, 4, 4, 2);
        assert!(matches!(ghost.pin_panel(0), Err(PoolError::Absent(_))));
    }

    #[test]
    fn discard_clears_pool_and_storage() {
        let m = sample(32, 4);
        let pool = shared(2 * (4 * 4 * 8 + 16));
        let store = BlockStore::from_dense(&pool, &m, 4).unwrap();
        let keys: Vec<_> = (0..store.num_panels()).map(|p| store.key(p)).collect();
        assert!(pool.resident() > 0);
        store.discard().unwrap();
        assert_eq!(pool.resident(), 0);
        assert_eq!(pool.used(), 0);
        let absent = keys.iter().filter(|&&k| pool.get(k).unwrap().is_none()).count();
        assert_eq!(absent, 8, "no tile survives in pool or storage");
    }

    #[test]
    fn dropping_a_store_frees_its_pages() {
        let m = sample(32, 4);
        let pool = shared(2 * (4 * 4 * 8 + 16));
        let (a, b) =
            (BlockStore::from_dense(&pool, &m, 4).unwrap(), BlockStore::new_empty(&pool, 32, 4, 4));
        assert_ne!(a.key(0), b.key(0), "each store gets its own matrix id");
        let keys: Vec<_> = (0..a.num_panels()).map(|p| a.key(p)).collect();
        assert!(pool.stats().evictions > 0, "loading spilled panels");
        drop(a);
        assert_eq!((pool.used(), pool.resident()), (0, 0));
        assert!(keys.iter().all(|&k| pool.get(k).unwrap().is_none()), "none left in storage");
        // A pinned page outlives the drop; everything else goes.
        let c = BlockStore::from_dense(&pool, &m, 4).unwrap();
        let pin = c.pin_panel(7).unwrap();
        drop(c);
        assert_eq!(pool.resident(), 1);
        assert_eq!(pool.audit().unwrap().pinned, vec![(pin.key(), 1)]);
    }

    #[test]
    fn panel_sizing_is_sane() {
        assert_eq!(panel_rows_for(100, 8 * 100 * 8 * 8, 8), 8);
        assert_eq!(panel_rows_for(1_000_000, 1024, 8), 1, "never below one row");
        assert!(panel_rows_for(0, 1 << 20, 8) >= 1);
    }

    #[test]
    fn store_bytes_matches_what_from_dense_charges() {
        // Load a matrix into an ample pool and compare the static formula
        // against the pool's own accounting.
        let m = sample(37, 5);
        let pool = shared(1 << 20);
        let store = BlockStore::from_dense(&pool, &m, 8).unwrap();
        assert_eq!(store_bytes(37, 5, 8), pool.used());
        assert_eq!(store_bytes(37, 5, 8), 37 * 5 * 8 + 5 * FRAME_OVERHEAD);
        store.discard().unwrap();
        assert_eq!(store_bytes(0, 5, 8), 0, "no rows, no panels");
        assert_eq!(panel_bytes(8, 5), 8 * 5 * 8 + FRAME_OVERHEAD);
    }

    #[test]
    #[should_panic(expected = "panel 0 shape mismatch")]
    fn put_panel_checks_shape() {
        let pool = shared(1 << 16);
        let store = BlockStore::new_empty(&pool, 10, 4, 5);
        store.put_panel(0, Dense::zeros(3, 4)).unwrap();
    }
}
