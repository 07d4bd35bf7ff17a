//! The buffer pool proper: a byte-budgeted frame table over a backing store.

use crate::audit::{AuditError, AuditReport};
use crate::codec;
use crate::policy::{make_policy, Policy, PolicyKind};
use crate::storage::Storage;
use dm_matrix::Dense;
use dm_obs::{lock, trace};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Identifies one block: the owning matrix's id and the block's row panel.
/// A [`BlockStore`](crate::BlockStore) takes its matrix id from
/// [`SharedBufferPool`], which mints a fresh one per store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageKey {
    /// Owning matrix identifier.
    pub matrix: u64,
    /// Row panel within the matrix.
    pub panel: u32,
}

impl PageKey {
    /// Construct a key.
    pub fn new(matrix: u64, panel: u32) -> Self {
        PageKey { matrix, panel }
    }
}

/// Pool failure modes.
#[derive(Debug, Clone, PartialEq)]
pub enum PoolError {
    /// A single block exceeds the pool's byte budget.
    BlockTooLarge {
        /// Size of the offending block.
        block_bytes: usize,
        /// Pool capacity.
        capacity: usize,
    },
    /// Every resident block is pinned; nothing can be evicted.
    AllPinned,
    /// Unpin called on a page that is not pinned.
    NotPinned(PageKey),
    /// Backing-store I/O failed.
    Io(String),
    /// A spilled block failed to deserialize (corrupt store).
    Corrupt(PageKey),
    /// The page is pinned and cannot be discarded.
    Pinned(PageKey),
    /// The page is known to neither the pool nor the backing store.
    Absent(PageKey),
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::BlockTooLarge { block_bytes, capacity } => {
                write!(f, "block of {block_bytes} bytes exceeds pool capacity {capacity}")
            }
            PoolError::AllPinned => write!(f, "cannot evict: all resident blocks are pinned"),
            PoolError::NotPinned(k) => write!(f, "page {k:?} is not pinned"),
            PoolError::Io(msg) => write!(f, "storage io error: {msg}"),
            PoolError::Corrupt(k) => write!(f, "spilled page {k:?} failed to deserialize"),
            PoolError::Pinned(k) => write!(f, "page {k:?} is pinned and cannot be discarded"),
            PoolError::Absent(k) => write!(f, "page {k:?} is neither resident nor spilled"),
        }
    }
}

impl std::error::Error for PoolError {}

/// Counters exposed for the E10 experiment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// `get` found the block resident.
    pub hits: u64,
    /// `get` had to fault the block in from storage.
    pub misses: u64,
    /// Blocks evicted to storage.
    pub evictions: u64,
    /// `get` found the block neither resident nor spilled.
    pub absent: u64,
    /// Successful `pin` calls.
    pub pins: u64,
    /// High-water mark of resident bytes.
    pub peak_used: usize,
    /// Serialized bytes written to storage (evictions of dirty blocks plus
    /// explicit flushes).
    pub spilled_bytes: u64,
    /// Serialized bytes read back from storage on faults.
    pub faulted_bytes: u64,
}

impl PoolStats {
    // Add what the counters grew by from `before` to `after`. The
    // high-water mark is not a count of events, so it stays out.
    fn add_growth(&mut self, before: PoolStats, after: PoolStats) {
        self.hits += after.hits - before.hits;
        self.misses += after.misses - before.misses;
        self.evictions += after.evictions - before.evictions;
        self.absent += after.absent - before.absent;
        self.pins += after.pins - before.pins;
        self.spilled_bytes += after.spilled_bytes - before.spilled_bytes;
        self.faulted_bytes += after.faulted_bytes - before.faulted_bytes;
    }

    /// Hit rate over all lookups that could have hit (`hits / (hits + misses)`).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Frame {
    block: Arc<Dense>,
    bytes: usize,
    pins: u32,
    dirty: bool,
}

/// A byte-budgeted cache of dense blocks over a backing store.
pub struct BufferPool<S: Storage> {
    capacity: usize,
    used: usize,
    frames: HashMap<PageKey, Frame>,
    policy: Box<dyn Policy>,
    kind: PolicyKind,
    storage: S,
    stats: PoolStats,
    // The next matrix id `SharedBufferPool::mint_matrix` hands out.
    next_matrix: u64,
}

fn block_bytes(b: &Dense) -> usize {
    b.rows() * b.cols() * 8 + crate::store::FRAME_OVERHEAD
}

impl<S: Storage> BufferPool<S> {
    /// Create a pool with the given byte capacity, policy, and backing store.
    pub fn new(capacity: usize, kind: PolicyKind, storage: S) -> Self {
        BufferPool {
            capacity,
            used: 0,
            frames: HashMap::new(),
            policy: make_policy(kind),
            kind,
            storage,
            stats: PoolStats::default(),
            next_matrix: 0,
        }
    }

    /// The eviction policy this pool was built with.
    pub fn policy_kind(&self) -> PolicyKind {
        self.kind
    }

    // Point-in-time trace events for pool transitions, so spill/fault
    // activity lines up with executor spans on the Chrome trace timeline.
    // The enabled check gates the page-label formatting, not just the push.
    fn trace_page(name: &'static str, key: PageKey) {
        if trace::is_enabled() {
            trace::instant(name, &[("page", format!("{}/{}", key.matrix, key.panel).into())]);
        }
    }

    fn trace_page_bytes(name: &'static str, key: PageKey, bytes: usize) {
        if trace::is_enabled() {
            trace::instant(
                name,
                &[
                    ("page", format!("{}/{}", key.matrix, key.panel).into()),
                    ("bytes", bytes.into()),
                ],
            );
        }
    }

    // Track the resident-bytes high-water mark; call after every change to
    // `used`.
    fn note_used(&mut self) {
        self.stats.peak_used = self.stats.peak_used.max(self.used);
    }

    /// Pool capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently used by resident frames.
    pub fn used(&self) -> usize {
        self.used
    }

    /// Number of resident frames.
    pub fn resident(&self) -> usize {
        self.frames.len()
    }

    /// Access the counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Reset the counters (between experiment phases).
    pub fn reset_stats(&mut self) {
        self.stats = PoolStats::default();
    }

    fn evict_one(&mut self) -> Result<(), PoolError> {
        let frames = &self.frames;
        let victim = self
            .policy
            .victim(&|k| frames.get(&k).is_some_and(|f| f.pins == 0))
            .ok_or(PoolError::AllPinned)?;
        // Write a dirty victim before unlinking it: when the write fails the
        // page stays resident, its only copy intact, and nothing is evicted.
        let frame = &self.frames[&victim];
        let spilled = if frame.dirty {
            let data = codec::encode_dense(&frame.block);
            let len = data.len();
            self.storage.write(victim, data).map_err(|e| PoolError::Io(e.to_string()))?;
            Some(len)
        } else {
            None
        };
        let frame = self.frames.remove(&victim).expect("victim must be resident");
        self.policy.remove(victim);
        self.used -= frame.bytes;
        self.stats.evictions += 1;
        Self::trace_page("buffer.evict", victim);
        if let Some(len) = spilled {
            self.stats.spilled_bytes += len as u64;
            Self::trace_page_bytes("buffer.spill", victim, len);
        }
        Ok(())
    }

    fn make_room(&mut self, needed: usize) -> Result<(), PoolError> {
        if needed > self.capacity {
            return Err(PoolError::BlockTooLarge { block_bytes: needed, capacity: self.capacity });
        }
        while self.used + needed > self.capacity {
            self.evict_one()?;
        }
        Ok(())
    }

    /// Insert (or replace) a block. The new block is dirty: it will be spilled
    /// on eviction.
    pub fn put(&mut self, key: PageKey, block: Dense) -> Result<(), PoolError> {
        let bytes = block_bytes(&block);
        if let Some(old) = self.frames.remove(&key) {
            self.used -= old.bytes;
            self.policy.remove(key);
        }
        self.make_room(bytes)?;
        self.frames.insert(key, Frame { block: Arc::new(block), bytes, pins: 0, dirty: true });
        self.policy.admit(key);
        self.used += bytes;
        self.note_used();
        Ok(())
    }

    /// Fetch a block: resident hit, fault-in from storage, or `Ok(None)` when
    /// the key is unknown to both.
    pub fn get(&mut self, key: PageKey) -> Result<Option<Arc<Dense>>, PoolError> {
        if let Some(frame) = self.frames.get(&key) {
            self.stats.hits += 1;
            let block = Arc::clone(&frame.block);
            self.policy.touch(key);
            return Ok(Some(block));
        }
        match self.storage.read(key).map_err(|e| PoolError::Io(e.to_string()))? {
            Some(bytes) => {
                self.stats.misses += 1;
                self.stats.faulted_bytes += bytes.len() as u64;
                Self::trace_page_bytes("buffer.fault", key, bytes.len());
                let block = codec::decode_dense(&bytes).ok_or(PoolError::Corrupt(key))?;
                drop(bytes); // a lent page borrows the store that make_room spills into
                let nbytes = block_bytes(&block);
                self.make_room(nbytes)?;
                let arc = Arc::new(block);
                self.frames.insert(
                    key,
                    // Clean: an identical copy lives in storage.
                    Frame { block: Arc::clone(&arc), bytes: nbytes, pins: 0, dirty: false },
                );
                self.policy.admit(key);
                self.used += nbytes;
                self.note_used();
                Ok(Some(arc))
            }
            None => {
                self.stats.absent += 1;
                Ok(None)
            }
        }
    }

    /// Pin a page so it cannot be evicted; faults it in first if spilled.
    /// Returns `Ok(None)` for unknown keys.
    pub fn pin(&mut self, key: PageKey) -> Result<Option<Arc<Dense>>, PoolError> {
        let block = self.get(key)?;
        if block.is_some() {
            self.frames.get_mut(&key).expect("resident after get").pins += 1;
            self.stats.pins += 1;
            Self::trace_page("buffer.pin", key);
        }
        Ok(block)
    }

    /// Release one pin.
    pub fn unpin(&mut self, key: PageKey) -> Result<(), PoolError> {
        match self.frames.get_mut(&key) {
            Some(f) if f.pins > 0 => {
                f.pins -= 1;
                Self::trace_page("buffer.unpin", key);
                Ok(())
            }
            _ => Err(PoolError::NotPinned(key)),
        }
    }

    /// Flush every dirty resident block to storage (without evicting).
    pub fn flush(&mut self) -> Result<(), PoolError> {
        let keys: Vec<PageKey> = self.frames.keys().copied().collect();
        for key in keys {
            let frame = self.frames.get_mut(&key).expect("key just listed");
            if frame.dirty {
                let data = codec::encode_dense(&frame.block);
                self.stats.spilled_bytes += data.len() as u64;
                self.storage.write(key, data).map_err(|e| PoolError::Io(e.to_string()))?;
                frame.dirty = false;
            }
        }
        Ok(())
    }

    /// Drop a page from the pool *and* the backing store, freeing its budget.
    ///
    /// Out-of-core kernels call this when an intermediate's tiles are dead, so
    /// spill space does not grow with the number of executed operators.
    /// Discarding an unknown key is a no-op; discarding a pinned page is an
    /// error ([`PoolError::Pinned`]).
    pub fn discard(&mut self, key: PageKey) -> Result<(), PoolError> {
        if let Some(frame) = self.frames.get(&key) {
            if frame.pins > 0 {
                return Err(PoolError::Pinned(key));
            }
            let frame = self.frames.remove(&key).expect("frame just found");
            self.policy.remove(key);
            self.used -= frame.bytes;
        }
        self.storage.remove(key).map_err(|e| PoolError::Io(e.to_string()))
    }

    /// Borrow the backing store (tests and experiments).
    pub fn storage(&self) -> &S {
        &self.storage
    }

    /// Recompute the pool's internal state from first principles and check it
    /// against the recorded state; see [`crate::audit`]. Passing returns a
    /// snapshot including every outstanding pin.
    pub fn audit(&self) -> Result<AuditReport, AuditError> {
        let actual: usize = self.frames.values().map(|f| f.bytes).sum();
        if actual != self.used {
            return Err(AuditError::ByteAccountingMismatch { recorded: self.used, actual });
        }
        if self.used > self.capacity {
            return Err(AuditError::OverCapacity { used: self.used, capacity: self.capacity });
        }
        let mut tracked: std::collections::HashSet<PageKey> = std::collections::HashSet::new();
        for key in self.policy.keys() {
            if !tracked.insert(key) {
                return Err(AuditError::PolicyDuplicateKey { key });
            }
            if !self.frames.contains_key(&key) {
                return Err(AuditError::PolicyGhostKey { key });
            }
        }
        for key in self.frames.keys() {
            if !tracked.contains(key) {
                return Err(AuditError::PolicyUntrackedFrame { key: *key });
            }
        }
        let mut pinned: Vec<(PageKey, u32)> =
            self.frames.iter().filter(|(_, f)| f.pins > 0).map(|(k, f)| (*k, f.pins)).collect();
        pinned.sort_unstable_by_key(|&(k, _)| k);
        Ok(AuditReport {
            resident: self.frames.len(),
            used: self.used,
            capacity: self.capacity,
            pinned,
        })
    }

    /// [`audit`](Self::audit), plus the requirement that no page holds a pin:
    /// the right check at points where every user has released its blocks,
    /// where an outstanding pin can only be a leak.
    pub fn audit_quiescent(&self) -> Result<AuditReport, AuditError> {
        let report = self.audit()?;
        if let Some(&(key, pins)) = report.pinned.first() {
            return Err(AuditError::PinLeak { key, pins });
        }
        Ok(report)
    }
}

/// A thread-safe handle around a pool, for concurrent producers/consumers.
///
/// The pool names the matrices stored in it: every
/// [`BlockStore`](crate::BlockStore) built on it gets a fresh matrix id, so
/// stores of concurrent users never share a page. Keys a caller
/// [`put`](Self::put)s by hand are not checked against those ids; a pool
/// that holds block stores should hold nothing else.
///
/// Every handle carries a traffic account: the counters its
/// `put`/`get`/`pin`/`flush` calls bumped, read with
/// [`traffic`](Self::traffic). Clones share it, and so do the block stores
/// and pin guards made through the handle. [`account`](Self::account) opens
/// a fresh one on the same pool. A call is charged everything the pool
/// counted while serving it, such as the spill of another account's page
/// it evicted, under the pool lock it already holds. So a pool's accounts
/// sum to its [`stats`](Self::stats), except for `peak_used`, which an
/// account leaves at 0.
pub struct SharedBufferPool<S: Storage> {
    inner: Arc<Mutex<BufferPool<S>>>,
    account: Arc<Mutex<PoolStats>>,
}

impl<S: Storage> Clone for SharedBufferPool<S> {
    fn clone(&self) -> Self {
        SharedBufferPool { inner: Arc::clone(&self.inner), account: Arc::clone(&self.account) }
    }
}

impl<S: Storage> SharedBufferPool<S> {
    /// Wrap a pool; the handle's account starts at zero.
    pub fn new(pool: BufferPool<S>) -> Self {
        SharedBufferPool { inner: Arc::new(Mutex::new(pool)), account: Arc::default() }
    }

    /// A handle on the same pool (pages, capacity, policy, minted ids) with
    /// an account of its own, starting at zero.
    pub fn account(&self) -> Self {
        SharedBufferPool { inner: Arc::clone(&self.inner), account: Arc::default() }
    }

    /// What the calls through this handle's account made the pool do.
    pub fn traffic(&self) -> PoolStats {
        *lock(&self.account)
    }

    // Run `op` on the locked pool and charge the counters it bumped to this
    // handle's account before the pool lock is released.
    fn charged<T>(&self, op: impl FnOnce(&mut BufferPool<S>) -> T) -> T {
        let mut pool = lock(&self.inner);
        let before = pool.stats;
        let out = op(&mut pool);
        lock(&self.account).add_growth(before, pool.stats);
        out
    }

    /// A matrix id no earlier call returned, for a new block store.
    pub(crate) fn mint_matrix(&self) -> u64 {
        let mut pool = lock(&self.inner);
        let id = pool.next_matrix;
        pool.next_matrix += 1;
        id
    }

    /// Insert a block.
    pub fn put(&self, key: PageKey, block: Dense) -> Result<(), PoolError> {
        self.charged(|pool| pool.put(key, block))
    }

    /// Fetch a block.
    pub fn get(&self, key: PageKey) -> Result<Option<Arc<Dense>>, PoolError> {
        self.charged(|pool| pool.get(key))
    }

    /// Pin a page and return an RAII guard that releases the pin on drop.
    ///
    /// The guard is how out-of-core kernels hold tiles: a worker pins the
    /// tile it is computing on, dereferences the guard to the block, and the
    /// pin is released when the guard leaves scope — even on early return or
    /// panic, so pins can never leak across an operator. Returns
    /// `Ok(None)` for unknown keys.
    pub fn pin(&self, key: PageKey) -> Result<Option<PinGuard<S>>, PoolError> {
        let block = self.charged(|pool| pool.pin(key))?;
        Ok(block.map(|block| PinGuard { pool: self.clone(), key, block }))
    }

    /// Release one pin on a page (prefer letting a [`PinGuard`] drop).
    pub fn unpin(&self, key: PageKey) -> Result<(), PoolError> {
        lock(&self.inner).unpin(key)
    }

    /// Drop a page from the pool and the backing store; see
    /// [`BufferPool::discard`].
    pub fn discard(&self, key: PageKey) -> Result<(), PoolError> {
        lock(&self.inner).discard(key)
    }

    /// Flush every dirty resident block to storage.
    pub fn flush(&self) -> Result<(), PoolError> {
        self.charged(BufferPool::flush)
    }

    /// Pool capacity in bytes.
    pub fn capacity(&self) -> usize {
        lock(&self.inner).capacity()
    }

    /// Bytes currently used by resident frames.
    pub fn used(&self) -> usize {
        lock(&self.inner).used()
    }

    /// Number of resident frames.
    pub fn resident(&self) -> usize {
        lock(&self.inner).resident()
    }

    /// Snapshot the pool's counters: the traffic of every account.
    pub fn stats(&self) -> PoolStats {
        lock(&self.inner).stats()
    }

    /// Reset the pool's counters (between experiment phases); accounts keep
    /// theirs.
    pub fn reset_stats(&self) {
        lock(&self.inner).reset_stats()
    }

    /// Run the pool's consistency audit; see [`BufferPool::audit`].
    pub fn audit(&self) -> Result<AuditReport, AuditError> {
        lock(&self.inner).audit()
    }

    /// [`audit`](Self::audit) plus the no-outstanding-pins requirement; see
    /// [`BufferPool::audit_quiescent`].
    pub fn audit_quiescent(&self) -> Result<AuditReport, AuditError> {
        lock(&self.inner).audit_quiescent()
    }
}

/// An RAII pin on one page of a [`SharedBufferPool`]: dereferences to the
/// pinned block and releases the pin when dropped.
pub struct PinGuard<S: Storage> {
    pool: SharedBufferPool<S>,
    key: PageKey,
    block: Arc<Dense>,
}

impl<S: Storage> PinGuard<S> {
    /// The pinned page's key.
    pub fn key(&self) -> PageKey {
        self.key
    }

    /// The pinned block.
    pub fn block(&self) -> &Dense {
        &self.block
    }
}

impl<S: Storage> std::ops::Deref for PinGuard<S> {
    type Target = Dense;

    fn deref(&self) -> &Dense {
        &self.block
    }
}

impl<S: Storage> Drop for PinGuard<S> {
    fn drop(&mut self) {
        // The pin was counted when the guard was created; releasing it cannot
        // fail unless the pool was mutated behind our back, in which case the
        // audit (not this destructor) is the place that reports it.
        let _ = self.pool.unpin(self.key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStore;

    fn block(v: f64) -> Dense {
        Dense::filled(4, 4, v) // 4*4*8 + 16 = 144 bytes
    }

    fn key(i: u32) -> PageKey {
        PageKey::new(1, i)
    }

    fn pool(capacity_blocks: usize, kind: PolicyKind) -> BufferPool<MemStore> {
        BufferPool::new(capacity_blocks * 144, kind, MemStore::default())
    }

    #[test]
    fn put_get_hit() {
        let mut p = pool(4, PolicyKind::Lru);
        p.put(key(1), block(1.0)).unwrap();
        let b = p.get(key(1)).unwrap().unwrap();
        assert_eq!(b.get(0, 0), 1.0);
        assert_eq!(p.stats().hits, 1);
        assert_eq!(p.stats().misses, 0);
    }

    #[test]
    fn eviction_spills_and_faults_back() {
        let mut p = pool(2, PolicyKind::Lru);
        p.put(key(1), block(1.0)).unwrap();
        p.put(key(2), block(2.0)).unwrap();
        p.put(key(3), block(3.0)).unwrap(); // evicts key 1
        assert_eq!(p.resident(), 2);
        assert_eq!(p.stats().evictions, 1);
        assert_eq!(p.storage().len(), 1, "dirty victim spilled");
        // Fault key 1 back in: miss, and evicts another block.
        let b = p.get(key(1)).unwrap().unwrap();
        assert_eq!(b.get(0, 0), 1.0);
        assert_eq!(p.stats().misses, 1);
        assert_eq!(p.stats().evictions, 2);
    }

    #[test]
    fn lru_evicts_cold_page() {
        let mut p = pool(2, PolicyKind::Lru);
        p.put(key(1), block(1.0)).unwrap();
        p.put(key(2), block(2.0)).unwrap();
        p.get(key(1)).unwrap(); // heat key 1
        p.put(key(3), block(3.0)).unwrap(); // should evict key 2
        assert!(p.frames.contains_key(&key(1)));
        assert!(!p.frames.contains_key(&key(2)));
    }

    #[test]
    fn pinned_pages_survive_pressure() {
        let mut p = pool(2, PolicyKind::Lru);
        p.put(key(1), block(1.0)).unwrap();
        p.pin(key(1)).unwrap().unwrap();
        p.put(key(2), block(2.0)).unwrap();
        p.put(key(3), block(3.0)).unwrap(); // must evict key 2, not pinned key 1
        assert!(p.frames.contains_key(&key(1)));
        p.unpin(key(1)).unwrap();
        assert!(p.unpin(key(1)).is_err(), "double unpin rejected");
    }

    #[test]
    fn all_pinned_errors() {
        let mut p = pool(2, PolicyKind::Lru);
        p.put(key(1), block(1.0)).unwrap();
        p.put(key(2), block(2.0)).unwrap();
        p.pin(key(1)).unwrap();
        p.pin(key(2)).unwrap();
        assert_eq!(p.put(key(3), block(3.0)), Err(PoolError::AllPinned));
    }

    #[test]
    fn block_too_large_rejected() {
        let mut p = pool(1, PolicyKind::Lru);
        let huge = Dense::zeros(100, 100);
        assert!(matches!(p.put(key(1), huge), Err(PoolError::BlockTooLarge { .. })));
    }

    #[test]
    fn clean_faulted_pages_not_rewritten() {
        let mut p = pool(1, PolicyKind::Fifo);
        p.put(key(1), block(1.0)).unwrap();
        p.put(key(2), block(2.0)).unwrap(); // spills 1 (dirty write #1)
        p.get(key(1)).unwrap(); // faults 1 back (clean), evicts 2 (dirty write #2)
        assert_eq!(p.storage().len(), 2);
        p.put(key(3), block(3.0)).unwrap(); // evicts clean 1: no rewrite needed
        assert_eq!(p.stats().evictions, 3);
    }

    #[test]
    fn replace_existing_key_updates_bytes() {
        let mut p = pool(4, PolicyKind::Lru);
        p.put(key(1), block(1.0)).unwrap();
        let used = p.used();
        p.put(key(1), Dense::filled(2, 2, 9.0)).unwrap();
        assert!(p.used() < used);
        assert_eq!(p.get(key(1)).unwrap().unwrap().get(0, 0), 9.0);
    }

    #[test]
    fn absent_key_counted() {
        let mut p = pool(2, PolicyKind::Lru);
        assert!(p.get(key(42)).unwrap().is_none());
        assert_eq!(p.stats().absent, 1);
    }

    #[test]
    fn flush_writes_dirty_blocks() {
        let mut p = pool(4, PolicyKind::Lru);
        p.put(key(1), block(1.0)).unwrap();
        p.put(key(2), block(2.0)).unwrap();
        p.flush().unwrap();
        assert_eq!(p.storage().len(), 2);
        // Second flush is a no-op (all clean now) — still 2 entries.
        p.flush().unwrap();
        assert_eq!(p.storage().len(), 2);
    }

    #[test]
    fn hit_rate_math() {
        let s = PoolStats { hits: 3, misses: 1, absent: 5, ..PoolStats::default() };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(PoolStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn pins_and_peak_bytes_tracked() {
        let mut p = pool(2, PolicyKind::Lru);
        p.put(key(1), block(1.0)).unwrap();
        assert_eq!(p.stats().peak_used, 144);
        p.put(key(2), block(2.0)).unwrap();
        assert_eq!(p.stats().peak_used, 288);
        p.put(key(3), block(3.0)).unwrap(); // evicts one; peak unchanged
        assert_eq!(p.stats().peak_used, 288);
        p.pin(key(3)).unwrap().unwrap();
        p.unpin(key(3)).unwrap();
        assert_eq!(p.stats().pins, 1);
        // Pinning an absent key records no pin.
        assert!(p.pin(key(99)).unwrap().is_none());
        assert_eq!(p.stats().pins, 1);
    }

    #[test]
    fn stats_count_every_pool_event() {
        let mut p = pool(2, PolicyKind::Lru);
        p.put(key(1), block(1.0)).unwrap();
        p.put(key(2), block(2.0)).unwrap();
        p.put(key(3), block(3.0)).unwrap(); // eviction
        p.get(key(2)).unwrap(); // hit
        p.get(key(1)).unwrap(); // miss (faults back, evicts again)
        p.get(key(42)).unwrap(); // absent
        p.pin(key(1)).unwrap().unwrap();
        p.unpin(key(1)).unwrap();
        let s = p.stats();
        // Two hits: the explicit get(2) plus pin(1)'s internal get.
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 1, "{s:?}");
        assert_eq!(s.evictions, 2);
        assert_eq!(s.absent, 1);
        assert_eq!(s.pins, 1);
        assert_eq!(s.peak_used, 288);
    }

    #[test]
    fn audit_passes_through_churn() {
        let mut p = pool(2, PolicyKind::Lru);
        for i in 0..10u32 {
            p.put(key(i), block(i as f64)).unwrap();
            p.get(key(i.saturating_sub(1))).unwrap();
            p.audit().unwrap();
        }
        let report = p.audit_quiescent().unwrap();
        assert_eq!(report.resident, 2);
        assert!(report.pinned.is_empty());
        assert_eq!(report.used, p.used());
    }

    #[test]
    fn audit_reports_outstanding_pins() {
        let mut p = pool(4, PolicyKind::Lfu);
        p.put(key(1), block(1.0)).unwrap();
        p.pin(key(1)).unwrap().unwrap();
        p.pin(key(1)).unwrap().unwrap();
        let report = p.audit().unwrap();
        assert_eq!(report.pinned, vec![(key(1), 2)]);
        assert_eq!(report.total_pins(), 2);
        assert_eq!(
            p.audit_quiescent(),
            Err(crate::audit::AuditError::PinLeak { key: key(1), pins: 2 })
        );
        p.unpin(key(1)).unwrap();
        p.unpin(key(1)).unwrap();
        p.audit_quiescent().unwrap();
    }

    #[test]
    fn audit_detects_policy_desync() {
        let mut p = pool(4, PolicyKind::Clock);
        p.put(key(1), block(1.0)).unwrap();
        p.put(key(2), block(2.0)).unwrap();
        // Simulate a lost remove notification: the policy keeps a ghost.
        p.frames.remove(&key(2)).unwrap();
        p.used -= 144;
        assert_eq!(p.audit(), Err(crate::audit::AuditError::PolicyGhostKey { key: key(2) }));
        // And the converse: a frame the policy never saw.
        let mut p = pool(4, PolicyKind::Fifo);
        p.put(key(1), block(1.0)).unwrap();
        p.policy.remove(key(1));
        assert_eq!(p.audit(), Err(crate::audit::AuditError::PolicyUntrackedFrame { key: key(1) }));
    }

    #[test]
    fn audit_detects_byte_accounting_drift() {
        let mut p = pool(4, PolicyKind::Lru);
        p.put(key(1), block(1.0)).unwrap();
        p.used += 8; // simulate a lost decrement
        assert_eq!(
            p.audit(),
            Err(crate::audit::AuditError::ByteAccountingMismatch { recorded: 152, actual: 144 })
        );
    }

    #[test]
    fn spill_and_fault_bytes_counted() {
        let mut p = pool(2, PolicyKind::Lru);
        p.put(key(1), block(1.0)).unwrap();
        p.put(key(2), block(2.0)).unwrap();
        p.put(key(3), block(3.0)).unwrap(); // evicts dirty key 1: one spill write
        let encoded = codec::encode_dense(&block(1.0)).len() as u64;
        assert_eq!(p.stats().spilled_bytes, encoded);
        assert_eq!(p.stats().faulted_bytes, 0);
        p.get(key(1)).unwrap(); // faults key 1 back, evicting another dirty block
        assert_eq!(p.stats().faulted_bytes, encoded);
        assert_eq!(p.stats().spilled_bytes, 2 * encoded);
    }

    #[test]
    fn spilled_page_bytes_are_pinned() {
        // rows u64 | cols u64 | f64 values, all little-endian: spill files
        // written by earlier builds must keep faulting back in.
        let page = Dense::from_rows(&[&[1.5, -0.0, f64::INFINITY], &[1e-300, -2.0, f64::NAN]]);
        let mut p = BufferPool::new(block_bytes(&page), PolicyKind::Lru, MemStore::default());
        p.put(key(1), page.clone()).unwrap();
        p.put(key(2), Dense::zeros(2, 3)).unwrap(); // spills key 1
        let spilled = p.storage().read(key(1)).unwrap().expect("spilled");
        let hex: String = spilled.iter().map(|b| format!("{b:02x}")).collect();
        let pinned = concat!(
            "02000000000000000300000000000000000000000000f83f0000000000000080000000000000f07f",
            "59f3f8c21f6ea50100000000000000c0000000000000f87f",
        );
        assert_eq!(hex, pinned);
        let back = p.get(key(1)).unwrap().expect("faults back");
        let bits = |d: &Dense| d.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&page));
    }

    #[test]
    fn discard_frees_budget_and_storage() {
        let mut p = pool(2, PolicyKind::Lru);
        p.put(key(1), block(1.0)).unwrap();
        p.put(key(2), block(2.0)).unwrap();
        p.put(key(3), block(3.0)).unwrap(); // key 1 spilled
        assert_eq!(p.storage().len(), 1);
        p.discard(key(1)).unwrap(); // spilled-only page: storage entry dropped
        assert_eq!(p.storage().len(), 0);
        p.discard(key(2)).unwrap(); // resident page: frame dropped
        assert_eq!(p.resident(), 1);
        assert_eq!(p.used(), 144);
        p.discard(key(42)).unwrap(); // unknown key: no-op
        p.pin(key(3)).unwrap().unwrap();
        assert_eq!(p.discard(key(3)), Err(PoolError::Pinned(key(3))));
        p.unpin(key(3)).unwrap();
        p.audit_quiescent().unwrap();
    }

    #[test]
    fn pin_guard_releases_on_drop() {
        let shared = SharedBufferPool::new(pool(4, PolicyKind::Lru));
        shared.put(key(1), block(7.0)).unwrap();
        {
            let g = shared.pin(key(1)).unwrap().expect("present");
            assert_eq!(g.get(0, 0), 7.0);
            assert_eq!(g.key(), key(1));
            assert_eq!(shared.audit().unwrap().total_pins(), 1);
        }
        shared.audit_quiescent().unwrap();
        assert!(shared.pin(key(99)).unwrap().is_none(), "absent key pins nothing");
    }

    #[test]
    fn a_poisoned_lock_still_serves_the_next_caller() {
        // A store whose write panics poisons the shared pool's mutex mid-spill.
        struct PanickingStore;
        impl Storage for PanickingStore {
            fn read(&self, _: PageKey) -> std::io::Result<Option<std::borrow::Cow<'_, [u8]>>> {
                Ok(None)
            }
            fn write(&mut self, _: PageKey, _: Vec<u8>) -> std::io::Result<()> {
                panic!("spill device failed")
            }
            fn remove(&mut self, _: PageKey) -> std::io::Result<()> {
                Ok(())
            }
            fn len(&self) -> usize {
                0
            }
        }
        let shared = SharedBufferPool::new(BufferPool::new(144, PolicyKind::Lru, PanickingStore));
        shared.put(key(1), block(1.0)).unwrap();
        let writer = shared.clone();
        assert!(std::thread::spawn(move || writer.put(key(2), block(2.0))).join().is_err());
        assert!(shared.inner.is_poisoned());
        // The spill panicked before the victim was unlinked: it is still
        // resident, and the pool still balances.
        assert_eq!(shared.get(key(1)).unwrap().expect("resident").get(0, 0), 1.0);
        shared.audit_quiescent().unwrap();
    }

    /// A store whose next `fail` writes fail (a spill disk that fills, then
    /// frees up); reads and removes work.
    #[derive(Default)]
    struct FillingStore {
        inner: MemStore,
        fail: usize,
    }

    impl Storage for FillingStore {
        fn read(&self, key: PageKey) -> std::io::Result<Option<std::borrow::Cow<'_, [u8]>>> {
            self.inner.read(key)
        }
        fn write(&mut self, key: PageKey, data: Vec<u8>) -> std::io::Result<()> {
            if self.fail > 0 {
                self.fail -= 1;
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

    #[test]
    fn a_failed_spill_write_keeps_the_victim_resident() {
        let store = FillingStore { fail: 1, ..FillingStore::default() };
        let mut p = BufferPool::new(2 * 144, PolicyKind::Lru, store);
        let victim = Dense::from_fn(4, 4, |r, c| (r * 4 + c) as f64 * 0.1 - 0.7);
        p.put(key(1), victim.clone()).unwrap();
        p.put(key(2), block(2.0)).unwrap();
        // Room for key 3 means spilling key 1, and that write fails.
        let err = p.put(key(3), block(3.0)).unwrap_err();
        assert!(matches!(err, PoolError::Io(ref m) if m.contains("no space")), "{err}");
        assert_eq!((p.stats().evictions, p.stats().spilled_bytes), (0, 0));
        p.audit_quiescent().unwrap();
        assert_eq!(bits(&p.get(key(1)).unwrap().expect("still resident")), bits(&victim));
        // The disk frees up: the same put spills, and the victim faults
        // back bit-equal.
        p.put(key(3), block(3.0)).unwrap();
        p.put(key(4), block(4.0)).unwrap();
        assert!(p.stats().evictions >= 1);
        assert_eq!(bits(&p.get(key(1)).unwrap().expect("faults back")), bits(&victim));
        p.audit_quiescent().unwrap();
    }

    fn bits(d: &Dense) -> Vec<u64> {
        d.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn shared_pool_concurrent_access() {
        let shared = SharedBufferPool::new(pool(8, PolicyKind::Clock));
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let s = shared.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..20u32 {
                    let k = PageKey::new(u64::from(t), i % 4);
                    s.put(k, Dense::filled(2, 2, (t * 100 + i) as f64)).unwrap();
                    let got = s.get(k).unwrap();
                    assert!(got.is_some());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(shared.stats().hits >= 80 - 32, "most gets should hit");
    }

    #[test]
    fn account_charges_each_caller_what_its_own_calls_made_the_pool_do() {
        use crate::BlockStore;
        use std::sync::{Condvar, PoisonError};
        // Three frames for two stores of four panels each, written and
        // pinned in strict alternation: each store's calls evict, spill and
        // fault the other's pages as well as its own.
        let shared = SharedBufferPool::new(pool(3, PolicyKind::Lru));
        let accounts = [shared.account(), shared.account()];
        let turn = (Mutex::new(0usize), Condvar::new());
        let growth = |before, after| {
            let mut g = PoolStats::default();
            g.add_growth(before, after);
            g
        };
        let logs: Vec<_> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..2)
                .map(|t| {
                    let (shared, turn, acct, other) =
                        (&shared, &turn, &accounts[t], &accounts[1 - t]);
                    s.spawn(move || {
                        let store = BlockStore::new_empty(acct, 16, 4, 4);
                        let mut log = Vec::new();
                        // One pool call per turn, so the pool's growth over
                        // a call is that call's doing. Nothing in a turn
                        // panics, so a failure cannot leave the other
                        // thread waiting; the checks run after the join.
                        let mut step = |want, call: &dyn Fn() -> Result<Option<f64>, PoolError>| {
                            let (count, cv) = turn;
                            let mut n = cv
                                .wait_while(lock(count), |n| *n % 2 != t)
                                .unwrap_or_else(PoisonError::into_inner);
                            let before = (shared.stats(), acct.traffic(), other.traffic());
                            let got = call();
                            let mine = growth(before.1, acct.traffic());
                            let pool = growth(before.0, shared.stats());
                            log.push((t, want, got, mine, pool, other.traffic() == before.2));
                            *n += 1;
                            cv.notify_all();
                        };
                        let v = |round: usize, p: usize| (t * 100 + round * 10 + p) as f64;
                        for round in 0..3 {
                            for p in 0..store.num_panels() {
                                let panel = Dense::filled(4, 4, v(round, p));
                                step(None, &|| store.put_panel(p, panel.clone()).map(|()| None));
                            }
                            // The first panels are spilled by now: pins fault.
                            for p in 0..store.num_panels() {
                                let pin = || store.pin_panel(p).map(|g| Some(g.get(0, 0)));
                                step(Some(v(round, p)), &pin);
                            }
                        }
                        log
                    })
                })
                .collect();
            threads.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (t, want, got, mine, pool, other_untouched) in logs.into_iter().flatten() {
            assert_eq!(got, Ok(want), "thread {t}");
            assert_eq!(mine, pool, "thread {t} was charged other than its call's traffic");
            assert!(other_untouched, "thread {t}'s call was charged to the other account");
        }
        for acct in &accounts {
            let t = acct.traffic();
            assert!(t.pins > 0 && t.spilled_bytes > 0 && t.faulted_bytes > 0, "{t:?}");
        }
        assert_eq!(shared.traffic(), PoolStats::default(), "the pool's own handle did nothing");
        let mut sum = PoolStats::default();
        for acct in &accounts {
            sum.add_growth(PoolStats::default(), acct.traffic());
        }
        assert_eq!(sum, PoolStats { peak_used: 0, ..shared.stats() });
        shared.audit_quiescent().unwrap();
    }
}
