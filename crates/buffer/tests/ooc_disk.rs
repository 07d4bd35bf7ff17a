//! Out-of-core edge cases against the on-disk backing store: the exact
//! conditions the executor's spill pool hits in production.

use dm_buffer::policy::PolicyKind;
use dm_buffer::storage::FileStore;
use dm_buffer::{ooc, BlockStore, BufferPool, PageKey, PoolError, SharedBufferPool};
use dm_matrix::{ops, Dense};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dmml_ooc_disk_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn disk_pool(capacity: usize, tag: &str) -> SharedBufferPool<FileStore> {
    let store = FileStore::new(temp_dir(tag)).expect("spill dir");
    SharedBufferPool::new(BufferPool::new(capacity, PolicyKind::Lru, store))
}

fn awkward(rows: usize, cols: usize) -> Dense {
    // Values chosen to be non-representable in low precision plus the full
    // set of special values, so "bit-identical" means something.
    let mut m = Dense::from_fn(rows, cols, |r, c| ((r * 37 + c * 13) as f64).sin() * 1e3);
    if rows > 3 && cols > 3 {
        m.set(0, 0, f64::NAN);
        m.set(1, 1, -0.0);
        m.set(2, 2, f64::INFINITY);
        m.set(3, 3, f64::MIN_POSITIVE / 2.0); // subnormal
    }
    m
}

#[test]
fn budget_smaller_than_one_tile_errors_cleanly() {
    // A budget below a single tile must fail fast with BlockTooLarge — not
    // loop evicting, not panic.
    let pool = disk_pool(64, "tiny");
    let err = pool.put(PageKey::new(1, 0), Dense::zeros(8, 8)).map(|_| ()).expect_err("must fail");
    assert!(matches!(err, PoolError::BlockTooLarge { block_bytes: 528, capacity: 64 }));
    // Same through the BlockStore loader.
    let m = awkward(32, 8);
    assert!(matches!(
        BlockStore::from_dense(&pool, &m, 8).map(|_| ()).expect_err("must fail"),
        PoolError::BlockTooLarge { .. }
    ));
    pool.audit_quiescent().expect("failed put leaves a consistent pool");
}

#[test]
fn pinned_then_unpinned_dirty_block_round_trips_through_disk() {
    // Pin protects a dirty block from eviction; after unpin it becomes a
    // victim, spills to disk, and must fault back with identical bits.
    let pool = disk_pool(2 * (8 * 4 * 8 + 16), "pin_cycle");
    let victim = awkward(8, 4);
    let k = |i| PageKey::new(1, i);
    pool.put(k(0), victim.clone()).unwrap();
    {
        let g = pool.pin(k(0)).unwrap().expect("resident");
        assert_eq!(g.get(0, 0).to_bits(), victim.get(0, 0).to_bits());
        // Pressure while pinned: the pin must hold, other blocks evict.
        pool.put(k(1), awkward(8, 4)).unwrap();
        pool.put(k(2), awkward(8, 4)).unwrap();
        let resident_victim = pool.get(k(0)).unwrap().expect("pinned block still resident");
        assert_eq!(resident_victim.data().len(), victim.data().len());
    }
    // Unpinned now: push it out for real.
    pool.put(k(3), awkward(8, 4)).unwrap();
    pool.put(k(4), awkward(8, 4)).unwrap();
    assert!(pool.stats().evictions > 0);
    let back = pool.get(k(0)).unwrap().expect("faulted back from disk");
    for (a, b) in back.data().iter().zip(victim.data()) {
        assert_eq!(a.to_bits(), b.to_bits(), "bitwise disk round trip (incl. NaN/-0/subnormal)");
    }
    assert!(pool.stats().faulted_bytes > 0);
    pool.audit_quiescent().unwrap();
}

#[test]
fn audit_stays_clean_after_full_out_of_core_gemm() {
    let a = awkward(96, 40);
    let b = awkward(40, 32);
    // Budget ~= a quarter of the working set (a + b + out).
    let ws = (96 * 40 + 40 * 32 + 96 * 32) * 8;
    let pool = disk_pool(ws / 4, "gemm");
    let sa = BlockStore::from_dense(&pool, &a, 8).unwrap();
    let sb = BlockStore::from_dense(&pool, &b, 8).unwrap();
    let out = ooc::gemm(&sa, &sb, 4).unwrap();
    let got = out.to_dense().unwrap();
    let expect = ops::gemm(&a, &b);
    for (x, y) in got.data().iter().zip(expect.data()) {
        assert_eq!(x.to_bits(), y.to_bits(), "gemm bit-identical through disk spill");
    }
    assert!(pool.stats().evictions > 0, "working set 4x budget must spill");
    assert!(pool.stats().spilled_bytes > 0);
    let report = pool.audit_quiescent().expect("no leaks, no desync after gemm");
    assert!(report.pinned.is_empty());
    // Intermediates can be dropped without disturbing consistency.
    out.discard().unwrap();
    sa.discard().unwrap();
    sb.discard().unwrap();
    pool.audit_quiescent().unwrap();
    assert_eq!(pool.resident(), 0);
}
