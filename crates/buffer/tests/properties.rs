//! Property-based tests for the buffer pool: under arbitrary put/get
//! sequences the pool must never lose data, never exceed its byte budget,
//! and always return exactly what was last stored per key.

use dm_buffer::{policy::PolicyKind, storage::MemStore, BufferPool, PageKey};
use dm_matrix::Dense;
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Action {
    Put(u32, f64),
    Get(u32),
}

fn actions() -> impl Strategy<Value = Vec<Action>> {
    proptest::collection::vec(
        prop_oneof![
            (0u32..12, -100.0..100.0f64).prop_map(|(k, v)| Action::Put(k, v)),
            (0u32..12).prop_map(Action::Get),
        ],
        1..120,
    )
}

fn policies() -> impl Strategy<Value = PolicyKind> {
    prop_oneof![
        Just(PolicyKind::Lru),
        Just(PolicyKind::Fifo),
        Just(PolicyKind::Clock),
        Just(PolicyKind::Lfu),
    ]
}

proptest! {
    #[test]
    fn pool_is_a_faithful_kv_store(ops in actions(), kind in policies(), cap_blocks in 1usize..6) {
        // 2x2 blocks: 2*2*8 + 16 = 48 bytes each.
        let block_bytes = 48;
        let mut pool = BufferPool::new(cap_blocks * block_bytes, kind, MemStore::default());
        let mut model: HashMap<u32, f64> = HashMap::new();
        for op in ops {
            match op {
                Action::Put(k, v) => {
                    pool.put(PageKey::new(0, k), Dense::filled(2, 2, v)).unwrap();
                    model.insert(k, v);
                }
                Action::Get(k) => {
                    let got = pool.get(PageKey::new(0, k)).unwrap();
                    match model.get(&k) {
                        Some(&v) => {
                            let b = got.expect("stored key must be retrievable");
                            prop_assert_eq!(b.get(0, 0), v, "stale value for key {}", k);
                        }
                        None => prop_assert!(got.is_none(), "ghost value for key {}", k),
                    }
                }
            }
            prop_assert!(pool.used() <= pool.capacity(), "byte budget violated");
            prop_assert!(pool.resident() <= cap_blocks, "frame budget violated");
            // Frame table, byte accounting, and policy state stay in sync
            // after every operation; no action here pins, so quiescent holds.
            let audit = pool.audit_quiescent();
            prop_assert!(audit.is_ok(), "pool audit failed: {:?}", audit);
        }
        // Post-condition: every key the model knows is still retrievable.
        for (k, v) in model {
            let b = pool.get(PageKey::new(0, k)).unwrap().expect("durable");
            prop_assert_eq!(b.get(0, 0), v);
        }
    }

    #[test]
    fn pins_never_evicted(kind in policies()) {
        let block_bytes = 48;
        let mut pool = BufferPool::new(2 * block_bytes, kind, MemStore::default());
        pool.put(PageKey::new(0, 0), Dense::filled(2, 2, 7.0)).unwrap();
        pool.pin(PageKey::new(0, 0)).unwrap().unwrap();
        // Hammer the pool with other blocks.
        for k in 1..20u32 {
            pool.put(PageKey::new(0, k), Dense::filled(2, 2, k as f64)).unwrap();
        }
        // The pinned block is still resident (a get is a hit, not a fault).
        let before = pool.stats().hits;
        pool.get(PageKey::new(0, 0)).unwrap().unwrap();
        prop_assert_eq!(pool.stats().hits, before + 1);
        // The audit sees the outstanding pin, and sees it released.
        let report = pool.audit().expect("pool consistent");
        prop_assert_eq!(report.pinned, vec![(PageKey::new(0, 0), 1)]);
        pool.unpin(PageKey::new(0, 0)).unwrap();
        prop_assert!(pool.audit_quiescent().is_ok(), "pin leak after release");
    }

    #[test]
    fn codec_round_trips_arbitrary_blocks(
        rows in 0usize..10,
        cols in 0usize..10,
        seed_vals in proptest::collection::vec(-1e6..1e6f64, 0..100),
    ) {
        let n = rows * cols;
        if seed_vals.len() < n { return Ok(()); }
        let m = Dense::from_vec(rows, cols, seed_vals[..n].to_vec()).unwrap();
        let enc = dm_buffer::codec::encode_dense(&m);
        let dec = dm_buffer::codec::decode_dense(&enc).unwrap();
        prop_assert_eq!(dec, m);
    }
}
