//! E10 — buffer-pool hit rates by eviction policy, trace shape, and pool size.
//!
//! The canonical shapes: repeated scans larger than the pool defeat LRU
//! (0% reuse hits) while leaving skewed workloads unharmed; Clock tracks LRU
//! closely at lower bookkeeping cost; hit rate climbs with pool size until
//! the working set fits.

use criterion::{criterion_group, criterion_main, Criterion};
use dm_buffer::{policy::PolicyKind, storage::MemStore, BufferPool, PageKey};
use dm_matrix::Dense;

const NUM_BLOCKS: usize = 64;
const BLOCK_EDGE: usize = 16; // 16x16 blocks -> 2064 bytes each

fn key(b: usize) -> PageKey {
    PageKey::new(1, b as u32)
}

fn block_bytes() -> usize {
    BLOCK_EDGE * BLOCK_EDGE * 8 + 16
}

/// Replay a trace; returns the hit rate over lookups.
fn replay(kind: PolicyKind, capacity_blocks: usize, trace: &[usize]) -> f64 {
    let mut pool = BufferPool::new(capacity_blocks * block_bytes(), kind, MemStore::default());
    // Preload every block once (and let the pool spill as needed).
    for b in 0..NUM_BLOCKS {
        pool.put(key(b), Dense::filled(BLOCK_EDGE, BLOCK_EDGE, b as f64)).expect("fits");
    }
    pool.reset_stats();
    for &b in trace {
        let got = pool.get(key(b)).expect("no io errors");
        assert!(got.is_some(), "block {b} must exist somewhere");
    }
    pool.stats().hit_rate()
}

fn print_table() {
    let traces: Vec<(&str, Vec<usize>)> = vec![
        ("scan", dm_data::trace::scan(NUM_BLOCKS, 40)),
        ("hot-set", dm_data::trace::hot_set(NUM_BLOCKS, 8, 0.9, 2560, 3)),
        ("zipf", dm_data::trace::zipf(NUM_BLOCKS, 1.0, 2560, 4)),
    ];
    println!("\n=== E10: hit rate by policy and trace ({NUM_BLOCKS} blocks, pool = 16 blocks) ===");
    println!("{:<9} {:>8} {:>8} {:>8} {:>8}", "trace", "lru", "fifo", "clock", "lfu");
    for (name, trace) in &traces {
        let lru = replay(PolicyKind::Lru, 16, trace);
        let fifo = replay(PolicyKind::Fifo, 16, trace);
        let clock = replay(PolicyKind::Clock, 16, trace);
        let lfu = replay(PolicyKind::Lfu, 16, trace);
        println!("{name:<9} {lru:>8.3} {fifo:>8.3} {clock:>8.3} {lfu:>8.3}");
        if *name == "scan" {
            assert!(lru < 0.05, "LRU must thrash on oversized scans, got {lru}");
        }
        if *name == "hot-set" {
            assert!(lru > 0.7, "LRU must capture the hot set, got {lru}");
        }
    }

    println!("\n--- hit rate vs pool size (zipf trace, LRU) ---");
    println!("{:>10} {:>9}", "pool-blk", "hit-rate");
    let zipf = dm_data::trace::zipf(NUM_BLOCKS, 1.0, 2560, 4);
    let mut prev = 0.0;
    for &cap in &[4usize, 8, 16, 32, 64] {
        let hr = replay(PolicyKind::Lru, cap, &zipf);
        println!("{cap:>10} {hr:>9.3}");
        assert!(hr + 1e-9 >= prev, "hit rate must not decrease with pool size");
        prev = hr;
    }
    assert!(prev > 0.99, "full-size pool must hit ~always");
    println!();
}

fn bench(c: &mut Criterion) {
    print_table();
    let zipf = dm_data::trace::zipf(NUM_BLOCKS, 1.0, 2560, 4);
    let mut g = c.benchmark_group("e10_bufferpool");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_secs(2));
    for kind in [PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::Clock, PolicyKind::Lfu] {
        g.bench_function(format!("replay_zipf_{kind:?}"), |b| b.iter(|| replay(kind, 16, &zipf)));
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
