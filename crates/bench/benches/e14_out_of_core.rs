//! E14 — out-of-core graceful degradation: the blocked kernels under a
//! budget-fraction sweep (100% / 50% / 25% / 10% of the working set).
//!
//! The canonical shape: runtime degrades smoothly as the budget shrinks —
//! no OOM, no cliff — while spill bytes grow roughly as the working-set
//! excess over the budget. At 100% the pool holds everything and spill
//! traffic is ~zero; at 10% nearly every tile round-trips through the
//! backing store. The compressed-mv arm is the counterpoint: compression
//! shrinks the working set below even the smallest budget, so the compressed
//! in-memory kernel stays flat where the dense out-of-core path pays
//! fault-in traffic.
//!
//! Every blocked kernel is bit-identical to its in-memory counterpart, so
//! the sweep measures pure pool traffic, not numerical drift.
//!
//! The gemm shape defaults to 768x512x384 and can be shrunk for constrained
//! machines via `DMML_BENCH_OOC_N` (scales all three dimensions).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use dm_bench::{row, time_once};
use dm_buffer::policy::PolicyKind;
use dm_buffer::storage::FileStore;
use dm_buffer::{ooc, BlockStore, BufferPool, SharedBufferPool};
use dm_compress::{planner::CompressionConfig, CompressedMatrix};
use dm_matrix::{ops, Dense};

/// Budget fractions of the working set swept by every arm.
const FRACTIONS: [(u32, f64); 4] = [(100, 1.0), (50, 0.5), (25, 0.25), (10, 0.10)];

/// Thread degree for the blocked kernels (bit-identical at any degree).
const DEGREE: usize = 2;

/// Rows / cols of the compressed matrix-vector workload.
const CMV_ROWS: usize = 200_000;
const CMV_COLS: usize = 8;

fn scale() -> usize {
    std::env::var("DMML_BENCH_OOC_N").ok().and_then(|s| s.parse().ok()).unwrap_or(768)
}

fn disk_pool(capacity: usize) -> SharedBufferPool<FileStore> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dmml_e14_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let store = FileStore::new(dir).expect("spill dir");
    SharedBufferPool::new(BufferPool::new(capacity, PolicyKind::Lru, store))
}

/// One full out-of-core gemm: load operands into the pool, stream the
/// product, materialize it, release everything.
fn ooc_gemm_run(a: &Dense, b: &Dense, budget: usize) -> (Dense, SharedBufferPool<FileStore>) {
    let pool = disk_pool(budget);
    let pr_a = dm_buffer::panel_rows_for(a.cols(), budget, 8);
    let pr_b = dm_buffer::panel_rows_for(b.cols(), budget, 8);
    let sa = BlockStore::from_dense(&pool, a, pr_a).expect("load A");
    let sb = BlockStore::from_dense(&pool, b, pr_b).expect("load B");
    let out = ooc::gemm(&sa, &sb, DEGREE).expect("blocked gemm");
    let d = out.to_dense().expect("materialize");
    for s in [sa, sb, out] {
        s.discard().expect("discard");
    }
    (d, pool)
}

fn ooc_gemv_run(m: &Dense, v: &[f64], budget: usize) -> (Vec<f64>, SharedBufferPool<FileStore>) {
    let pool = disk_pool(budget);
    let pr = dm_buffer::panel_rows_for(m.cols(), budget, 8);
    let s = BlockStore::from_dense(&pool, m, pr).expect("load");
    let out = ooc::gemv(&s, v, DEGREE).expect("blocked gemv");
    s.discard().expect("discard");
    (out, pool)
}

fn bench(c: &mut Criterion) {
    let n = scale();
    let (rows, inner, cols) = (n, n * 2 / 3, n / 2);
    let gemm_ws = 8 * (rows * inner + inner * cols + rows * cols);
    println!("\n=== E14: out-of-core degradation (budget fractions 100/50/25/10%) ===");
    println!(
        "gemm {rows}x{inner} * {inner}x{cols} (working set {:.1} MB) | dense mv {CMV_ROWS}x{CMV_COLS} vs compressed in-memory",
        gemm_ws as f64 / 1e6
    );

    let a = Dense::from_fn(rows, inner, |r, c| ((r * 31 + c * 17) % 23) as f64 * 0.05 - 0.55);
    let b = Dense::from_fn(inner, cols, |r, c| ((r * 7 + c * 13) % 19) as f64 * 0.07 - 0.63);
    let expect = ops::gemm(&a, &b);

    let m = dm_data::matgen::clustered(CMV_ROWS, CMV_COLS, 10, 512, 7);
    let cm = CompressedMatrix::compress(&m, &CompressionConfig::default());
    let v: Vec<f64> = (0..CMV_COLS).map(|i| i as f64 * 0.3 - 1.0).collect();
    let mv_expect = ops::gemv(&m, &v);
    let mv_ws = 8 * CMV_ROWS * CMV_COLS;

    // Bit-identity preflight at the tightest budget: graceful degradation
    // must never mean approximate results.
    let (got, _) = ooc_gemm_run(&a, &b, gemm_ws / 10);
    assert_eq!(got.data(), expect.data(), "blocked gemm bit-identical at 10% budget");
    let (mv_got, _) = ooc_gemv_run(&m, &v, mv_ws / 10);
    assert_eq!(mv_got, mv_expect, "blocked gemv bit-identical at 10% budget");

    // Qualitative table: one timed run per fraction, with the pool traffic
    // that explains the slowdown.
    println!(
        "{}",
        row(&[
            "budget".into(),
            "gemm s".into(),
            "evictions".into(),
            "spill MB".into(),
            "fault MB".into(),
        ])
    );
    for (pct, frac) in FRACTIONS {
        let budget = (gemm_ws as f64 * frac) as usize;
        let ((_, pool), secs) = time_once(|| ooc_gemm_run(&a, &b, budget));
        let st = pool.stats();
        println!(
            "{}",
            row(&[
                format!("{pct}%"),
                format!("{secs:.3}"),
                format!("{}", st.evictions),
                format!("{:.1}", st.spilled_bytes as f64 / 1e6),
                format!("{:.1}", st.faulted_bytes as f64 / 1e6),
            ])
        );
    }

    let mut g = c.benchmark_group("e14_out_of_core");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(200));
    g.measurement_time(Duration::from_secs(2));
    for (pct, frac) in FRACTIONS {
        let budget = (gemm_ws as f64 * frac) as usize;
        g.bench_function(format!("gemm_budget_{pct}"), |bch| {
            bch.iter(|| ooc_gemm_run(&a, &b, budget))
        });
    }
    for (pct, frac) in FRACTIONS {
        let budget = (mv_ws as f64 * frac) as usize;
        g.bench_function(format!("gemv_dense_ooc_budget_{pct}"), |bch| {
            bch.iter(|| ooc_gemv_run(&m, &v, budget))
        });
    }
    // The counterpoint: compression takes the working set below the budget,
    // so the in-memory compressed kernel never pays pool traffic.
    g.bench_function("gemv_compressed_inmem", |bch| bch.iter(|| cm.gemv_with(&v, DEGREE)));
    g.bench_function("gemv_dense_inmem", |bch| bch.iter(|| ops::gemv(&m, &v)));
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
