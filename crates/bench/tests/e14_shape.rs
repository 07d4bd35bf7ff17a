//! E14 shape test (fast): as the budget shrinks across the 100/50/25/10%
//! sweep, spill traffic grows monotonically while the result stays
//! bit-identical — the "graceful degradation, no OOM" claim of
//! EXPERIMENTS.md E14 at miniature scale.

use dm_buffer::policy::PolicyKind;
use dm_buffer::storage::MemStore;
use dm_buffer::{ooc, panel_rows_for, BlockStore, BufferPool, SharedBufferPool};
use dm_matrix::{ops, Dense};

fn pool(capacity: usize) -> SharedBufferPool<MemStore> {
    SharedBufferPool::new(BufferPool::new(capacity, PolicyKind::Lru, MemStore::default()))
}

#[test]
fn spill_grows_as_budget_shrinks_and_results_stay_exact() {
    let (rows, inner, cols) = (96, 64, 48);
    let a = Dense::from_fn(rows, inner, |r, c| ((r * 31 + c * 17) % 23) as f64 * 0.05 - 0.55);
    let b = Dense::from_fn(inner, cols, |r, c| ((r * 7 + c * 13) % 19) as f64 * 0.07 - 0.63);
    let expect = ops::gemm(&a, &b);
    let ws = 8 * (rows * inner + inner * cols + rows * cols);

    let mut spilled = Vec::new();
    for frac in [1.0_f64, 0.5, 0.25, 0.10] {
        // 512 B of slack covers the per-panel codec headers, so the 100%
        // point really holds the whole working set.
        let budget = (ws as f64 * frac) as usize + 512;
        let p = pool(budget);
        let sa = BlockStore::from_dense(&p, &a, panel_rows_for(a.cols(), budget, 8)).unwrap();
        let sb = BlockStore::from_dense(&p, &b, panel_rows_for(b.cols(), budget, 8)).unwrap();
        let out = ooc::gemm(&sa, &sb, 2).unwrap();
        assert_eq!(
            out.to_dense().unwrap().data(),
            expect.data(),
            "bit-identical at {:.0}% budget",
            frac * 100.0
        );
        p.audit_quiescent().unwrap();
        spilled.push(p.stats().spilled_bytes);
    }

    // 100% budget: everything fits, nothing spills. Shrinking budgets spill
    // monotonically more.
    assert_eq!(spilled[0], 0, "full budget must not spill: {spilled:?}");
    assert!(spilled.windows(2).all(|w| w[0] <= w[1]), "monotone spill growth: {spilled:?}");
    assert!(spilled[3] > 0, "10% budget must spill: {spilled:?}");
}
