//! Out-of-core schedules over [`BlockStore`] handles.
//!
//! Each operator streams row panels through the pool — pin → compute →
//! unpin — so the resident set stays under the pool's byte budget no matter
//! how large the operands are. The arithmetic is the one body per operator
//! in `dm_matrix::kernel`: a schedule here only produces pinned panels and
//! folds partials, so every result is **bit-identical to its in-memory
//! counterpart in `dm_matrix::ops`**, by the construction argued in that
//! module. Row-local operators ([`gemv`], [`gemm`], [`ewise`], [`map`])
//! hand each worker whole panels; the reductions ([`col_sums`],
//! [`crossprod`]) fold the *global* fixed `ROW_BLOCK` blocks of
//! `dm_matrix::par`, whatever the panel height. Gemm chooses per pinned `B`
//! panel between the packed microkernel (finite panel) and the reference
//! body (`NaN`/`inf` present).
//!
//! Workers hold at most one panel pin per operand at a time, and the degree
//! is clamped so the sum of per-worker pins — charged with [`panel_bytes`],
//! the formula the plan-time certifier reads — always fits the budget, which
//! rules out pin-wait deadlocks by construction.
//!
//! An operator that writes a matrix returns it as a new store in its first
//! operand's pool. The pool names it, and it frees its pages when dropped,
//! so a schedule that fails part way leaves none of its output behind.
//!
//! ```
//! use dm_buffer::{ooc, BlockStore, BufferPool, SharedBufferPool};
//! use dm_buffer::{policy::PolicyKind, storage::MemStore};
//! use dm_matrix::{ops, Dense};
//!
//! let a = Dense::from_fn(64, 24, |r, c| (r * 7 + c) as f64 * 0.5 - 3.0);
//! let b = Dense::from_fn(24, 16, |r, c| (r + c * 5) as f64 * 0.25 - 2.0);
//! // A pool far smaller than the 64x24 * 24x16 working set: tiles spill.
//! let pool = SharedBufferPool::new(BufferPool::new(4096, PolicyKind::Lru, MemStore::default()));
//! let sa = BlockStore::from_dense(&pool, &a, 8).unwrap();
//! let sb = BlockStore::from_dense(&pool, &b, 8).unwrap();
//! let product = ooc::gemm(&sa, &sb, 1).unwrap().to_dense().unwrap();
//! assert_eq!(product, ops::gemm(&a, &b)); // bit-identical, not approximate
//! assert!(pool.stats().evictions > 0, "it really ran out-of-core");
//! pool.audit_quiescent().unwrap();
//! drop((sa, sb));
//! assert_eq!(pool.used(), 0, "dropped stores leave no pages behind");
//! ```

use crate::pool::PoolError;
use crate::storage::Storage;
use crate::store::{panel_bytes, BlockStore};
use dm_matrix::par::ROW_BLOCK;
use dm_matrix::{kernel, pack, Dense};
use dm_par::{for_each_slice_mut, map_collect, reduce_blocks};
use std::ops::Range;

// Cap the worker count so that one concurrent pin per worker of each of
// `stores` always fits the budget: workers then never wait on each other's
// pins, and `AllPinned` is reserved for budgets genuinely too small for one
// worker's tiles.
fn clamp<S: Storage>(degree: usize, stores: &[&BlockStore<S>]) -> usize {
    let per_worker: usize =
        stores.iter().map(|s| panel_bytes(s.panel_rows().min(s.rows().max(1)), s.cols())).sum();
    degree.clamp(1, (stores[0].pool().capacity() / per_worker.max(1)).max(1))
}

fn join<T>(results: Vec<Result<T, PoolError>>) -> Result<Vec<T>, PoolError> {
    results.into_iter().collect()
}

/// Out-of-core matrix-vector product `a * v`; workers own disjoint panels.
///
/// # Panics
/// Panics if `v.len() != a.cols()`.
pub fn gemv<S: Storage>(
    a: &BlockStore<S>,
    v: &[f64],
    degree: usize,
) -> Result<Vec<f64>, PoolError> {
    assert_eq!(
        v.len(),
        a.cols(),
        "gemv dimension mismatch: vector {} vs cols {}",
        v.len(),
        a.cols()
    );
    let mut out = vec![0.0; a.rows()];
    // Each panel's rows paired with the outcome of pinning it.
    let mut panels: Vec<_> = out.chunks_mut(a.panel_rows()).map(|rows| (rows, Ok(()))).collect();
    for_each_slice_mut(&mut panels, 1, clamp(degree, &[a]), |ps, slots| {
        for (p, (rows, done)) in ps.zip(slots) {
            *done = a.pin_panel(p).map(|g| kernel::gemv(g.data(), a.cols(), v, rows));
        }
    });
    panels.into_iter().try_for_each(|(_, done)| done)?;
    Ok(out)
}

/// Out-of-core matrix-matrix product `a * b`, written as a new store in
/// `a`'s pool.
///
/// Each worker owns one output panel: it pins the matching `a` panel, then
/// streams `b`'s panels in increasing-`k` order into a local accumulator.
///
/// # Panics
/// Panics if `a.cols() != b.rows()`.
pub fn gemm<S: Storage>(
    a: &BlockStore<S>,
    b: &BlockStore<S>,
    degree: usize,
) -> Result<BlockStore<S>, PoolError> {
    assert_eq!(
        a.cols(),
        b.rows(),
        "gemm dimension mismatch: {}x{} * {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let n = b.cols();
    write_panels(a, &[b], n, degree, |p| {
        let ap = a.pin_panel(p)?;
        let mut acc = vec![0.0; ap.rows() * n];
        let mut bpack = pack::PackedB::default();
        for kb in 0..b.num_panels() {
            let (bp, kr) = (b.pin_panel(kb)?, b.panel_range(kb));
            if !pack::all_finite(bp.data()) {
                kernel::gemm_ref(ap.data(), a.cols(), kr, bp.data(), &mut acc);
                continue;
            }
            pack::for_each_slab(&mut bpack, bp.data(), n, kr.len(), |slab, k| {
                let kcols = kr.start + k.start..kr.start + k.end;
                let view =
                    pack::AView { data: ap.data(), stride: a.cols(), rows: 0..ap.rows(), kcols };
                pack::gemm_packed_rows(&view, slab, &mut acc, n);
            });
        }
        Ok(acc)
    })
}

/// Out-of-core column sums.
pub fn col_sums<S: Storage>(a: &BlockStore<S>, degree: usize) -> Result<Vec<f64>, PoolError> {
    reduce_rows(a, a.cols(), degree, kernel::col_sums)
}

/// Out-of-core self-transpose product `a^T * a` (the fused `t(X)%*%X`).
/// The `d x d` result is returned in memory — physical selection only picks
/// the blocked kernel when the *input* is the oversized operand.
pub fn crossprod<S: Storage>(a: &BlockStore<S>, degree: usize) -> Result<Dense, PoolError> {
    let d = a.cols();
    let mut out =
        reduce_rows(a, d * d, degree, |panel, part| kernel::crossprod_upper(panel, d, part))?;
    kernel::mirror_upper(d, &mut out);
    Ok(Dense::from_vec(d, d, out).expect("d x d"))
}

/// Out-of-core elementwise combination `f(a, b)`, written as a new store in
/// `a`'s pool.
///
/// # Panics
/// Panics if shapes differ or the stores use different panel heights.
pub fn ewise<S: Storage>(
    a: &BlockStore<S>,
    b: &BlockStore<S>,
    f: impl Fn(f64, f64) -> f64 + Sync,
    degree: usize,
) -> Result<BlockStore<S>, PoolError> {
    assert_eq!(
        (a.rows(), a.cols()),
        (b.rows(), b.cols()),
        "elementwise shape mismatch: {:?} vs {:?}",
        (a.rows(), a.cols()),
        (b.rows(), b.cols())
    );
    assert_eq!(a.panel_rows(), b.panel_rows(), "elementwise panel height mismatch");
    write_panels(a, &[b], a.cols(), degree, |p| {
        let (ga, gb) = (a.pin_panel(p)?, b.pin_panel(p)?);
        Ok(ga.data().iter().zip(gb.data()).map(|(&x, &y)| f(x, y)).collect())
    })
}

/// Out-of-core elementwise map `f(a)` (scalar broadcasts, unary ops),
/// written as a new store in `a`'s pool.
pub fn map<S: Storage>(
    a: &BlockStore<S>,
    f: impl Fn(f64) -> f64 + Sync,
    degree: usize,
) -> Result<BlockStore<S>, PoolError> {
    write_panels(a, &[], a.cols(), degree, |p| {
        Ok(a.pin_panel(p)?.data().iter().map(|&x| f(x)).collect())
    })
}

/// The schedule of the operators that write a store: one output panel,
/// `cols` wide, per panel of `a`, computed by `panel` — which releases its
/// pins before returning, so the `put` can reclaim their frames under a
/// tight budget — on as many workers as one panel each of `a`, `inputs` and
/// the output fit the budget.
fn write_panels<S: Storage>(
    a: &BlockStore<S>,
    inputs: &[&BlockStore<S>],
    cols: usize,
    degree: usize,
    panel: impl Fn(usize) -> Result<Vec<f64>, PoolError> + Sync,
) -> Result<BlockStore<S>, PoolError> {
    let out = BlockStore::new_empty(a.pool(), a.rows(), cols, a.panel_rows());
    let stores: Vec<_> = [a].into_iter().chain(inputs.iter().copied()).chain([&out]).collect();
    join(map_collect(a.num_panels(), clamp(degree, &stores), |p| {
        let rows = a.panel_range(p).len();
        out.put_panel(p, Dense::from_vec(rows, cols, panel(p)?).expect("panel shape"))
    }))?;
    Ok(out)
}

/// The reduction schedule: each global fixed [`ROW_BLOCK`] block of `a` is
/// run by `body`, one pinned panel's share of its rows at a time in row
/// order, into a zeroed `len`-element partial; partials fold in block order
/// into a zeroed sum, as `dm_matrix::par`'s do.
fn reduce_rows<S: Storage>(
    a: &BlockStore<S>,
    len: usize,
    degree: usize,
    body: impl Fn(&[f64], &mut [f64]) + Sync,
) -> Result<Vec<f64>, PoolError> {
    let (h, cols) = (a.panel_rows(), a.cols());
    let block = |rows: Range<usize>| {
        let mut part = vec![0.0; len];
        for p in rows.start / h..rows.end.div_ceil(h) {
            let (g, base) = (a.pin_panel(p)?, p * h);
            let (lo, hi) = (rows.start.max(base) - base, rows.end.min(base + g.rows()) - base);
            body(&g.data()[lo * cols..hi * cols], &mut part);
        }
        Ok(part)
    };
    reduce_blocks(
        a.rows(),
        ROW_BLOCK,
        clamp(degree, &[a]),
        Ok(vec![0.0; len]),
        block,
        |acc, part| {
            let (mut acc, part) = (acc?, part?);
            kernel::add_into(&mut acc, &part);
            Ok(acc)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;
    use crate::storage::MemStore;
    use crate::{BufferPool, SharedBufferPool};
    use dm_matrix::ops;

    fn shared(capacity: usize) -> SharedBufferPool<MemStore> {
        SharedBufferPool::new(BufferPool::new(capacity, PolicyKind::Lru, MemStore::default()))
    }

    fn sample(rows: usize, cols: usize) -> Dense {
        // Includes exact zeros so the `aik == 0.0` skip paths are exercised.
        Dense::from_fn(rows, cols, |r, c| {
            let v = ((r * 31 + c * 17) % 23) as f64 * 0.37 - 3.0;
            if (r + c) % 11 == 0 {
                0.0
            } else {
                v
            }
        })
    }

    #[test]
    fn budget_smaller_than_one_panel_errors_cleanly() {
        let pool = shared(100); // one 16x8 panel needs 16*8*8 + 16 = 1040 bytes
        let m = sample(64, 8);
        let err = BlockStore::from_dense(&pool, &m, 16).err().expect("must fail");
        assert!(
            matches!(err, PoolError::BlockTooLarge { .. }),
            "expected BlockTooLarge, got {err:?}"
        );
    }

    #[test]
    fn gemv_surfaces_a_panel_it_cannot_pin() {
        // Panels 0 and 2 of three are written; panel 1 never was.
        let pool = shared(1 << 16);
        let store = BlockStore::new_empty(&pool, 40, 3, 16);
        for p in [0, 2] {
            let rows = store.panel_range(p).len();
            store.put_panel(p, Dense::from_fn(rows, 3, |r, c| (r + c) as f64)).unwrap();
        }
        for deg in [1, 2, 3] {
            let err = gemv(&store, &[1.0; 3], deg).expect_err("panel 1 is absent");
            assert!(matches!(err, PoolError::Absent(k) if k == store.key(1)), "{err:?}");
            // A writing schedule that fails part way frees the panels it
            // wrote: only the input's two remain.
            let used = pool.used();
            map(&store, |x| x + 1.0, deg).err().expect("panel 1 is absent");
            assert_eq!((pool.resident(), pool.used()), (2, used), "degree {deg}");
        }
    }

    #[test]
    fn ewise_and_map_match_in_memory() {
        let a = sample(500, 11);
        let b = sample(500, 11);
        let pool = shared(5 * (64 * 11 * 8 + 16));
        let sa = BlockStore::from_dense(&pool, &a, 64).unwrap();
        let sb = BlockStore::from_dense(&pool, &b, 64).unwrap();
        for deg in [1, 2, 4] {
            let sum = ewise(&sa, &sb, |x, y| x + y, deg).unwrap();
            assert_eq!(sum.to_dense().unwrap(), ops::add(&a, &b), "degree {deg}");
            sum.discard().unwrap();
            let scaled = map(&sa, |x| x * 2.5, deg).unwrap();
            assert_eq!(scaled.to_dense().unwrap(), ops::scale(&a, 2.5), "degree {deg}");
            scaled.discard().unwrap();
        }
        pool.audit_quiescent().unwrap();
    }

    #[test]
    fn special_values_survive_the_round_trip() {
        // NaN / -0.0 / infinities must stream through spill-and-fault intact.
        let mut m = sample(40, 4);
        m.set(0, 0, f64::NAN);
        m.set(1, 1, -0.0);
        m.set(2, 2, f64::INFINITY);
        m.set(3, 3, f64::NEG_INFINITY);
        let pool = shared(2 * (8 * 4 * 8 + 16));
        let store = BlockStore::from_dense(&pool, &m, 8).unwrap();
        assert!(pool.stats().evictions > 0, "blocks actually spilled");
        let back = store.to_dense().unwrap();
        for (a, b) in back.data().iter().zip(m.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "bitwise round trip");
        }
    }
}
