//! Multi-threaded schedules over the dense kernel bodies of
//! [`crate::kernel`], on the `dm-par` scoped pool.
//!
//! Each function only cuts an in-memory matrix into row panels and folds
//! partials; the arithmetic is the shared body, which is why every result is
//! bit-identical to [`crate::ops`] (the degree-1 instance) at every degree —
//! the argument is in [`crate::kernel`]. Row-local operators ([`gemv`],
//! [`gemm`]) give each worker a contiguous chunk of output rows; reductions
//! ([`gevm`], [`col_sums`], [`crossprod`], [`sum_sq`]) cut the input into
//! fixed [`ROW_BLOCK`]-row or [`ELEM_BLOCK`]-element blocks and fold the
//! partials in block order, each as soon as the ones before it are in, so
//! a reduction holds one partial per worker plus the running value.
//! [`gemm`] packs each `B` slab once ([`crate::pack`]) and shares it
//! read-only across the workers, which read their rows of `A` in place;
//! [`gemm_map_sum`] packs all of `B` once the same way and runs on the
//! ordered fold, one [`ROW_BLOCK`]-row panel of the product per block,
//! summed into the result in row order.

use crate::dense::Dense;
use crate::pack::{Isa, PackedB};
use crate::{kernel, pack};
use dm_par::{for_each_slice_mut, reduce_blocks};
use std::ops::Range;
use std::sync::Mutex;

/// Fixed row-block size for reduction kernels (column sums, crossprod, gevm).
///
/// Block boundaries must not depend on the degree of parallelism, or
/// reductions would associate differently per degree and results would drift
/// bitwise. 1024 rows keeps per-block partials comfortably inside L1/L2
/// while bounding the partial count for any realistic input.
pub const ROW_BLOCK: usize = 1024;

/// Fixed element-block size for flat reductions (sum of squares).
pub const ELEM_BLOCK: usize = 16 * 1024;

/// Rows `r` of `m` as one panel.
fn rows(m: &Dense, r: Range<usize>) -> &[f64] {
    &m.data()[r.start * m.cols()..r.end * m.cols()]
}

/// Row-partitioned matrix-vector product `m * v` at the given degree: each
/// element is [`gemm`]'s chain for a one-column `B` ([`kernel::gemv`]), so
/// it has the bits of the matching column of a product against stacked
/// vectors.
///
/// # Panics
/// Panics if `v.len() != m.cols()`.
pub fn gemv(m: &Dense, v: &[f64], degree: usize) -> Vec<f64> {
    gemv_on(Isa::for_width(1), m, v, degree)
}

/// [`gemv`] on instantiation `isa`.
pub(crate) fn gemv_on(isa: Isa, m: &Dense, v: &[f64], degree: usize) -> Vec<f64> {
    assert_eq!(
        v.len(),
        m.cols(),
        "gemv dimension mismatch: vector {} vs cols {}",
        v.len(),
        m.cols()
    );
    let mut out = vec![0.0; m.rows()];
    for_each_slice_mut(&mut out, 1, degree, |r, chunk| {
        kernel::gemv_on(isa, rows(m, r), m.cols(), v, chunk);
    });
    out
}

/// Row-partitioned matrix-matrix product `a * b` at the given degree.
///
/// Each `KC x NC` slab of `B` is packed **once** and shared read-only by
/// every worker, which computes its own output rows against the hot slab
/// with the packed microkernel — instead of each thread re-streaming `B`
/// from cold memory. When `B` holds non-finite values the workers run the
/// reference body [`kernel::gemm_ref`] instead, which leaves out a zero
/// `a[i][k]` against a non-finite `b[k][j]` (see [`crate::pack`]).
///
/// # Panics
/// Panics if `a.cols() != b.rows()`.
pub fn gemm(a: &Dense, b: &Dense, degree: usize) -> Dense {
    gemm_on(Isa::for_width(b.cols()), a, b, degree)
}

/// [`gemm`] on the register tile of instantiation `isa`.
pub(crate) fn gemm_on(isa: Isa, a: &Dense, b: &Dense, degree: usize) -> Dense {
    assert_gemm_dims(a, b);
    let (k, n) = (a.cols(), b.cols());
    let mut out = Dense::zeros(a.rows(), n);
    if out.data().is_empty() {
        return out;
    }
    if !pack::all_finite(b.data()) {
        for_each_slice_mut(out.data_mut(), n, degree, |r, chunk| {
            kernel::gemm_ref_on(isa, rows(a, r), k, 0..k, b.data(), chunk);
        });
        return out;
    }
    pack::for_each_slab_on(isa, &mut PackedB::default(), b.data(), n, k, |slab, kcols| {
        for_each_slice_mut(out.data_mut(), n, degree, |r, chunk| {
            let view = pack::AView { data: a.data(), stride: k, rows: r, kcols: kcols.clone() };
            pack::gemm_packed_rows(&view, slab, chunk, n);
        });
    });
    out
}

fn assert_gemm_dims(a: &Dense, b: &Dense) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "gemm dimension mismatch: {}x{} * {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
}

/// `sum(f(a * b))` without materializing `a * b`, bit-identical to
/// `ops::sum` of `gemm(a, b, _)` after `f` maps its values in place. `f`
/// maps a slice, so a cell-wise function runs at vector width over each
/// panel (`kernel::exp_in_place`); it must map each value independently
/// of where the slice is cut.
///
/// The product is computed in [`ROW_BLOCK`]-row panels on the ordered fold
/// of [`reduce_blocks`]: each worker runs the gemm body on one panel's
/// rows (the rows of a product are independent, so a panel has the
/// product's bits), applies `f` to it in place, and adds the panel into one
/// running sum in row order once every earlier panel is in. The sum starts
/// from [`Iterator::sum`]'s identity, so it is the sequence of adds of
/// summing the whole mapped product. `B` is packed once, before the fold,
/// and shared read-only by every panel, as [`gemm`] shares its slabs. Each
/// worker holds one panel at a time, and a summed panel's buffer goes back
/// for the next block, so the extra memory is `degree` panels and one
/// packed copy of `B`, not the product.
///
/// # Panics
/// Panics if `a.cols() != b.rows()`.
pub fn gemm_map_sum(a: &Dense, b: &Dense, f: impl Fn(&mut [f64]) + Sync, degree: usize) -> f64 {
    assert_gemm_dims(a, b);
    let (k, n) = (a.cols(), b.cols());
    // `B`'s slabs, packed once; none when `B` holds non-finite values.
    let slabs = pack::all_finite(b.data()).then(|| pack::pack_slabs(b.data(), n, k));
    // Summed panels, for reuse.
    let spare = Mutex::new(Vec::new());
    let panel = |r: Range<usize>| {
        let mut out: Vec<f64> =
            spare.lock().expect("a push or pop never panics").pop().unwrap_or_default();
        out.clear();
        out.resize(r.len() * n, 0.0);
        match &slabs {
            Some(slabs) => {
                for (slab, kcols) in slabs {
                    let kcols = kcols.clone();
                    let view = pack::AView { data: a.data(), stride: k, rows: r.clone(), kcols };
                    pack::gemm_packed_rows(&view, slab, &mut out, n);
                }
            }
            None => kernel::gemm_ref(rows(a, r), k, 0..k, b.data(), &mut out),
        }
        f(&mut out);
        out
    };
    let zero: f64 = std::iter::empty::<f64>().sum();
    reduce_blocks(a.rows(), ROW_BLOCK, degree, zero, panel, |acc, out| {
        let sum = out.iter().fold(acc, |sum, &v| sum + v);
        spare.lock().expect("a push or pop never panics").push(out);
        sum
    })
}

/// Vector-matrix product `v^T * m` as a fixed-block row reduction.
///
/// # Panics
/// Panics if `v.len() != m.rows()`.
pub fn gevm(v: &[f64], m: &Dense, degree: usize) -> Vec<f64> {
    assert_eq!(
        v.len(),
        m.rows(),
        "gevm dimension mismatch: vector {} vs rows {}",
        v.len(),
        m.rows()
    );
    reduce_rows(m, m.cols(), degree, |r, panel, part| kernel::gevm(panel, &v[r], part))
}

/// Column sums as a fixed-block row reduction.
pub fn col_sums(a: &Dense, degree: usize) -> Vec<f64> {
    reduce_rows(a, a.cols(), degree, |_, panel, part| kernel::col_sums(panel, part))
}

/// Sum of squares as a fixed-block flat reduction.
pub fn sum_sq(a: &Dense, degree: usize) -> f64 {
    let data = a.data();
    reduce_blocks(data.len(), ELEM_BLOCK, degree, 0.0, |r| kernel::sum_sq(&data[r]), |a, b| a + b)
}

/// Self-transpose product `m^T * m` as a fixed-block row reduction over
/// upper-triangular partials, mirrored once at the end.
pub fn crossprod(m: &Dense, degree: usize) -> Dense {
    crossprod_on(Isa::for_width(m.cols()), m, degree)
}

/// [`crossprod`] on the register tile of instantiation `isa`.
pub(crate) fn crossprod_on(isa: Isa, m: &Dense, degree: usize) -> Dense {
    let d = m.cols();
    let mut out = reduce_rows(m, d * d, degree, |_, panel, part| {
        kernel::crossprod_upper_on(isa, panel, d, part)
    });
    kernel::mirror_upper(d, &mut out);
    Dense::from_vec(d, d, out).expect("d x d")
}

/// The reduction schedule: each fixed [`ROW_BLOCK`] block of `m` is one
/// panel, run by `body` (given its row range) into a zeroed `len`-element
/// partial; partials fold in block order into a zeroed sum. Adding the
/// first partial to zeros is exact except on a `-0.0`, which a fused
/// accumulator reaches only by underflow (see [`crate::pack`]) and the add
/// turns into `+0.0`; every schedule folds from the same zeros, so all of
/// them do that alike.
fn reduce_rows(
    m: &Dense,
    len: usize,
    degree: usize,
    body: impl Fn(Range<usize>, &[f64], &mut [f64]) + Sync,
) -> Vec<f64> {
    let panel = |r: Range<usize>| {
        let mut part = vec![0.0; len];
        body(r.clone(), rows(m, r), &mut part);
        part
    };
    reduce_blocks(m.rows(), ROW_BLOCK, degree, vec![0.0; len], panel, |mut acc, part| {
        kernel::add_into(&mut acc, &part);
        acc
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn big(rows: usize, cols: usize) -> Dense {
        Dense::from_fn(rows, cols, |r, c| ((r * 31 + c * 17) % 23) as f64 * 0.37 - 3.0)
    }

    const DEGREES: [usize; 4] = [1, 2, 3, 8];

    #[test]
    #[should_panic(expected = "gemm dimension mismatch")]
    fn gemm_shape_panics() {
        gemm(&big(2, 3), &big(2, 3), 2);
    }

    fn assert_bits(got: &Dense, want: &[f64], what: &str) {
        assert_eq!(got.data().len(), want.len(), "{what}");
        for (i, (g, w)) in got.data().iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what} at {i}: {g} vs {w}");
        }
    }

    // The untiled ikj loop of fused multiply-adds, leaving out a zero `a`
    // against a non-finite `b`: the semantics both gemm paths (and the
    // cache tiles of `kernel::gemm_ref`) and gemv must reproduce.
    fn reference(a: &Dense, b: &Dense) -> Vec<f64> {
        let n = b.cols();
        let mut out = vec![0.0; a.rows() * n];
        for (arow, orow) in a.data().chunks_exact(a.cols().max(1)).zip(out.chunks_exact_mut(n)) {
            for (&aik, brow) in arow.iter().zip(b.data().chunks_exact(n)) {
                for (o, &bkj) in orow.iter_mut().zip(brow) {
                    if aik != 0.0 || bkj.is_finite() {
                        *o = aik.mul_add(bkj, *o);
                    }
                }
            }
        }
        out
    }

    /// `X` (`m x k`) with both signed zeros, and 1 to 9 vectors stacked as
    /// the columns of `V` (`k x b`). With `poison`, `NaN`/`inf` entries of
    /// `V` sit in a row `p` for which most rows of `X` hold a zero in
    /// column `p`: those terms are left out, the others make non-finite
    /// results.
    fn stacked_vectors() -> impl Strategy<Value = (Dense, Dense)> {
        let dim = prop_oneof![1 => Just(0usize), 1 => Just(1usize), 4 => 2usize..=40];
        let element = || prop_oneof![6 => -100.0..100.0f64, 1 => Just(0.0), 1 => Just(-0.0)];
        (dim.clone(), dim, 1usize..=9, 0usize..4, 0usize..1000).prop_flat_map(
            move |(m, k, b, poison, seed)| {
                let (x, v) = (vec(element(), m * k), vec(element(), k * b));
                (x, v).prop_map(move |(x, v)| {
                    let mut x = Dense::from_vec(m, k, x).unwrap();
                    let mut v = Dense::from_vec(k, b, v).unwrap();
                    if k > 0 {
                        for t in 0..poison {
                            let p = (seed + t * 7) % k;
                            for i in (0..m).filter(|i| (i + seed + t) % 4 != 0) {
                                x.set(i, p, if (i + t) % 2 == 0 { 0.0 } else { -0.0 });
                            }
                            let bad = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][(seed + t) % 3];
                            v.set(p, (seed + t) % b, bad);
                        }
                    }
                    (x, v)
                })
            },
        )
    }

    proptest! {
        #[test]
        fn gemv_is_gemms_one_column_case((x, v) in stacked_vectors()) {
            // Column j of X * [v1 .. vb], on every instantiation and
            // degree, has the bits of the gemv against vj and of the
            // reference chain.
            let want = reference(&x, &v);
            let b = v.cols();
            let bits = |m: &[f64]| -> Vec<u64> { m.iter().map(|e| e.to_bits()).collect() };
            // Column j of a row-major matrix b wide.
            let column = |m: &[f64], j: usize| -> Vec<f64> {
                m.iter().skip(j).step_by(b).copied().collect()
            };
            for degree in 1..=3 {
                for isa in Isa::available() {
                    let what = format!("{isa:?} degree {degree}");
                    let stacked = gemm_on(isa, &x, &v, degree);
                    prop_assert_eq!(bits(stacked.data()), bits(&want), "gemm {}", what);
                    for j in 0..b {
                        let got = gemv_on(isa, &x, &column(v.data(), j), degree);
                        prop_assert_eq!(bits(&got), bits(&column(&want, j)), "gemv {} {}", what, j);
                    }
                }
                for j in 0..b {
                    let got = gemv(&x, &column(v.data(), j), degree);
                    prop_assert_eq!(bits(&got), bits(&column(&want, j)), "gemv degree {}", degree);
                }
            }
        }
    }

    #[test]
    fn gemm_zero_skip_equivalence_with_finite_b() {
        // A with exact zeros: the packed path runs every term, which on a
        // finite B is the reference's chain exactly (see crate::pack docs).
        let mut a = big(40, 30);
        for r in 0..40 {
            a.set(r, (r * 3) % 30, 0.0);
            a.set(r, (r * 7) % 30, -0.0);
        }
        let b = big(30, 25);
        let reference = reference(&a, &b);
        for deg in DEGREES {
            assert_bits(&gemm(&a, &b, deg), &reference, "degree");
        }
    }

    #[test]
    fn zero_column_matrices_at_every_degree() {
        let m = Dense::zeros(3, 0);
        for deg in DEGREES {
            assert_eq!(gemv(&m, &[], deg), vec![0.0; 3]);
            assert_eq!(gevm(&[1.0, 2.0, 3.0], &m, deg), Vec::<f64>::new());
            assert_eq!(col_sums(&m, deg), Vec::<f64>::new());
            assert_eq!(sum_sq(&m, deg).to_bits(), 0.0f64.to_bits());
            assert_eq!(crossprod(&m, deg), Dense::zeros(0, 0));
            assert_eq!(gemm(&m, &Dense::zeros(0, 2), deg), Dense::zeros(3, 2));
        }
    }

    #[test]
    fn gemm_map_sum_matches_summing_the_mapped_product() {
        // Row counts below, at and across ROW_BLOCK; f that maps to -0.0
        // (the sum's identity matters for an empty or all -0.0 product).
        // A is non-negative with exact zeros and one B entry goes to -inf:
        // that selects the reference body, and exp keeps the sum finite
        // only where it leaves out 0 * -inf. Each map is a slice map and
        // its one-value reference.
        type Map = (fn(f64) -> f64, fn(&mut [f64]));
        let maps: [Map; 3] = [
            (kernel::exp, kernel::exp_in_place),
            (f64::abs, |p| p.iter_mut().for_each(|v| *v = v.abs())),
            (|_| -0.0, |p| p.fill(-0.0)),
        ];
        for rows in [0, 1, ROW_BLOCK, ROW_BLOCK + 1, 3 * ROW_BLOCK + 7] {
            let a = Dense::from_fn(rows, 13, |r, c| {
                if (r + c) % 5 == 0 {
                    0.0
                } else {
                    ((r * 31 + c * 17) % 23) as f64 * 0.1
                }
            });
            let mut b = Dense::from_fn(13, 9, |r, c| ((r + c * 3) % 11) as f64 * 0.05);
            for finite in [true, false] {
                if !finite {
                    b.set(4, 2, f64::NEG_INFINITY);
                }
                let product = gemm(&a, &b, 1);
                for (f, map) in maps {
                    let want = crate::ops::sum(&product.map(f));
                    for degree in [1, 2, 3] {
                        let got = gemm_map_sum(&a, &b, map, degree);
                        assert_eq!(got.to_bits(), want.to_bits(), "{rows} rows, degree {degree}");
                    }
                }
            }
        }
    }

    #[test]
    fn gemm_map_sum_packs_b_once_per_call() {
        // Two KC-deep slabs of B against three row blocks of A: the slabs
        // are packed once each, not once per block, and the sum keeps the
        // bits of summing the mapped product.
        let (rows, k) = (2 * ROW_BLOCK + 1, pack::KC + 5);
        let a = big(rows, k);
        let b = big(k, 9);
        let want = crate::ops::sum(&gemm(&a, &b, 1).map(f64::abs));
        let before = pack::PACKS.get();
        let got = gemm_map_sum(&a, &b, |p| p.iter_mut().for_each(|v| *v = v.abs()), 1);
        assert_eq!(pack::PACKS.get() - before, 2, "packs of a 2-slab B over 3 row blocks");
        assert_eq!(got.to_bits(), want.to_bits());
    }

    #[test]
    fn gemm_non_finite_b_routes_through_reference_kernel() {
        // 0.0 * inf == NaN makes the left-out terms observable, so non-finite B
        // must reproduce the reference kernel's bits at every degree. The
        // inner and output widths cross the reference body's cache tiles.
        let mut a = big(24, 300);
        for r in 0..24 {
            a.set(r, r % 300, 0.0);
            a.set(r, 150 + r, 0.0);
        }
        let mut b = big(300, 260);
        b.set(5, 5, f64::INFINITY);
        b.set(7, 3, f64::NAN);
        b.set(170, 200, f64::NEG_INFINITY);
        b.set(150, 130, f64::INFINITY);
        let reference = reference(&a, &b);
        for deg in DEGREES {
            assert_bits(&gemm(&a, &b, deg), &reference, "degree");
        }
    }
}
