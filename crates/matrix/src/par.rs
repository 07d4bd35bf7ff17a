//! Multi-threaded schedules over the dense kernel bodies of
//! [`crate::kernel`], on the `dm-par` scoped pool.
//!
//! Each function only cuts an in-memory matrix into row panels and folds
//! partials; the arithmetic is the shared body, which is why every result is
//! bit-identical to [`crate::ops`] (the degree-1 instance) at every degree —
//! the argument is in [`crate::kernel`]. Row-local operators ([`gemv`],
//! [`gemm`]) give each worker a contiguous chunk of output rows. The row
//! reductions run on one schedule, [`row_pass`]: it cuts `X` into fixed
//! [`ROW_BLOCK`]-row blocks and folds each member's partials in block
//! order, each as soon as the ones before it are in, so a reduction holds
//! one partial per worker plus the running value. [`crossprod`], [`gevm`],
//! [`col_sums`] and [`gemm_map_sum`] are its one-member passes, and several
//! of them over the same `X` run as one pass that reads each block once.
//! [`sum_sq`] folds fixed [`ELEM_BLOCK`]-element blocks instead.
//! [`gemm`] packs each `B` slab once ([`crate::pack`]) and shares it
//! read-only across the workers, which read their rows of `A` in place;
//! [`gemm_map_sum`] packs all of `B` once the same way, one [`ROW_BLOCK`]-row
//! panel of the product per block, summed into the result in row order.

use crate::dense::Dense;
use crate::pack::{Isa, PackedB};
use crate::{kernel, pack};
use dm_par::{for_each_slice_mut, reduce_blocks};
use std::ops::Range;
use std::sync::Mutex;
use std::time::Instant;

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
/// A one-member [`row_pass`] ([`Member::GemmMapSum`]): the product is
/// computed in [`ROW_BLOCK`]-row panels, each worker runs the gemm body on
/// one panel's rows (the rows of a product are independent, so a panel has
/// the product's bits), applies `f` to it in place, and the fold adds the
/// panel into one running sum in row order once every earlier panel is in.
/// The sum starts from [`Iterator::sum`]'s identity, so it is the sequence
/// of adds of summing the whole mapped product. `B` is packed once, before
/// the pass, and shared read-only by every panel, as [`gemm`] shares its
/// slabs. The extra memory is `degree` panels and one packed copy of `B`,
/// not the product.
///
/// # Panics
/// Panics if `a.cols() != b.rows()`.
pub fn gemm_map_sum(a: &Dense, b: &Dense, f: impl Fn(&mut [f64]) + Sync, degree: usize) -> f64 {
    match one(None, a, Member::GemmMapSum(b, &f), degree) {
        PassValue::Scalar(s) => s,
        _ => unreachable!("a map-sum member yields a scalar"),
    }
}

/// Vector-matrix product `v^T * m`: a one-member [`row_pass`]
/// ([`Member::Gevm`]).
///
/// # Panics
/// Panics if `v.len() != m.rows()`.
pub fn gevm(v: &[f64], m: &Dense, degree: usize) -> Vec<f64> {
    match one(None, m, Member::Gevm(v), degree) {
        PassValue::Vector(v) => v,
        _ => unreachable!("a gevm member yields a vector"),
    }
}

/// Column sums: a one-member [`row_pass`] ([`Member::ColSums`]).
pub fn col_sums(a: &Dense, degree: usize) -> Vec<f64> {
    match one(None, a, Member::ColSums, degree) {
        PassValue::Vector(v) => v,
        _ => unreachable!("a column-sums member yields a vector"),
    }
}

/// Sum of squares as a fixed-block flat reduction.
pub fn sum_sq(a: &Dense, degree: usize) -> f64 {
    let data = a.data();
    reduce_blocks(data.len(), ELEM_BLOCK, degree, 0.0, |r| kernel::sum_sq(&data[r]), |a, b| a + b)
}

/// Self-transpose product `m^T * m`: a one-member [`row_pass`]
/// ([`Member::CrossProd`]) over upper-triangular partials, mirrored once at
/// the end.
pub fn crossprod(m: &Dense, degree: usize) -> Dense {
    crossprod_on(Isa::for_width(m.cols()), m, degree)
}

/// [`crossprod`] on the register tile of instantiation `isa`.
pub(crate) fn crossprod_on(isa: Isa, m: &Dense, degree: usize) -> Dense {
    match one(Some(isa), m, Member::CrossProd, degree) {
        PassValue::Matrix(d) => d,
        _ => unreachable!("a crossprod member yields a matrix"),
    }
}

/// One operator of a [`row_pass`] over a matrix `X`: what it computes from
/// each [`ROW_BLOCK`]-row block of `X` and how it folds those partials.
#[derive(Clone, Copy)]
pub enum Member<'a> {
    /// `X^T X` ([`crossprod`]): an upper-triangular `d x d` partial per
    /// block, added into the running partial, mirrored at the end.
    CrossProd,
    /// `v^T X` ([`gevm`], the language's `tmv`), `v` one value per row of
    /// `X`: a partial as wide as `X`, added into the running one.
    Gevm(&'a [f64]),
    /// Column sums of `X` ([`col_sums`]): a partial as wide as `X`.
    ColSums,
    /// `sum(f(X W))` ([`gemm_map_sum`]): the block's panel of `X W`, mapped
    /// by `f` in place, then added value by value into the running sum.
    GemmMapSum(&'a Dense, &'a (dyn Fn(&mut [f64]) + Sync)),
}

/// What one [`Member`] of a [`row_pass`] computes.
#[derive(Debug, Clone, PartialEq)]
pub enum PassValue {
    /// [`Member::CrossProd`]'s `d x d` product.
    Matrix(Dense),
    /// [`Member::Gevm`]'s or [`Member::ColSums`]' row, as a vector.
    Vector(Vec<f64>),
    /// [`Member::GemmMapSum`]'s sum.
    Scalar(f64),
}

/// The values of a [`row_pass`] and the work behind each.
#[derive(Debug, Clone)]
pub struct PassOutput {
    /// One value per member, in the members' order.
    pub values: Vec<PassValue>,
    /// Per member, the nanoseconds its block bodies and folds took, summed
    /// over every block and worker: the pass's wall time can be split in
    /// proportion to these.
    pub work_ns: Vec<u64>,
}

/// Several reductions of one matrix `x` in **one pass** over its fixed
/// [`ROW_BLOCK`]-row blocks: each block is read from memory once, and every
/// member computes its partial from it while it is still in cache.
///
/// This is the one reduction schedule of the row-block kernels
/// ([`crossprod`], [`gevm`], [`col_sums`] and [`gemm_map_sum`] are its
/// one-member passes). It runs on [`reduce_blocks`]: a block's partial
/// holds one entry per member, and the fold folds each entry into that
/// member's own running value in block order. Block boundaries never depend
/// on the degree or on the other members, so each member sees exactly the
/// operations of its one-member pass and has its bits, at every degree.
/// Vector partials fold into zeros: adding the first partial to zeros is
/// exact except on a `-0.0`, which a fused accumulator reaches only by
/// underflow (see [`crate::pack`]) and the add turns into `+0.0`; every
/// schedule folds from the same zeros, so all of them do that alike.
///
/// Each member's partials live in `degree` buffers allocated by the caller
/// and reused block after block, so it holds at most `degree` partials
/// besides its running value, and no worker thread allocates one.
///
/// # Panics
/// Panics if a [`Member::Gevm`] vector is not one value per row of `x`, or a
/// [`Member::GemmMapSum`] operand does not have a row per column of `x`.
pub fn row_pass(x: &Dense, members: &[Member<'_>], degree: usize) -> PassOutput {
    pass_on(None, x, members, degree)
}

/// A one-member pass on instantiation `isa` (when given) or the member's
/// own, yielding the member's value.
fn one(isa: Option<Isa>, x: &Dense, member: Member<'_>, degree: usize) -> PassValue {
    let mut out = pass_on(isa, x, &[member], degree);
    out.values.pop().expect("one member, one value")
}

/// A [`Member`] with what it prepares once per pass: the instantiation of
/// its tile, or `B` packed.
enum Body<'a> {
    CrossProd(Isa),
    Gevm(Isa, &'a [f64]),
    ColSums,
    GemmMapSum {
        b: &'a Dense,
        f: &'a (dyn Fn(&mut [f64]) + Sync),
        /// `B`'s slabs, packed once; none when `B` holds non-finite values.
        slabs: Option<Vec<(PackedB, Range<usize>)>>,
    },
}

/// A member's running value.
enum Acc {
    Vector(Vec<f64>),
    Sum(f64),
}

impl<'a> Body<'a> {
    fn new(isa: Option<Isa>, x: &Dense, member: Member<'a>) -> Self {
        let d = x.cols();
        match member {
            Member::CrossProd => Body::CrossProd(isa.unwrap_or_else(|| Isa::for_width(d))),
            Member::Gevm(v) => {
                assert_eq!(
                    v.len(),
                    x.rows(),
                    "gevm dimension mismatch: vector {} vs rows {}",
                    v.len(),
                    x.rows()
                );
                Body::Gevm(isa.unwrap_or_else(|| Isa::for_width(d)), v)
            }
            Member::ColSums => Body::ColSums,
            Member::GemmMapSum(b, f) => {
                assert_gemm_dims(x, b);
                let finite = pack::all_finite(b.data());
                Body::GemmMapSum {
                    b,
                    f,
                    slabs: finite.then(|| pack::pack_slabs(b.data(), b.cols(), d)),
                }
            }
        }
    }

    /// The running value before the first block.
    fn zero(&self, d: usize) -> Acc {
        match self {
            Body::CrossProd(_) => Acc::Vector(vec![0.0; d * d]),
            Body::Gevm(..) | Body::ColSums => Acc::Vector(vec![0.0; d]),
            Body::GemmMapSum { .. } => Acc::Sum(std::iter::empty::<f64>().sum()),
        }
    }

    /// The length of the partial of a block `rows` tall.
    fn len(&self, d: usize, rows: usize) -> usize {
        match self {
            Body::CrossProd(_) => d * d,
            Body::Gevm(..) | Body::ColSums => d,
            Body::GemmMapSum { b, .. } => rows * b.cols(),
        }
    }

    /// The partial of rows `r` of `x` into the zeroed `part`.
    fn block(&self, x: &Dense, r: Range<usize>, part: &mut [f64]) {
        let (d, panel) = (x.cols(), rows(x, r.clone()));
        match self {
            &Body::CrossProd(isa) => kernel::crossprod_upper_on(isa, panel, d, part),
            &Body::Gevm(isa, v) => kernel::gevm_on(isa, panel, &v[r], part),
            Body::ColSums => kernel::col_sums(panel, part),
            Body::GemmMapSum { b, f, slabs } => {
                match slabs {
                    Some(slabs) => {
                        for (slab, kcols) in slabs {
                            let kcols = kcols.clone();
                            let view =
                                pack::AView { data: x.data(), stride: d, rows: r.clone(), kcols };
                            pack::gemm_packed_rows(&view, slab, part, b.cols());
                        }
                    }
                    None => kernel::gemm_ref(panel, d, 0..d, b.data(), part),
                }
                f(part);
            }
        }
    }

    /// Fold a block's partial into the running value.
    fn fold(acc: &mut Acc, part: &[f64]) {
        match acc {
            Acc::Vector(acc) => kernel::add_into(acc, part),
            Acc::Sum(sum) => *sum = part.iter().fold(*sum, |sum, &v| sum + v),
        }
    }

    /// The member's value from its running value.
    fn finish(&self, d: usize, acc: Acc) -> PassValue {
        match (self, acc) {
            (Body::CrossProd(_), Acc::Vector(mut out)) => {
                kernel::mirror_upper(d, &mut out);
                PassValue::Matrix(Dense::from_vec(d, d, out).expect("d x d"))
            }
            (_, Acc::Vector(v)) => PassValue::Vector(v),
            (_, Acc::Sum(s)) => PassValue::Scalar(s),
        }
    }
}

/// [`row_pass`], with crossprod and gevm members on instantiation `isa`
/// when given.
fn pass_on(isa: Option<Isa>, x: &Dense, members: &[Member<'_>], degree: usize) -> PassOutput {
    let d = x.cols();
    let bodies: Vec<Body> = members.iter().map(|&m| Body::new(isa, x, m)).collect();
    // Per member, the buffers of one partial per worker, allocated here so
    // that the workers' threads never allocate one, and reused block after
    // block as each folded partial comes back.
    let workers = degree.clamp(1, x.rows().div_ceil(ROW_BLOCK).max(1));
    let spare: Vec<Mutex<Vec<Vec<f64>>>> = bodies
        .iter()
        .map(|b| {
            let len = b.len(d, ROW_BLOCK.min(x.rows()));
            Mutex::new((0..workers).map(|_| Vec::with_capacity(len)).collect())
        })
        .collect();
    let take = |m: usize| spare[m].lock().expect("a push or pop never panics").pop();
    let block = |r: Range<usize>| {
        let mut parts = Vec::with_capacity(bodies.len());
        let mut ns = Vec::with_capacity(bodies.len());
        for (m, body) in bodies.iter().enumerate() {
            let t0 = Instant::now();
            let mut part = take(m).unwrap_or_default();
            part.clear();
            part.resize(body.len(d, r.len()), 0.0);
            body.block(x, r.clone(), &mut part);
            parts.push(part);
            ns.push(elapsed_ns(t0));
        }
        (parts, ns)
    };
    let init = (bodies.iter().map(|b| b.zero(d)).collect::<Vec<_>>(), vec![0u64; bodies.len()]);
    let (accs, work_ns) = reduce_blocks(
        x.rows(),
        ROW_BLOCK,
        degree,
        init,
        block,
        |(mut accs, mut work), (parts, ns)| {
            for (m, (part, ns)) in parts.into_iter().zip(ns).enumerate() {
                let t0 = Instant::now();
                Body::fold(&mut accs[m], &part);
                spare[m].lock().expect("a push or pop never panics").push(part);
                work[m] += ns + elapsed_ns(t0);
            }
            (accs, work)
        },
    );
    let values = bodies.iter().zip(accs).map(|(b, acc)| b.finish(d, acc)).collect();
    PassOutput { values, work_ns }
}

/// Nanoseconds since `t0`.
fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
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

    /// `X` (`rows x d`) with signed zeros, `W` (`d x n`) and `y` (one value
    /// per row, some zero). Row counts are not multiples of [`ROW_BLOCK`],
    /// and `d` and `n` straddle every instantiation's `NR` (8, 12, 32). With
    /// `poison`, `NaN`/`inf` sit in one row block of `X` (that block's
    /// crossprod runs its row loop) and in `W` (the map-sum runs
    /// `gemm_ref`).
    fn pass_inputs() -> impl Strategy<Value = (Dense, Dense, Vec<f64>)> {
        let rows = prop_oneof![
            Just(0usize),
            Just(1usize),
            Just(700usize),
            Just(ROW_BLOCK + 3),
            Just(2 * ROW_BLOCK + 517)
        ];
        let width = || prop_oneof![Just(1usize), 7usize..=13, 31usize..=33];
        (rows, width(), width(), 0usize..2, 0usize..1000).prop_map(|(rows, d, n, poison, seed)| {
            let element = |r: usize, c: usize, salt: usize| match (r * 7 + c * 3 + seed + salt) % 13
            {
                0 => 0.0,
                1 => -0.0,
                _ => ((r * 31 + c * 17 + seed + salt) % 23) as f64 * 0.37 - 3.0,
            };
            let mut x = Dense::from_fn(rows, d, |r, c| element(r, c, 0));
            let mut w = Dense::from_fn(d, n, |r, c| element(r, c, 5));
            let y: Vec<f64> = (0..rows).map(|r| element(r, 0, 9)).collect();
            if poison == 1 && rows > 2 {
                let r = (seed % rows).max(2);
                x.set(r, d / 2, [f64::INFINITY, f64::NAN, f64::NEG_INFINITY][seed % 3]);
                x.set(r - 1, d - 1, 0.0);
                w.set(seed % d, seed % n, [f64::NAN, f64::NEG_INFINITY][seed % 2]);
            }
            (x, w, y)
        })
    }

    proptest! {
        #[test]
        fn every_pass_member_has_its_one_member_kernels_bits((x, w, y) in pass_inputs()) {
            // All four members in one pass, on every instantiation and at
            // degrees 1-3 and 8: each value has the bits of its own
            // one-member kernel at degree 1.
            static PINNED: std::sync::Once = std::sync::Once::new();
            PINNED.call_once(|| {
                println!("instantiations pinned to the one-member bits (row pass): {:?}", Isa::available());
            });
            let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|e| e.to_bits()).collect() };
            let exp = |p: &mut [f64]| kernel::exp_in_place(p);
            let members = [Member::CrossProd, Member::Gevm(&y), Member::ColSums, Member::GemmMapSum(&w, &exp)];
            let sum = gemm_map_sum(&x, &w, exp, 1);
            let (tmv, sums) = (gevm(&y, &x, 1), col_sums(&x, 1));
            for isa in Isa::available() {
                let gram = crossprod_on(isa, &x, 1);
                for degree in DEGREES {
                    let what = format!("{isa:?} degree {degree}");
                    let out = pass_on(Some(isa), &x, &members, degree);
                    prop_assert_eq!(out.work_ns.len(), 4);
                    let [PassValue::Matrix(g), PassValue::Vector(t), PassValue::Vector(c), PassValue::Scalar(s)] =
                        &out.values[..]
                    else {
                        panic!("{what}: values {:?}", out.values)
                    };
                    prop_assert_eq!(bits(g.data()), bits(gram.data()), "crossprod {}", what);
                    prop_assert_eq!(bits(t), bits(&tmv), "gevm {}", what);
                    prop_assert_eq!(bits(c), bits(&sums), "col_sums {}", what);
                    prop_assert_eq!(s.to_bits(), sum.to_bits(), "gemm_map_sum {}", what);
                }
            }
            // The public pass picks each member's own instantiation.
            let out = row_pass(&x, &members[..2], 2);
            let [PassValue::Matrix(g), PassValue::Vector(t)] = &out.values[..] else {
                panic!("values {:?}", out.values)
            };
            prop_assert_eq!(bits(g.data()), bits(crossprod(&x, 1).data()));
            prop_assert_eq!(bits(t), bits(&tmv));
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
