//! Property tests pinning the pack-and-microkernel gemm (and crossprod)
//! **bit-identical** to the naive reference kernels across degenerate and
//! non-tile-multiple shapes. Gemv's pin, that it is gemm's one-column case
//! on every register-tile instantiation, is `par::tests`' proptest, which
//! can name the instantiations.
//!
//! The packed kernels promise more than numerical closeness: for every
//! output element, the same fused multiply-adds run in the same order as
//! the serial reference loops, so results match to the last bit. These
//! tests enforce that promise on shapes the blocking logic finds awkward —
//! empty dims, single rows/cols, and sizes that are not multiples of
//! MR/NR/MC — with inputs that include both `0.0` and `-0.0` (the signed
//! zeros are what leaving out `0 * inf` in the reference, and in no other
//! term, hinges on; see `pack.rs`).

use dm_matrix::{ops, par, Dense};
use proptest::prelude::*;

/// Shapes (m, k, n) that stress the tile edges: every dimension is drawn
/// from a set biased toward 0, 1, and values straddling MR=2 / NR=12.
fn awkward_shapes() -> impl Strategy<Value = (usize, usize, usize)> {
    let dim = prop_oneof![
        2 => Just(0usize),
        2 => Just(1usize),
        3 => 2usize..=13,
        2 => 14usize..=40,
    ];
    (dim.clone(), dim.clone(), dim)
}

/// Element values with explicit mass on both signed zeros, the inputs the
/// legacy `aik == 0.0` skip used to special-case.
fn elements(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(
        prop_oneof![
            4 => -100.0..100.0f64,
            1 => Just(0.0),
            1 => Just(-0.0),
        ],
        len,
    )
}

fn matrices() -> impl Strategy<Value = (Dense, Dense)> {
    awkward_shapes().prop_flat_map(|(m, k, n)| {
        (elements(m * k), elements(k * n)).prop_map(move |(a, b)| {
            (Dense::from_vec(m, k, a).unwrap(), Dense::from_vec(k, n, b).unwrap())
        })
    })
}

/// The serial gemm: ikj loop order, one `mul_add` per term, leaving out a
/// zero `aik` against a non-finite `bkj` (so `0 * inf` adds nothing). Per
/// output element this runs the terms in strictly increasing k — exactly
/// the chain the packed kernel must reproduce.
fn naive_gemm(a: &Dense, b: &Dense) -> Dense {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Dense::zeros(m, n);
    for i in 0..m {
        for p in 0..k {
            let aik = a.data()[i * k + p];
            let brow = &b.data()[p * n..(p + 1) * n];
            let orow = &mut out.data_mut()[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                if aik != 0.0 || bv.is_finite() {
                    *o = aik.mul_add(bv, *o);
                }
            }
        }
    }
    out
}

/// The serial crossprod: per row, one `mul_add` per upper-triangle term
/// with increasing row index, then mirror.
fn naive_crossprod(m: &Dense) -> Dense {
    let d = m.cols();
    let mut out = Dense::zeros(d, d);
    for r in 0..m.rows() {
        let row = &m.data()[r * d..(r + 1) * d];
        for i in 0..d {
            for j in i..d {
                let o = &mut out.data_mut()[i * d + j];
                *o = row[i].mul_add(row[j], *o);
            }
        }
    }
    for i in 0..d {
        for j in 0..i {
            out.data_mut()[i * d + j] = out.data()[j * d + i];
        }
    }
    out
}

fn assert_bits(got: &Dense, want: &Dense, what: &str) {
    prop_assert_eq!(got.rows(), want.rows());
    prop_assert_eq!(got.cols(), want.cols());
    for (i, (x, y)) in got.data().iter().zip(want.data()).enumerate() {
        prop_assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{} diverges from reference at flat index {} ({} vs {})",
            what,
            i,
            x,
            y
        );
    }
}

proptest! {
    #[test]
    fn packed_gemm_bit_identical_to_naive((a, b) in matrices()) {
        assert_bits(&ops::gemm(&a, &b), &naive_gemm(&a, &b), "ops::gemm");
    }

    #[test]
    fn parallel_gemm_bit_identical_at_every_degree((a, b) in matrices()) {
        let want = naive_gemm(&a, &b);
        for degree in [1, 2, 3, 5] {
            assert_bits(&par::gemm(&a, &b, degree), &want, "par::gemm");
        }
    }

    #[test]
    fn gemm_with_non_finite_b_matches_reference_skip_kernel(
        (a, mut b) in matrices(),
        poison in 0.0..1.0f64,
    ) {
        // Plant a non-finite value so the finite-B gate must take the
        // reference path; the naive kernel *is* that path's semantics.
        if !b.data().is_empty() {
            let idx = (poison * (b.data().len() - 1) as f64) as usize;
            b.data_mut()[idx] = if poison < 0.5 { f64::INFINITY } else { f64::NAN };
        }
        let want = naive_gemm(&a, &b);
        assert_bits(&ops::gemm(&a, &b), &want, "ops::gemm (non-finite B)");
        for degree in [1, 3] {
            assert_bits(&par::gemm(&a, &b, degree), &want, "par::gemm (non-finite B)");
        }
    }

    #[test]
    fn crossprod_bit_identical_to_naive((a, _b) in matrices()) {
        assert_bits(&ops::crossprod(&a), &naive_crossprod(&a), "ops::crossprod");
    }

    #[test]
    fn gevm_degree_invariant((a, _b) in matrices()) {
        let u: Vec<f64> = (0..a.rows()).map(|i| ((i % 9) as f64) * 0.25 - 1.0).collect();
        let serial = ops::gevm(&u, &a);
        for degree in [1, 2, 4] {
            for (x, y) in par::gevm(&u, &a, degree).iter().zip(&serial) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }
}
