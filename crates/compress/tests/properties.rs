//! Property-based tests: compression must be lossless and kernels must agree
//! with their dense counterparts for arbitrary matrices and plans.

use dm_compress::group::encode;
use dm_compress::{planner::CompressionConfig, CompressedMatrix, Encoding};
use dm_matrix::{ops, Dense};
use proptest::prelude::*;

/// Matrices biased toward compressible structure (few distinct values, zeros)
/// but also containing incompressible noise columns.
fn matrix() -> impl Strategy<Value = Dense> {
    (2usize..60, 1usize..5).prop_flat_map(|(rows, cols)| {
        proptest::collection::vec(
            prop_oneof![
                3 => (0i64..4).prop_map(|v| v as f64),
                1 => Just(0.0),
                1 => -50.0..50.0f64,
            ],
            rows * cols,
        )
        .prop_map(move |data| Dense::from_vec(rows, cols, data).unwrap())
    })
}

fn small_config() -> CompressionConfig {
    CompressionConfig { sample_fraction: 0.5, min_sample_rows: 8, ..CompressionConfig::default() }
}

proptest! {
    #[test]
    fn compression_is_lossless(m in matrix()) {
        let cm = CompressedMatrix::compress(&m, &small_config());
        prop_assert!(cm.validate().is_ok(), "planner output violates invariants: {:?}", cm.validate());
        prop_assert!(cm.decompress().approx_eq(&m, 0.0));
    }

    #[test]
    fn uniform_encodings_lossless(m in matrix()) {
        for enc in [Encoding::Ddc, Encoding::Ole, Encoding::Rle, Encoding::Uncompressed] {
            let cm = CompressedMatrix::compress_uniform(&m, enc);
            prop_assert!(cm.validate().is_ok(), "{enc:?} output violates invariants: {:?}", cm.validate());
            prop_assert!(cm.decompress().approx_eq(&m, 0.0));
        }
    }

    #[test]
    fn gemv_agrees_with_dense(m in matrix()) {
        let v: Vec<f64> = (0..m.cols()).map(|i| i as f64 - 1.0).collect();
        let cm = CompressedMatrix::compress(&m, &small_config());
        let expect = ops::gemv(&m, &v);
        for (a, b) in cm.gemv(&v).iter().zip(&expect) {
            prop_assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn vecmat_agrees_with_dense(m in matrix()) {
        let v: Vec<f64> = (0..m.rows()).map(|i| (i % 5) as f64 - 2.0).collect();
        let cm = CompressedMatrix::compress(&m, &small_config());
        let expect = ops::gevm(&v, &m);
        for (a, b) in cm.vecmat(&v).iter().zip(&expect) {
            prop_assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn col_sums_agree_with_dense(m in matrix()) {
        let cm = CompressedMatrix::compress(&m, &small_config());
        let expect = ops::col_sums(&m);
        for (a, b) in cm.col_sums().iter().zip(&expect) {
            prop_assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn scalar_map_square_agrees(m in matrix()) {
        // x^2 is zero-preserving: dictionary-only rewrite path.
        let cm = CompressedMatrix::compress(&m, &small_config());
        let sq = cm.scalar_map(|v| v * v);
        prop_assert!(sq.decompress().approx_eq(&m.map(|v| v * v), 1e-12));
    }

    #[test]
    fn scalar_map_shift_agrees(m in matrix()) {
        // x+3 is not zero-preserving: forces the re-encode path on OLE/RLE.
        let cm = CompressedMatrix::compress(&m, &small_config());
        let sh = cm.scalar_map(|v| v + 3.0);
        prop_assert!(sh.validate().is_ok(), "re-encoded output violates invariants: {:?}", sh.validate());
        prop_assert!(sh.decompress().approx_eq(&m.map(|v| v + 3.0), 1e-12));
    }

    #[test]
    fn size_reporting_consistent(m in matrix()) {
        let cm = CompressedMatrix::compress(&m, &small_config());
        let total: usize = cm.groups().iter().map(|g| g.size_bytes()).sum();
        prop_assert_eq!(cm.size_bytes(), total);
        prop_assert_eq!(cm.uncompressed_bytes(), m.rows() * m.cols() * 8);
    }

    #[test]
    fn groups_partition_columns(m in matrix()) {
        let cm = CompressedMatrix::compress(&m, &small_config());
        let mut cols: Vec<usize> = cm.groups().iter().flat_map(|g| g.cols().to_vec()).collect();
        cols.sort_unstable();
        let expect: Vec<usize> = (0..m.cols()).collect();
        prop_assert_eq!(cols, expect);
    }
}

/// Degrees every parallel compressed kernel is exercised at: serial, the
/// smallest real split, and the machine's core count.
fn sweep_degrees() -> [usize; 3] {
    [1, 2, std::thread::available_parallelism().map_or(4, |n| n.get()).max(3)]
}

proptest! {
    // Parallel compressed kernels promise bit-identical results to the serial
    // paths: gemv partitions rows into segments each worker fills in serial
    // group order, vecmat/col_sums compute per-group local vectors in the
    // serial per-tuple order and scatter them to disjoint columns. So the
    // contract is exact `assert_eq!`, not a tolerance.
    #[test]
    fn par_compressed_gemv_bit_identical(m in matrix()) {
        let cm = CompressedMatrix::compress(&m, &small_config());
        let v: Vec<f64> = (0..m.cols()).map(|i| i as f64 * 0.4 - 1.1).collect();
        let serial = cm.gemv(&v);
        for deg in sweep_degrees() {
            prop_assert_eq!(&cm.gemv_with(&v, deg), &serial, "degree {}", deg);
        }
    }

    #[test]
    fn par_compressed_vecmat_bit_identical(m in matrix()) {
        let cm = CompressedMatrix::compress(&m, &small_config());
        let u: Vec<f64> = (0..m.rows()).map(|i| ((i % 13) as f64) * 0.2 - 0.9).collect();
        let serial = cm.vecmat(&u);
        for deg in sweep_degrees() {
            prop_assert_eq!(&cm.vecmat_with(&u, deg), &serial, "degree {}", deg);
        }
    }

    #[test]
    fn par_compressed_col_sums_bit_identical(m in matrix()) {
        let cm = CompressedMatrix::compress(&m, &small_config());
        let serial = cm.col_sums();
        for deg in sweep_degrees() {
            prop_assert_eq!(&cm.col_sums_with(deg), &serial, "degree {}", deg);
        }
    }

    #[test]
    fn par_uniform_encoding_kernels_bit_identical(m in matrix()) {
        // Force each encoding in turn so DDC/OLE/RLE/UC range kernels are all
        // hit regardless of what the planner would pick.
        for enc in [Encoding::Ddc, Encoding::Ole, Encoding::Rle, Encoding::Uncompressed] {
            let cm = CompressedMatrix::compress_uniform(&m, enc);
            let v: Vec<f64> = (0..m.cols()).map(|i| i as f64 - 1.5).collect();
            let serial = cm.gemv(&v);
            for deg in sweep_degrees() {
                prop_assert_eq!(&cm.gemv_with(&v, deg), &serial, "{:?} degree {}", enc, deg);
            }
        }
    }
}

proptest! {
    // The group-pair crossprod has one arm per encoding pair (dense × dense,
    // a dictionary side aggregating dense, DDC or panel-decompressed rows).
    // Interleaved columns make every block scatter to non-contiguous places.
    #[test]
    fn crossprod_agrees_for_every_encoding_pair(m in matrix()) {
        let all = [Encoding::Ddc, Encoding::Ole, Encoding::Rle, Encoding::Uncompressed];
        let even: Vec<usize> = (0..m.cols()).step_by(2).collect();
        let odd: Vec<usize> = (1..m.cols()).step_by(2).collect();
        let expect = ops::crossprod(&m);
        for ea in all {
            for eb in all {
                let mut groups = vec![encode(&m, &even, ea)];
                if !odd.is_empty() {
                    groups.push(encode(&m, &odd, eb));
                }
                let cm = CompressedMatrix::from_parts(m.rows(), m.cols(), groups).unwrap();
                let got = cm.crossprod();
                prop_assert!(
                    got.approx_eq(&expect, 1e-8),
                    "{:?} x {:?}: max diff {}", ea, eb, got.max_abs_diff(&expect)
                );
            }
        }
    }
}
