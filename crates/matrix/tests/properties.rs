//! Property-based tests for the matrix substrate.

use dm_matrix::{ops, par, solve, Coo, Csr, Dense};
use proptest::prelude::*;

/// Strategy: a dense matrix with bounded shape and values, plus a sparsity knob.
fn dense_matrix(max_dim: usize) -> impl Strategy<Value = Dense> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(prop_oneof![3 => -100.0..100.0f64, 1 => Just(0.0)], r * c)
            .prop_map(move |data| Dense::from_vec(r, c, data).unwrap())
    })
}

fn vector(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-10.0..10.0f64, len)
}

proptest! {
    #[test]
    fn transpose_is_involution(m in dense_matrix(12)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn transpose_preserves_sum(m in dense_matrix(12)) {
        prop_assert!((ops::sum(&m) - ops::sum(&m.transpose())).abs() < 1e-9);
    }

    #[test]
    fn csr_round_trip(m in dense_matrix(12)) {
        let s = Csr::from_dense(&m);
        prop_assert_eq!(s.to_dense(), m.clone());
        prop_assert_eq!(s.nnz(), m.nnz());
    }

    #[test]
    fn spmv_agrees_with_gemv(m in dense_matrix(10)) {
        let v: Vec<f64> = (0..m.cols()).map(|i| (i as f64) - 3.0).collect();
        let s = Csr::from_dense(&m);
        let a = ops::gemv(&m, &v);
        let b = dm_matrix::sparse::spmv(&s, &v);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn sparse_transpose_agrees_with_dense(m in dense_matrix(10)) {
        let s = Csr::from_dense(&m);
        prop_assert_eq!(s.transpose().to_dense(), m.transpose());
    }

    #[test]
    fn gemm_distributes_over_add(a in dense_matrix(6)) {
        // (A + A) * I == 2 * (A * I)
        let i = Dense::identity(a.cols());
        let lhs = ops::gemm(&ops::add(&a, &a), &i);
        let rhs = ops::scale(&ops::gemm(&a, &i), 2.0);
        prop_assert!(lhs.approx_eq(&rhs, 1e-9));
    }

    #[test]
    fn crossprod_is_symmetric_psd_diagonal(m in dense_matrix(8)) {
        let g = ops::crossprod(&m);
        for i in 0..g.rows() {
            prop_assert!(g.get(i, i) >= -1e-9, "diagonal of Gram matrix must be nonnegative");
            for j in 0..g.cols() {
                prop_assert!((g.get(i, j) - g.get(j, i)).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn col_sums_equal_total(m in dense_matrix(12)) {
        let total: f64 = ops::col_sums(&m).iter().sum();
        prop_assert!((total - ops::sum(&m)).abs() < 1e-7);
        let total_rows: f64 = ops::row_sums(&m).iter().sum();
        prop_assert!((total_rows - ops::sum(&m)).abs() < 1e-7);
    }

    #[test]
    fn dot_is_commutative(v in vector(32), w in vector(32)) {
        prop_assert!((ops::dot(&v, &w) - ops::dot(&w, &v)).abs() < 1e-9);
    }

    #[test]
    fn coo_insertion_order_irrelevant(mut entries in proptest::collection::vec((0usize..8, 0usize..8, -10.0..10.0f64), 0..40)) {
        let build = |es: &[(usize, usize, f64)]| {
            let mut coo = Coo::new(8, 8);
            for &(r, c, v) in es {
                coo.push(r, c, v).unwrap();
            }
            coo.to_csr().to_dense()
        };
        let forward = build(&entries);
        entries.reverse();
        let backward = build(&entries);
        prop_assert!(forward.approx_eq(&backward, 1e-9));
    }

    #[test]
    fn cholesky_solves_random_spd(b in dense_matrix(6)) {
        // A = B^T B + n*I is SPD and well-conditioned enough for the test.
        let mut a = ops::crossprod(&b);
        let n = a.rows();
        for i in 0..n {
            a.set(i, i, a.get(i, i) + n as f64 + 1.0);
        }
        let x_true: Vec<f64> = (0..n).map(|i| i as f64 - 1.5).collect();
        let rhs = ops::gemv(&a, &x_true);
        let x = solve::solve_spd(&a, &rhs).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            prop_assert!((xi - ti).abs() < 1e-6);
        }
    }

    #[test]
    fn cg_agrees_with_cholesky(b in dense_matrix(6)) {
        let mut a = ops::crossprod(&b);
        let n = a.rows();
        for i in 0..n {
            a.set(i, i, a.get(i, i) + n as f64 + 1.0);
        }
        let rhs: Vec<f64> = (0..n).map(|i| (i % 3) as f64).collect();
        let direct = solve::solve_spd(&a, &rhs).unwrap();
        let iterative = solve::cg_dense(&a, &rhs, solve::CgOptions::default()).unwrap();
        for (p, q) in direct.iter().zip(&iterative) {
            prop_assert!((p - q).abs() < 1e-5);
        }
    }

    #[test]
    fn hcat_slice_inverse(a in dense_matrix(8)) {
        let h = a.hcat(&a);
        let left = h.slice(0, a.rows(), 0, a.cols());
        let right = h.slice(0, a.rows(), a.cols(), 2 * a.cols());
        prop_assert_eq!(&left, &a);
        prop_assert_eq!(&right, &a);
    }
}

/// Strategy: a dense matrix whose shape may be degenerate (zero rows or
/// columns, single row, single column) — the edge cases a row-partitioner
/// must survive.
fn maybe_empty_matrix(max_dim: usize) -> impl Strategy<Value = Dense> {
    (0..=max_dim, 0..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-100.0..100.0f64, r * c)
            .prop_map(move |data| Dense::from_vec(r, c, data).unwrap())
    })
}

/// Degrees every parallel kernel is exercised at: serial, the smallest real
/// split, and the machine's core count.
fn sweep_degrees() -> [usize; 3] {
    [1, 2, std::thread::available_parallelism().map_or(4, |n| n.get()).max(3)]
}

proptest! {
    // The parallel kernels promise bit-identical results to the serial ops at
    // every degree: partitions are fixed-size blocks folded in index order,
    // never degree-dependent, so `assert_eq!` on raw f64s is the contract.
    #[test]
    fn par_gemv_bit_identical(m in maybe_empty_matrix(10)) {
        let v: Vec<f64> = (0..m.cols()).map(|i| i as f64 * 0.7 - 2.0).collect();
        let serial = ops::gemv(&m, &v);
        for deg in sweep_degrees() {
            prop_assert_eq!(&par::gemv(&m, &v, deg), &serial, "degree {}", deg);
        }
    }

    #[test]
    fn par_gemm_bit_identical((r, k, c) in (0usize..7, 0usize..7, 0usize..7),
                              seed in 0u64..1000) {
        let a = Dense::from_fn(r, k, |i, j| ((i * 13 + j * 7 + seed as usize) % 29) as f64 - 11.0);
        let b = Dense::from_fn(k, c, |i, j| ((i * 5 + j * 17 + seed as usize) % 31) as f64 - 13.0);
        let serial = ops::gemm(&a, &b);
        for deg in sweep_degrees() {
            prop_assert_eq!(par::gemm(&a, &b, deg).data(), serial.data(), "degree {}", deg);
        }
    }

    #[test]
    fn par_gevm_bit_identical(m in maybe_empty_matrix(10)) {
        let v: Vec<f64> = (0..m.rows()).map(|i| i as f64 * 0.3 - 1.0).collect();
        let serial = ops::gevm(&v, &m);
        for deg in sweep_degrees() {
            prop_assert_eq!(&par::gevm(&v, &m, deg), &serial, "degree {}", deg);
        }
    }

    #[test]
    fn par_col_sums_bit_identical(m in maybe_empty_matrix(12)) {
        let serial = ops::col_sums(&m);
        for deg in sweep_degrees() {
            prop_assert_eq!(&par::col_sums(&m, deg), &serial, "degree {}", deg);
        }
    }

    #[test]
    fn par_sum_sq_bit_identical(m in maybe_empty_matrix(12)) {
        let serial = ops::sum_sq(&m);
        for deg in sweep_degrees() {
            prop_assert_eq!(par::sum_sq(&m, deg).to_bits(), serial.to_bits(), "degree {}", deg);
        }
    }

    #[test]
    fn par_crossprod_bit_identical(m in maybe_empty_matrix(9)) {
        let serial = ops::crossprod(&m);
        for deg in sweep_degrees() {
            prop_assert_eq!(par::crossprod(&m, deg).data(), serial.data(), "degree {}", deg);
        }
    }
}
