//! Property-based tests for the matrix substrate.

use dm_matrix::{ops, solve, Coo, Csr, Dense};
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
