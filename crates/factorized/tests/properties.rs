//! Property-based tests: every operator on the normalized matrix (CLA's
//! kernels over its column groups) must agree with its materialized
//! counterpart for arbitrary star schemas.

use dm_factorized::{DimTable, NormalizedMatrix};
use dm_matrix::{ops, Dense};
use proptest::prelude::*;

/// One dimension table of `n_k` in `1..6` rows and `d_k` in `1..4` columns
/// referenced by `n` fact rows.
fn table(n: usize) -> impl Strategy<Value = DimTable> {
    (1usize..6, 1usize..4).prop_flat_map(move |(nk, dk)| {
        let vals = proptest::collection::vec(-5.0..5.0f64, nk * dk);
        let fk = proptest::collection::vec(0usize..nk, n);
        (vals, fk).prop_map(move |(v, fk)| {
            DimTable::new(Dense::from_vec(nk, dk, v).unwrap(), fk).unwrap()
        })
    })
}

/// Strategy: the parts of a random star schema — a fact block of 0–2
/// feature columns and 1–3 dimension tables, so cross-table blocks (DDC ×
/// DDC) and dimension-only matrices both occur.
fn star_parts() -> impl Strategy<Value = (Dense, Vec<DimTable>)> {
    (2usize..40, 0usize..3, 1usize..4).prop_flat_map(|(n, ds, q)| {
        let fact = proptest::collection::vec(-5.0..5.0f64, n * ds)
            .prop_map(move |v| Dense::from_vec(n, ds, v).unwrap());
        (fact, proptest::collection::vec(table(n), q))
    })
}

fn star() -> impl Strategy<Value = NormalizedMatrix> {
    star_parts().prop_map(|(s, tables)| NormalizedMatrix::new(s, tables).unwrap())
}

proptest! {
    #[test]
    fn gemv_agrees(nm in star()) {
        let w: Vec<f64> = (0..nm.cols()).map(|i| (i as f64) * 0.3 - 1.0).collect();
        let expect = ops::gemv(&nm.decompress(), &w);
        for (a, b) in nm.gemv(&w).iter().zip(&expect) {
            prop_assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn vecmat_agrees(nm in star()) {
        let v: Vec<f64> = (0..nm.rows()).map(|i| ((i % 7) as f64) - 3.0).collect();
        let expect = ops::gevm(&v, &nm.decompress());
        for (a, b) in nm.vecmat(&v).iter().zip(&expect) {
            prop_assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn crossprod_agrees(nm in star()) {
        let expect = ops::crossprod(&nm.decompress());
        let got = nm.crossprod();
        prop_assert!(got.approx_eq(&expect, 1e-7), "max diff {}", got.max_abs_diff(&expect));
    }

    #[test]
    fn col_stats_agree(nm in star()) {
        let m = nm.decompress();
        for (a, b) in nm.col_sums().iter().zip(&ops::col_sums(&m)) {
            prop_assert!((a - b).abs() < 1e-8);
        }
        for (a, b) in nm.col_means().iter().zip(&ops::col_means(&m)) {
            prop_assert!((a - b).abs() < 1e-8);
        }
        for (a, b) in nm.col_vars().iter().zip(&ops::col_vars(&m)) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn row_sums_agree(nm in star()) {
        // Row sums are a gemv against ones.
        let expect = ops::row_sums(&nm.decompress());
        for (a, b) in nm.gemv(&vec![1.0; nm.cols()]).iter().zip(&expect) {
            prop_assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn cell_accounting_identities((s, tables) in star_parts()) {
        // Exact accounting: physical = fact block + per table (dim block +
        // key column); logical = n x total columns. (Normalized storage is
        // *not* always smaller — a dimension table bigger than its usage
        // costs extra, and redundancy_ratio() correctly reports < 1 then.)
        let n = s.rows();
        let expected_physical = n * s.cols()
            + tables.iter().map(|t| t.features.rows() * t.features.cols() + n).sum::<usize>();
        let nm = NormalizedMatrix::new(s, tables).unwrap();
        prop_assert!(nm.validate().is_ok());
        prop_assert_eq!(nm.physical_cells(), expected_physical);
        prop_assert_eq!(nm.logical_cells(), n * nm.cols());
        let ratio = nm.redundancy_ratio();
        prop_assert!((ratio - nm.logical_cells() as f64 / nm.physical_cells() as f64).abs() < 1e-12);
    }
}
